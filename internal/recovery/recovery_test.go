package recovery_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"plp/internal/logrec"
	"plp/internal/recovery"
	"plp/internal/wal"
)

// fakeTarget is an in-memory Target used by the unit tests.
type fakeTarget struct {
	tables      map[string]map[string][]byte
	secondaries map[string]map[string][]byte
	failOn      string // table name whose operations fail (failure injection)
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{
		tables:      make(map[string]map[string][]byte),
		secondaries: make(map[string]map[string][]byte),
	}
}

func (f *fakeTarget) tbl(name string) map[string][]byte {
	t, ok := f.tables[name]
	if !ok {
		t = make(map[string][]byte)
		f.tables[name] = t
	}
	return t
}

func (f *fakeTarget) idx(table, index string) map[string][]byte {
	key := table + "." + index
	t, ok := f.secondaries[key]
	if !ok {
		t = make(map[string][]byte)
		f.secondaries[key] = t
	}
	return t
}

func (f *fakeTarget) Upsert(table string, key, rec []byte) error {
	if table == f.failOn {
		return fmt.Errorf("injected failure on %s", table)
	}
	f.tbl(table)[string(key)] = append([]byte(nil), rec...)
	return nil
}

func (f *fakeTarget) Update(table string, key, rec []byte) error {
	if table == f.failOn {
		return fmt.Errorf("injected failure on %s", table)
	}
	t := f.tbl(table)
	if _, ok := t[string(key)]; !ok {
		return fmt.Errorf("missing key %x", key)
	}
	t[string(key)] = append([]byte(nil), rec...)
	return nil
}

func (f *fakeTarget) Delete(table string, key []byte) error {
	if table == f.failOn {
		return fmt.Errorf("injected failure on %s", table)
	}
	t := f.tbl(table)
	if _, ok := t[string(key)]; !ok {
		return fmt.Errorf("%w: %x", recovery.ErrNotFound, key)
	}
	delete(t, string(key))
	return nil
}

func (f *fakeTarget) Read(table string, key []byte) ([]byte, error) {
	rec, ok := f.tbl(table)[string(key)]
	if !ok {
		return nil, fmt.Errorf("missing key %x", key)
	}
	return rec, nil
}

func (f *fakeTarget) InsertSecondary(table, index string, secKey, primaryKey []byte) error {
	f.idx(table, index)[string(secKey)] = append([]byte(nil), primaryKey...)
	return nil
}

func (f *fakeTarget) DeleteSecondary(table, index string, secKey []byte) error {
	delete(f.idx(table, index), string(secKey))
	return nil
}

// appendMod appends one modification record to the log on behalf of txn.
func appendMod(log wal.Log, txn uint64, t wal.RecordType, m logrec.Modification) wal.LSN {
	return log.Append(&wal.Record{Txn: txn, Type: t, Payload: logrec.EncodeModification(m)})
}

func appendCommit(log wal.Log, txn uint64) { log.Append(&wal.Record{Txn: txn, Type: wal.RecCommit}) }
func appendAbort(log wal.Log, txn uint64)  { log.Append(&wal.Record{Txn: txn, Type: wal.RecAbort}) }

func TestAnalyzeNilLog(t *testing.T) {
	if _, err := recovery.Analyze(nil); err == nil {
		t.Fatal("Analyze(nil) should fail")
	}
}

func TestAnalyzeOutcomes(t *testing.T) {
	log := wal.NewNaive(nil)
	appendMod(log, 1, wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("a"), After: []byte("1")})
	appendCommit(log, 1)
	appendMod(log, 2, wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("b"), After: []byte("2")})
	appendAbort(log, 2)
	appendMod(log, 3, wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("c"), After: []byte("3")})
	// txn 3 never resolves: in-flight at the crash.

	a, err := recovery.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcomes[1] != recovery.OutcomeCommitted || a.Outcomes[2] != recovery.OutcomeAborted || a.Outcomes[3] != recovery.OutcomeInFlight {
		t.Fatalf("unexpected outcomes: %+v", a.Outcomes)
	}
	if len(a.Ops) != 3 {
		t.Fatalf("want 3 ops, got %d", len(a.Ops))
	}
	if len(a.Winners()) != 1 || len(a.Losers()) != 2 {
		t.Fatalf("winners=%v losers=%v", a.Winners(), a.Losers())
	}
	if a.TotalRecords != 5 {
		t.Fatalf("want 5 records scanned, got %d", a.TotalRecords)
	}
}

func TestAnalyzeSkipsStructuralAndLegacyRecords(t *testing.T) {
	log := wal.NewNaive(nil)
	log.Append(&wal.Record{Type: wal.RecSMO, Payload: []byte{7}})
	log.Append(&wal.Record{Type: wal.RecRepartition, Payload: []byte{9}})
	// A legacy bare-key payload that is not a logrec modification.
	log.Append(&wal.Record{Txn: 5, Type: wal.RecInsert, Payload: []byte("bare-key")})
	appendCommit(log, 5)

	a, err := recovery.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if a.StructuralRecords != 2 {
		t.Fatalf("want 2 structural records, got %d", a.StructuralRecords)
	}
	if a.UnparsedRecords != 1 {
		t.Fatalf("want 1 unparsed record, got %d", a.UnparsedRecords)
	}
	if len(a.Ops) != 0 {
		t.Fatalf("legacy payload should not produce ops, got %d", len(a.Ops))
	}
}

func TestAnalyzeOpsSortedByLSN(t *testing.T) {
	log := wal.NewConsolidated(nil) // shard order differs from LSN order internally
	for i := 0; i < 100; i++ {
		appendMod(log, uint64(i%5+1), wal.RecInsert, logrec.Modification{Table: "t", Key: []byte{byte(i)}, After: []byte{byte(i)}})
	}
	a, err := recovery.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a.Ops); i++ {
		if a.Ops[i].LSN <= a.Ops[i-1].LSN {
			t.Fatalf("ops not in LSN order at %d: %d <= %d", i, a.Ops[i].LSN, a.Ops[i-1].LSN)
		}
	}
}

func TestAnalyzeCheckpointParsing(t *testing.T) {
	log := wal.NewNaive(nil)
	// Pre-checkpoint committed op, already reflected in the snapshot.
	appendMod(log, 1, wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("a"), After: []byte("old")})
	appendCommit(log, 1)

	begin := log.Append(&wal.Record{Type: wal.RecCheckpoint, Payload: logrec.EncodeCheckpointChunk(logrec.CheckpointChunk{
		Table:  "t",
		Keys:   [][]byte{[]byte("a")},
		Values: [][]byte{[]byte("old")},
	})})
	log.Append(&wal.Record{Type: wal.RecCheckpoint, Payload: logrec.EncodeCheckpointChunk(logrec.CheckpointChunk{
		Table:  "t",
		Index:  "by_name",
		Keys:   [][]byte{[]byte("name-a")},
		Values: [][]byte{[]byte("a")},
	})})
	log.Append(&wal.Record{Type: wal.RecCheckpoint, Payload: logrec.EncodeCheckpointEnd(logrec.CheckpointEnd{
		BeginLSN: uint64(begin), Chunks: 2, Tables: 1,
	})})

	// Post-checkpoint committed op.
	appendMod(log, 2, wal.RecUpdate, logrec.Modification{Table: "t", Key: []byte("a"), After: []byte("new")})
	appendCommit(log, 2)

	a, err := recovery.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if a.Snapshot == nil {
		t.Fatal("snapshot not found")
	}
	if a.Snapshot.BeginLSN != begin {
		t.Fatalf("begin LSN %d, want %d", a.Snapshot.BeginLSN, begin)
	}
	if len(a.Snapshot.Chunks) != 2 || a.Snapshot.Entries() != 2 {
		t.Fatalf("unexpected snapshot: %d chunks, %d entries", len(a.Snapshot.Chunks), a.Snapshot.Entries())
	}

	ft := newFakeTarget()
	st, err := recovery.Replay(a, ft)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotEntries != 2 {
		t.Fatalf("snapshot entries %d, want 2", st.SnapshotEntries)
	}
	if st.SkippedPreCheckpoint != 1 {
		t.Fatalf("skipped pre-checkpoint %d, want 1", st.SkippedPreCheckpoint)
	}
	if st.Applied != 1 {
		t.Fatalf("applied %d, want 1", st.Applied)
	}
	if got := ft.tbl("t")["a"]; string(got) != "new" {
		t.Fatalf("recovered value %q, want %q", got, "new")
	}
	if got := ft.idx("t", "by_name")["name-a"]; string(got) != "a" {
		t.Fatalf("recovered secondary entry %q, want %q", got, "a")
	}
}

func TestAnalyzeIncompleteCheckpointIgnored(t *testing.T) {
	log := wal.NewNaive(nil)
	log.Append(&wal.Record{Type: wal.RecCheckpoint, Payload: logrec.EncodeCheckpointChunk(logrec.CheckpointChunk{
		Table: "t", Keys: [][]byte{[]byte("a")}, Values: [][]byte{[]byte("1")},
	})})
	// Crash before the end marker: the checkpoint must be ignored.
	a, err := recovery.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if a.Snapshot != nil {
		t.Fatal("incomplete checkpoint should be ignored")
	}
}

func TestAnalyzeUsesLatestCompleteCheckpoint(t *testing.T) {
	log := wal.NewNaive(nil)
	mkCheckpoint := func(val string) {
		begin := log.Append(&wal.Record{Type: wal.RecCheckpoint, Payload: logrec.EncodeCheckpointChunk(logrec.CheckpointChunk{
			Table: "t", Keys: [][]byte{[]byte("k")}, Values: [][]byte{[]byte(val)},
		})})
		log.Append(&wal.Record{Type: wal.RecCheckpoint, Payload: logrec.EncodeCheckpointEnd(logrec.CheckpointEnd{BeginLSN: uint64(begin), Chunks: 1, Tables: 1})})
	}
	mkCheckpoint("first")
	mkCheckpoint("second")

	a, err := recovery.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if a.Snapshot == nil || len(a.Snapshot.Chunks) != 1 {
		t.Fatal("latest checkpoint not selected")
	}
	if string(a.Snapshot.Chunks[0].Values[0]) != "second" {
		t.Fatalf("selected checkpoint value %q, want %q", a.Snapshot.Chunks[0].Values[0], "second")
	}
}

func TestReplayAppliesOnlyWinners(t *testing.T) {
	log := wal.NewNaive(nil)
	appendMod(log, 1, wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("a"), After: []byte("1")})
	appendCommit(log, 1)
	appendMod(log, 2, wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("b"), After: []byte("2")})
	appendAbort(log, 2)
	appendMod(log, 3, wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("c"), After: []byte("3")})

	ft := newFakeTarget()
	a, st, err := recovery.Recover(log, ft)
	if err != nil {
		t.Fatal(err)
	}
	if a == nil {
		t.Fatal("nil analysis")
	}
	if st.Applied != 1 || st.SkippedLoser != 2 {
		t.Fatalf("applied=%d skippedLoser=%d", st.Applied, st.SkippedLoser)
	}
	if _, ok := ft.tbl("t")["a"]; !ok {
		t.Fatal("committed insert missing after recovery")
	}
	if _, ok := ft.tbl("t")["b"]; ok {
		t.Fatal("aborted insert applied")
	}
	if _, ok := ft.tbl("t")["c"]; ok {
		t.Fatal("in-flight insert applied")
	}
}

func TestReplayUpsertAndMissingDeleteSemantics(t *testing.T) {
	log := wal.NewNaive(nil)
	// Update of a key that was never inserted (its insert predates the log,
	// e.g. loaded data without a checkpoint): must become an insert.
	appendMod(log, 1, wal.RecUpdate, logrec.Modification{Table: "t", Key: []byte("u"), After: []byte("v")})
	// Delete of a key that is not present: must be a no-op, not an error.
	appendMod(log, 1, wal.RecDelete, logrec.Modification{Table: "t", Key: []byte("missing")})
	// Insert seen twice (e.g. snapshot already contains it): second apply
	// must degrade to an update.
	appendMod(log, 1, wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("u"), After: []byte("v2")})
	appendCommit(log, 1)

	ft := newFakeTarget()
	if _, _, err := recovery.Recover(log, ft); err != nil {
		t.Fatal(err)
	}
	if got := ft.tbl("t")["u"]; string(got) != "v2" {
		t.Fatalf("value %q, want %q", got, "v2")
	}
	if _, ok := ft.tbl("t")["missing"]; ok {
		t.Fatal("missing key resurrected")
	}
}

// TestReplayPatches checks that patch records rewrite only their bytes of
// the record the snapshot and earlier operations left, that the losers'
// patches are skipped, and that replaying twice converges.
func TestReplayPatches(t *testing.T) {
	log := wal.NewNaive(nil)
	appendMod(log, 1, wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("a"), After: []byte("aaaaaaaa")})
	appendCommit(log, 1)
	begin := log.Append(&wal.Record{Type: wal.RecCheckpoint, Payload: logrec.EncodeCheckpointChunk(logrec.CheckpointChunk{
		Table: "t", Keys: [][]byte{[]byte("a"), []byte("b")}, Values: [][]byte{[]byte("aaaaaaaa"), []byte("bbbb")},
	})})
	log.Append(&wal.Record{Type: wal.RecCheckpoint, Payload: logrec.EncodeCheckpointEnd(logrec.CheckpointEnd{BeginLSN: uint64(begin), Chunks: 1, Tables: 1})})
	// A patch of a row that only the snapshot holds, then a second patch
	// of the same row by a later transaction.
	appendMod(log, 2, wal.RecUpdate, logrec.Modification{Table: "t", Key: []byte("b"), At: logrec.PatchAt(1), After: []byte("XY")})
	appendCommit(log, 2)
	appendMod(log, 3, wal.RecUpdate, logrec.Modification{Table: "t", Key: []byte("b"), At: logrec.PatchAt(3), After: []byte("Z")})
	appendMod(log, 3, wal.RecUpdate, logrec.Modification{Table: "t", Key: []byte("a"), At: logrec.PatchAt(0), After: []byte("1")})
	appendCommit(log, 3)
	appendMod(log, 4, wal.RecUpdate, logrec.Modification{Table: "t", Key: []byte("a"), At: logrec.PatchAt(4), After: []byte("loser")})
	appendAbort(log, 4)

	a, err := recovery.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	ft := newFakeTarget()
	for pass := 0; pass < 2; pass++ {
		st, err := recovery.Replay(a, ft)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if st.Applied != 3 || st.SkippedLoser != 1 {
			t.Fatalf("pass %d: applied %d, skipped %d losers; want 3 and 1", pass, st.Applied, st.SkippedLoser)
		}
		if got := string(ft.tbl("t")["a"]); got != "1aaaaaaa" {
			t.Fatalf("pass %d: a = %q, want %q", pass, got, "1aaaaaaa")
		}
		if got := string(ft.tbl("t")["b"]); got != "bXYZ" {
			t.Fatalf("pass %d: b = %q, want %q", pass, got, "bXYZ")
		}
	}
}

// TestReplayPatchErrors: a patch that cannot apply fails the replay; it is
// never skipped, since skipping it would lose a committed update.
func TestReplayPatchErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		typ wal.RecordType
		mod logrec.Modification
	}{
		"missing record":   {wal.RecUpdate, logrec.Modification{Table: "t", Key: []byte("nope"), At: logrec.PatchAt(0), After: []byte("x")}},
		"record too short": {wal.RecUpdate, logrec.Modification{Table: "t", Key: []byte("a"), At: logrec.PatchAt(3), After: []byte("xy")}},
		"patch as insert":  {wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("a"), At: logrec.PatchAt(0), After: []byte("x")}},
		"secondary patch":  {wal.RecUpdate, logrec.Modification{Table: "t", Index: "i", Key: []byte("a"), At: logrec.PatchAt(0), After: []byte("x")}},
	} {
		log := wal.NewNaive(nil)
		appendMod(log, 1, wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("a"), After: []byte("abcd")})
		appendMod(log, 1, tc.typ, tc.mod)
		appendCommit(log, 1)
		if _, _, err := recovery.Recover(log, newFakeTarget()); err == nil {
			t.Fatalf("%s: replay succeeded", name)
		}
	}
}

func TestReplaySecondaryOps(t *testing.T) {
	log := wal.NewNaive(nil)
	appendMod(log, 1, wal.RecInsert, logrec.Modification{Table: "t", Key: []byte("pk"), After: []byte("rec")})
	appendMod(log, 1, wal.RecInsert, logrec.Modification{Table: "t", Index: "by_x", Key: []byte("x1"), After: []byte("pk")})
	appendCommit(log, 1)
	appendMod(log, 2, wal.RecDelete, logrec.Modification{Table: "t", Index: "by_x", Key: []byte("x1")})
	appendCommit(log, 2)
	appendMod(log, 3, wal.RecInsert, logrec.Modification{Table: "t", Index: "by_x", Key: []byte("x2"), After: []byte("pk")})
	appendAbort(log, 3)

	ft := newFakeTarget()
	if _, _, err := recovery.Recover(log, ft); err != nil {
		t.Fatal(err)
	}
	if _, ok := ft.idx("t", "by_x")["x1"]; ok {
		t.Fatal("deleted secondary entry still present")
	}
	if _, ok := ft.idx("t", "by_x")["x2"]; ok {
		t.Fatal("aborted secondary insert applied")
	}
	if string(ft.tbl("t")["pk"]) != "rec" {
		t.Fatal("primary record missing")
	}
}

func TestReplayIdempotent(t *testing.T) {
	log := wal.NewNaive(nil)
	for i := 0; i < 50; i++ {
		key := []byte{byte(i)}
		appendMod(log, uint64(i+1), wal.RecInsert, logrec.Modification{Table: "t", Key: key, After: []byte{byte(i), 0xAA}})
		if i%3 == 0 {
			appendMod(log, uint64(i+1), wal.RecDelete, logrec.Modification{Table: "t", Key: key})
		}
		appendCommit(log, uint64(i+1))
	}
	a, err := recovery.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	ft := newFakeTarget()
	if _, err := recovery.Replay(a, ft); err != nil {
		t.Fatal(err)
	}
	once := len(ft.tbl("t"))
	// Replaying again on the same target must converge to the same state.
	if _, err := recovery.Replay(a, ft); err != nil {
		t.Fatal(err)
	}
	if len(ft.tbl("t")) != once {
		t.Fatalf("second replay changed table size: %d != %d", len(ft.tbl("t")), once)
	}
}

func TestReplayPropagatesTargetErrors(t *testing.T) {
	log := wal.NewNaive(nil)
	appendMod(log, 1, wal.RecInsert, logrec.Modification{Table: "bad", Key: []byte("a"), After: []byte("1")})
	appendCommit(log, 1)

	ft := newFakeTarget()
	ft.failOn = "bad"
	if _, _, err := recovery.Recover(log, ft); err == nil {
		t.Fatal("injected target failure not propagated")
	}
}

// TestReplayMatchesDirectApplicationProperty drives a random schedule of
// committed and aborted transactions, applies the committed ones directly to
// a reference map, and checks that recovery reaches the same state.
func TestReplayMatchesDirectApplicationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 30; iter++ {
		log := wal.NewNaive(nil)
		reference := make(map[string][]byte)

		nTxns := 20 + rng.Intn(30)
		for tx := uint64(1); tx <= uint64(nTxns); tx++ {
			commit := rng.Intn(4) != 0 // 75% commit
			local := make(map[string][]byte)
			deleted := make(map[string]bool)
			nOps := 1 + rng.Intn(5)
			for o := 0; o < nOps; o++ {
				key := []byte{byte(rng.Intn(32))}
				val := []byte{byte(rng.Intn(256)), byte(iter)}
				switch rng.Intn(3) {
				case 0, 1: // upsert
					appendMod(log, tx, wal.RecUpdate, logrec.Modification{Table: "t", Key: key, After: val})
					local[string(key)] = val
					delete(deleted, string(key))
				case 2: // delete
					appendMod(log, tx, wal.RecDelete, logrec.Modification{Table: "t", Key: key})
					deleted[string(key)] = true
					delete(local, string(key))
				}
			}
			if commit {
				appendCommit(log, tx)
				for k, v := range local {
					reference[k] = v
				}
				for k := range deleted {
					delete(reference, k)
				}
			} else {
				appendAbort(log, tx)
			}
		}

		ft := newFakeTarget()
		if _, _, err := recovery.Recover(log, ft); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got := ft.tbl("t")
		if len(got) != len(reference) {
			t.Fatalf("iter %d: %d keys recovered, want %d", iter, len(got), len(reference))
		}
		for k, v := range reference {
			if !bytes.Equal(got[k], v) {
				t.Fatalf("iter %d: key %x = %x, want %x", iter, k, got[k], v)
			}
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if recovery.OutcomeCommitted.String() != "committed" || recovery.OutcomeAborted.String() != "aborted" || recovery.OutcomeInFlight.String() != "in-flight" {
		t.Fatal("outcome labels wrong")
	}
	if recovery.Outcome(99).String() == "" {
		t.Fatal("unknown outcome should still render")
	}
}
