package recovery_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/logrec"
	"plp/internal/recovery"
	"plp/internal/wal"
)

// newTestEngine creates an engine with one partitioned table "acct" (with a
// non-partition-aligned secondary index) and one clustered table "meta".
func newTestEngine(t *testing.T, design engine.Design) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Options{Design: design, Partitions: 4, SLI: design == engine.Conventional})
	boundaries := [][]byte{keyenc.Uint64Key(250), keyenc.Uint64Key(500), keyenc.Uint64Key(750)}
	if _, err := e.CreateTable(catalog.TableDef{
		Name:        "acct",
		Boundaries:  boundaries,
		Secondaries: []catalog.SecondaryDef{{Name: "by_name", PartitionAligned: false}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable(catalog.TableDef{Name: "meta", Boundaries: boundaries, Clustered: true}); err != nil {
		t.Fatal(err)
	}
	return e
}

// upsertReq builds a request inserting (or updating) key with value.
func upsertReq(table string, key uint64, value string, alsoSecondary bool) *engine.Request {
	k := keyenc.Uint64Key(key)
	return engine.NewRequest(engine.Action{
		Table: table,
		Key:   k,
		Exec: func(c *engine.Ctx) error {
			exists, err := c.Exists(table, k)
			if err != nil {
				return err
			}
			if exists {
				if err := c.Update(table, k, []byte(value)); err != nil {
					return err
				}
			} else {
				if err := c.Insert(table, k, []byte(value)); err != nil {
					return err
				}
				if alsoSecondary {
					sec := []byte(fmt.Sprintf("name-%06d", key))
					if err := c.InsertSecondary(table, "by_name", sec, k); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
}

// deleteReq builds a request deleting key.
func deleteReq(table string, key uint64) *engine.Request {
	k := keyenc.Uint64Key(key)
	return engine.NewRequest(engine.Action{
		Table: table,
		Key:   k,
		Exec:  func(c *engine.Ctx) error { return c.Delete(table, k) },
	})
}

// failingReq performs an insert and then fails, forcing an abort.
func failingReq(table string, key uint64) *engine.Request {
	k := keyenc.Uint64Key(key)
	return engine.NewRequest(engine.Action{
		Table: table,
		Key:   k,
		Exec: func(c *engine.Ctx) error {
			if err := c.Insert(table, k, []byte("doomed")); err != nil {
				return err
			}
			return fmt.Errorf("injected abort")
		},
	})
}

// dumpTable returns the full logical contents of a table.
func dumpTable(t *testing.T, e *engine.Engine, table string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	l := e.NewLoader()
	if err := l.ReadRange(table, nil, nil, func(k, rec []byte) bool {
		out[string(k)] = append([]byte(nil), rec...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// compareTables asserts both engines hold identical logical contents.
func compareTables(t *testing.T, want, got *engine.Engine, table string) {
	t.Helper()
	w := dumpTable(t, want, table)
	g := dumpTable(t, got, table)
	if len(w) != len(g) {
		t.Fatalf("table %s: %d keys recovered, want %d", table, len(g), len(w))
	}
	for k, v := range w {
		if !bytes.Equal(g[k], v) {
			t.Fatalf("table %s key %x: %x, want %x", table, k, g[k], v)
		}
	}
}

func TestRecoverEngineRoundTrip(t *testing.T) {
	for _, design := range engine.AllDesigns() {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			e := newTestEngine(t, design)
			defer e.Close()

			sess := e.NewSession()
			defer sess.Close()
			// Committed work.
			for i := uint64(1); i <= 200; i++ {
				if _, err := sess.Execute(upsertReq("acct", i, fmt.Sprintf("v%d", i), true)); err != nil {
					t.Fatal(err)
				}
				if _, err := sess.Execute(upsertReq("meta", i, fmt.Sprintf("m%d", i), false)); err != nil {
					t.Fatal(err)
				}
			}
			// Updates and deletes.
			for i := uint64(1); i <= 200; i += 4 {
				if _, err := sess.Execute(upsertReq("acct", i, fmt.Sprintf("v%d-updated", i), false)); err != nil {
					t.Fatal(err)
				}
			}
			for i := uint64(2); i <= 200; i += 10 {
				if _, err := sess.Execute(deleteReq("acct", i)); err != nil {
					t.Fatal(err)
				}
			}
			// Aborted work must not survive recovery.
			for i := uint64(900); i < 920; i++ {
				if _, err := sess.Execute(failingReq("acct", i)); err == nil {
					t.Fatal("failing request did not abort")
				}
			}

			// "Crash": discard the engine without any orderly shutdown and
			// recover from its log into a fresh engine with the same schema.
			target := newTestEngine(t, design)
			defer target.Close()
			a, st, err := recovery.Recover(e.Log(), target.NewLoader())
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Winners()) == 0 {
				t.Fatal("no winners found")
			}
			if st.Applied == 0 {
				t.Fatal("nothing replayed")
			}
			compareTables(t, e, target, "acct")
			compareTables(t, e, target, "meta")

			// Aborted keys must be absent.
			l := target.NewLoader()
			for i := uint64(900); i < 920; i++ {
				if ok, _ := l.Exists("acct", keyenc.Uint64Key(i)); ok {
					t.Fatalf("aborted key %d resurrected", i)
				}
			}
			// Secondary index must resolve recovered records.
			if _, err := l.Read("acct", keyenc.Uint64Key(1)); err != nil {
				t.Fatalf("recovered record unreadable: %v", err)
			}
		})
	}
}

func TestRecoverWithCheckpointAndTail(t *testing.T) {
	e := newTestEngine(t, engine.PLPLeaf)
	defer e.Close()

	// Bulk-loaded data is not logged; only the checkpoint captures it.
	loader := e.NewLoader()
	for i := uint64(1); i <= 300; i++ {
		if err := loader.Insert("acct", keyenc.Uint64Key(i), []byte(fmt.Sprintf("loaded-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := recovery.Checkpoint(e, 64)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries < 300 {
		t.Fatalf("checkpoint captured %d entries, want >= 300", st.Entries)
	}
	if st.Chunks < 300/64 {
		t.Fatalf("checkpoint used %d chunks, expected several", st.Chunks)
	}

	// Post-checkpoint transactional tail.
	sess := e.NewSession()
	defer sess.Close()
	for i := uint64(301); i <= 350; i++ {
		if _, err := sess.Execute(upsertReq("acct", i, fmt.Sprintf("tail-%d", i), false)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 20; i++ {
		if _, err := sess.Execute(deleteReq("acct", i)); err != nil {
			t.Fatal(err)
		}
	}

	target := newTestEngine(t, engine.PLPLeaf)
	defer target.Close()
	a, rst, err := recovery.Recover(e.Log(), target.NewLoader())
	if err != nil {
		t.Fatal(err)
	}
	if a.Snapshot == nil {
		t.Fatal("checkpoint not found during recovery")
	}
	if rst.SnapshotEntries < 300 {
		t.Fatalf("snapshot entries %d, want >= 300", rst.SnapshotEntries)
	}
	compareTables(t, e, target, "acct")
}

func TestRecoverAcrossDesigns(t *testing.T) {
	// A log written by a PLP engine must recover into a Conventional engine
	// (and vice versa): the log is logical and design-independent.
	src := newTestEngine(t, engine.PLPRegular)
	defer src.Close()
	sess := src.NewSession()
	defer sess.Close()
	for i := uint64(1); i <= 100; i++ {
		if _, err := sess.Execute(upsertReq("acct", i, fmt.Sprintf("x%d", i), false)); err != nil {
			t.Fatal(err)
		}
	}
	dst := newTestEngine(t, engine.Conventional)
	defer dst.Close()
	if _, _, err := recovery.Recover(src.Log(), dst.NewLoader()); err != nil {
		t.Fatal(err)
	}
	compareTables(t, src, dst, "acct")
}

// TestApplyOpsToEngine replays inserts, an update and deletes straight into
// engine loaders of every design, on a heap table and a clustered one: a
// logged insert of a present key overwrites it, and a delete of an absent
// key, which the engine reports as engine.ErrNotFound, is skipped.
func TestApplyOpsToEngine(t *testing.T) {
	for _, design := range []engine.Design{engine.Conventional, engine.PLPRegular, engine.PLPPartition, engine.PLPLeaf} {
		e := newTestEngine(t, design)
		l := e.NewLoader()
		for _, table := range []string{"acct", "meta"} {
			op := func(typ wal.RecordType, key uint64, after string) recovery.Op {
				m := logrec.Modification{Table: table, Key: keyenc.Uint64Key(key)}
				if after != "" {
					m.After = []byte(after)
				}
				return recovery.Op{Type: typ, Mod: m}
			}
			ops := []recovery.Op{
				op(wal.RecInsert, 1, "a"),
				op(wal.RecInsert, 2, "b"),
				op(wal.RecInsert, 1, "a2"),
				op(wal.RecUpdate, 2, "b2"),
				op(wal.RecDelete, 3, ""),
				op(wal.RecDelete, 2, ""),
				op(wal.RecDelete, 2, ""),
			}
			if err := recovery.ApplyOps(l, ops); err != nil {
				t.Fatalf("%v %s: %v", design, table, err)
			}
			if rec, err := l.Read(table, keyenc.Uint64Key(1)); err != nil || string(rec) != "a2" {
				t.Fatalf("%v %s: key 1 reads %q (%v), want a2", design, table, rec, err)
			}
			if ok, _ := l.Exists(table, keyenc.Uint64Key(2)); ok {
				t.Fatalf("%v %s: key 2 survived its delete", design, table)
			}
		}
		e.Close()
	}
}

func TestCheckpointEmptyEngine(t *testing.T) {
	e := newTestEngine(t, engine.Logical)
	defer e.Close()
	st, err := recovery.Checkpoint(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 0 || st.Chunks != 0 {
		t.Fatalf("empty engine checkpoint captured %d entries in %d chunks", st.Entries, st.Chunks)
	}
	if st.EndLSN == 0 {
		t.Fatal("end marker not written")
	}
	// Recovery of an empty checkpoint plus empty tail yields an empty engine.
	target := newTestEngine(t, engine.Logical)
	defer target.Close()
	if _, _, err := recovery.Recover(e.Log(), target.NewLoader()); err != nil {
		t.Fatal(err)
	}
	if n := len(dumpTable(t, target, "acct")); n != 0 {
		t.Fatalf("recovered %d rows from an empty engine", n)
	}
}

func TestCheckpointerBackground(t *testing.T) {
	e := newTestEngine(t, engine.PLPLeaf)
	defer e.Close()
	loader := e.NewLoader()
	for i := uint64(1); i <= 50; i++ {
		if err := loader.Insert("acct", keyenc.Uint64Key(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	cp := recovery.NewCheckpointer(e, 10*time.Millisecond)
	cp.Start()
	cp.Start() // second Start is a no-op
	defer cp.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for {
		taken, _, _, _ := cp.Stats()
		if taken >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer did not run")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cp.Stop()
	cp.Stop() // second Stop is a no-op

	taken, _, last, lastErr := cp.Stats()
	if taken < 2 || lastErr != nil {
		t.Fatalf("taken=%d lastErr=%v", taken, lastErr)
	}
	if last.Entries < 50 {
		t.Fatalf("last checkpoint captured %d entries, want >= 50", last.Entries)
	}

	// Manual trigger still works after Stop.
	if !cp.Trigger() {
		t.Fatal("manual trigger failed")
	}
}

func TestCheckpointBoundsReplayWork(t *testing.T) {
	// With a checkpoint late in the log, most operations should be skipped
	// as pre-checkpoint, demonstrating that checkpoints bound recovery work.
	e := newTestEngine(t, engine.Logical)
	defer e.Close()
	sess := e.NewSession()
	defer sess.Close()
	for i := uint64(1); i <= 150; i++ {
		if _, err := sess.Execute(upsertReq("acct", i, "pre", false)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := recovery.Checkpoint(e, 0); err != nil {
		t.Fatal(err)
	}
	for i := uint64(151); i <= 160; i++ {
		if _, err := sess.Execute(upsertReq("acct", i, "post", false)); err != nil {
			t.Fatal(err)
		}
	}
	target := newTestEngine(t, engine.Logical)
	defer target.Close()
	_, st, err := recovery.Recover(e.Log(), target.NewLoader())
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedPreCheckpoint < 150 {
		t.Fatalf("skipped pre-checkpoint %d, want >= 150", st.SkippedPreCheckpoint)
	}
	if st.Applied > 20 {
		t.Fatalf("applied %d ops, checkpoint should have bounded this to the tail", st.Applied)
	}
	compareTables(t, e, target, "acct")
}

// TestCheckpointChunkEncodingAndAllocs is the count gate on checkpointing:
// a checkpoint of a 10k-row table encodes every chunk once, copying each
// key and value straight into the chunk's payload, so it allocates a
// bounded number of objects per chunk, not per row.  The payloads it logs
// are byte for byte what EncodeCheckpointChunk encodes for the same
// chunks.  Both are independent of the machine.
func TestCheckpointChunkEncodingAndAllocs(t *testing.T) {
	const rows = 10000
	e := newTestEngine(t, engine.PLPLeaf)
	defer e.Close()
	l := e.NewLoader()
	for i := uint64(1); i <= rows; i++ {
		row := []byte(fmt.Sprintf("row-%06d-%090d", i, i))
		if err := l.Insert("acct", keyenc.Uint64Key(i), row); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 300; i++ {
		if err := l.InsertSecondary("acct", "by_name", []byte(fmt.Sprintf("name-%06d", i)), keyenc.Uint64Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	from := e.Log().CurrentLSN()
	st, err := recovery.Checkpoint(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != rows+300 {
		t.Fatalf("checkpoint captured %d entries, want %d", st.Entries, rows+300)
	}
	chunks := 0
	for _, rec := range e.Log().Records() {
		if rec.LSN < from || rec.Type != wal.RecCheckpoint {
			continue
		}
		c, ok, err := logrec.DecodeCheckpointChunk(rec.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		chunks++
		if want := logrec.EncodeCheckpointChunk(c); !bytes.Equal(rec.Payload, want) {
			t.Fatalf("chunk %d of %s.%s (%d entries) differs from EncodeCheckpointChunk's encoding", chunks, c.Table, c.Index, len(c.Keys))
		}
	}
	if chunks != st.Chunks {
		t.Fatalf("found %d chunk records, checkpoint reported %d", chunks, st.Chunks)
	}

	allocs := testing.AllocsPerRun(5, func() {
		if st, err = recovery.Checkpoint(e, 0); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(4 * st.Chunks); allocs > limit {
		t.Fatalf("checkpoint of %d entries in %d chunks made %.0f allocations, want <= %.0f (4 per chunk)",
			st.Entries, st.Chunks, allocs, limit)
	}
}
