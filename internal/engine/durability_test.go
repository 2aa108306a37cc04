package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"

	"plp/internal/catalog"
	"plp/internal/keyenc"
	"plp/internal/logrec"
	"plp/internal/wal"
)

// durableEngine opens a disk-backed engine with one partitioned table.
func durableEngine(t *testing.T, dir string, design Design) *Engine {
	t.Helper()
	e, err := Open(Options{Design: design, Partitions: 4, SLI: design == Conventional, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	boundaries := [][]byte{keyenc.Uint64Key(251), keyenc.Uint64Key(501), keyenc.Uint64Key(751)}
	if _, err := e.CreateTable(catalog.TableDef{Name: "kv", Boundaries: boundaries}); err != nil {
		t.Fatal(err)
	}
	return e
}

// put commits one upsert through a session.
func put(t *testing.T, sess *Session, key uint64, val string) {
	t.Helper()
	k := keyenc.Uint64Key(key)
	req := NewRequest(Action{Table: "kv", Key: k, Exec: func(c *Ctx) error {
		return c.Upsert("kv", k, []byte(val))
	}})
	if _, err := sess.Execute(req); err != nil {
		t.Fatal(err)
	}
}

// dump reads the table's full logical contents.
func dump(t *testing.T, e *Engine) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	if err := e.NewLoader().ReadRange("kv", nil, nil, func(k, rec []byte) bool {
		id, err := keyenc.DecodeUint64(k)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = string(rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOpenRecoverRebuildsAcknowledgedState(t *testing.T) {
	for _, design := range []Design{Conventional, PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			dir := t.TempDir()
			e := durableEngine(t, dir, design)
			sess := e.NewSession()

			// Pre-checkpoint history.
			for i := uint64(1); i <= 200; i++ {
				put(t, sess, i, fmt.Sprintf("v%d", i))
			}
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Post-checkpoint tail, including overwrites and deletes.
			for i := uint64(150); i <= 260; i++ {
				put(t, sess, i, fmt.Sprintf("tail%d", i))
			}
			k := keyenc.Uint64Key(7)
			if _, err := sess.Execute(NewRequest(Action{Table: "kv", Key: k, Exec: func(c *Ctx) error {
				return c.Delete("kv", k)
			}})); err != nil {
				t.Fatal(err)
			}
			want := dump(t, e)
			// Crash: no Close, no flush — every commit above was
			// acknowledged, so WaitDurable already put it on disk.

			re := durableEngine(t, dir, design)
			defer re.Close()
			info, err := re.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if info.Replay.SnapshotEntries == 0 {
				t.Fatal("recovery ignored the checkpoint snapshot")
			}
			if info.Replay.Applied == 0 {
				t.Fatal("recovery replayed no log tail")
			}
			got := dump(t, re)
			if len(got) != len(want) {
				t.Fatalf("recovered %d rows, want %d", len(got), len(want))
			}
			for id, v := range want {
				if got[id] != v {
					t.Fatalf("key %d recovered as %q, want %q", id, got[id], v)
				}
			}
			e.Close() // goroutine hygiene for the abandoned instance
		})
	}
}

func TestRecoverRestoresMovedBoundaries(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, PLPLeaf)
	sess := e.NewSession()
	for i := uint64(1); i <= 400; i++ {
		put(t, sess, i, "x")
	}
	// Shift two boundaries away from the schema defaults, as the online
	// repartitioning controller would under skew.
	if _, err := e.Rebalance("kv", 1, keyenc.Uint64Key(101)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Rebalance("kv", 2, keyenc.Uint64Key(353)); err != nil {
		t.Fatal(err)
	}
	moved, err := e.Boundaries("kv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic, then crash.
	for i := uint64(401); i <= 450; i++ {
		put(t, sess, i, "post")
	}
	want := dump(t, e)

	re := durableEngine(t, dir, PLPLeaf)
	defer re.Close()
	info, err := re.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.BoundariesRestored == 0 {
		t.Fatal("recovery restored no boundaries")
	}
	got, err := re.Boundaries("kv")
	if err != nil {
		t.Fatal(err)
	}
	for i := range moved {
		if !bytes.Equal(got[i], moved[i]) {
			t.Fatalf("boundary %d recovered as %x, want %x", i, got[i], moved[i])
		}
	}
	if g := dump(t, re); len(g) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(g), len(want))
	}
	e.Close()
}

func TestCheckpointStateProviderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, PLPLeaf)
	sess := e.NewSession()
	put(t, sess, 1, "v")

	blob := []byte("controller-histograms-v1")
	e.SetCheckpointStateProvider(func() []byte { return blob })
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	re := durableEngine(t, dir, PLPLeaf)
	defer re.Close()
	info, err := re.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !info.ControllerState {
		t.Fatal("recovery found no controller state")
	}
	if !bytes.Equal(re.RecoveredControllerState(), blob) {
		t.Fatalf("recovered state %q, want %q", re.RecoveredControllerState(), blob)
	}
	e.Close()
}

// TestRecoverLogWithStructuralRecords checks that a log of an earlier
// build, which logged an SMO record per page split (carrying the splitting
// transaction's ID) and a repartition record per boundary move, still
// recovers: analysis skips both kinds, and the committed rows come back.
// The log is built by hand in log format 2, the format those builds wrote.
func TestRecoverLogWithStructuralRecords(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.OpenDurable(filepath.Join(dir, "wal"), wal.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]string{}
	for txn := uint64(1); txn <= 3; txn++ {
		for i := uint64(0); i < 4; i++ {
			key := 100*txn + i
			want[key] = fmt.Sprintf("v%d", key)
			log.Append(&wal.Record{Txn: txn, Type: wal.RecInsert, Payload: logrec.EncodeModification(logrec.Modification{
				Table: "kv", Key: keyenc.Uint64Key(key), After: []byte(want[key]),
			})})
			log.Append(&wal.Record{Txn: txn, Type: wal.RecSMO, Payload: binary.AppendUvarint(nil, 40+key)})
		}
		log.Append(&wal.Record{Type: wal.RecRepartition, Payload: binary.AppendUvarint(nil, 9)})
		log.Append(&wal.Record{Txn: txn, Type: wal.RecCommit})
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	e := durableEngine(t, dir, PLPLeaf)
	defer e.Close()
	info, err := e.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.Winners != 3 || info.Losers != 0 || info.Replay.Applied != len(want) {
		t.Fatalf("recovered %d winners, %d losers and %d operations; want 3, 0 and %d",
			info.Winners, info.Losers, info.Replay.Applied, len(want))
	}
	got := dump(t, e)
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d recovered as %q, want %q", k, got[k], v)
		}
	}
}
