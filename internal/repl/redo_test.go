package repl

import (
	"math/rand"
	"testing"

	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/wal"
	"plp/plan"
)

const (
	redoTable = "acct"
	redoKeys  = 48
	// A row is an int64 balance followed by an 8-byte field.
	redoRowBytes = 16
)

// openRedoEngine opens a durable PLP-Leaf engine on dir with the
// differential's one table.
func openRedoEngine(t *testing.T, dir string) *engine.Engine {
	t.Helper()
	e, err := engine.Open(engine.Options{Design: engine.PLPLeaf, Partitions: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bounds := [][]byte{keyenc.Uint64Key(redoKeys/4 + 1), keyenc.Uint64Key(redoKeys/2 + 1), keyenc.Uint64Key(3*redoKeys/4 + 1)}
	if _, err := e.CreateTable(catalog.TableDef{Name: redoTable, Boundaries: bounds}); err != nil {
		t.Fatal(err)
	}
	return e
}

// redoDump returns every row of the table, keyed by its key.
func redoDump(t *testing.T, e *engine.Engine) map[string]string {
	t.Helper()
	out := make(map[string]string)
	if err := e.NewLoader().ReadRange(redoTable, nil, nil, func(k, rec []byte) bool {
		out[string(k)] = string(rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameRows(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: row %x = %x, want %x", what, k, got[k], v)
		}
	}
}

// redoPlan draws one transaction of the differential's mix: one or two ops
// among Insert, Delete, SetField, AddFieldInt64 and CompareAndSet on random
// keys, distinct within the transaction.  The draw leans on the live rows
// so that most ops apply, but an op on a missing key or an insert of an
// existing one still fails and aborts the whole transaction, so some
// transactions log patches and then abort.  A CompareAndSet expects the
// row's live value half the time.
func redoPlan(rng *rand.Rand, live map[string]string) *plan.Plan {
	b := plan.New()
	first := 0
	for n := 1 + rng.Intn(2); n > 0; n-- {
		id := 1 + rng.Intn(redoKeys)
		if id == first {
			id = id%redoKeys + 1 // one phase writes a key once
		}
		first = id
		k := keyenc.Uint64Key(uint64(id))
		_, exists := live[string(k)]
		kind := rng.Intn(20)
		switch {
		case !exists && kind < 15, exists && kind == 0:
			row := make([]byte, redoRowBytes)
			rng.Read(row)
			b.Insert(redoTable, k, row)
		case kind < 3:
			b.Delete(redoTable, k)
		case kind < 9:
			field := make([]byte, 1+rng.Intn(8))
			rng.Read(field)
			b.SetField(redoTable, k, uint32(rng.Intn(redoRowBytes-len(field)+1)), field)
		case kind < 15:
			b.AddFieldInt64(redoTable, k, 0, rng.Int63n(2000)-1000)
		default:
			expect := []byte(live[string(k)])
			if !exists || rng.Intn(2) == 0 {
				expect = make([]byte, redoRowBytes)
			}
			next := make([]byte, redoRowBytes)
			rng.Read(next)
			b.CompareAndSet(redoTable, k, expect, next)
		}
	}
	return b.MustBuild()
}

// catchUpEngine streams the primary's log into follower engine f through
// the applier and ApplyReplicated, as Follower does.
func catchUpEngine(t *testing.T, hub *Primary, plog *wal.Durable, f *engine.Engine, a *Applier) {
	t.Helper()
	s, err := hub.Subscribe(f.DurableLog().DurableLSN(), 0, "f", "test")
	if err != nil {
		t.Fatal(err)
	}
	stream(t, s, plog, f.DurableLog(), a)
}

// TestRedoLogDifferential drives a seeded mix of whole-record and patch
// writes, with a checkpoint midway so that some patches apply to rows only
// the snapshot holds, through a durable primary.  A follower applies the
// shipped stream through the applier and ApplyReplicated after every few
// transactions.  The follower, the primary reopened and recovered from its
// log, and the follower reopened and recovered from its copy of the log
// must each hold exactly the primary's live rows.  So must a fresh
// follower re-seeded after the primary's log was truncated mid-history,
// before the checkpoint: its seed stream must begin at the checkpoint,
// because the patches in the retained history before it rewrite rows the
// wiped follower does not hold.
func TestRedoLogDifferential(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	prim := openRedoEngine(t, pdir)
	fol := openRedoEngine(t, fdir)
	plog := prim.DurableLog()
	hub := NewPrimary(plog, 1)
	applier := NewApplier(fol.ApplyReplicated)

	rng := rand.New(rand.NewSource(24))
	sess := prim.NewSession()
	const txns = 400
	committed, patched := 0, 0
	var midHistory wal.LSN
	for i := 0; i < txns; i++ {
		if i == txns/4 {
			midHistory = plog.CurrentLSN()
		}
		if i == txns/2 {
			if _, err := prim.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		live := redoDump(t, prim)
		p := redoPlan(rng, live)
		if _, err := sess.ExecutePlan(p); err == nil {
			committed++
			for _, op := range p.Phases[0] {
				if op.Mut == plan.MutAddInt64At || op.Mut == plan.MutSetFieldAt {
					patched++
				}
			}
		}
		if i%37 == 0 {
			catchUpEngine(t, hub, plog, fol, applier)
			sameRows(t, "follower mid-run", redoDump(t, fol), redoDump(t, prim))
		}
	}
	sess.Close()
	if committed < txns/2 || patched < txns/2 {
		t.Fatalf("mix too thin: %d of %d transactions committed, %d patch ops among them", committed, txns, patched)
	}
	t.Logf("%d of %d transactions committed, with %d patch ops", committed, txns, patched)
	catchUpEngine(t, hub, plog, fol, applier)
	want := redoDump(t, prim)
	sameRows(t, "follower", redoDump(t, fol), want)

	plog.Truncate(midHistory)
	if oldest := plog.OldestLSN(); oldest == 0 || oldest > midHistory {
		t.Fatalf("truncation to %d left the oldest LSN at %d", midHistory, oldest)
	}
	seeded := openRedoEngine(t, t.TempDir())
	s, err := hub.SubscribeOrSeed(seeded.DurableLog().DurableLSN(), 0, "seeded", "test")
	if err != nil {
		t.Fatal(err)
	}
	start, _, ok := s.Seeding()
	if !ok || start <= plog.OldestLSN() {
		t.Fatalf("seed subscription: seeding %v from %d, oldest retained %d", ok, start, plog.OldestLSN())
	}
	if err := seeded.ResetForSeed(start); err != nil {
		t.Fatal(err)
	}
	stream(t, s, plog, seeded.DurableLog(), NewApplier(seeded.ApplyReplicated))
	sameRows(t, "re-seeded follower", redoDump(t, seeded), want)
	if err := seeded.Close(); err != nil {
		t.Fatal(err)
	}

	for _, side := range []struct {
		name string
		e    *engine.Engine
		dir  string
	}{{"primary", prim, pdir}, {"follower", fol, fdir}} {
		if err := side.e.Close(); err != nil {
			t.Fatal(err)
		}
		re := openRedoEngine(t, side.dir)
		info, err := re.Recover()
		if err != nil {
			t.Fatalf("%s recover: %v", side.name, err)
		}
		if info.Replay.SnapshotEntries == 0 || info.Replay.Applied == 0 || info.Losers == 0 {
			t.Fatalf("%s recover exercised too little: %+v", side.name, info)
		}
		t.Logf("%s recovery: %+v", side.name, info.Replay)
		sameRows(t, side.name+" after recovery", redoDump(t, re), want)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
