package engine

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"plp/internal/catalog"
	"plp/internal/keyenc"
	"plp/internal/logrec"
	"plp/internal/wal"
	"plp/plan"
)

// newExtEngine builds a 4-partition engine used by the extension tests.
func newExtEngine(t *testing.T, design Design) *Engine {
	t.Helper()
	e := New(Options{Design: design, Partitions: 4})
	boundaries := [][]byte{keyenc.Uint64Key(25), keyenc.Uint64Key(50), keyenc.Uint64Key(75)}
	if _, err := e.CreateTable(catalog.TableDef{
		Name:        "ext",
		Boundaries:  boundaries,
		Secondaries: []catalog.SecondaryDef{{Name: "sec", PartitionAligned: false}},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

func TestPartitionForFollowsBoundaries(t *testing.T) {
	e := newExtEngine(t, PLPLeaf)
	cases := map[uint64]int{1: 0, 24: 0, 25: 1, 49: 1, 50: 2, 74: 2, 75: 3, 1000: 3}
	for key, want := range cases {
		if got := e.PartitionFor("ext", keyenc.Uint64Key(key)); got != want {
			t.Fatalf("key %d routed to partition %d, want %d", key, got, want)
		}
	}
	// Unknown tables fall back to partition 0 rather than panicking.
	if got := e.PartitionFor("unknown", keyenc.Uint64Key(1)); got != 0 {
		t.Fatalf("unknown table routed to %d", got)
	}
}

func TestLoaderUpdateDeleteExists(t *testing.T) {
	e := newExtEngine(t, PLPRegular)
	l := e.NewLoader()
	key := keyenc.Uint64Key(10)
	if err := l.Insert("ext", key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	ok, err := l.Exists("ext", key)
	if err != nil || !ok {
		t.Fatalf("exists after insert: %v %v", ok, err)
	}
	if err := l.Update("ext", key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := l.Read("ext", key)
	if err != nil || string(got) != "v2" {
		t.Fatalf("read after update: %q %v", got, err)
	}
	if err := l.Delete("ext", key); err != nil {
		t.Fatal(err)
	}
	if ok, _ := l.Exists("ext", key); ok {
		t.Fatal("key still exists after delete")
	}
	// Secondary loader paths.
	if err := l.InsertSecondary("ext", "sec", []byte("alpha"), key); err != nil {
		t.Fatal(err)
	}
	if err := l.DeleteSecondary("ext", "sec", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
}

func TestQuiesceRunsWhileWorkersIdle(t *testing.T) {
	for _, design := range []Design{Conventional, PLPLeaf} {
		e := newExtEngine(t, design)
		ran := false
		if err := e.Quiesce(func() { ran = true }); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatalf("%v: quiesce body did not run", design)
		}
	}
}

func TestKeyFnRoutesByDynamicKey(t *testing.T) {
	e := newExtEngine(t, PLPLeaf)
	l := e.NewLoader()
	for i := uint64(1); i <= 100; i++ {
		if err := l.Insert("ext", keyenc.Uint64Key(i), []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sess := e.NewSession()
	defer sess.Close()

	// Phase 1 discovers a key; phase 2 is routed by it via KeyFn.  The
	// executing partition must be the owner of the discovered key (90 → the
	// last partition), not of the placeholder key (1 → partition 0).
	var discovered []byte
	var phase2Partition atomic.Int64
	phase2Partition.Store(-1)
	req := &Request{}
	req.AddPhase(Action{
		Table: "ext",
		Key:   keyenc.Uint64Key(1),
		Exec: func(c *Ctx) error {
			discovered = keyenc.Uint64Key(90)
			return nil
		},
	})
	req.AddPhase(Action{
		Table: "ext",
		Key:   keyenc.Uint64Key(1),
		KeyFn: func() []byte { return discovered },
		Exec: func(c *Ctx) error {
			phase2Partition.Store(int64(c.Partition()))
			_, err := c.Read("ext", discovered)
			return err
		},
	})
	if _, err := sess.Execute(req); err != nil {
		t.Fatal(err)
	}
	want := int64(e.PartitionFor("ext", keyenc.Uint64Key(90)))
	if phase2Partition.Load() != want {
		t.Fatalf("phase 2 ran on partition %d, want %d", phase2Partition.Load(), want)
	}
}

func TestKeyFnNilFallsBackToKey(t *testing.T) {
	a := Action{Key: []byte("static")}
	if !bytes.Equal(a.routingKey(), []byte("static")) {
		t.Fatal("routingKey without KeyFn should return Key")
	}
	a.KeyFn = func() []byte { return []byte("dynamic") }
	if !bytes.Equal(a.routingKey(), []byte("dynamic")) {
		t.Fatal("routingKey with KeyFn should return its result")
	}
}

// TestModificationLoggingCarriesImages pins what the redo-only log holds:
// an insert or update carries the whole after-image and no before-image, a
// delete carries neither, and a field update carries a patch of only the
// bytes it changed.
func TestModificationLoggingCarriesImages(t *testing.T) {
	e := newExtEngine(t, PLPLeaf)
	sess := e.NewSession()
	defer sess.Close()
	key := keyenc.Uint64Key(33)

	exec := func(fn func(c *Ctx) error) {
		t.Helper()
		if _, err := sess.Execute(NewRequest(Action{Table: "ext", Key: key, Exec: fn})); err != nil {
			t.Fatal(err)
		}
	}
	exec(func(c *Ctx) error { return c.Insert("ext", key, []byte("before")) })
	exec(func(c *Ctx) error { return c.Update("ext", key, []byte("after")) })
	if _, err := sess.ExecutePlan(plan.New().SetField("ext", key, 1, []byte("XY")).MustBuild()); err != nil {
		t.Fatal(err)
	}
	exec(func(c *Ctx) error { return c.Delete("ext", key) })

	var mods []logrec.Modification
	var types []wal.RecordType
	for _, rec := range e.Log().Records() {
		if rec.Type != wal.RecInsert && rec.Type != wal.RecUpdate && rec.Type != wal.RecDelete {
			continue
		}
		mod, err := logrec.DecodeModification(rec.Payload)
		if err != nil || !bytes.Equal(mod.Key, key) {
			continue
		}
		mods = append(mods, mod)
		types = append(types, rec.Type)
	}
	want := []struct {
		typ   wal.RecordType
		at    uint64
		after string
	}{
		{wal.RecInsert, 0, "before"},
		{wal.RecUpdate, 0, "after"},
		{wal.RecUpdate, logrec.PatchAt(1), "XY"},
		{wal.RecDelete, 0, ""},
	}
	if len(mods) != len(want) {
		t.Fatalf("logged %d modifications of the key, want %d: %+v", len(mods), len(want), mods)
	}
	for i, w := range want {
		m := mods[i]
		if types[i] != w.typ || m.Table != "ext" || m.At != w.at || string(m.After) != w.after {
			t.Fatalf("record %d = %v %+v, want %v at=%d after=%q", i, types[i], m, w.typ, w.at, w.after)
		}
	}
	if got, _ := mods[2].Apply([]byte("after")); string(got) != "aXYer" {
		t.Fatalf("patch applied to the logged after-image gives %q, want %q", got, "aXYer")
	}
}

func TestSecondaryModificationLogging(t *testing.T) {
	e := newExtEngine(t, Logical)
	sess := e.NewSession()
	defer sess.Close()
	key := keyenc.Uint64Key(44)
	secKey := []byte("zz")
	req := NewRequest(Action{
		Table: "ext",
		Key:   key,
		Exec: func(c *Ctx) error {
			if err := c.Insert("ext", key, []byte("rec")); err != nil {
				return err
			}
			if err := c.InsertSecondary("ext", "sec", secKey, key); err != nil {
				return err
			}
			return c.DeleteSecondary("ext", "sec", secKey)
		},
	})
	if _, err := sess.Execute(req); err != nil {
		t.Fatal(err)
	}
	var secInsert, secDelete bool
	for _, rec := range e.Log().Records() {
		mod, err := logrec.DecodeModification(rec.Payload)
		if err != nil || mod.Index != "sec" {
			continue
		}
		switch rec.Type {
		case wal.RecInsert:
			secInsert = true
		case wal.RecDelete:
			secDelete = true
		}
	}
	if !secInsert || !secDelete {
		t.Fatalf("secondary modifications not logged: insert=%v delete=%v", secInsert, secDelete)
	}
}

func TestConcurrentSessions(t *testing.T) {
	e := newExtEngine(t, PLPLeaf)
	// Sessions created concurrently must receive unique IDs (regression test
	// for the session-counter race).
	const n = 32
	ids := make(chan uint64, n)
	for i := 0; i < n; i++ {
		go func() {
			s := e.NewSession()
			ids <- s.id
			s.Close()
		}()
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		id := <-ids
		if seen[id] {
			t.Fatalf("duplicate session id %d", id)
		}
		seen[id] = true
	}
}
