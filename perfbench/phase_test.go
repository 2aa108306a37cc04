package main

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/plan"
)

// kvWorkload is a minimal workload over one small table: point reads.
type kvWorkload struct {
	mu   sync.Mutex
	idxs map[uint64]int // run-wide op indexes handed out, and how often
}

const kvRows = 100

func (w *kvWorkload) load(e *engine.Engine) error {
	if _, err := e.CreateTable(catalog.TableDef{Name: "kv"}); err != nil {
		return err
	}
	l := e.NewLoader()
	for k := uint64(1); k <= kvRows; k++ {
		if err := l.Insert("kv", keyenc.Uint64Key(k), keyenc.Uint64Key(k)); err != nil {
			return err
		}
	}
	return nil
}

func (w *kvWorkload) prepare(*engine.Engine) error { return nil }

func (w *kvWorkload) saturated(rng *rand.Rand, idx uint64) op {
	w.mu.Lock()
	w.idxs[idx]++
	w.mu.Unlock()
	k := 1 + uint64(rng.Intn(kvRows))
	return op{kind: opRead, plan: plan.New().Get("kv", keyenc.Uint64Key(k)).MustBuild(), id: k}
}

func (w *kvWorkload) serialMix() [numOpKinds]int { return [numOpKinds]int{opRead: 1} }
func (w *kvWorkload) serialOp(_ opKind, rng *rand.Rand, idx uint64) op {
	return w.saturated(rng, idx)
}
func (w *kvWorkload) scanProbe(*rand.Rand) op           { return op{} }
func (w *kvWorkload) acked(*op)                         {}
func (w *kvWorkload) verify(*engine.Engine, bool) error { return nil }

func (w *kvWorkload) check(o *op, r *reply) error {
	if len(r.results) != 1 || !r.results[0].Found || string(r.results[0].Value) != string(keyenc.Uint64Key(o.id)) {
		return fmt.Errorf("kv %d: bad reply %+v", o.id, r.results)
	}
	return nil
}

// TestPhaseIsCountBounded runs closed-loop phases against a served engine
// and checks their accounting: a phase issues exactly its operation count,
// every operation gets its own run-wide index, and consecutive phases
// continue the index sequence.
func TestPhaseIsCountBounded(t *testing.T) {
	wl := &kvWorkload{idxs: make(map[uint64]int)}
	b := &bench{seed: 7, wl: wl}
	if _, _, err := b.setup(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := b.shutdown(); err != nil {
			t.Error(err)
		}
	}()
	cs, err := b.dial(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(cs)

	p := b.phase("saturated-0", cs, 4, 1003, wl.saturated, false)
	if p.attempted != 1003 || p.committed != 1003 || p.writes != 0 {
		t.Fatalf("saturated phase: %+v, want 1003 attempted and committed reads", p)
	}
	if len(p.lat[opRead]) != 1003 || len(p.lat[opWrite]) != 0 {
		t.Fatalf("saturated phase: %d read and %d write samples", len(p.lat[opRead]), len(p.lat[opWrite]))
	}
	s := b.serial(0, cs[0], 10)
	if s.attempted != 10 || s.committed != 10 {
		t.Fatalf("serial phase: %+v", s)
	}
	if b.nextIdx != 1013 || b.attempted != 1013 || b.committed != 1013 {
		t.Fatalf("after both phases: nextIdx %d, attempted %d, committed %d; want 1013", b.nextIdx, b.attempted, b.committed)
	}
	for idx := uint64(0); idx < 1013; idx++ {
		if wl.idxs[idx] != 1 {
			t.Fatalf("op index %d issued %d times", idx, wl.idxs[idx])
		}
	}
	if len(b.failures) != 0 || b.firstErr != nil {
		t.Fatalf("failures %v, first error %v", b.failures, b.firstErr)
	}
}
