package repartition

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
)

const (
	testTable    = "kv"
	testKeyspace = 40_000
	testParts    = 4
)

// newTestEngine builds a loaded engine: testKeyspace rows with a known
// value, uniformly partitioned.
func newTestEngine(t *testing.T, design engine.Design) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Options{Design: design, Partitions: testParts})
	boundaries := make([][]byte, 0, testParts-1)
	for i := 1; i < testParts; i++ {
		boundaries = append(boundaries, keyenc.Uint64Key(uint64(testKeyspace*i/testParts)+1))
	}
	if _, err := e.CreateTable(catalog.TableDef{Name: testTable, Boundaries: boundaries}); err != nil {
		t.Fatal(err)
	}
	l := e.NewLoader()
	for k := uint64(1); k <= testKeyspace; k++ {
		if err := l.Insert(testTable, keyenc.Uint64Key(k), initialValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func initialValue(k uint64) []byte { return []byte(fmt.Sprintf("init-%d", k)) }
func updatedValue(k uint64) []byte { return []byte(fmt.Sprintf("upd-%d", k)) }

// hotspot draws keys Zipf-distributed around a moving offset, so rank 1
// lands on offset+1 and the hot set migrates when offset changes.
type hotspot struct {
	zipf   *rand.Zipf
	offset uint64
}

func newHotspot(seed int64, offset uint64) *hotspot {
	rng := rand.New(rand.NewSource(seed))
	return &hotspot{zipf: rand.NewZipf(rng, 1.1, 1, testKeyspace-1), offset: offset}
}

func (h *hotspot) key() uint64 { return (h.zipf.Uint64()+h.offset)%testKeyspace + 1 }

// measureRatio samples the distribution through the engine's routing table
// and returns max/min per-partition access counts.
func measureRatio(e *engine.Engine, seed int64, offset uint64) float64 {
	h := newHotspot(seed, offset)
	counts := make([]float64, testParts)
	for i := 0; i < 50_000; i++ {
		counts[e.PartitionFor(testTable, keyenc.Uint64Key(h.key()))]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 {
		return max
	}
	return max / min
}

// runPeriod pushes one control period of real traffic through the engine
// (reads with a sprinkle of updates) and then runs one controller step.
func runPeriod(t *testing.T, e *engine.Engine, c *Controller, h *hotspot, ops int) {
	t.Helper()
	sess := e.NewSession()
	defer sess.Close()
	for i := 0; i < ops; i++ {
		k := h.key()
		key := keyenc.Uint64Key(k)
		var a engine.Action
		if i%20 == 0 {
			a = engine.Action{Table: testTable, Key: key, Exec: func(ctx *engine.Ctx) error {
				return ctx.Update(testTable, key, updatedValue(k))
			}}
		} else {
			a = engine.Action{Table: testTable, Key: key, Exec: func(ctx *engine.Ctx) error {
				_, err := ctx.Read(testTable, key)
				return err
			}}
		}
		if _, err := sess.Execute(engine.NewRequest(a)); err != nil {
			t.Fatalf("traffic aborted: %v", err)
		}
	}
	c.Step()
	if err := c.LastErr(); err != nil {
		t.Fatalf("controller error: %v", err)
	}
}

// converge runs control periods until the measured max/min ratio falls
// below threshold, failing after maxPeriods.
func converge(t *testing.T, e *engine.Engine, c *Controller, seed int64, offset uint64, threshold float64, maxPeriods int) int {
	t.Helper()
	h := newHotspot(seed, offset)
	for p := 1; p <= maxPeriods; p++ {
		runPeriod(t, e, c, h, 4000)
		if r := measureRatio(e, seed+1, offset); r < threshold {
			return p
		}
	}
	t.Fatalf("controller did not converge within %d periods: ratio %.2f (status:\n%s)",
		maxPeriods, measureRatio(e, seed+1, offset), c.Status().String())
	return 0
}

// verifyState checks the differential invariant: exactly the loaded keys,
// each exactly once, each carrying a value the workload could have written.
func verifyState(t *testing.T, e *engine.Engine) {
	t.Helper()
	l := e.NewLoader()
	next := uint64(1)
	rows := 0
	err := l.ReadRange(testTable, nil, nil, func(key, rec []byte) bool {
		k, derr := keyenc.DecodeUint64(key)
		if derr != nil {
			t.Fatalf("bad key: %v", derr)
		}
		if k != next {
			t.Fatalf("key sequence broken: got %d, want %d (lost or duplicated row)", k, next)
		}
		if !bytes.Equal(rec, initialValue(k)) && !bytes.Equal(rec, updatedValue(k)) {
			t.Fatalf("key %d carries corrupt value %q", k, rec)
		}
		next++
		rows++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != testKeyspace {
		t.Fatalf("row count %d, want %d", rows, testKeyspace)
	}
	if aborts := e.TxnStats().Aborted; aborts != 0 {
		t.Fatalf("%d transactions aborted during the run", aborts)
	}
}

// TestControllerConvergesUnderMigratingZipfHotspot is the acceptance test:
// a Zipfian hot-spot drives a PLP-Leaf engine out of balance, the
// controller converges the max/min per-partition access ratio below the
// threshold within a bounded number of control periods, then the hot-spot
// migrates to the opposite end of the key space mid-run and the controller
// re-converges — with zero correctness violations in the differential
// state check.
func TestControllerConvergesUnderMigratingZipfHotspot(t *testing.T) {
	const (
		threshold  = 2.0
		maxPeriods = 16
	)
	e := newTestEngine(t, engine.PLPLeaf)
	defer e.Close()

	c, err := Attach(e, Config{
		Tables:          []string{testTable},
		TriggerRatio:    1.3,
		MinObservations: 1000,
		Decay:           0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	if r := measureRatio(e, 1, 0); r < threshold {
		t.Fatalf("setup not skewed enough: initial ratio %.2f", r)
	}

	p1 := converge(t, e, c, 1, 0, threshold, maxPeriods)
	t.Logf("phase 1 (hot head at key 1) converged in %d periods; ratio %.2f", p1, measureRatio(e, 2, 0))

	// The hot-spot migrates to the middle of the key space mid-run.
	shift := uint64(testKeyspace / 2)
	if r := measureRatio(e, 3, shift); r < threshold {
		t.Logf("note: shifted distribution starts at ratio %.2f", r)
	}
	p2 := converge(t, e, c, 3, shift, threshold, maxPeriods)
	t.Logf("phase 2 (hot head at key %d) converged in %d periods; ratio %.2f", shift+1, p2, measureRatio(e, 4, shift))

	st := c.Status()
	if st.Applied == 0 {
		t.Fatal("controller never moved a boundary")
	}
	verifyState(t, e)
}

// TestControllerOnLogicalDesignRoutingOnly checks the controller drives the
// Logical design too, where moves are pure routing-table updates.
func TestControllerOnLogicalDesignRoutingOnly(t *testing.T) {
	e := newTestEngine(t, engine.Logical)
	defer e.Close()
	c, err := Attach(e, Config{TriggerRatio: 1.3, MinObservations: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	h := newHotspot(11, 0)
	for p := 0; p < 10 && measureRatio(e, 12, 0) >= 2.0; p++ {
		runPeriod(t, e, c, h, 3000)
	}
	if r := measureRatio(e, 12, 0); r >= 2.0 {
		t.Fatalf("logical design did not converge: ratio %.2f", r)
	}
	for _, d := range c.Status().Decisions {
		if !d.Stats.RoutingOnly {
			t.Fatalf("logical design move touched pages: %+v", d)
		}
	}
	verifyState(t, e)
}

func TestAttachValidation(t *testing.T) {
	conv := engine.New(engine.Options{Design: engine.Conventional})
	defer conv.Close()
	if _, err := Attach(conv, Config{}); err == nil {
		t.Fatal("Attach accepted a Conventional engine")
	}
	one := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 1})
	defer one.Close()
	if _, err := Attach(one, Config{}); err == nil {
		t.Fatal("Attach accepted a single-partition engine")
	}
}

func TestControlVerbs(t *testing.T) {
	e := newTestEngine(t, engine.PLPLeaf)
	defer e.Close()
	c, err := Attach(e, Config{Tables: []string{testTable}, MinObservations: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	h := newHotspot(21, 0)
	runPeriod(t, e, c, h, 2000)

	out, err := c.Control("status", "")
	if err != nil || out == "" {
		t.Fatalf("status: %q, %v", out, err)
	}
	out, err = c.Control("shares", testTable)
	if err != nil || out == "" {
		t.Fatalf("shares: %q, %v", out, err)
	}
	if _, err = c.Control("shares", "nope"); err == nil {
		t.Fatal("shares accepted an unknown table")
	}
	if _, err = c.Control("trigger", ""); err != nil {
		t.Fatalf("trigger: %v", err)
	}
	if _, err = c.Control("bogus", ""); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestBackgroundLoopStartStop(t *testing.T) {
	e := newTestEngine(t, engine.PLPLeaf)
	defer e.Close()
	c, err := Attach(e, Config{Period: time.Millisecond, MinObservations: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	c.Start()
	c.Start() // idempotent
	h := newHotspot(31, 0)
	sess := e.NewSession()
	for i := 0; i < 2000; i++ {
		key := keyenc.Uint64Key(h.key())
		if _, err := sess.Execute(engine.NewRequest(engine.Action{Table: testTable, Key: key,
			Exec: func(ctx *engine.Ctx) error { _, err := ctx.Read(testTable, key); return err }})); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Status().Periods == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	if c.Status().Periods == 0 {
		t.Fatal("background loop never ran a control period")
	}
	if c.Status().Running {
		t.Fatal("status still reports running after Stop")
	}
}

// TestControllerNoMove covers the windows in which a control period must
// leave the table alone: load already within the trigger ratio, too few
// observations to trust (on a hot range that would otherwise move), and
// skew that sits on one key, which no boundary move can split.
func TestControllerNoMove(t *testing.T) {
	cases := []struct {
		name   string
		minObs uint64
		keys   func(i int) uint64
		n      int
	}{
		{"balanced", 100, func(i int) uint64 { return uint64(i*7919)%testKeyspace + 1 }, 4000},
		{"below_min_observations", 10_000, func(i int) uint64 { return uint64(i%50) + 1 }, 100},
		{"single_hot_key", 100, func(int) uint64 { return 42 }, 2000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, engine.PLPLeaf)
			defer e.Close()
			c, err := Attach(e, Config{Tables: []string{testTable}, MinObservations: tc.minObs})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Detach()
			before, err := e.Boundaries(testTable)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.n; i++ {
				key := keyenc.Uint64Key(tc.keys(i))
				c.Observe(testTable, e.PartitionFor(testTable, key), key)
			}
			if made := c.Step(); len(made) != 0 {
				t.Fatalf("control period moved boundaries: %v", made)
			}
			if err := c.LastErr(); err != nil {
				t.Fatal(err)
			}
			after, err := e.Boundaries(testTable)
			if err != nil {
				t.Fatal(err)
			}
			for i := range before {
				if !bytes.Equal(before[i], after[i]) {
					t.Fatalf("boundary %d changed: %x -> %x", i+1, before[i], after[i])
				}
			}
		})
	}
}
