package harness

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/plan"
)

// kvWorkload is a minimal workload used to exercise the harness itself.
type kvWorkload struct {
	rows   int
	failAt int32
}

func (w *kvWorkload) Name() string { return "kv" }

func (w *kvWorkload) Setup(e *engine.Engine) error {
	if _, err := e.CreateTable(catalog.TableDef{
		Name:       "kv",
		Boundaries: [][]byte{keyenc.Uint64Key(uint64(w.rows / 2))},
	}); err != nil {
		return err
	}
	l := e.NewLoader()
	for i := 1; i <= w.rows; i++ {
		if err := l.Insert("kv", keyenc.Uint64Key(uint64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			return err
		}
	}
	return nil
}

func (w *kvWorkload) NextRequest(rng *rand.Rand) *engine.Request {
	id := uint64(1 + rng.Intn(w.rows))
	key := keyenc.Uint64Key(id)
	return engine.NewRequest(engine.Action{Table: "kv", Key: key, Exec: func(c *engine.Ctx) error {
		if rng.Intn(10) == 0 {
			return c.Update("kv", key, []byte("u"))
		}
		_, err := c.Read("kv", key)
		return err
	}})
}

func (w *kvWorkload) Verify(e *engine.Engine) error {
	l := e.NewLoader()
	for i := 1; i <= w.rows; i++ {
		if _, err := l.Read("kv", keyenc.Uint64Key(uint64(i))); err != nil {
			return err
		}
	}
	return nil
}

func newEngineAndWorkload(t *testing.T, design engine.Design) (*engine.Engine, *kvWorkload) {
	t.Helper()
	e := engine.New(engine.Options{Design: design, Partitions: 2})
	t.Cleanup(func() { _ = e.Close() })
	w := &kvWorkload{rows: 500}
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	return e, w
}

func TestRunByTransactionCount(t *testing.T) {
	e, w := newEngineAndWorkload(t, engine.PLPRegular)
	res, err := Run(e, w, RunConfig{Clients: 4, TxnsPerClient: 100, WarmupTxnsPerClient: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 400 {
		t.Fatalf("committed=%d want 400", res.Committed)
	}
	if res.ThroughputTPS <= 0 || res.AvgLatency <= 0 {
		t.Fatalf("derived metrics missing: %+v", res)
	}
	if res.Design != engine.PLPRegular.String() || res.Workload != "kv" || res.Clients != 4 {
		t.Fatalf("labels wrong: %+v", res)
	}
	// The warmup transactions must not be counted in the measured CS delta
	// beyond the measured interval (only sanity: CS/txn is a small number).
	if res.CSPerTxn.Total <= 0 || res.CSPerTxn.Total > 1000 {
		t.Fatalf("implausible cs/txn: %f", res.CSPerTxn.Total)
	}
	if err := w.Verify(e); err != nil {
		t.Fatal(err)
	}
}

func TestRunByDuration(t *testing.T) {
	e, w := newEngineAndWorkload(t, engine.Conventional)
	res, err := Run(e, w, RunConfig{Clients: 2, Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("duration-bounded run committed nothing")
	}
	if res.Elapsed < 100*time.Millisecond {
		t.Fatalf("elapsed %v shorter than requested", res.Elapsed)
	}
}

func TestRunPropagatesWorkloadErrors(t *testing.T) {
	e := engine.New(engine.Options{Design: engine.Logical, Partitions: 2})
	t.Cleanup(func() { _ = e.Close() })
	w := &kvWorkload{rows: 100}
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	broken := &brokenWorkload{}
	// A request that fails inside its action aborts its transaction; the
	// harness reports those as aborts rather than run errors.
	res, err := Run(e, broken, RunConfig{Clients: 2, TxnsPerClient: 10})
	if err != nil {
		t.Fatalf("aborting workload should not fail the run: %v", err)
	}
	if res.Committed != 0 || res.Aborted != 20 {
		t.Fatalf("expected all transactions aborted, got %+v", res)
	}
}

// brokenWorkload issues requests against a missing table.
type brokenWorkload struct{}

func (*brokenWorkload) Name() string                 { return "broken" }
func (*brokenWorkload) Setup(e *engine.Engine) error { return nil }
func (*brokenWorkload) NextRequest(rng *rand.Rand) *engine.Request {
	key := keyenc.Uint64Key(1)
	return engine.NewRequest(engine.Action{Table: "missing", Key: key, Exec: func(c *engine.Ctx) error {
		_, err := c.Read("missing", key)
		return err
	}})
}

func TestRunTimelineSamplesAndEvent(t *testing.T) {
	e, w := newEngineAndWorkload(t, engine.PLPLeaf)
	fired := false
	points, err := RunTimeline(e, w, RunConfig{Clients: 2},
		300*time.Millisecond, 50*time.Millisecond, 100*time.Millisecond,
		func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("expected 6 samples, got %d", len(points))
	}
	if !fired {
		t.Fatal("event did not fire")
	}
	total := 0.0
	for i, p := range points {
		if p.T != time.Duration(i+1)*50*time.Millisecond {
			t.Fatalf("sample %d at %v", i, p.T)
		}
		total += p.TPS
	}
	if total <= 0 {
		t.Fatal("no throughput recorded")
	}
}

// NextPlan gives kvWorkload a plan path: a read of one random key.
func (w *kvWorkload) NextPlan(rng *rand.Rand) *plan.Plan {
	id := uint64(1 + rng.Intn(w.rows))
	return plan.New().Get("kv", keyenc.Uint64Key(id)).MustBuild()
}

func TestRunUsePlans(t *testing.T) {
	e, w := newEngineAndWorkload(t, engine.PLPLeaf)
	res, err := Run(e, w, RunConfig{Clients: 2, TxnsPerClient: 50, UsePlans: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 100 {
		t.Fatalf("committed=%d want 100", res.Committed)
	}
	if res.AvgLatency <= 0 {
		t.Fatalf("latency accounting missing on the plan path: %+v", res)
	}
}

func TestRunUsePlansRequiresPlanWorkload(t *testing.T) {
	e := engine.New(engine.Options{Design: engine.Logical, Partitions: 2})
	t.Cleanup(func() { _ = e.Close() })
	if _, err := Run(e, &brokenWorkload{}, RunConfig{Clients: 1, TxnsPerClient: 1, UsePlans: true}); err == nil {
		t.Fatal("UsePlans with a plan-less workload must fail the run")
	}
}
