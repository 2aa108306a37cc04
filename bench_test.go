// Benchmark harness: one sub-benchmark per experiment of
// internal/experiments — every table and figure of the paper's
// evaluation, the extensions and the ablations.
//
// Each sub-benchmark executes its experiment end to end (build engines,
// load, run the measured intervals) once per iteration and logs the
// figure's table, so
//
//	go test -run '^$' -bench=Experiments
//
// regenerates every result at benchmark scale.  cmd/plpbench runs the same
// experiments at larger scale.
package plp

import (
	"testing"

	"plp/internal/cs"
	"plp/internal/experiments"
)

// benchScale returns the scale used by the benchmark suite: large enough to
// show the contention effects, small enough to keep the full suite in the
// minutes range.
func benchScale() experiments.Scale {
	s := experiments.DefaultScale()
	s.TATPSubscribers = 10000
	s.TPCBBranches = 1
	s.TPCBAccountsPerBranch = 5000
	s.TPCCWarehouses = 1
	s.Partitions = 4
	s.Clients = 4
	s.TxnsPerClient = 1000
	s.Warmup = 100
	return s
}

// BenchmarkExperiments runs each experiment as a sub-benchmark named by
// its id and logs its table once.
func BenchmarkExperiments(b *testing.B) {
	for _, x := range experiments.Experiments {
		b.Run(x.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := x.Run(benchScale())
				if err != nil {
					b.Fatal(err)
				}
				if b.N == 1 {
					b.Log("\n" + r.String())
				}
			}
		})
	}
}

// TestPublicAPISmoke exercises the package-level public API end to end so
// the root package has test coverage beyond the benchmarks.
func TestPublicAPISmoke(t *testing.T) {
	for _, design := range AllDesigns() {
		eng := New(Options{Design: design, Partitions: 2})
		if _, err := eng.CreateTable(TableDef{Name: "t", Boundaries: UniformBoundaries(1000, 2)}); err != nil {
			t.Fatal(err)
		}
		sess := eng.NewSession()
		key := Uint64Key(7)
		req := NewRequest(Action{Table: "t", Key: key, Exec: func(c *Ctx) error {
			return c.Insert("t", key, []byte("v"))
		}})
		if _, err := sess.Execute(req); err != nil {
			t.Fatalf("%v: %v", design, err)
		}
		var got []byte
		read := NewRequest(Action{Table: "t", Key: key, Exec: func(c *Ctx) error {
			v, err := c.Read("t", key)
			got = v
			return err
		}})
		if _, err := sess.Execute(read); err != nil {
			t.Fatalf("%v: %v", design, err)
		}
		if string(got) != "v" {
			t.Fatalf("%v: got %q", design, got)
		}
		sess.Close()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The critical-section categories used in reports must round-trip.
	if cs.LockMgr.String() == "" {
		t.Fatal("category label missing")
	}
}
