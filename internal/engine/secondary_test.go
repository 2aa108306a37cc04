package engine

import (
	"fmt"
	"testing"

	"plp/internal/catalog"
	"plp/internal/cs"
	"plp/internal/keyenc"
	"plp/plan"
)

// secondaryEngine builds a 4-partition engine over keys [1, 4000] whose
// table carries a non-partition-aligned secondary index "nbr" mapping
// "nbr-%08d" to each row's primary key.  Those keys sort above every
// primary key, so routing them against the table's boundaries would land
// every one on the last partition.
func secondaryEngine(tb testing.TB, design Design) *Engine {
	tb.Helper()
	e := New(Options{Design: design, Partitions: 4})
	tb.Cleanup(func() { _ = e.Close() })
	boundaries := [][]byte{keyenc.Uint64Key(1001), keyenc.Uint64Key(2001), keyenc.Uint64Key(3001)}
	if _, err := e.CreateTable(catalog.TableDef{Name: "sub", Boundaries: boundaries,
		Secondaries: []catalog.SecondaryDef{{Name: "nbr"}}}); err != nil {
		tb.Fatal(err)
	}
	l := e.NewLoader()
	for k := uint64(1); k <= 4000; k++ {
		pk := keyenc.Uint64Key(k)
		if err := l.Insert("sub", pk, []byte("row")); err != nil {
			tb.Fatal(err)
		}
		if err := l.InsertSecondary("sub", "nbr", nbrKey(k), pk); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

func nbrKey(k uint64) []byte { return []byte(fmt.Sprintf("nbr-%08d", k)) }

// TestSecondaryProbeTakesNoWorkerTask counts worker tasks (queue
// operations): a probe of a non-partition-aligned secondary index runs
// inline at submit and takes none, so the probe-then-update shape of TATP's
// UpdateLocation is single-site — one task on the row's owner, whichever
// partition that is.  A secondary insert routes by the primary key it
// carries, so it rides with the row it indexes; a secondary delete carries
// no primary key and runs inline like the probe.
func TestSecondaryProbeTakesNoWorkerTask(t *testing.T) {
	for _, design := range []Design{Logical, PLPRegular, PLPPartition, PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			e := secondaryEngine(t, design)
			sess := e.NewSession()
			defer sess.Close()
			tasks := func(p *plan.Plan) ([]plan.Result, uint64) {
				t.Helper()
				before := e.CSStats().Snapshot().Entered[cs.MessagePassing]
				res, err := sess.ExecutePlan(p)
				if err != nil {
					t.Fatal(err)
				}
				return res, e.CSStats().Snapshot().Entered[cs.MessagePassing] - before
			}

			for _, k := range []uint64{7, 1500, 2500, 3999} {
				res, n := tasks(plan.New().LookupSecondary("sub", "nbr", nbrKey(k)).MustBuild())
				if !res[0].Found || string(res[0].Value) != string(keyenc.Uint64Key(k)) {
					t.Fatalf("probe %d: %+v", k, res[0])
				}
				if n != 0 {
					t.Fatalf("probe %d took %d worker tasks, want 0", k, n)
				}

				b := plan.New()
				probe := b.LookupSecondary("sub", "nbr", nbrKey(k)).Ref()
				b.Then().AppendBytes("sub", nil, []byte("+")).KeyFrom(probe)
				if _, n := tasks(b.MustBuild()); n != 1 {
					t.Fatalf("probe-then-update of %d took %d worker tasks, want 1", k, n)
				}
				if v, _ := e.NewLoader().Read("sub", keyenc.Uint64Key(k)); string(v) != "row+" {
					t.Fatalf("update through the probe of %d wrote %q", k, v)
				}
			}

			// Routed by its primary key, a secondary insert lands on the
			// partition of the row it indexes; a delete runs inline.
			pk := keyenc.Uint64Key(4500)
			ins := plan.New().Insert("sub", pk, []byte("new")).InsertSecondary("sub", "nbr", nbrKey(4500), pk).MustBuild()
			if _, n := tasks(ins); n != 1 {
				t.Fatalf("row + secondary insert took %d worker tasks, want 1", n)
			}
			if _, n := tasks(plan.New().DeleteSecondary("sub", "nbr", nbrKey(4500)).MustBuild()); n != 0 {
				t.Fatalf("secondary delete took %d worker tasks, want 0", n)
			}
			res, _ := tasks(plan.New().LookupSecondary("sub", "nbr", nbrKey(4500)).MustBuild())
			if res[0].Found {
				t.Fatalf("deleted secondary entry still found: %+v", res[0])
			}
		})
	}
}
