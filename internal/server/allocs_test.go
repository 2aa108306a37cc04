package server

import (
	"context"
	"testing"

	"plp/client"
	"plp/internal/engine"
	"plp/internal/workload/tatp"
	"plp/plan"
)

// Allocation budgets of one request at depth 1, client and server
// together (testing.AllocsPerRun counts the whole process).  A get
// allocates 3: the client's Future, and the engine's copies of the record
// out of the index and out of the heap page.  A probe-then-write allocates
// 9: the Future, the index's copies of the probed primary key and of the
// row's entry, the heap's copy of the row, the new row image, its undo
// closure, its log record and payload, and the commit record.  Each budget
// leaves one allocation of slack; the
// request path before pooled requests and in-place plan binding made 36
// and 50.
const (
	getAllocBudget         = 4
	probeUpdateAllocBudget = 10
)

// TestRequestPathAllocs gates the allocations of the pipelined point-request
// path over a loopback client and server: a GetSubscriberData-shaped get
// (one phase, one Get) and an UpdateLocation-shaped probe-then-write (a
// secondary-index probe, then a field write), each sent as a prebuilt plan
// through DoPlanAsync and waited for, one in flight.  The counts are
// independent of the machine.
func TestRequestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const subscribers = 1000
	e := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 4})
	w := tatp.New(tatp.Config{Subscribers: subscribers, Partitions: 4})
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	srv := New(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() {
		_ = srv.Close()
		_ = e.Close()
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		plan   *plan.Plan
		budget float64
	}{
		{"get", w.GetSubscriberDataPlan(17), getAllocBudget},
		{"probe_update", w.UpdateLocationPlan(17, 42), probeUpdateAllocBudget},
	} {
		run := func() {
			if _, err := c.DoPlanAsync(ctx, tc.plan).Result(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		for i := 0; i < 200; i++ { // warm the pools and the plan cache
			run()
		}
		allocs := testing.AllocsPerRun(2000, run)
		if allocs > tc.budget {
			t.Errorf("%s: %.2f allocations per request, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}
