package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sync/atomic"

	"plp/client"
	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
)

// benchServer starts a PLP-Leaf server over loopback and returns its
// address.  With preload set, keys 1, 11, 21, ... covering the whole
// keyspace are bulk-loaded so read workloads hit existing records on every
// partition.
func benchServer(tb testing.TB, preload bool) string {
	tb.Helper()
	e := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 4})
	boundaries := [][]byte{keyenc.Uint64Key(250_000), keyenc.Uint64Key(500_000), keyenc.Uint64Key(750_000)}
	if _, err := e.CreateTable(catalog.TableDef{Name: "accounts", Boundaries: boundaries}); err != nil {
		tb.Fatal(err)
	}
	if preload {
		l := e.NewLoader()
		for i := uint64(0); i < 100_000; i++ {
			if err := l.Insert("accounts", keyenc.Uint64Key(i*10+1), []byte("balance=100")); err != nil {
				tb.Fatal(err)
			}
		}
	}
	srv := New(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	tb.Cleanup(func() {
		_ = srv.Close()
		_ = e.Close()
	})
	return addr
}

// benchTxn builds the i-th transaction of a benchmark workload: "upsert"
// writes across the whole keyspace, "get" reads the preloaded records.
func benchTxn(workload string, i int) *client.Txn {
	if workload == "get" {
		return client.NewTxn().Get("accounts", client.Uint64Key(uint64(i%100_000)*10+1))
	}
	return client.NewTxn().Upsert("accounts", client.Uint64Key(uint64(i%1_000_000+1)), []byte("balance=100"))
}

// BenchmarkServerUpsertGet measures single-connection round trips over
// loopback: one upsert plus one read per iteration.
func BenchmarkServerUpsertGet(b *testing.B) {
	addr := benchServer(b, false)
	c, err := client.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	val := []byte("balance=100")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := client.Uint64Key(uint64(i%100_000 + 1))
		if err := c.Upsert("accounts", key, val); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Get("accounts", key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerSerialized1Conn measures the serial execution model: one
// synchronous transaction in flight at a time, so every operation pays a
// full network round trip and the connection can keep at most one
// partition worker busy.
func BenchmarkServerSerialized1Conn(b *testing.B) {
	for _, workload := range []string{"upsert", "get"} {
		b.Run(workload, func(b *testing.B) {
			addr := benchServer(b, workload == "get")
			c, err := client.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Do(benchTxn(workload, i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerPipelined1Conn64 measures the pipelined execution model on
// the same workloads: one connection keeping 64 transactions in flight, the
// server submitting them to the partition workers as it reads them and
// answering them out of order as they complete.
func BenchmarkServerPipelined1Conn64(b *testing.B) {
	for _, workload := range []string{"upsert", "get"} {
		b.Run(workload, func(b *testing.B) {
			addr := benchServer(b, workload == "get")
			c, err := client.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			window := make(chan *client.Future, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for len(window) == cap(window) {
					if _, err := (<-window).Wait(ctx); err != nil {
						b.Fatal(err)
					}
				}
				window <- c.DoAsync(ctx, benchTxn(workload, i))
			}
			for len(window) > 0 {
				if _, err := (<-window).Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// measureNetThroughput drives one connection for the given duration and
// returns committed transactions per second — serialized (one in flight) or
// pipelined (64 in flight).
func measureNetThroughput(tb testing.TB, addr, workload string, pipelined bool, d time.Duration) float64 {
	tb.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	deadline := time.Now().Add(d)
	start := time.Now()
	done := 0
	if !pipelined {
		for time.Now().Before(deadline) {
			if _, err := c.Do(benchTxn(workload, done)); err != nil {
				tb.Fatal(err)
			}
			done++
		}
		return float64(done) / time.Since(start).Seconds()
	}
	window := make(chan *client.Future, 64)
	submitted := 0
	for time.Now().Before(deadline) {
		for len(window) == cap(window) {
			if _, err := (<-window).Wait(ctx); err != nil {
				tb.Fatal(err)
			}
			done++
		}
		window <- c.DoAsync(ctx, benchTxn(workload, submitted))
		submitted++
	}
	for len(window) > 0 {
		if _, err := (<-window).Wait(ctx); err != nil {
			tb.Fatal(err)
		}
		done++
	}
	return float64(done) / time.Since(start).Seconds()
}

// TestNetworkThroughputDatapoint emits the pipelined-vs-serialized
// single-connection throughput of both workloads as JSON lines (BENCH_JSON)
// so the CI log carries network datapoints for the perf trajectory.  It
// makes no timing assertion — CI machines are too noisy — but the dedicated
// benchmark pair above reproduces the comparison precisely.
func TestNetworkThroughputDatapoint(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping throughput measurement in short mode")
	}
	for _, workload := range []string{"upsert", "get"} {
		addr := benchServer(t, workload == "get")
		serialized := measureNetThroughput(t, addr, workload, false, 400*time.Millisecond)
		pipelined := measureNetThroughput(t, addr, workload, true, 400*time.Millisecond)
		speedup := 0.0
		if serialized > 0 {
			speedup = pipelined / serialized
		}
		fmt.Printf("BENCH_JSON {\"benchmark\":\"net_%s_1conn\",\"serialized_ops_per_s\":%.0f,\"pipelined64_ops_per_s\":%.0f,\"speedup\":%.2f}\n",
			workload, serialized, pipelined, speedup)
	}
}

// benchPlanServer starts a PLP-Leaf server whose "sub" table has a
// non-partition-aligned secondary index.  Each preloaded record begins with
// its own 8-byte primary key, so the per-statement flow can derive the
// second round trip's routing key from the probe's result — exactly what a
// networked client without plans has to do.
func benchPlanServer(tb testing.TB, subscribers int) string {
	tb.Helper()
	e := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 4})
	boundaries := [][]byte{keyenc.Uint64Key(250_000), keyenc.Uint64Key(500_000), keyenc.Uint64Key(750_000)}
	if _, err := e.CreateTable(catalog.TableDef{
		Name:        "sub",
		Boundaries:  boundaries,
		Secondaries: []catalog.SecondaryDef{{Name: "nbr"}},
	}); err != nil {
		tb.Fatal(err)
	}
	l := e.NewLoader()
	for i := 0; i < subscribers; i++ {
		pk := keyenc.Uint64Key(uint64(i)*10 + 1)
		rec := append(append([]byte(nil), pk...), []byte("loc=000")...)
		if err := l.Insert("sub", pk, rec); err != nil {
			tb.Fatal(err)
		}
		if err := l.InsertSecondary("sub", "nbr", benchNbr(i), pk); err != nil {
			tb.Fatal(err)
		}
	}
	srv := New(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	tb.Cleanup(func() {
		_ = srv.Close()
		_ = e.Close()
	})
	return addr
}

// benchNbr is the i-th subscriber's secondary key.
func benchNbr(i int) []byte { return []byte(fmt.Sprintf("nbr-%08d", i)) }

// planProbeUpdate runs the i-th dependent transaction as ONE round trip:
// the plan's phase 1 probes the secondary index, phase 2 routes the update
// by the primary key the probe produced.
func planProbeUpdate(c *client.Client, i, subscribers int) error {
	b := client.NewPlan()
	probe := b.LookupSecondary("sub", "nbr", benchNbr(i%subscribers)).Ref()
	b.Then().AppendBytes("sub", nil, []byte("+")).KeyFrom(probe)
	p, err := b.Build()
	if err != nil {
		return err
	}
	_, err = c.DoPlan(p)
	return err
}

// stmtProbeUpdate runs the same dependent transaction as per-statement
// round trips: fetch the record through the secondary index, parse the
// primary key out of it, send the update — two network round trips and two
// server-side transactions.
func stmtProbeUpdate(c *client.Client, i, subscribers int) error {
	rec, err := c.GetBySecondary("sub", "nbr", benchNbr(i%subscribers))
	if err != nil {
		return err
	}
	newRec := append(append([]byte(nil), rec...), '+')
	return c.Update("sub", rec[:8], newRec)
}

// BenchmarkPlanProbeUpdate1RT measures the dependent secondary-probe →
// routed-update transaction as a single-round-trip declarative plan.
func BenchmarkPlanProbeUpdate1RT(b *testing.B) {
	addr := benchPlanServer(b, 100_000)
	c, err := client.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := planProbeUpdate(c, i, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerStatementProbeUpdate measures the identical logical
// transaction as per-statement round trips.
func BenchmarkPerStatementProbeUpdate(b *testing.B) {
	addr := benchPlanServer(b, 100_000)
	c, err := client.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stmtProbeUpdate(c, i, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanRoundTripDatapoint emits the one-round-trip-plan vs
// per-statement figures of the dependent probe→update transaction as a
// BENCH_JSON line: throughput, and round trips per transaction counted on
// the wire by a frame-counting proxy.  It gates on the count, which does
// not depend on the machine: the plan must cost exactly one request frame
// and one response frame per transaction, where the per-statement flow
// costs two of each.  The throughput ratio is reported, not asserted: it
// measured 1.34–1.47 on a 2-vCPU VM, round trips being only part of each
// transaction's cost.
func TestPlanRoundTripDatapoint(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping throughput measurement in short mode")
	}
	if raceEnabled {
		t.Skip("skipping throughput measurement under the race detector")
	}
	const subscribers = 20_000
	addr := benchPlanServer(t, subscribers)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Round trips per transaction, counted through the proxy.
	proxy := newCountingProxy(t, addr)
	pc, err := client.Dial(proxy.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	const counted = 200
	roundTrips := func(step func(c *client.Client, i int) error) (req, resp float64) {
		r0, s0 := proxy.toServer.Load(), proxy.toClient.Load()
		for i := 0; i < counted; i++ {
			if err := step(pc, i); err != nil {
				t.Fatal(err)
			}
		}
		return float64(proxy.toServer.Load()-r0) / counted, float64(proxy.toClient.Load()-s0) / counted
	}
	planReq, planResp := roundTrips(func(c *client.Client, i int) error { return planProbeUpdate(c, i, subscribers) })
	stmtReq, stmtResp := roundTrips(func(c *client.Client, i int) error { return stmtProbeUpdate(c, i, subscribers) })

	measure := func(step func(i int) error, d time.Duration) float64 {
		deadline := time.Now().Add(d)
		start := time.Now()
		done := 0
		for time.Now().Before(deadline) {
			if err := step(done); err != nil {
				t.Fatal(err)
			}
			done++
		}
		return float64(done) / time.Since(start).Seconds()
	}
	for i := 0; i < 100; i++ {
		_ = planProbeUpdate(c, i, subscribers)
		_ = stmtProbeUpdate(c, i, subscribers)
	}
	perStatement := measure(func(i int) error { return stmtProbeUpdate(c, i, subscribers) }, 400*time.Millisecond)
	onePlan := measure(func(i int) error { return planProbeUpdate(c, i, subscribers) }, 400*time.Millisecond)
	fmt.Printf("BENCH_JSON {\"benchmark\":\"plan_probe_update_1conn\",\"per_statement_txn_per_s\":%.0f,\"one_plan_txn_per_s\":%.0f,\"speedup\":%.2f,\"plan_round_trips_per_txn\":%.2f,\"per_statement_round_trips_per_txn\":%.2f}\n",
		perStatement, onePlan, onePlan/perStatement, planReq, stmtReq)
	if planReq != 1 || planResp != 1 {
		t.Errorf("a plan costs %.2f request and %.2f response frames per transaction, want 1 and 1", planReq, planResp)
	}
	if stmtReq != 2 || stmtResp != 2 {
		t.Errorf("the per-statement flow costs %.2f request and %.2f response frames per transaction, want 2 and 2", stmtReq, stmtResp)
	}
}

// BenchmarkServerParallelClients measures throughput with one connection per
// benchmark goroutine.
func BenchmarkServerParallelClients(b *testing.B) {
	addr := benchServer(b, false)
	var nextClient atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		c, err := client.Dial(addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		base := uint64(nextClient.Add(1)) * 1_000_000 % 900_000
		i := 0
		for pb.Next() {
			i++
			key := client.Uint64Key(base + uint64(i%50_000) + 1)
			if err := c.Upsert("accounts", key, []byte(fmt.Sprintf("v%d", i))); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
