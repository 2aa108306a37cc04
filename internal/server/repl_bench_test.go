package server

// Replication throughput datapoints.  Like TestNetworkThroughputDatapoint
// these emit BENCH_JSON lines for the CI log and make no timing assertion —
// the interesting quantities are the cost of gating commits on a replica
// ack versus local fsync, and whether follower-served reads add capacity
// without slowing the primary's write path.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"plp/client"
	"plp/internal/repl"
)

// measureReplThroughput drives one pipelined connection (64 in flight) with
// transactions from txnFor until the duration elapses and returns committed
// transactions per second.  Errors are reported with t.Errorf so the helper
// is safe to call from a secondary goroutine.
func measureReplThroughput(t *testing.T, addr string, d time.Duration, txnFor func(i int) *client.Txn) float64 {
	c, err := client.Dial(addr)
	if err != nil {
		t.Errorf("dial %s: %v", addr, err)
		return 0
	}
	defer c.Close()
	ctx := context.Background()
	window := make(chan *client.Future, 64)
	deadline := time.Now().Add(d)
	start := time.Now()
	done, submitted := 0, 0
	for time.Now().Before(deadline) {
		for len(window) == cap(window) {
			if _, err := (<-window).Wait(ctx); err != nil {
				t.Errorf("measured txn: %v", err)
				return 0
			}
			done++
		}
		window <- c.DoAsync(ctx, txnFor(submitted))
		submitted++
	}
	for len(window) > 0 {
		if _, err := (<-window).Wait(ctx); err != nil {
			t.Errorf("measured txn: %v", err)
			return 0
		}
		done++
	}
	return float64(done) / time.Since(start).Seconds()
}

// benchUpsert cycles writes over a bounded key range so both ack modes see
// the same working set.
func benchUpsert(i int) *client.Txn {
	return client.NewTxn().Upsert("kv", client.Uint64Key(uint64(i%20_000+1)), []byte("repl-bench"))
}

// TestReplAckModesDatapoint measures pipelined write throughput on a durable
// primary with a live follower, first with local-fsync commits and then with
// the replica-acked gate installed, and emits the pair as a BENCH_JSON line.
func TestReplAckModesDatapoint(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping throughput measurement in short mode")
	}
	pdir, fdir := t.TempDir(), t.TempDir()
	pe, psrv, paddr := startReplServer(t, pdir)
	prim := repl.NewPrimary(pe.DurableLog(), 1)
	prim.SetAckTimeout(20 * time.Second)
	psrv.SetReplPrimary(prim)

	fe, fsrv, _ := startReplServer(t, fdir)
	fsrv.SetFollowerMode(true)
	f := startFollower(t, fdir, paddr, fe)
	waitFor(t, "subscription", func() bool { return prim.NumFollowers() == 1 })

	local := measureReplThroughput(t, paddr, 400*time.Millisecond, benchUpsert)
	waitFor(t, "follower catch-up before acked run", func() bool { return caughtUp(pe, f) })

	pe.SetCommitAckWaiter(prim.OnReplicated)
	acked := measureReplThroughput(t, paddr, 400*time.Millisecond, benchUpsert)

	ratio := 0.0
	if local > 0 {
		ratio = acked / local
	}
	fmt.Printf("BENCH_JSON {\"benchmark\":\"repl_ack_modes\",\"local_fsync_txn_per_s\":%.0f,\"replica_acked_txn_per_s\":%.0f,\"acked_over_local\":%.2f}\n",
		local, acked, ratio)
}

// TestReplQuorumAcksDatapoint measures replica-acked write throughput on a
// primary with two followers at ack quorum k=1 and again at k=2, and emits
// the pair.  The k-of-n gate waits for the k-th highest follower ack, so
// k=2 tracks the SLOWER of the two replicas — the datapoint shows what the
// extra fault tolerance costs on the commit path.
func TestReplQuorumAcksDatapoint(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping throughput measurement in short mode")
	}
	pdir, f1dir, f2dir := t.TempDir(), t.TempDir(), t.TempDir()
	pe, psrv, paddr := startReplServer(t, pdir)
	prim := repl.NewPrimary(pe.DurableLog(), 1)
	prim.SetAckTimeout(20 * time.Second)
	psrv.SetReplPrimary(prim)

	f1e, f1srv, _ := startReplServer(t, f1dir)
	f1srv.SetFollowerMode(true)
	f1 := startFollower(t, f1dir, paddr, f1e)
	f2e, f2srv, _ := startReplServer(t, f2dir)
	f2srv.SetFollowerMode(true)
	f2 := startFollower(t, f2dir, paddr, f2e)
	waitFor(t, "both subscriptions", func() bool { return prim.NumFollowers() == 2 })

	pe.SetCommitAckWaiter(prim.OnReplicated)
	k1 := measureReplThroughput(t, paddr, 400*time.Millisecond, benchUpsert)
	waitFor(t, "follower catch-up before k=2 run", func() bool {
		return caughtUp(pe, f1) && caughtUp(pe, f2)
	})

	prim.SetAckQuorum(2)
	k2 := measureReplThroughput(t, paddr, 400*time.Millisecond, benchUpsert)

	ratio := 0.0
	if k1 > 0 {
		ratio = k2 / k1
	}
	fmt.Printf("BENCH_JSON {\"benchmark\":\"repl_quorum_acks\",\"k1_txn_per_s\":%.0f,\"k2_txn_per_s\":%.0f,\"k2_over_k1\":%.2f}\n",
		k1, k2, ratio)
}

// TestReplReadScaleDatapoint measures the primary's write throughput alone
// and then concurrently with a reader hammering the follower, and emits all
// three rates.  The follower serving reads from replicated state should add
// read capacity without slowing the primary's write path.
func TestReplReadScaleDatapoint(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping throughput measurement in short mode")
	}
	pdir, fdir := t.TempDir(), t.TempDir()
	pe, psrv, paddr := startReplServer(t, pdir)
	prim := repl.NewPrimary(pe.DurableLog(), 1)
	psrv.SetReplPrimary(prim)

	fe, fsrv, faddr := startReplServer(t, fdir)
	fsrv.SetFollowerMode(true)
	f := startFollower(t, fdir, paddr, fe)
	waitFor(t, "subscription", func() bool { return prim.NumFollowers() == 1 })

	// Preload the read working set through the primary so the follower's
	// reads all hit replicated records.
	pc := dial(t, paddr)
	ctx := context.Background()
	window := make(chan *client.Future, 64)
	for i := 0; i < 20_000; i++ {
		for len(window) == cap(window) {
			if _, err := (<-window).Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		window <- pc.DoAsync(ctx, benchUpsert(i))
	}
	for len(window) > 0 {
		if _, err := (<-window).Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "preload catch-up", func() bool { return caughtUp(pe, f) })

	writesAlone := measureReplThroughput(t, paddr, 400*time.Millisecond, benchUpsert)

	var wg sync.WaitGroup
	var followerReads float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		followerReads = measureReplThroughput(t, faddr, 400*time.Millisecond, func(i int) *client.Txn {
			return client.NewTxn().Get("kv", client.Uint64Key(uint64(i%20_000+1)))
		})
	}()
	writesWithReads := measureReplThroughput(t, paddr, 400*time.Millisecond, benchUpsert)
	wg.Wait()

	slowdown := 0.0
	if writesAlone > 0 {
		slowdown = writesWithReads / writesAlone
	}
	fmt.Printf("BENCH_JSON {\"benchmark\":\"repl_read_scale\",\"primary_writes_alone_per_s\":%.0f,\"primary_writes_with_follower_reads_per_s\":%.0f,\"follower_reads_per_s\":%.0f,\"writes_with_over_alone\":%.2f}\n",
		writesAlone, writesWithReads, followerReads, slowdown)
}
