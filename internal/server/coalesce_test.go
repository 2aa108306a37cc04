package server

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"plp/client"
	"plp/internal/engine"
	"plp/plan"
)

// writeSyscalls returns the process's count of write syscalls (syscw in
// /proc/self/io).  Client and server share the process, so one reading
// covers both ends of the connection.  ok is false where the file is
// unreadable.
func writeSyscalls() (n uint64, ok bool) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, found := strings.CutPrefix(sc.Text(), "syscw: "); found {
			n, err := strconv.ParseUint(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// readPlans returns n single-row read plans over benchServer's preloaded
// keys.
func readPlans(n int) []*plan.Plan {
	plans := make([]*plan.Plan, n)
	for i := range plans {
		plans[i] = client.NewPlan().Get("accounts", client.Uint64Key(uint64(i%100_000)*10+1)).MustBuild()
	}
	return plans
}

// runReaders issues total single-row plan reads over c from callers
// goroutines, each waiting for its reply before sending the next, and
// returns how many write syscalls the process made meanwhile.
func runReaders(tb testing.TB, c *client.Client, plans []*plan.Plan, callers, total int) uint64 {
	tb.Helper()
	before, _ := writeSyscalls()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += callers {
				res, err := c.DoPlan(plans[i%len(plans)])
				if err != nil {
					tb.Error(err)
					return
				}
				if !res[0].Found {
					tb.Errorf("read %d: preloaded key not found", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	after, _ := writeSyscalls()
	return after - before
}

// TestPipelinedWritesCoalesce is the count gate on wire write batching: 16
// callers sharing one connection must average at most one write syscall
// per transaction across both ends — each writer yields once before
// flushing while other requests are in flight, so replies and requests
// leave in batches — while a serial caller still pays exactly one client
// write and one server write per transaction, flushed without a yield.
func TestPipelinedWritesCoalesce(t *testing.T) {
	if _, ok := writeSyscalls(); !ok {
		t.Skip("/proc/self/io is unreadable: cannot count write syscalls")
	}
	addr := benchServer(t, true)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, total, serial = 16, 8_000, 1_000
	plans := readPlans(1_000)
	runReaders(t, c, plans, callers, 1_000) // warm the plan cache and the scheduler

	pipelined := float64(runReaders(t, c, plans, callers, total)) / total
	serialPer := float64(runReaders(t, c, plans, 1, serial)) / serial
	fmt.Printf("BENCH_JSON {\"benchmark\":\"wire_coalescing\",\"callers\":%d,\"pipelined_writes_per_txn\":%.3f,\"serial_writes_per_txn\":%.3f}\n",
		callers, pipelined, serialPer)
	if pipelined > 1.0 {
		t.Errorf("%d callers on one connection: %.3f write syscalls per transaction, want <= 1.0", callers, pipelined)
	}
	// Two writes per serial transaction.  The 1% slack admits the odd
	// write other goroutines of the process make (the runtime's poller
	// wakeups), never a second flush per request.
	if serialPer < 2.0 || serialPer > 2.02 {
		t.Errorf("serial caller: %.3f write syscalls per transaction, want 2.0", serialPer)
	}
}

// TestStalledStreamDoesNotHoldReplies guards the flush rule against waiting
// for the connection to go idle: a streaming scan granted no further credit
// stays unanswered on the connection, and replies to reads sent behind it
// must still leave at once.
func TestStalledStreamDoesNotHoldReplies(t *testing.T) {
	_, _, addr := startScanServer(t, engine.PLPLeaf, 1_000, 0)
	c := dial(t, addr)
	ctx := context.Background()
	st, err := c.ScanStream(ctx, "sub", client.Uint64Key(1), nil,
		&client.ScanStreamOptions{ChunkEntries: 1, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Never call st.Next: the server sends its one-chunk window and stalls.
	for i := 1; i <= 10; i++ {
		gctx, cancel := context.WithTimeout(ctx, time.Second)
		start := time.Now()
		_, err := c.GetContext(gctx, "sub", client.Uint64Key(uint64(i)))
		cancel()
		if err != nil {
			t.Fatalf("get %d behind a stalled stream: %v after %v", i, err, time.Since(start))
		}
	}
}

// BenchmarkServerPipelined1Conn16Callers measures 16 goroutines sharing one
// connection, each with one single-row plan read in flight — the traffic
// perfbench and client.Sharded users produce — and reports write syscalls
// per transaction across both ends (writes/op).
func BenchmarkServerPipelined1Conn16Callers(b *testing.B) {
	addr := benchServer(b, true)
	c, err := client.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	plans := readPlans(1_000)
	_, countable := writeSyscalls()
	b.ResetTimer()
	writes := runReaders(b, c, plans, 16, b.N)
	b.StopTimer()
	if countable {
		b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
	}
}
