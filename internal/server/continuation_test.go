package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plp/client"
	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/repartition"
	"plp/plan"
)

// serverGoroutines counts the goroutines running server code (test code
// aside, such as a hook a test installed on the log's flusher).
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		for _, line := range bytes.Split(g, []byte("\n")) {
			if bytes.HasPrefix(line, []byte("plp/internal/server.")) && !bytes.HasPrefix(line, []byte("plp/internal/server.Test")) {
				count++
				break
			}
		}
	}
	return count
}

// TestRepliesWaitForTheFlusherNotForGoroutines is the durability gate of
// the continuation path.  It holds the log's flusher between its write and
// its fsync and puts 64 writes and reads in flight on one connection.
// Every one of them must execute and reach its commit — the writes'
// commit records appended, the reads registered on the LSN current at
// their commit — while no reply leaves until the flusher is released.  And
// the server must not park a goroutine per request meanwhile: its
// goroutine count stays that of an idle connection.
func TestRepliesWaitForTheFlusherNotForGoroutines(t *testing.T) {
	const inFlight = 64
	e, err := engine.Open(engine.Options{Design: engine.PLPLeaf, Partitions: 4, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable(catalog.TableDef{Name: "accounts",
		Boundaries: [][]byte{keyenc.Uint64Key(2500), keyenc.Uint64Key(5000), keyenc.Uint64Key(7500)}}); err != nil {
		t.Fatal(err)
	}
	srv := New(e)
	srv.ConnQueue = inFlight
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer func() {
		_ = srv.Close()
		_ = e.Close()
	}()
	c := dial(t, addr)
	if err := c.Upsert("accounts", client.Uint64Key(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	idle := serverGoroutines()

	held, release := make(chan struct{}), make(chan struct{})
	var once, releaseOnce sync.Once
	e.DurableLog().SetSyncHook(func() {
		once.Do(func() { close(held) })
		<-release
	})
	unhold := func() { releaseOnce.Do(func() { close(release) }) }
	defer unhold()

	before := e.WorkerStats().Executed
	appendsBefore := e.Log().Stats().Appends
	futures := make([]*client.Future, 0, inFlight)
	for i := 0; i < inFlight; i++ {
		// Each read follows a write of its key, on the same worker, so it
		// may have seen that write: it must wait for the same flush.
		key := client.Uint64Key(uint64(1 + i/2*300))
		p := plan.New().Get("accounts", key).MustBuild()
		if i%2 == 0 {
			p = plan.New().Upsert("accounts", key, []byte(fmt.Sprintf("w%d", i))).MustBuild()
		}
		futures = append(futures, c.DoPlanAsync(context.Background(), p))
	}
	<-held
	// A worker counts a task before running it, so wait for the
	// transactions to retire too.  Each write appends two records, its
	// change and its commit.
	deadline := time.Now().Add(10 * time.Second)
	for e.WorkerStats().Executed-before < inFlight || e.Log().Stats().Appends-appendsBefore < inFlight || e.ActiveTxns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("with the flusher held, %d of %d requests executed, %d of %d log records were appended and %d transactions are active: requests wait for goroutines",
				e.WorkerStats().Executed-before, inFlight, e.Log().Stats().Appends-appendsBefore, inFlight, e.ActiveTxns())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	for i, f := range futures {
		select {
		case <-f.Done():
			t.Fatalf("request %d was answered before its commit was durable", i)
		default:
		}
	}
	if n := serverGoroutines(); n > idle {
		t.Fatalf("%d requests in flight run %d server goroutines, an idle connection %d", inFlight, n, idle)
	}
	unhold()
	for i, f := range futures {
		resp, err := f.Wait(context.Background())
		if err != nil || !resp.Committed {
			t.Fatalf("request %d: %+v, %v", i, resp, err)
		}
	}
}

// TestRebalanceDuringPipelinedPlans drives pipelined plans of every shape
// the continuation path knows through the server while the repartitioning
// controller's access observer is attached and partition boundaries
// oscillate: single-site plans, multi-site plans, plans whose second phase
// routes by a key the first phase read (dispatched from the worker that
// ran the first), and secondary probes feeding an update.  Every plan adds
// one to a set of counters, so each must execute exactly once: the
// counters end at the number of committed increments.  Executing on a
// worker that no longer owns a key would break the PLP-Leaf sub-trees
// instead, which the final scan and the tree invariants catch.
func TestRebalanceDuringPipelinedPlans(t *testing.T) {
	const (
		rows    = 8000
		conns   = 2
		callers = 4
		moves   = 60
	)
	e := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 4})
	if _, err := e.CreateTable(catalog.TableDef{Name: "t",
		Boundaries:  [][]byte{keyenc.Uint64Key(2001), keyenc.Uint64Key(4001), keyenc.Uint64Key(6001)},
		Secondaries: []catalog.SecondaryDef{{Name: "alias"}}}); err != nil {
		t.Fatal(err)
	}
	alias := func(k uint64) []byte { return []byte(fmt.Sprintf("alias-%06d", k)) }
	// Rows 1..rows are counters; rows rows+1..2*rows point at counter k.
	l := e.NewLoader()
	for k := uint64(1); k <= rows; k++ {
		if err := l.Insert("t", keyenc.Uint64Key(k), plan.Int64(0)); err != nil {
			t.Fatal(err)
		}
		if err := l.Insert("t", keyenc.Uint64Key(rows+k), keyenc.Uint64Key(rows+1-k)); err != nil {
			t.Fatal(err)
		}
		if err := l.InsertSecondary("t", "alias", alias(k), keyenc.Uint64Key(k)); err != nil {
			t.Fatal(err)
		}
	}
	ctl, err := repartition.Attach(e, repartition.Config{Period: 20 * time.Millisecond, MinObservations: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	srv := New(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer func() {
		ctl.Stop()
		_ = srv.Close()
		_ = e.Close()
	}()

	want := make([]atomic.Int64, rows+1)
	var stop atomic.Bool
	var ops atomic.Int64
	errCh := make(chan error, conns*callers)
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		c := dial(t, addr)
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					b := plan.New()
					var hit []uint64
					switch rng.Intn(4) {
					case 0: // single-site: two counters firmly in partition 0
						k := uint64(rng.Intn(1500) + 1)
						b.Add("t", keyenc.Uint64Key(k), 1).Add("t", keyenc.Uint64Key(k+1), 1)
						hit = []uint64{k, k + 1}
					case 1: // multi-site: counters at both ends
						lo, hi := uint64(rng.Intn(1500)+1), uint64(rng.Intn(1500)+6300)
						b.Add("t", keyenc.Uint64Key(lo), 1).Add("t", keyenc.Uint64Key(hi), 1)
						hit = []uint64{lo, hi}
					case 2: // bound phase: follow a pointer row to its counter
						k := uint64(rng.Intn(rows) + 1)
						ref := b.Get("t", keyenc.Uint64Key(rows+k)).Ref()
						b.Then().Add("t", nil, 1).KeyFrom(ref)
						hit = []uint64{rows + 1 - k}
					default: // inline probe, then the counter it names
						k := uint64(rng.Intn(rows) + 1)
						ref := b.LookupSecondary("t", "alias", alias(k)).Ref()
						b.Then().Add("t", nil, 1).KeyFrom(ref)
						hit = []uint64{k}
					}
					if _, err := c.DoPlan(b.MustBuild()); err != nil {
						errCh <- err
						return
					}
					for _, k := range hit {
						want[k].Add(1)
					}
					ops.Add(1)
				}
			}(int64(ci*callers + g + 1))
		}
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < moves; i++ {
		idx := 1 + i%3
		lo := []int{0, 1000, 3000, 5000}[idx]
		b := uint64(lo + rng.Intn(2000))
		if _, err := e.Rebalance("t", idx, keyenc.Uint64Key(b)); err != nil {
			// The controller may have moved a neighbouring boundary past b.
			continue
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	ctl.Stop() // the checks below read the trees unquiesced
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if ops.Load() == 0 {
		t.Fatal("no traffic executed during the moves")
	}
	got := 0
	if err := e.NewLoader().ReadRange("t", keyenc.Uint64Key(1), keyenc.Uint64Key(rows+1), func(key, rec []byte) bool {
		k, _ := keyenc.DecodeUint64(key)
		v, _ := plan.DecodeInt64(rec)
		if v != want[k].Load() {
			t.Errorf("counter %d is %d, want %d: a plan ran %s", k, v, want[k].Load(), map[bool]string{true: "twice", false: "not at all"}[v > want[k].Load()])
		}
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != rows {
		t.Fatalf("scanned %d counters, want %d", got, rows)
	}
	tbl, _ := e.Table("t")
	if err := tbl.Primary.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
