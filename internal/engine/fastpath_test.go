package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plp/internal/catalog"
	"plp/internal/cs"
	"plp/internal/keyenc"
	"plp/internal/txn"
)

// fastpathEngine builds a 4-partition engine over keys [1, 4000] with rows
// preloaded at every key.
func fastpathEngine(tb testing.TB, design Design) *Engine {
	tb.Helper()
	e := New(Options{Design: design, Partitions: 4})
	boundaries := [][]byte{keyenc.Uint64Key(1001), keyenc.Uint64Key(2001), keyenc.Uint64Key(3001)}
	if _, err := e.CreateTable(catalog.TableDef{Name: "t", Boundaries: boundaries}); err != nil {
		tb.Fatal(err)
	}
	l := e.NewLoader()
	for k := uint64(1); k <= 4000; k++ {
		if err := l.Insert("t", keyenc.Uint64Key(k), []byte(fmt.Sprintf("val-%06d", k))); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Cleanup(func() { _ = e.Close() })
	return e
}

// singleSiteReadReq builds the canonical single-site transaction the fast
// path exists for: two phases of reads whose keys all live on one
// partition, results written into out (len 3).
func singleSiteReadReq(base uint64, out [][]byte) *Request {
	k0, k1, k2 := keyenc.Uint64Key(base), keyenc.Uint64Key(base+1), keyenc.Uint64Key(base+2)
	req := NewRequest(
		Action{Table: "t", Key: k0, Exec: func(c *Ctx) error {
			v, err := c.Read("t", k0)
			out[0] = v
			return err
		}},
		Action{Table: "t", Key: k1, Exec: func(c *Ctx) error {
			v, err := c.Read("t", k1)
			out[1] = v
			return err
		}},
	)
	req.AddPhase(Action{Table: "t", Key: k2, Exec: func(c *Ctx) error {
		v, err := c.Read("t", k2)
		out[2] = v
		return err
	}})
	return req
}

// TestSingleSiteFastPathExecutesIdentically runs the same transactions on
// every partitioned design and checks results, state changes, and
// message-batching: a whole single-site transaction must cost exactly ONE
// message-passing critical section.
func TestSingleSiteFastPathExecutesIdentically(t *testing.T) {
	for _, design := range []Design{Logical, PLPRegular, PLPPartition, PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			e := fastpathEngine(t, design)
			sess := e.NewSession()
			out := make([][]byte, 3)
			before := e.CSStats().Snapshot().Entered[cs.MessagePassing]
			if _, err := sess.Execute(singleSiteReadReq(500, out)); err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				want := fmt.Sprintf("val-%06d", 500+i)
				if string(v) != want {
					t.Fatalf("read %d got %q want %q", i, v, want)
				}
			}
			mp := e.CSStats().Snapshot().Entered[cs.MessagePassing] - before
			if mp != 1 {
				t.Fatalf("single-site fast path used %d message-passing critical sections, want 1", mp)
			}
			// Worker load accounting stays in action units: the
			// 3-action transaction counts 3.
			if got := e.WorkerStats().Executed; got != 3 {
				t.Fatalf("Executed=%d after a 3-action transaction, want 3", got)
			}

			// A write transaction spanning two phases on one partition.
			k := keyenc.Uint64Key(700)
			wreq := NewRequest(Action{Table: "t", Key: k, Exec: func(c *Ctx) error {
				return c.Update("t", k, []byte("updated"))
			}})
			wreq.AddPhase(Action{Table: "t", Key: k, Exec: func(c *Ctx) error {
				v, err := c.Read("t", k)
				out[0] = v
				return err
			}})
			if _, err := sess.Execute(wreq); err != nil {
				t.Fatal(err)
			}
			if string(out[0]) != "updated" {
				t.Fatalf("phase 2 did not observe phase 1's write: %q", out[0])
			}

			// A failing phase 1 must abort the transaction, undo its
			// writes, and never start phase 2.
			phase2Ran := false
			freq := NewRequest(Action{Table: "t", Key: k, Exec: func(c *Ctx) error {
				if err := c.Update("t", k, []byte("doomed")); err != nil {
					return err
				}
				return errors.New("boom")
			}})
			freq.AddPhase(Action{Table: "t", Key: k, Exec: func(c *Ctx) error {
				phase2Ran = true
				return nil
			}})
			if _, err := sess.Execute(freq); !errors.Is(err, ErrAborted) {
				t.Fatalf("want ErrAborted, got %v", err)
			}
			if phase2Ran {
				t.Fatal("phase 2 ran after phase 1 failed")
			}
			if v, err := e.NewLoader().Read("t", k); err != nil || string(v) != "updated" {
				t.Fatalf("abort did not undo the write: %q, %v", v, err)
			}

			// A multi-partition phase (grouped dispatch) reads from all
			// four partitions.
			var mu sync.Mutex
			got := map[uint64]string{}
			var acts []Action
			for _, base := range []uint64{10, 11, 1200, 1201, 2400, 3600} {
				key := keyenc.Uint64Key(base)
				base := base
				acts = append(acts, Action{Table: "t", Key: key, Exec: func(c *Ctx) error {
					v, err := c.Read("t", key)
					mu.Lock()
					got[base] = string(v)
					mu.Unlock()
					return err
				}})
			}
			if _, err := sess.Execute(NewRequest(acts...)); err != nil {
				t.Fatal(err)
			}
			for _, base := range []uint64{10, 11, 1200, 1201, 2400, 3600} {
				if got[base] != fmt.Sprintf("val-%06d", base) {
					t.Fatalf("multi-partition read %d got %q", base, got[base])
				}
			}
			sess.Close()
		})
	}
}

// TestFastPathDisqualifiers checks that KeyFn actions fall back to the
// phased path and still execute correctly (the routing key only exists at
// dispatch time), and that an empty request commits.
func TestFastPathDisqualifiers(t *testing.T) {
	e := fastpathEngine(t, PLPLeaf)
	sess := e.NewSession()
	defer sess.Close()

	var derived []byte
	req := NewRequest(Action{Table: "t", Key: keyenc.Uint64Key(100), Exec: func(c *Ctx) error {
		v, err := c.Read("t", keyenc.Uint64Key(100))
		if err != nil {
			return err
		}
		derived = keyenc.Uint64Key(3600) // "learned" routing key for phase 2
		_ = v
		return nil
	}})
	var got []byte
	req.AddPhase(Action{Table: "t", KeyFn: func() []byte { return derived }, Exec: func(c *Ctx) error {
		v, err := c.Read("t", derived)
		got = v
		return err
	}})
	if _, err := sess.Execute(req); err != nil {
		t.Fatal(err)
	}
	if string(got) != "val-003600" {
		t.Fatalf("KeyFn-routed read got %q", got)
	}

	if _, err := sess.Execute(&Request{}); err != nil {
		t.Fatalf("empty request: %v", err)
	}
}

// singleSiteAllocBudget is the allocation budget of a committed single-site
// read transaction on the fast path.  It has head-room over the
// steady-state count (data-layer value copies plus incidental map growth)
// but fails loudly if the hot path regresses to per-action allocation
// (closures, fresh Ctx/countdown/error slices, commit records...).
const singleSiteAllocBudget = 12.0

// TestSingleSiteAllocs is the allocation gate: a committed single-site read
// transaction through the fast path must stay within singleSiteAllocBudget.
func TestSingleSiteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	e := fastpathEngine(t, PLPLeaf)
	sess := e.NewSession()
	defer sess.Close()
	out := make([][]byte, 3)
	req := singleSiteReadReq(500, out)
	for i := 0; i < 200; i++ { // warm pools and map tables
		if _, err := sess.Execute(req); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sess.Execute(req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("single-site committed read transaction: %.1f allocs", allocs)
	if allocs > singleSiteAllocBudget {
		t.Fatalf("single-site read transaction allocates %.1f objects, budget %.0f", allocs, singleSiteAllocBudget)
	}
}

// queueOpsPerTxn runs n transactions built by mk and returns the worker
// queue operations (message-passing critical sections) each cost.
func queueOpsPerTxn(tb testing.TB, e *Engine, sess *Session, mk func(i int) *Request, n int) float64 {
	tb.Helper()
	before := e.CSStats().Snapshot().Entered[cs.MessagePassing]
	for i := 0; i < n; i++ {
		if _, err := sess.Execute(mk(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return float64(e.CSStats().Snapshot().Entered[cs.MessagePassing]-before) / float64(n)
}

// TestSingleSiteFastpathOneTask gates the fast path on counts, which do not
// depend on the machine: a single-site transaction of three actions in two
// phases must cost exactly one worker task (one queue operation), and stay
// within singleSiteAllocBudget.
func TestSingleSiteFastpathOneTask(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	fast := fastpathEngine(t, PLPLeaf)
	fastSess := fast.NewSession()
	defer fastSess.Close()

	out := make([][]byte, 3)
	// Pre-built requests cycling over partition-0 keys so the measurement
	// exercises execution, not request construction.
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = singleSiteReadReq(uint64(1+(i*3)%900), out)
	}
	mk := func(i int) *Request { return reqs[i%len(reqs)] }

	for i := 0; i < 200; i++ { // warm the engine
		if _, err := fastSess.Execute(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	fastOps := queueOpsPerTxn(t, fast, fastSess, mk, 1000)
	fastAllocs := testing.AllocsPerRun(100, func() { _, _ = fastSess.Execute(mk(0)) })
	if fastOps != 1 {
		t.Errorf("single-site fast path costs %.2f worker tasks per transaction, want 1", fastOps)
	}
	if fastAllocs > singleSiteAllocBudget {
		t.Errorf("single-site fast path allocates %.1f objects per transaction, budget %.0f", fastAllocs, singleSiteAllocBudget)
	}
}

// TestRebalanceDuringBatchedDispatch is the ISSUE 5 race test: partition
// boundaries oscillate while multi-action transactions are in flight, so
// boundary moves land between batch submit and worker dequeue.  Every
// action must still execute exactly once, on the worker that owns its key
// at execution time — single-site batches re-drive, per-partition batches
// split and forward only their mis-routed actions.  Run under -race in CI
// (the internal/... race job).
func TestRebalanceDuringBatchedDispatch(t *testing.T) {
	const (
		rows     = 4000
		sessions = 4
		moves    = 80
	)
	for _, design := range []Design{Logical, PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			e := fastpathEngine(t, design)
			var stop atomic.Bool
			var ops, violations atomic.Uint64
			errCh := make(chan error, sessions)
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					sess := e.NewSession()
					defer sess.Close()
					rng := rand.New(rand.NewSource(seed))
					counts := make([]atomic.Uint32, 4)
					for !stop.Load() {
						// Alternate single-site batches (all keys one side of
						// the oscillating boundary) with phase batches that
						// straddle it, two actions per partition.
						var keys []uint64
						if rng.Intn(2) == 0 {
							base := uint64(rng.Intn(400) + 1) // firmly partition 0
							keys = []uint64{base, base + 1, base + 2, base + 3}
						} else {
							lo := uint64(rng.Intn(400) + 1)
							hi := uint64(rng.Intn(400) + 3200) // firmly partition 3
							keys = []uint64{lo, lo + 1, hi, hi + 1}
						}
						acts := make([]Action, len(keys))
						for i := range keys {
							k := keyenc.Uint64Key(keys[i])
							slot := i
							update := rng.Intn(4) == 0
							val := []byte(fmt.Sprintf("upd-%06d", keys[i]))
							acts[i] = Action{Table: "t", Key: k, Exec: func(c *Ctx) error {
								counts[slot].Add(1)
								// The quiesce protocol guarantees ownership is
								// stable while the worker executes, so the
								// routed partition must match the current
								// routing table.
								if c.Engine().PartitionFor("t", k) != c.Partition() {
									violations.Add(1)
								}
								if update {
									return c.Update("t", k, val)
								}
								_, err := c.Read("t", k)
								return err
							}}
						}
						for i := range counts {
							counts[i].Store(0)
						}
						if _, err := sess.Execute(NewRequest(acts...)); err != nil {
							errCh <- fmt.Errorf("traffic failed: %w", err)
							return
						}
						for i := range counts {
							if got := counts[i].Load(); got != 1 {
								errCh <- fmt.Errorf("action %d executed %d times, want exactly once", i, got)
								return
							}
						}
						ops.Add(1)
					}
				}(int64(s + 1))
			}

			rng := rand.New(rand.NewSource(7))
			for i := 0; i < moves; i++ {
				idx := 1 + i%3
				var lo, hi int
				switch idx {
				case 1:
					lo, hi = 500, 1500
				case 2:
					lo, hi = 1600, 2600
				default:
					lo, hi = 2700, 3700
				}
				b := uint64(lo + rng.Intn(hi-lo))
				if _, err := e.Rebalance("t", idx, keyenc.Uint64Key(b)); err != nil {
					t.Fatalf("rebalance %d: %v", i, err)
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			if violations.Load() != 0 {
				t.Fatalf("%d actions executed on a worker that no longer owned their key", violations.Load())
			}
			if ops.Load() == 0 {
				t.Fatal("no traffic executed during the moves")
			}
			// Integrity: exactly the loaded keys, each exactly once.
			l := e.NewLoader()
			next := uint64(1)
			if err := l.ReadRange("t", nil, nil, func(key, rec []byte) bool {
				k, derr := keyenc.DecodeUint64(key)
				if derr != nil || k != next {
					t.Fatalf("key sequence broken at %d (want %d)", k, next)
				}
				next++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if next != rows+1 {
				t.Fatalf("scanned %d rows, want %d", next-1, rows)
			}
			if aborted := e.TxnStats().Aborted; aborted != 0 {
				t.Fatalf("%d transactions aborted", aborted)
			}
		})
	}
}

// TestRehomeErrorAbortsRebalance is the ISSUE 5 bugfix test: a primary
// entry whose RID cannot be decoded used to be skipped silently during
// PLP-Partition re-homing, stranding the record on a partition that no
// longer owns it.  The rebalance must now fail loudly instead.
func TestRehomeErrorAbortsRebalance(t *testing.T) {
	e := New(Options{Design: PLPPartition, Partitions: 2})
	defer e.Close()
	if _, err := e.CreateTable(catalog.TableDef{Name: "t", Boundaries: [][]byte{keyenc.Uint64Key(51)}}); err != nil {
		t.Fatal(err)
	}
	l := e.NewLoader()
	for k := uint64(1); k <= 100; k++ {
		if err := l.Insert("t", keyenc.Uint64Key(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one entry in the range the boundary move will re-home.
	if err := tbl.Primary.Update(nil, keyenc.Uint64Key(45), []byte{0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	_, err = e.Rebalance("t", 1, keyenc.Uint64Key(40))
	if err == nil {
		t.Fatal("rebalance over a corrupt RID succeeded; the entry was silently skipped")
	}
	if !strings.Contains(err.Error(), "decode RID") {
		t.Fatalf("error does not surface the decode failure: %v", err)
	}
	// The range is validated BEFORE anything moves, so the failed rebalance
	// left the boundary (and sub-tree ownership) untouched.
	bounds, berr := e.Boundaries("t")
	if berr != nil {
		t.Fatal(berr)
	}
	if string(bounds[0]) != string(keyenc.Uint64Key(51)) {
		t.Fatalf("failed rebalance moved the boundary to %x; want it untouched at 51", bounds[0])
	}
	// A clean range ([48, 51), below the damage at 45) still rebalances.
	if _, err := e.Rebalance("t", 1, keyenc.Uint64Key(48)); err != nil {
		t.Fatalf("rebalance of a clean range failed: %v", err)
	}
	if bounds, _ := e.Boundaries("t"); string(bounds[0]) != string(keyenc.Uint64Key(48)) {
		t.Fatalf("clean rebalance did not apply: boundary %x", bounds[0])
	}
}

// TestWorkerQueueDepths exercises the diagnostics accessor behind plpd
// -pprof.
func TestWorkerQueueDepths(t *testing.T) {
	e := fastpathEngine(t, PLPLeaf)
	depths := e.WorkerQueueDepths()
	if len(depths) != 4 {
		t.Fatalf("got %d depths, want 4", len(depths))
	}
	conv := New(Options{Design: Conventional})
	defer conv.Close()
	if conv.WorkerQueueDepths() != nil {
		t.Fatal("conventional engine should report no worker queues")
	}
}

// TestRebalanceDuringContinuations is the sibling of
// TestRebalanceDuringBatchedDispatch for pipelined submission: requests are
// submitted without waiting (Session.Submit), so phases are dispatched by
// the worker that finished the previous one, and an access observer is
// attached whose lock the rebalancer holds across every Rebalance — the
// shape of a controller that must never be called from a worker, since a
// worker blocked on it could not reach the quiesce barrier.  Single-site,
// multi-site and bound (KeyFn) requests must each execute every action
// exactly once, on the worker that owns its key, with no deadlock.
func TestRebalanceDuringContinuations(t *testing.T) {
	const (
		submitters = 4
		window     = 8 // requests each submitter keeps in flight
		moves      = 60
	)
	for _, design := range []Design{Logical, PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			e := fastpathEngine(t, design)
			var obsMu sync.Mutex
			e.SetAccessObserver(func(string, int, []byte) {
				obsMu.Lock()
				defer obsMu.Unlock()
			})
			var stop atomic.Bool
			var ops, violations, bad atomic.Uint64
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					sess := e.NewSession()
					defer sess.Close()
					rng := rand.New(rand.NewSource(seed))
					slots := make(chan struct{}, window)
					var inflight sync.WaitGroup
					for !stop.Load() {
						slots <- struct{}{}
						var keys []uint64
						bound := false
						switch rng.Intn(3) {
						case 0:
							base := uint64(rng.Intn(400) + 1)
							keys = []uint64{base, base + 1, base + 2}
						case 1:
							lo, hi := uint64(rng.Intn(400)+1), uint64(rng.Intn(400)+3200)
							keys = []uint64{lo, hi, lo + 1}
						default:
							keys = []uint64{uint64(rng.Intn(400) + 1), uint64(rng.Intn(3999) + 1), 0}
							bound = true
						}
						counts := make([]atomic.Uint32, len(keys))
						check := func(slot int, k []byte) func(c *Ctx) error {
							return func(c *Ctx) error {
								counts[slot].Add(1)
								if c.Engine().PartitionFor("t", k) != c.Partition() {
									violations.Add(1)
								}
								_, err := c.Read("t", k)
								return err
							}
						}
						req := &Request{}
						if bound {
							// Phase 2 routes by a key phase 1 "learns".
							k0, k1 := keyenc.Uint64Key(keys[0]), keyenc.Uint64Key(keys[1])
							var learned []byte
							req.AddPhase(Action{Table: "t", Key: k0, Exec: func(c *Ctx) error {
								learned = k1
								return check(0, k0)(c)
							}})
							req.AddPhase(Action{Table: "t", KeyFn: func() []byte { return learned }, Exec: func(c *Ctx) error {
								counts[2].Add(1)
								return check(1, learned)(c)
							}})
						} else {
							var acts []Action
							for i, k := range keys {
								kk := keyenc.Uint64Key(k)
								acts = append(acts, Action{Table: "t", Key: kk, Exec: check(i, kk)})
							}
							req.AddPhase(acts[:2]...)
							req.AddPhase(acts[2])
						}
						inflight.Add(1)
						sess.Submit(req, func(_ Result, err error) {
							defer inflight.Done()
							if err != nil {
								bad.Add(1)
							}
							for i := range counts {
								if got := counts[i].Load(); got != 1 {
									bad.Add(1)
								}
							}
							ops.Add(1)
							<-slots
						})
					}
					inflight.Wait()
				}(int64(s + 1))
			}

			rng := rand.New(rand.NewSource(11))
			for i := 0; i < moves; i++ {
				idx := 1 + i%3
				lo := []int{0, 500, 1600, 2700}[idx]
				obsMu.Lock()
				_, err := e.Rebalance("t", idx, keyenc.Uint64Key(uint64(lo+rng.Intn(1000))))
				obsMu.Unlock()
				if err != nil {
					t.Fatalf("rebalance %d: %v", i, err)
				}
				time.Sleep(200 * time.Microsecond) // let traffic land between moves
			}
			stop.Store(true)
			wg.Wait()
			if n := bad.Load(); n != 0 {
				t.Fatalf("%d requests failed or ran an action other than exactly once", n)
			}
			if n := violations.Load(); n != 0 {
				t.Fatalf("%d actions executed on a worker that no longer owned their key", n)
			}
			if ops.Load() == 0 {
				t.Fatal("no traffic executed during the moves")
			}
		})
	}
}

// TestQueueWaitReachesTheTransaction holds partition 0's worker busy and
// queues transactions behind it, single-site ones and multi-site ones whose
// phase also touches partition 1.  Each task adds its batch's sampled,
// scaled queue wait to its transaction's WaitQueue, so both kinds must
// report some.
func TestQueueWaitReachesTheTransaction(t *testing.T) {
	const queued = 64 // per kind: a few sampled batches each
	e := fastpathEngine(t, PLPLeaf)
	sess := e.NewSession()
	defer sess.Close()
	running, release := make(chan struct{}), make(chan struct{})
	held := make(chan error, 1)
	hold := keyenc.Uint64Key(1)
	sess.Submit(NewRequest(Action{Table: "t", Key: hold, Exec: func(c *Ctx) error {
		close(running)
		<-release
		return nil
	}}), func(_ Result, err error) { held <- err })
	<-running

	read := func(k uint64) Action {
		key := keyenc.Uint64Key(k)
		return Action{Table: "t", Key: key, Exec: func(c *Ctx) error {
			_, err := c.Read("t", key)
			return err
		}}
	}
	type outcome struct {
		multi bool
		res   Result
		err   error
	}
	done := make(chan outcome, 2*queued)
	for i := 0; i < 2*queued; i++ {
		multi := i >= queued
		req := NewRequest(read(uint64(2 + i)))
		if multi {
			req = NewRequest(read(uint64(2+i)), read(uint64(1500+i)))
		}
		sess.Submit(req, func(res Result, err error) { done <- outcome{multi, res, err} })
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	var wait [2]time.Duration
	for i := 0; i < 2*queued; i++ {
		o := <-done
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.multi {
			wait[1] += o.res.Breakdown.Waits[txn.WaitQueue]
		} else {
			wait[0] += o.res.Breakdown.Waits[txn.WaitQueue]
		}
	}
	if wait[0] <= 0 || wait[1] <= 0 {
		t.Fatalf("transactions queued behind a busy worker report WaitQueue %v (single-site) and %v (multi-site), want both > 0", wait[0], wait[1])
	}
}
