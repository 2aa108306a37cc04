// Package harness drives workloads against engines and collects the
// measurements the paper's figures are built from: throughput, critical
// sections per transaction, page latches per transaction (by page type),
// and per-transaction time breakdowns.
package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"plp/internal/cs"
	"plp/internal/engine"
	"plp/internal/latch"
	"plp/internal/txn"
	"plp/plan"
)

// Workload is implemented by every benchmark workload (TATP, TPC-B, TPC-C
// and the microbenchmarks).
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Setup creates the workload's tables on the engine and loads them.
	Setup(e *engine.Engine) error
	// NextRequest generates the next transaction request.  It is called
	// concurrently from multiple client goroutines, each with its own
	// rand.Rand.
	NextRequest(rng *rand.Rand) *engine.Request
}

// PlanWorkload is implemented by workloads whose transactions can be
// expressed as declarative plans — the closure-free path a client would
// ship over the wire.  Set RunConfig.UsePlans to drive it.
type PlanWorkload interface {
	Workload
	// NextPlan generates the next transaction as a plan.  A nil return
	// means the configured mix has no plan equivalent.
	NextPlan(rng *rand.Rand) *plan.Plan
}

// RunConfig configures a measured run.
type RunConfig struct {
	// Clients is the number of concurrent client goroutines ("hardware
	// contexts utilized" in the paper's figures).
	Clients int
	// Duration bounds the measured interval.  If zero, TxnsPerClient is
	// used instead.
	Duration time.Duration
	// TxnsPerClient bounds the run by transaction count when Duration is
	// zero.
	TxnsPerClient int
	// WarmupTxnsPerClient transactions are executed (and discarded from the
	// statistics) before measurement starts.
	WarmupTxnsPerClient int
	// Seed seeds the per-client random generators.
	Seed int64
	// UsePlans drives the workload through its declarative plan path
	// (NextPlan + CompilePlan) instead of closure requests.  The workload
	// must implement PlanWorkload.
	UsePlans bool
}

func (c *RunConfig) normalize() {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Duration <= 0 && c.TxnsPerClient <= 0 {
		c.TxnsPerClient = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result is the outcome of one measured run.
type Result struct {
	Workload string
	Design   string
	Clients  int

	Committed uint64
	Aborted   uint64
	Elapsed   time.Duration

	// ThroughputTPS is committed transactions per second.
	ThroughputTPS float64
	// AvgLatency is the mean end-to-end transaction latency.
	AvgLatency time.Duration

	// CS is the critical-section delta over the measured interval and
	// CSPerTxn its per-transaction view (Figure 1).
	CS       cs.Snapshot
	CSPerTxn cs.Breakdown

	// Latches is the page-latch delta (Figures 2 and 3).
	Latches latch.Snapshot
	// LatchesPerTxn is the number of latch acquisitions per transaction by
	// page kind.
	LatchesPerTxn [latch.NumKinds]float64

	// WaitPerTxn is the average blocked time per transaction by wait kind
	// (Figures 6, 7 and 10).
	WaitPerTxn [txn.NumWaitKinds]time.Duration
}

// Run executes the workload against the engine.  Setup must already have
// been called; Run only executes requests and gathers statistics.
func Run(e *engine.Engine, w Workload, cfg RunConfig) (Result, error) {
	cfg.normalize()

	// Warmup.
	if cfg.WarmupTxnsPerClient > 0 {
		warm := cfg
		warm.Duration = 0
		warm.TxnsPerClient = cfg.WarmupTxnsPerClient
		warm.WarmupTxnsPerClient = 0
		if _, err := runClients(e, w, warm); err != nil {
			return Result{}, err
		}
	}
	return runClients(e, w, cfg)
}

// runClients performs one measured interval.
func runClients(e *engine.Engine, w Workload, cfg RunConfig) (Result, error) {
	var pw PlanWorkload
	if cfg.UsePlans {
		var ok bool
		if pw, ok = w.(PlanWorkload); !ok {
			return Result{}, fmt.Errorf("harness: UsePlans set but workload %s has no plan path", w.Name())
		}
	}
	csBefore := e.CSStats().Snapshot()
	latchBefore := e.LatchStats().Snapshot()

	var (
		committed  atomic.Uint64
		aborted    atomic.Uint64
		latencySum atomic.Int64
		waitSums   [txn.NumWaitKinds]atomic.Int64
		firstErr   atomic.Value
	)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(clientID int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(clientID)*7919))
			sess := e.NewSession()
			defer sess.Close()
			executed := 0
			for {
				if cfg.Duration > 0 {
					select {
					case <-stop:
						return
					default:
					}
				} else if executed >= cfg.TxnsPerClient {
					return
				}
				var res engine.Result
				var err error
				if pw != nil {
					p := pw.NextPlan(rng)
					if p == nil {
						firstErr.CompareAndSwap(nil, fmt.Errorf("harness: %s returned no plan for its mix", w.Name()))
						return
					}
					results := make([]plan.Result, p.NumOps())
					req, finish, cerr := e.CompilePlan(p, results, nil)
					if cerr != nil {
						firstErr.CompareAndSwap(nil, cerr)
						return
					}
					res, err = sess.Execute(req)
					finish()
				} else {
					res, err = sess.Execute(w.NextRequest(rng))
				}
				executed++
				if err != nil {
					if errors.Is(err, engine.ErrAborted) {
						aborted.Add(1)
						continue
					}
					firstErr.CompareAndSwap(nil, err)
					return
				}
				committed.Add(1)
				latencySum.Add(int64(res.Latency))
				for k := 0; k < txn.NumWaitKinds; k++ {
					waitSums[k].Add(int64(res.Breakdown.Waits[k]))
				}
			}
		}(c)
	}
	if cfg.Duration > 0 {
		time.Sleep(cfg.Duration)
		close(stop)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if v := firstErr.Load(); v != nil {
		return Result{}, v.(error)
	}

	csAfter := e.CSStats().Snapshot()
	latchAfter := e.LatchStats().Snapshot()

	res := Result{
		Workload:  w.Name(),
		Design:    e.Design().String(),
		Clients:   cfg.Clients,
		Committed: committed.Load(),
		Aborted:   aborted.Load(),
		Elapsed:   elapsed,
		CS:        csAfter.Sub(csBefore),
		Latches:   latchAfter.Sub(latchBefore),
	}
	if elapsed > 0 {
		res.ThroughputTPS = float64(res.Committed) / elapsed.Seconds()
	}
	if res.Committed > 0 {
		res.AvgLatency = time.Duration(latencySum.Load() / int64(res.Committed))
		res.CSPerTxn = res.CS.PerTxn(res.Committed)
		for k := 0; k < latch.NumKinds; k++ {
			res.LatchesPerTxn[k] = float64(res.Latches.Acquired[k]) / float64(res.Committed)
		}
		for k := 0; k < txn.NumWaitKinds; k++ {
			res.WaitPerTxn[k] = time.Duration(waitSums[k].Load() / int64(res.Committed))
		}
	}
	return res, nil
}

// TimelinePoint is one throughput sample of a timeline run.
type TimelinePoint struct {
	// T is the time since the start of the run at the end of the interval.
	T time.Duration
	// TPS is the committed-transaction throughput during the interval.
	TPS float64
}

// RunTimeline executes the workload for total duration, sampling the
// engine's committed-transaction throughput every interval, and fires event
// once after eventAt, if that falls within the run (from a separate
// goroutine, as the repartitioning trigger of Figure 8 would).  The event
// has returned by the time RunTimeline does.
func RunTimeline(e *engine.Engine, w Workload, cfg RunConfig, total, interval, eventAt time.Duration, event func()) ([]TimelinePoint, error) {
	cfg.normalize()
	cfg.Duration = total
	var wg sync.WaitGroup
	if event != nil && eventAt < total {
		wg.Add(1)
		time.AfterFunc(eventAt, func() {
			defer wg.Done()
			event()
		})
	}
	var points []TimelinePoint
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		prev := e.TxnStats().Committed
		for elapsed := interval; elapsed <= total; elapsed += interval {
			time.Sleep(time.Until(start.Add(elapsed)))
			cur := e.TxnStats().Committed
			points = append(points, TimelinePoint{T: elapsed, TPS: float64(cur-prev) / interval.Seconds()})
			prev = cur
		}
	}()
	_, err := runClients(e, w, cfg)
	wg.Wait()
	return points, err
}
