// Package dora implements the data-oriented execution infrastructure shared
// by the logically-partitioned (Logical/DORA) and PLP designs: partition
// worker threads, their input and system queues, and the quiesce protocol
// used during repartitioning.
//
// Each logical partition is owned by exactly one worker goroutine.  The
// partition manager (package engine) decomposes transactions into actions
// and submits each action to the worker that owns the data it touches; the
// worker executes actions serially, which is what makes thread-local locking
// and (for PLP) latch-free page access safe.  Queue operations are the
// fixed-contention "message passing" critical sections of Figure 1.
//
// A task is a Runner.  The input queue carries batches: SubmitBatch
// enqueues a whole slice of runners with a single channel operation, which
// is how the partition manager ships one phase's per-partition action group
// (or a whole single-site transaction) at the fixed cost of ONE message
// instead of one per action.  Which worker a task goes to, and what it does
// when a boundary move took its data elsewhere while it was queued, is the
// partition manager's business: package engine routes every task and
// re-checks its ownership on the worker.
package dora

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"plp/internal/cs"
	"plp/internal/lock"
)

// ErrStopped is returned when work is submitted to a stopped worker pool.
var ErrStopped = errors.New("dora: worker pool is stopped")

// ErrQueueFull is returned by TrySubmitBatch when the worker's input queue
// has no room.
var ErrQueueFull = errors.New("dora: worker input queue is full")

// Runner is a unit of work executed by a partition worker: a pre-built (and
// typically pooled) object whose RunTask method executes on the worker
// goroutine and receives the worker, so it can use the worker-local lock
// table.  Storing a pointer in an interface does not allocate, whereas
// building a fresh closure for every task does.
type Runner interface {
	RunTask(w *Worker)
}

// batch is one input-queue element: a slice of tasks that rode one channel
// operation.  enqueuedAt is non-zero only on sampled batches (see
// timingSampleEvery).
type batch struct {
	tasks      *[]Runner
	enqueuedAt time.Time
}

// timingSampleEvery is the queue-wait/busy sampling period: one batch in
// every timingSampleEvery is timestamped at submit and measured on the
// worker, and its durations are scaled back up by the same factor, so
// Stats' QueueWait and Busy, and the BatchWait every task of the batch
// reads, stay unbiased estimates while time.Now leaves the per-task hot
// path entirely.
const timingSampleEvery = 16

// taskSlicePool recycles the task slices that SubmitBatch hands to workers.
var taskSlicePool = sync.Pool{New: func() any {
	ts := make([]Runner, 0, 8)
	return &ts
}}

// GetTasks returns an empty pooled task slice for SubmitBatch.  Ownership
// passes to the worker on a successful SubmitBatch; on error the caller
// keeps it and should return it with PutTasks.
func GetTasks() *[]Runner {
	ts := taskSlicePool.Get().(*[]Runner)
	*ts = (*ts)[:0]
	return ts
}

// PutTasks returns a task slice to the pool.  Callers use it only for
// slices a failed (or never attempted) SubmitBatch left in their hands.
func PutTasks(ts *[]Runner) {
	clear(*ts)
	*ts = (*ts)[:0]
	taskSlicePool.Put(ts)
}

// Worker is a partition worker goroutine and its queues.
type Worker struct {
	id      int
	input   chan batch
	system  chan Runner
	quit    chan struct{}
	stopped atomic.Bool
	done    sync.WaitGroup

	locks *lock.Local
	cst   *cs.Stats

	submitSeq atomic.Uint64 // counts input submissions for timing samples
	batchWait time.Duration // the running batch's scaled queue wait; worker goroutine only

	executed  atomic.Uint64
	sysTasks  atomic.Uint64
	queueWait atomic.Int64 // sampled-estimate nanoseconds tasks waited in the input queue
	busy      atomic.Int64 // sampled-estimate nanoseconds spent executing tasks
}

// newWorker creates a worker with the given queue depth.
func newWorker(id, queueDepth int, cstats *cs.Stats) *Worker {
	return &Worker{
		id:     id,
		input:  make(chan batch, queueDepth),
		system: make(chan Runner, 16),
		quit:   make(chan struct{}),
		locks:  lock.NewLocal(),
		cst:    cstats,
	}
}

// ID returns the worker's partition index.
func (w *Worker) ID() int { return w.id }

// Locks returns the worker-local lock table.  Only code running on the
// worker goroutine may use it.
func (w *Worker) Locks() *lock.Local { return w.locks }

// QueueDepth returns the number of batches waiting in the worker's input
// queue (diagnostics: the plpd -pprof endpoint publishes it via expvar).
func (w *Worker) QueueDepth() int { return len(w.input) }

// BatchWait returns the queue wait of the batch the worker is running,
// scaled by the sampling period: zero for an unsampled batch, so that the
// sum over every task of every batch stays an unbiased estimate of the
// tasks' total queue wait (each task of a batch waited the batch's wait).
// Only a task running on the worker goroutine may call it.
func (w *Worker) BatchWait() time.Duration { return w.batchWait }

// AddExecuted credits extra execution units to the worker's Executed
// counter.  A task that stands in for several units of work — the
// single-site fast path's whole-transaction task — calls it from its own
// body with the units it ACTUALLY ran beyond the one the worker counts per
// task, so per-partition load accounting stays in action units and a batch
// that redirects without executing credits (almost) nothing.
func (w *Worker) AddExecuted(units uint64) { w.executed.Add(units) }

// stamp samples the queue-wait clock: one submission in every
// timingSampleEvery gets a timestamp, the rest stay on the zero value.
// The first submission is sampled, so short runs never report a
// degenerate all-zero queue wait.
func (w *Worker) stamp() time.Time {
	if w.submitSeq.Add(1)%timingSampleEvery == 1 {
		return time.Now()
	}
	return time.Time{}
}

// SubmitBatch enqueues every task of ts on the worker's input queue with a
// single channel operation — the whole batch pays the fixed message-passing
// cost once, and it waits for queue room.  The tasks execute in slice
// order, serially, like any other input tasks.  On success, ownership of ts
// transfers to the worker, which recycles it after the last task runs;
// obtain slices from GetTasks.  On error the caller keeps ownership (and
// can PutTasks it after inspecting the tasks).
func (w *Worker) SubmitBatch(ts *[]Runner) error {
	return w.enqueue(ts, true)
}

// TrySubmitBatch is SubmitBatch without the wait: it returns ErrQueueFull,
// and the caller keeps ts, when the input queue has no room.  A partition
// worker that hands work to another worker uses it, so that it never
// blocks on a bounded queue another worker drains: two workers feeding
// each other's full queues would deadlock.
func (w *Worker) TrySubmitBatch(ts *[]Runner) error {
	return w.enqueue(ts, false)
}

// enqueue puts ts on the input queue, waiting for room when block is set.
func (w *Worker) enqueue(ts *[]Runner, block bool) error {
	if len(*ts) == 0 {
		PutTasks(ts)
		return nil
	}
	if w.stopped.Load() {
		return ErrStopped
	}
	b := batch{tasks: ts, enqueuedAt: w.stamp()}
	// Counted before the send: the task may complete, and its submitter
	// read the counters, before this goroutine runs again.
	w.cst.RecordClass(cs.MessagePassing, cs.Fixed, false)
	select {
	case w.input <- b:
		return nil
	default:
		if !block {
			return ErrQueueFull
		}
	}
	select {
	case <-w.quit:
		return ErrStopped
	case w.input <- b:
		return nil
	}
}

// SubmitSystem enqueues a high-priority system task; repartitioning barriers
// use this queue.
func (w *Worker) SubmitSystem(r Runner) error {
	if w.stopped.Load() {
		return ErrStopped
	}
	w.cst.RecordClass(cs.MessagePassing, cs.Fixed, false)
	select {
	case <-w.quit:
		return ErrStopped
	case w.system <- r:
		return nil
	}
}

// loop is the worker goroutine body.
func (w *Worker) loop() {
	defer w.done.Done()
	for {
		// System tasks have priority over the input queue.
		select {
		case r := <-w.system:
			w.runSystem(r)
			continue
		default:
		}
		// Busy fast path: a non-blocking receive costs a fraction of a full
		// select, and under load the input queue is never empty.
		select {
		case b := <-w.input:
			w.run(b)
			continue
		default:
		}
		select {
		case r := <-w.system:
			w.runSystem(r)
		case b := <-w.input:
			w.run(b)
		case <-w.quit:
			// Drain any remaining input so submitters are not stranded.
			for {
				select {
				case b := <-w.input:
					w.run(b)
				case r := <-w.system:
					w.runSystem(r)
				default:
					return
				}
			}
		}
	}
}

// run executes one input batch.  Only sampled batches (non-zero
// enqueuedAt) read the clock; their measured durations are scaled by the
// sampling period so the accumulated counters remain estimates of the
// true totals.
func (w *Worker) run(b batch) {
	var start time.Time
	if !b.enqueuedAt.IsZero() {
		start = time.Now()
		w.batchWait = start.Sub(b.enqueuedAt) * timingSampleEvery
		w.queueWait.Add(int64(w.batchWait))
	}
	ts := *b.tasks
	// Tasks are credited before they run: a task typically signals its
	// completion from inside RunTask, and a caller woken by that signal
	// must already see the task counted.
	w.executed.Add(uint64(len(ts)))
	for _, r := range ts {
		r.RunTask(w)
	}
	PutTasks(b.tasks)
	if !start.IsZero() {
		w.busy.Add(int64(time.Since(start)) * timingSampleEvery)
		w.batchWait = 0
	}
}

func (w *Worker) runSystem(r Runner) {
	r.RunTask(w)
	w.sysTasks.Add(1)
}

// Stats describes a worker's activity.  QueueWait and Busy are sampled
// estimates (one batch in every timingSampleEvery is measured and scaled),
// so time.Now stays off the per-task hot path; Executed (execution units:
// one per task plus whatever multi-action tasks credit via AddExecuted)
// and SystemTasks are exact.
type Stats struct {
	Executed    uint64
	SystemTasks uint64
	QueueWait   time.Duration
	Busy        time.Duration
}

// Stats returns the worker's activity counters.
func (w *Worker) Stats() Stats {
	return Stats{
		Executed:    w.executed.Load(),
		SystemTasks: w.sysTasks.Load(),
		QueueWait:   time.Duration(w.queueWait.Load()),
		Busy:        time.Duration(w.busy.Load()),
	}
}

// Pool is a set of partition workers, one per logical partition.
type Pool struct {
	workers []*Worker
	started atomic.Bool
	stopped atomic.Bool

	// quiesceMu serializes quiesce operations.  Two concurrent quiesces
	// (say, a checkpoint and a repartitioning) that interleave their barrier
	// submissions would each park a subset of the workers and wait forever
	// for the rest; taking the mutex for the whole operation makes that
	// impossible.
	quiesceMu sync.Mutex
}

// NewPool creates n workers with the given input-queue depth.
func NewPool(n, queueDepth int, cstats *cs.Stats) *Pool {
	if n < 1 {
		n = 1
	}
	if queueDepth < 1 {
		queueDepth = 128
	}
	p := &Pool{}
	for i := 0; i < n; i++ {
		p.workers = append(p.workers, newWorker(i, queueDepth, cstats))
	}
	return p
}

// Start launches the worker goroutines.
func (p *Pool) Start() {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	for _, w := range p.workers {
		w.done.Add(1)
		go w.loop()
	}
}

// Stop terminates the workers after draining their queues.  Submissions
// after Stop return ErrStopped.
func (p *Pool) Stop() {
	if !p.started.Load() || !p.stopped.CompareAndSwap(false, true) {
		return
	}
	for _, w := range p.workers {
		w.stopped.Store(true)
	}
	for _, w := range p.workers {
		close(w.quit)
	}
	for _, w := range p.workers {
		w.done.Wait()
	}
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Worker returns worker i.
func (p *Pool) Worker(i int) *Worker { return p.workers[i%len(p.workers)] }

// Workers returns all workers.
func (p *Pool) Workers() []*Worker { return p.workers }

// Quiesce pauses every worker at a barrier, runs fn while all partitions are
// idle, and then releases the workers.  The partition manager uses it around
// repartitioning, which therefore needs no latching at all (Section 3.1:
// "the partition manager simply quiesces affected threads until the process
// completes").
func (p *Pool) Quiesce(fn func()) error {
	ids := make([]int, len(p.workers))
	for i := range ids {
		ids[i] = i
	}
	return p.QuiesceWorkers(ids, fn)
}

// QuiesceWorkers parks only the workers with the given ids at a barrier and
// runs fn while exactly those partitions are idle; the remaining workers keep
// executing.  Repartitioning uses it to implement the paper's DRP behaviour
// of quiescing only the partition pair affected by a boundary move instead of
// stopping the world.  Duplicate and out-of-range ids are ignored.
func (p *Pool) QuiesceWorkers(ids []int, fn func()) error {
	p.quiesceMu.Lock()
	defer p.quiesceMu.Unlock()

	seen := make(map[int]bool, len(ids))
	targets := make([]*Worker, 0, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(p.workers) || seen[id] {
			continue
		}
		seen[id] = true
		targets = append(targets, p.workers[id])
	}
	if len(targets) == 0 {
		fn()
		return nil
	}

	b := &barrier{}
	b.reached.Add(len(targets))
	b.release.Add(1)
	submitted := 0
	for _, w := range targets {
		if err := w.SubmitSystem(b); err != nil {
			// Unblock any workers already parked at the barrier and account
			// for the barriers that never made it into a queue.
			b.reached.Add(submitted - len(targets))
			b.release.Done()
			return err
		}
		submitted++
	}
	b.reached.Wait()
	fn()
	b.release.Done()
	return nil
}

// barrier is the quiesce task: it parks each worker that runs it until the
// quiesce releases them all.
type barrier struct{ reached, release sync.WaitGroup }

// RunTask reports the worker parked and waits for the release.
func (b *barrier) RunTask(*Worker) {
	b.reached.Done()
	b.release.Wait()
}

// TotalStats sums the workers' activity counters.
func (p *Pool) TotalStats() Stats {
	var out Stats
	for _, w := range p.workers {
		s := w.Stats()
		out.Executed += s.Executed
		out.SystemTasks += s.SystemTasks
		out.QueueWait += s.QueueWait
		out.Busy += s.Busy
	}
	return out
}
