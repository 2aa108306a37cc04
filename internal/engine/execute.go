// Request execution for the five designs, bulk loading, and rebalancing.
package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"plp/internal/catalog"
	"plp/internal/dora"
	"plp/internal/lock"
	"plp/internal/page"
	"plp/internal/txn"
)

// ErrAborted is returned when a request's transaction had to be aborted.
var ErrAborted = errors.New("engine: transaction aborted")

// Result describes a completed request.
type Result struct {
	// Txn is the transaction that executed the request (already committed
	// or aborted).  After Execute it remains valid until the session's next
	// Execute (or Close), when the engine recycles the transaction object;
	// after Submit, only until the completion returns.
	Txn *txn.Txn
	// Breakdown is the transaction's blocked-time breakdown.
	Breakdown txn.Totals
	// Latency is the end-to-end request latency.
	Latency time.Duration
}

// Execute runs one request as a transaction and returns its result: it is
// Submit plus a wait, so the session's goroutine blocks until the
// transaction commits (and its acknowledgement gates pass) or aborts.
func (s *Session) Execute(req *Request) (Result, error) {
	return s.wait(req, "")
}

// ExecutePrepare runs one request as the local branch of a cross-shard
// transaction: the actions execute exactly as Execute would, but instead of
// committing, the branch votes yes by writing a durable prepare record
// under gid and stays active — locks held, undo retained — until
// Engine.DecidePrepared delivers the coordinator's verdict.  An error
// return is a no vote: the branch has already aborted locally (or its vote
// could not be made durable).  The prepared transaction is deliberately NOT
// parked in s.lastTxn — it outlives this request, and the session's next
// Execute must not recycle it.
func (s *Session) ExecutePrepare(req *Request, gid string) (Result, error) {
	return s.wait(req, gid)
}

// wait submits req and parks the calling goroutine until its completion.
func (s *Session) wait(req *Request, gid string) (Result, error) {
	s.recycleLast()
	s.submit(req, gid, true, s.wake)
	<-s.woken
	res, err := s.res, s.err
	s.res, s.err = Result{}, nil
	if res.Txn != nil && res.Txn.State() != txn.Active {
		s.lastTxn = res.Txn
	}
	return res, err
}

// Submit starts req as one transaction and returns without waiting for it:
// done runs exactly once with the outcome, on whichever goroutine finishes
// the transaction — the partition worker that ran its last action, the
// log's flush daemon once the commit is durable, the goroutine whose
// follower ack passes the quorum gate, or the caller itself when nothing
// is left to wait for.  done must therefore be cheap and must not block,
// and Result.Txn is valid only until it returns.
//
// On the partitioned designs Submit returns once the request's first
// phase is handed to the workers, and one session may submit concurrently
// from several goroutines.  The Conventional design runs the whole
// transaction, lock waits included, on the calling goroutine before Submit
// returns, and its session (which holds the SLI cache) must not be shared.
func (s *Session) Submit(req *Request, done func(Result, error)) {
	s.submit(req, "", false, done)
}

// recycleLast returns the previous request's transaction object to the
// manager's pool.  Sessions are single-goroutine, so by the time the next
// Execute starts the caller can no longer be holding the last Result's Txn
// per the documented contract.
func (s *Session) recycleLast() {
	if s.lastTxn != nil {
		s.e.tm.Recycle(s.lastTxn)
		s.lastTxn = nil
	}
}

// submit begins the transaction and starts it: inline in the Conventional
// design, through the partition workers otherwise.  keep leaves the
// finished transaction to the caller instead of recycling it after done.
func (s *Session) submit(req *Request, gid string, keep bool, done func(Result, error)) {
	e := s.e
	st := getExecState(e, e.tm.Begin(), req)
	st.sess, st.gid, st.keep, st.done = s, gid, keep, done
	st.start = time.Now()
	if e.opts.Design == Conventional {
		st.runConventional()
		return
	}
	st.observeStatic()
	st.dispatch(0, false)
}

// runConventional runs every action inline on the calling goroutine,
// acquiring centralized locks and latching pages as a conventional
// shared-everything system does.
func (st *execState) runConventional() {
	ctx := &st.ctx
	*ctx = Ctx{eng: st.e, tx: st.tx, sess: st.sess, partition: -1}
	for pi := range st.req.Phases {
		phase := st.phaseActions(pi)
		for i := range phase {
			if err := phase[i].Exec(ctx); err != nil {
				st.finish(err)
				return
			}
		}
	}
	st.finish(nil)
}

// releaseTableLocks hands the transaction's table locks to the SLI cache
// (on commit, when SLI is enabled) or releases them.
func (s *Session) releaseTableLocks(ctx *Ctx, tx *txn.Txn, commit bool) {
	if s.e.locks == nil {
		return
	}
	for name, mode := range ctx.tableLocks {
		if commit && s.sli != nil {
			if err := s.sli.Inherit(tx.ID(), name, mode); err == nil {
				continue
			}
		}
		_ = s.e.locks.Release(tx.ID(), name)
	}
	ctx.tableLocks = nil
}

// waitSampleEvery is the WaitQueue-breakdown sampling period: one dispatch
// in every waitSampleEvery is timestamped and its measured queue wait is
// scaled back up by the same factor, keeping the per-transaction breakdown
// an unbiased estimate while the per-action hot path never reads the clock.
const waitSampleEvery = 16

// tableEpoch is one table's routing epoch captured at submit time.
type tableEpoch struct {
	rt    *routingTable
	epoch uint64
}

// execState is one request in flight, recycled through a sync.Pool: the
// transaction and its continuation, the phase in flight with its countdown
// and error slots, the worker Ctx of the single-site fast path, and the
// batch items of grouped dispatch.  The request runs on continuations: the
// action that finishes a phase last dispatches the next phase, or commits
// (DORA's rendezvous points), and the commit's last gate runs the caller's
// completion — no goroutine waits for the request.  Nothing in it survives
// the request; pooling it is what keeps the hot path allocation-free.
type execState struct {
	e    *Engine
	tx   *txn.Txn
	req  *Request
	sess *Session
	gid  string              // prepare under this gid instead of committing
	keep bool                // the caller recycles tx, not the completion
	done func(Result, error) // the caller's completion
	// onCommit is st.committed, bound once per pooled object so that a
	// commit allocates no closure.
	onCommit func(error)

	start      time.Time
	phase      int          // the phase in flight on the phased path
	first      int          // the first phase the single-site task runs
	phased     bool         // a phase went to the workers, or a re-drive
	pending    atomic.Int32 // actions of the phase in flight still running
	errs       []error
	tabs       []tableEpoch
	items      []batchItem
	ctx        Ctx       // the single-site (and conventional) request Ctx
	enqueuedAt time.Time // sampled queue-wait stamp for the single-site task
}

var execStatePool = sync.Pool{New: func() any { return new(execState) }}

// getExecState returns pooled per-request scratch bound to the request.
func getExecState(e *Engine, tx *txn.Txn, req *Request) *execState {
	st := execStatePool.Get().(*execState)
	if st.onCommit == nil {
		st.onCommit = st.committed
	}
	st.e, st.tx, st.req = e, tx, req
	return st
}

// putExecState clears references and recycles the scratch.  Callers must
// guarantee no worker still touches it: the request's completion runs only
// after its last action returned.
func putExecState(st *execState) {
	st.e, st.tx, st.req, st.sess, st.done = nil, nil, nil, nil, nil
	st.gid, st.keep = "", false
	st.phase, st.first, st.phased = 0, 0, false
	st.tabs = st.tabs[:0]
	clear(st.errs)
	clear(st.items)
	st.items = st.items[:0]
	st.ctx = Ctx{}
	st.enqueuedAt = time.Time{}
	execStatePool.Put(st)
}

// resetErrs sizes the error slots for one phase and clears them.
func (st *execState) resetErrs(n int) {
	if cap(st.errs) < n {
		st.errs = make([]error, n)
		return
	}
	st.errs = st.errs[:n]
	clear(st.errs)
}

// phaseActions returns phase pi's actions, with those its expander (if
// any) materializes now that every earlier phase has run.
func (st *execState) phaseActions(pi int) []Action {
	phase := st.req.Phases[pi]
	if st.req.Expand != nil && st.req.Expand[pi] != nil {
		if extra := st.req.Expand[pi](); len(extra) > 0 {
			phase = append(append(make([]Action, 0, len(phase)+len(extra)), phase...), extra...)
		}
	}
	return phase
}

// bound reports whether phase pi routes at dispatch time: it holds a KeyFn
// action or an expander.
func (st *execState) bound(pi int) bool {
	if st.req.Expand != nil && st.req.Expand[pi] != nil {
		return true
	}
	for i := range st.req.Phases[pi] {
		if st.req.Phases[pi][i].KeyFn != nil {
			return true
		}
	}
	return false
}

// observeStatic reports every statically keyed action of the request to
// the access observer, at submit.  Actions routed at dispatch time are
// reported where their phase is dispatched (dispatchPhase), never on a
// partition worker: the observer may take locks a quiesce holds.
func (st *execState) observeStatic() {
	if st.e.observer.Load() == nil {
		return
	}
	for _, phase := range st.req.Phases {
		for i := range phase {
			if a := &phase[i]; !a.Inline && a.KeyFn == nil {
				st.e.observeAccess(a.Table, st.e.partitionFor(a.Table, a.Key), a.Key)
			}
		}
	}
}

// dispatch runs the request on from phase pi until it must wait for the
// partition workers, or commits.  Inline phases run right here.  While no
// phase has gone to a worker yet, the rest of the request takes the
// single-site fast path when it qualifies; otherwise the first non-inline
// phase is dispatched, and its last action to finish calls dispatch again
// (from phaseDone).  onWorker says dispatch runs on a partition worker.
func (st *execState) dispatch(pi int, onWorker bool) {
	for ; pi < len(st.req.Phases); pi++ {
		phase := st.phaseActions(pi)
		if allInline(phase) {
			if err := st.runInline(phase); err != nil {
				st.finish(err)
				return
			}
			continue
		}
		if !st.phased {
			if pidx, ok := st.analyze(pi); ok {
				st.submitSingleSite(pi, pidx)
				return
			}
		}
		st.dispatchPhase(pi, phase, onWorker)
		return
	}
	st.finish(nil)
}

// allInline reports whether no action of the phase needs a worker (an
// empty phase included).
func allInline(phase []Action) bool {
	for i := range phase {
		if !phase[i].Inline {
			return false
		}
	}
	return true
}

// runInline runs the phase's inline actions on the calling goroutine, with
// a Ctx bound to no worker.  No worker runs an action of the request
// meanwhile, so the request's Ctx is free.
func (st *execState) runInline(phase []Action) error {
	var firstErr error
	for i := range phase {
		if !phase[i].Inline {
			continue
		}
		st.ctx = Ctx{eng: st.e, tx: st.tx, partition: -1}
		if err := phase[i].Exec(&st.ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// analyze decides whether phases first.. qualify for the single-site fast
// path: every action routes to the same partition worker, and none is
// routed at dispatch time by a phase that has not yet run — a KeyFn is
// allowed in phase first only, whose predecessors have all run (inline),
// and expanders disqualify.  Inline actions route nowhere.  A closure
// action with a nil routing key disqualifies too: it default-routes to
// partition 0 like always, but conservatively through the phased path.
// analyze also captures each touched table's routing epoch — before that
// table's first routing lookup, so a boundary move between the two makes
// the worker-side re-check fire, never the reverse.
func (st *execState) analyze(first int) (int, bool) {
	e := st.e
	if st.req.Expand != nil {
		return 0, false
	}
	st.tabs = st.tabs[:0]
	pidx := -1
	for pi := first; pi < len(st.req.Phases); pi++ {
		phase := st.req.Phases[pi]
		for i := range phase {
			a := &phase[i]
			if a.Inline {
				continue
			}
			if a.KeyFn != nil && pi != first {
				return 0, false
			}
			key := a.routingKey()
			if key == nil {
				return 0, false
			}
			if rt := e.routing[a.Table]; rt != nil && !st.hasTable(rt) {
				st.tabs = append(st.tabs, tableEpoch{rt: rt, epoch: rt.epoch.Load()})
			}
			p := e.partitionFor(a.Table, key)
			if pidx == -1 {
				pidx = p
			} else if p != pidx {
				return 0, false
			}
		}
	}
	return pidx, pidx >= 0
}

// hasTable reports whether the routing table's epoch was already captured.
func (st *execState) hasTable(rt *routingTable) bool {
	for i := range st.tabs {
		if st.tabs[i].rt == rt {
			return true
		}
	}
	return false
}

// stillOwned re-routes every action of the single-site task with the
// current boundaries and reports whether they all still land on worker w.
func (st *execState) stillOwned(w *dora.Worker) bool {
	for _, phase := range st.req.Phases[st.first:] {
		for i := range phase {
			if a := &phase[i]; !a.Inline && st.e.partitionFor(a.Table, a.routingKey()) != w.ID() {
				return false
			}
		}
	}
	return true
}

// submitSingleSite ships phases first.. to the one worker that owns every
// action, as a single task.  Phase first's bound actions were routed by
// analyze; they are reported to the observer here, off the workers.
func (st *execState) submitSingleSite(first, pidx int) {
	e := st.e
	st.first = first
	if e.observer.Load() != nil {
		for i := range st.req.Phases[first] {
			if a := &st.req.Phases[first][i]; !a.Inline && a.KeyFn != nil {
				e.observeAccess(a.Table, pidx, a.routingKey())
			}
		}
	}
	st.enqueuedAt = e.sampleEnqueue()
	if err := e.pool.Worker(pidx).Submit(dora.Task{Run: st}); err != nil {
		st.finish(err)
	}
}

// RunTask executes the whole single-site transaction on the owning worker:
// phases run serially in submission order — on one worker, serial execution
// IS the phase ordering — with no per-phase countdown and no hop back to
// the submitter; the worker then commits, and the commit's completion
// replies.  Before touching any data the worker re-checks ownership against
// the captured routing epochs: a boundary move that landed while the task
// sat in the queue means some action may now belong to another partition,
// and a worker must never touch a latch-free sub-tree it does not own.
// Nothing has executed at that point, so the request is re-driven through
// the phased path, which routes every action to its current owner — from a
// fresh goroutine, since a worker must not block on another worker's
// queue.  Once execution starts, ownership is stable: any move affecting
// this worker's ranges must quiesce this worker first, and the worker is
// busy right here until the task completes.
func (st *execState) RunTask(w *dora.Worker) {
	for i := range st.tabs {
		if st.tabs[i].rt.epoch.Load() != st.tabs[i].epoch {
			if !st.stillOwned(w) {
				st.phased = true
				go st.dispatch(st.first, false)
				return
			}
			break
		}
	}
	if !st.enqueuedAt.IsZero() {
		st.tx.Breakdown.AddWait(txn.WaitQueue, time.Since(st.enqueuedAt)*waitSampleEvery)
	}
	ctx := &st.ctx
	*ctx = Ctx{eng: st.e, tx: st.tx, worker: w, partition: w.ID()}
	var firstErr error
	actions := 0
	for _, phase := range st.req.Phases[st.first:] {
		// Mirror the phased path: every action of the failing phase still
		// runs (they were all dispatched before the error was visible
		// there); later phases do not.
		for i := range phase {
			actions++
			if err := phase[i].Exec(ctx); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			break
		}
	}
	// The worker counts this task as one; credit the rest of the actions it
	// ACTUALLY ran so per-partition load accounting stays in action units
	// (a redispatched task, above, credits nothing extra).
	if actions > 1 {
		w.AddExecuted(uint64(actions - 1))
	}
	w.Locks().ReleaseTxn(st.tx.ID())
	st.finish(firstErr) // st may be recycled from here on
}

// dispatchPhase hands one phase to the partition workers.  Inline actions
// run first, right here; the others are grouped by owning partition and
// every group rides to its worker as one batch (k channel operations for a
// k-partition phase instead of one per action).  The phase's countdown
// starts at the number of worker actions; the last one to finish calls
// phaseDone.
//
// On a worker, the phase is submitted without waiting for queue room
// (submit), and a phase routed at dispatch time is handed to a fresh
// goroutine when an access observer is attached, so the observer never
// runs on a worker.
func (st *execState) dispatchPhase(pi int, phase []Action, onWorker bool) {
	e := st.e
	if onWorker && e.observer.Load() != nil && st.bound(pi) {
		go st.dispatchPhase(pi, phase, false)
		return
	}
	st.phase, st.phased = pi, true
	if err := st.runInline(phase); err != nil {
		st.finish(err)
		return
	}
	st.resetErrs(len(phase))
	n := 0
	for i := range phase {
		if !phase[i].Inline {
			n++
		}
	}
	st.pending.Store(int32(n))
	observe := e.observer.Load() != nil && st.bound(pi)
	st.dispatchGrouped(phase, observe, onWorker)
}

// actionDone records one worker action's outcome; the last action of the
// phase to finish moves the request on (phaseDone).
func (st *execState) actionDone(slot int, err error, onWorker bool) {
	st.errs[slot] = err
	if st.pending.Add(-1) == 0 {
		st.phaseDone(onWorker)
	}
}

// phaseDone runs on whichever goroutine finished the phase's last action:
// an error aborts the transaction, otherwise the next phase dispatches.
func (st *execState) phaseDone(onWorker bool) {
	for _, err := range st.errs {
		if err != nil {
			st.finish(err)
			return
		}
	}
	st.dispatch(st.phase+1, onWorker)
}

// finish commits (or, with a gid, prepares) or aborts the transaction once
// its actions have run.  The commit's completion (committed) builds the
// Result and runs the caller's continuation.
func (st *execState) finish(abortErr error) {
	e := st.e
	conventional := e.opts.Design == Conventional
	if abortErr != nil {
		_ = e.tm.Abort(st.tx)
		if conventional {
			st.sess.releaseTableLocks(&st.ctx, st.tx, false)
		}
		st.complete(fmt.Errorf("%w: %w", ErrAborted, abortErr))
		return
	}
	if conventional {
		// Inherit or release table-level locks before the commit releases
		// the record locks.
		st.sess.releaseTableLocks(&st.ctx, st.tx, true)
	}
	if st.gid != "" {
		// The branch stays active awaiting the coordinator's decision.
		e.tm.PrepareThen(st.tx, st.gid, st.onCommit)
		return
	}
	e.tm.CommitThen(st.tx, st.onCommit)
}

// committed is the commit's (or prepare's) completion.
func (st *execState) committed(err error) { st.complete(err) }

// complete builds the Result, recycles the request state and runs the
// caller's continuation; unless the caller keeps it, the transaction object
// is recycled once the continuation returns.
func (st *execState) complete(err error) {
	e, tx, keep, done := st.e, st.tx, st.keep, st.done
	res := Result{Txn: tx, Breakdown: tx.Breakdown.Totals(), Latency: time.Since(st.start)}
	putExecState(st)
	done(res, err)
	if !keep {
		e.tm.Recycle(tx)
	}
}

// failer is a task that can report itself as not executed.
type failer interface{ fail(error) }

// submit enqueues t, whose Run must be a failer, on w.  Off the workers it
// waits for queue room.  On a worker it must not — a worker blocked on a
// full queue of a worker that is blocked on its own full queue would
// deadlock both — so when the queue is full, a fresh goroutine does the
// waiting and reports a submission that fails there.
func submit(w *dora.Worker, t dora.Task, onWorker bool) error {
	if !onWorker {
		return w.Submit(t)
	}
	err := w.TrySubmit(t)
	if err == dora.ErrQueueFull {
		go func() {
			if err := w.Submit(t); err != nil {
				t.Run.(failer).fail(err)
			}
		}()
		return nil
	}
	return err
}

// batchItem is one action of a per-partition phase batch, pooled inside the
// request's execState.  It implements dora.Runner so a batch submission
// allocates no closures — each task is a pointer into the items slice.
type batchItem struct {
	st         *execState
	a          Action
	rt         *routingTable
	epoch      uint64
	slot       int
	pidx       int
	grouped    bool
	enqueuedAt time.Time
	ctx        Ctx
}

// RunTask executes one batched action on the worker, re-checking routing
// first: when a boundary moved while the batch was queued and this action's
// key now belongs to another partition, only this action is forwarded to
// its current owner — the batch is split, the correctly-routed remainder
// keeps executing here.
func (it *batchItem) RunTask(w *dora.Worker) {
	st := it.st
	e := st.e
	if it.rt != nil {
		if cur := it.rt.epoch.Load(); cur != it.epoch {
			if curP := e.partitionFor(it.a.Table, it.a.routingKey()); curP != w.ID() {
				// Forward from a fresh goroutine: a worker parked at a
				// quiesce barrier must never block this worker.
				go e.dispatchAction(&actionTask{st: st, a: it.a, rt: it.rt, epoch: cur, slot: it.slot, enqueued: time.Now()}, curP)
				return
			}
		}
	}
	if !it.enqueuedAt.IsZero() {
		st.tx.Breakdown.AddWait(txn.WaitQueue, time.Since(it.enqueuedAt)*waitSampleEvery)
	}
	it.ctx = Ctx{eng: e, tx: st.tx, worker: w, partition: w.ID()}
	err := it.a.Exec(&it.ctx)
	// Thread-local locks are released when the action finishes; isolation
	// within the partition is guaranteed by the worker's serial execution.
	w.Locks().ReleaseTxn(st.tx.ID())
	st.actionDone(it.slot, err, true) // it may be recycled from here on
}

// fail reports the item's action as not executed.
func (it *batchItem) fail(err error) { it.st.actionDone(it.slot, err, false) }

// dispatchGrouped submits one phase with per-partition batching: the
// phase's actions are grouped by owning worker and each group ships as one
// SubmitBatch — one channel operation per partition touched.
func (st *execState) dispatchGrouped(phase []Action, observe, onWorker bool) {
	e := st.e
	if cap(st.items) < len(phase) {
		st.items = make([]batchItem, len(phase))
	}
	st.items = st.items[:0]
	for i := range phase {
		a := phase[i]
		if a.Inline {
			continue
		}
		rt := e.routing[a.Table]
		var epoch uint64
		if rt != nil {
			epoch = rt.epoch.Load()
		}
		pidx := e.partitionFor(a.Table, a.routingKey())
		if observe {
			e.observeAccess(a.Table, pidx, a.routingKey())
		}
		st.items = append(st.items, batchItem{
			st: st, a: a, rt: rt, epoch: epoch, slot: i, pidx: pidx,
			enqueuedAt: e.sampleEnqueue(),
		})
	}
	// Emit one batch per distinct partition, in first-seen order.  The
	// items slice is fully built before any pointer into it is taken, so
	// the pointers stay valid for the whole phase.  A batch's last action
	// may finish the phase and start the next before this loop ends, so
	// the loop reads only its own copy of the slice header and the items
	// it has not handed over yet.
	items, left := st.items, len(st.items)
	for i := 0; left > 0; i++ {
		if items[i].grouped {
			continue
		}
		pidx := items[i].pidx
		ts := dora.GetTasks()
		for j := i; j < len(items); j++ {
			if !items[j].grouped && items[j].pidx == pidx {
				items[j].grouped = true
				*ts = append(*ts, dora.Task{Run: &items[j]})
			}
		}
		left -= len(*ts)
		w := e.pool.Worker(pidx)
		if len(*ts) == 1 {
			t := (*ts)[0]
			dora.PutTasks(ts)
			if err := submit(w, t, onWorker); err != nil {
				t.Run.(*batchItem).fail(err)
			}
			continue
		}
		var err error
		if !onWorker {
			err = w.SubmitBatch(ts)
		} else if err = w.TrySubmitBatch(ts); err == dora.ErrQueueFull {
			go func() {
				if err := w.SubmitBatch(ts); err != nil {
					failBatch(ts, err)
				}
			}()
			continue
		}
		if err != nil {
			failBatch(ts, err)
		}
	}
}

// failBatch reports every action of a batch that could not be submitted.
func failBatch(ts *[]dora.Task, err error) {
	for _, t := range *ts {
		t.Run.(failer).fail(err)
	}
	dora.PutTasks(ts)
}

// actionTask is one action dispatched on its own: a mis-routed action of
// a phase batch, forwarded to its current owner.  NOTE: the ownership
// protocol below is implemented in three places that must stay in sync —
// this task, batchItem.RunTask (split a phase batch, forward only the
// mis-routed actions), and execState.RunTask (re-drive a mis-routed
// single-site task unexecuted).
type actionTask struct {
	st       *execState
	a        Action
	rt       *routingTable
	epoch    uint64
	slot     int
	enqueued time.Time
}

// dispatchAction submits one action to the worker owning partition pidx.
//
// Before executing, the worker re-checks ownership against the routing
// table: online repartitioning can move the boundary between the moment the
// submitter routed the action and the moment the worker dequeues it, and a
// worker must never touch a latch-free sub-tree it no longer owns.  The
// check is a single atomic load of the table's routing epoch (captured at
// submit time); only when a boundary actually moved in between — rare
// relative to actions — is the read-locked routing lookup repeated.  A
// mis-routed action is forwarded to the current owner (from a fresh
// goroutine, so a worker parked at a quiesce barrier can never block the
// forwarding worker and deadlock the quiesce), and keeps being forwarded
// until it dequeues on the worker that owns it — there is no hop cap that
// would let it execute mis-routed, because a boundary move is quiesced and
// each hop re-reads the then-current routing, so an action can only keep
// hopping while moves keep landing in its submit-to-dequeue window.  The
// re-check runs on the worker goroutine, and any boundary move affecting
// the worker's ranges quiesces that worker first, so ownership cannot
// change between the check and the data access.
func (e *Engine) dispatchAction(t *actionTask, pidx int) {
	if err := e.pool.Worker(pidx).Submit(dora.Task{Run: t}); err != nil {
		t.fail(err)
	}
}

// RunTask executes the action on the worker, or forwards it (see
// dispatchAction).
func (t *actionTask) RunTask(w *dora.Worker) {
	st := t.st
	e := st.e
	if t.rt != nil {
		if cur := t.rt.epoch.Load(); cur != t.epoch {
			if curP := e.partitionFor(t.a.Table, t.a.routingKey()); curP != w.ID() {
				t.epoch, t.enqueued = cur, time.Now()
				go e.dispatchAction(t, curP)
				return
			}
		}
	}
	st.tx.Breakdown.AddWait(txn.WaitQueue, time.Since(t.enqueued))
	ctx := &Ctx{eng: e, tx: st.tx, worker: w, partition: w.ID()}
	err := t.a.Exec(ctx)
	// Thread-local locks are released when the action finishes; isolation
	// within the partition is guaranteed by the worker's serial execution.
	w.Locks().ReleaseTxn(st.tx.ID())
	st.actionDone(t.slot, err, true)
}

// fail reports the action as not executed.
func (t *actionTask) fail(err error) { t.st.actionDone(t.slot, err, false) }

// Loader provides direct, unlocked, unlogged access for bulk-loading a
// database before measurements start.  It must be used single-threaded.
type Loader struct {
	ctx *Ctx
}

// NewLoader returns a loader for the engine.
func (e *Engine) NewLoader() *Loader {
	return &Loader{ctx: &Ctx{eng: e, partition: -1, loading: true}}
}

// Insert loads one record.
func (l *Loader) Insert(table string, key, rec []byte) error {
	return l.ctx.Insert(table, key, rec)
}

// InsertSecondary loads one secondary-index entry.
func (l *Loader) InsertSecondary(table, index string, secKey, primaryKey []byte) error {
	return l.ctx.InsertSecondary(table, index, secKey, primaryKey)
}

// DeleteSecondary removes one secondary-index entry (used by recovery
// replay).
func (l *Loader) DeleteSecondary(table, index string, secKey []byte) error {
	return l.ctx.DeleteSecondary(table, index, secKey)
}

// Update overwrites one record (used by recovery replay and consistency
// repair tools; like Insert it bypasses locking and logging).
func (l *Loader) Update(table string, key, rec []byte) error {
	return l.ctx.Update(table, key, rec)
}

// Delete removes one record (used by recovery replay).
func (l *Loader) Delete(table string, key []byte) error {
	return l.ctx.Delete(table, key)
}

// Exists reports whether key is present in table.
func (l *Loader) Exists(table string, key []byte) (bool, error) {
	return l.ctx.Exists(table, key)
}

// Read fetches a record outside any transaction (consistency checks).
func (l *Loader) Read(table string, key []byte) ([]byte, error) {
	return l.ctx.Read(table, key)
}

// ReadRange scans outside any transaction (consistency checks).  As with
// Ctx.ReadRange, key and rec are valid only until fn returns.
func (l *Loader) ReadRange(table string, lo, hi []byte, fn func(key, rec []byte) bool) error {
	return l.ctx.ReadRange(table, lo, hi, fn)
}

// ScanHeap scans a table's heap file sequentially (Figure 12).  For the
// partitioned designs the scan is distributed across the partition workers,
// as Section 3.3 describes; the Conventional design scans inline.
func (e *Engine) ScanHeap(table string, fn func(rid page.RID, rec []byte) bool) error {
	tbl, err := e.Table(table)
	if err != nil {
		return err
	}
	if tbl.Heap == nil {
		return fmt.Errorf("engine: table %s is clustered and has no heap", table)
	}
	return tbl.Heap.Scan(nil, fn)
}

// Quiesce pauses every partition worker at a barrier, runs fn while all
// partitions are idle, and releases the workers.  The Conventional design has
// no workers, so fn simply runs inline; callers that need a fully quiescent
// system there must stop issuing requests first.  Checkpointing (package
// recovery) and automatic rebalancing (package balance) use this, exactly as
// the partition manager of Section 3.1 quiesces threads for repartitioning.
func (e *Engine) Quiesce(fn func()) error {
	if e.pool == nil {
		fn()
		return nil
	}
	return e.pool.Quiesce(fn)
}

// RebalanceStats reports the cost of one Rebalance call.
type RebalanceStats struct {
	// RoutingOnly reports whether only the routing table changed (the
	// Logical design).
	RoutingOnly bool
	// EntriesMoved counts index entries copied between pages.
	EntriesMoved int
	// RecordsMoved counts heap records relocated (PLP-Partition only).
	RecordsMoved int
	// Duration is the wall-clock time the partitions were quiesced.
	Duration time.Duration
}

// Rebalance moves the lower boundary of logical partition idx of the given
// table to newBoundary, quiescing the two partition workers whose key
// ranges the move affects while the partition metadata (and, for the PLP
// designs, the MRBTree sub-trees and possibly the heap pages) are updated.
// The rest of the workers keep executing — repartitioning never stops the
// world, as the paper's DRP requires ("the partition manager simply
// quiesces affected threads until the process completes").  This is the
// operation measured in Figure 8.
func (e *Engine) Rebalance(table string, idx int, newBoundary []byte) (RebalanceStats, error) {
	var st RebalanceStats
	rt, ok := e.routing[table]
	if !ok {
		return st, fmt.Errorf("engine: unknown table %q", table)
	}
	if idx <= 0 || idx >= rt.numPartitions() {
		return st, fmt.Errorf("engine: partition %d out of range", idx)
	}
	tbl, err := e.Table(table)
	if err != nil {
		return st, err
	}
	start := time.Now()

	work := func() error {
		// The keys whose owner changes lie between the old and the new
		// boundary; only they need re-homing in the PLP-Partition design.
		// The old boundary is read inside the quiesced section: a concurrent
		// Rebalance (the repartition controller's loop plus a manual move)
		// could otherwise move it between an early read and this point,
		// leaving the re-home scan on a stale range.
		oldBoundary := rt.boundary(idx - 1)
		// The routing table alone is all the Logical design needs ("logical
		// partitioning quickly adjusts its routing tables").
		if !e.opts.Design.LatchFreeIndex() && !e.opts.UseMRBTree {
			rt.setBoundary(idx-1, newBoundary)
			st.RoutingOnly = true
			return nil
		}
		// PLP-Partition re-homes the heap records whose owner changes, which
		// is why its repartitioning dip in Figure 8 is much larger.  The
		// affected range is walked and validated BEFORE anything moves: an
		// undecodable RID or unfixable page aborts the rebalance here, with
		// routing, sub-trees and heap ownership all still consistent.
		var pending []rehomeEntry
		if e.opts.Design == PLPPartition {
			lo, hi := oldBoundary, newBoundary
			if bytes.Compare(lo, hi) > 0 {
				lo, hi = hi, lo
			}
			var cerr error
			pending, cerr = e.collectRehome(tbl, table, lo, hi)
			if cerr != nil {
				return cerr
			}
		}
		// Physical repartitioning of the MRBTree next: if the tree rejects
		// the boundary, the routing table must not move either, or routing
		// and sub-tree ownership would diverge.
		rps, err := tbl.Primary.MoveBoundary(idx, newBoundary)
		if err != nil {
			return err
		}
		rt.setBoundary(idx-1, newBoundary)
		st.EntriesMoved += rps.EntriesMoved
		if e.opts.Design == PLPPartition {
			moved, merr := e.applyRehome(tbl, table, pending)
			st.RecordsMoved += moved
			if merr != nil {
				return merr
			}
		}
		return nil
	}

	if e.pool != nil {
		// Only the workers owning the donor and recipient partitions touch
		// the affected sub-trees and heap pages, so only they are parked.
		affected := []int{(idx - 1) % e.pool.Size(), idx % e.pool.Size()}
		var workErr error
		if err := e.pool.QuiesceWorkers(affected, func() { workErr = work() }); err != nil {
			return st, err
		}
		if workErr != nil {
			return st, workErr
		}
	} else if err := work(); err != nil {
		return st, err
	}
	st.Duration = time.Since(start)
	return st, nil
}

// rehomeEntry is one primary entry of the range a boundary move affects,
// captured (and validated) before the move is applied.
type rehomeEntry struct {
	key   []byte
	rid   page.RID
	owner uint64 // current heap-page owner tag
}

// collectRehome walks every primary entry in [lo, hi) — the only keys whose
// owner a boundary move can change — and records its RID and current heap
// owner.  It runs BEFORE the boundary moves, so an undecodable RID or
// unfixable page aborts the rebalance while routing, sub-trees and heap
// ownership are still mutually consistent; the old behaviour of silently
// skipping such entries stranded records on a partition that no longer
// owned them, breaking the latch-free ownership invariant with no signal
// to the operator.  The scan stays within the quiesced partition pair.
func (e *Engine) collectRehome(tbl *catalog.Table, table string, lo, hi []byte) ([]rehomeEntry, error) {
	var entries []rehomeEntry
	var scanErr error
	err := tbl.Primary.AscendRange(nil, lo, hi, func(k, v []byte) bool {
		rid, derr := page.DecodeRID(v)
		if derr != nil {
			scanErr = fmt.Errorf("engine: rehome %s/%x: decode RID: %w", table, k, derr)
			return false
		}
		frame, ferr := e.bp.Fix(rid.Page)
		if ferr != nil {
			scanErr = fmt.Errorf("engine: rehome %s/%x: fix page %d: %w", table, k, rid.Page, ferr)
			return false
		}
		curOwner := frame.Page().Owner()
		e.bp.Unfix(frame)
		entries = append(entries, rehomeEntry{key: append([]byte(nil), k...), rid: rid, owner: curOwner})
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	return entries, nil
}

// applyRehome relocates every collected record whose heap owner no longer
// matches the (already moved) routing table onto pages owned by the correct
// partition and repoints the primary index at the new RIDs (the
// storage-manager callback of Section 3.3).  Owners cannot have changed
// since collectRehome ran: both execute inside the same pair-quiesce.
func (e *Engine) applyRehome(tbl *catalog.Table, table string, entries []rehomeEntry) (int, error) {
	moved := 0
	for _, r := range entries {
		wantOwner := uint64(e.partitionFor(table, r.key)) + 1
		if r.owner == wantOwner {
			continue
		}
		rec, gerr := tbl.Heap.Get(nil, r.rid)
		if gerr != nil {
			return moved, gerr
		}
		newRID, ierr := tbl.Heap.Insert(nil, wantOwner, rec)
		if ierr != nil {
			return moved, ierr
		}
		if derr := tbl.Heap.Delete(nil, r.rid); derr != nil {
			return moved, derr
		}
		if uerr := tbl.Primary.Update(nil, r.key, page.EncodeRID(newRID)); uerr != nil {
			return moved, uerr
		}
		moved++
	}
	return moved, nil
}

// lockManagerForTests exposes the centralized lock manager to white-box
// tests in this package.
func (e *Engine) lockManagerForTests() *lock.Manager { return e.locks }
