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

	start   time.Time
	phase   int          // the phase in flight on the phased path
	first   int          // the first phase the single-site task runs
	phased  bool         // a phase went to the workers, or a re-drive
	pending atomic.Int32 // actions of the phase in flight still running
	errs    []error
	routes  []route // the single-site task's routes, one per worker action
	items   []batchItem
	ctx     Ctx // the single-site (and conventional) request Ctx
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
	clear(st.routes)
	st.routes = st.routes[:0]
	clear(st.errs)
	clear(st.items)
	st.items = st.items[:0]
	st.ctx = Ctx{}
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
// analyze keeps each worker action's route for the worker-side check.
func (st *execState) analyze(first int) (int, bool) {
	e := st.e
	if st.req.Expand != nil {
		return 0, false
	}
	st.routes = st.routes[:0]
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
			r := e.routeOf(a.Table, key)
			st.routes = append(st.routes, r)
			if p := e.pool.Worker(r.part).ID(); pidx == -1 {
				pidx = p
			} else if p != pidx {
				return 0, false
			}
		}
	}
	return pidx, pidx >= 0
}

// owned runs the ownership check for every action of the single-site task.
func (st *execState) owned() bool {
	for _, r := range st.routes {
		if !r.owns() {
			return false
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
	enqueue(e.pool.Worker(pidx), one(st), false)
}

// RunTask executes the whole single-site transaction on the owning worker:
// phases run serially in submission order — on one worker, serial execution
// IS the phase ordering — with no per-phase countdown and no hop back to
// the submitter; the worker then commits, and the commit's completion
// replies.  Before touching any data every action passes the ownership
// check (route.owns).  When one fails, nothing has executed yet, so the
// request is re-driven through the phased path, which routes every action
// to its current owner.
func (st *execState) RunTask(w *dora.Worker) {
	if !st.owned() {
		st.phased = true
		st.dispatch(st.first, true)
		return
	}
	st.tx.Breakdown.AddWait(txn.WaitQueue, w.BatchWait())
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

// fail reports the single-site task as not executed.
func (st *execState) fail(err error) { st.finish(err) }

// dispatchPhase hands one phase to the partition workers.  Inline actions
// run first, right here; the others are grouped by owning partition and
// every group rides to its worker as one batch (k channel operations for a
// k-partition phase instead of one per action).  The phase's countdown
// starts at the number of worker actions; the last one to finish calls
// phaseDone.
//
// On a worker, the phase is submitted without waiting for queue room
// (enqueue), and a phase routed at dispatch time is handed to a fresh
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

// route is where a task was sent: key routed to logical partition part of
// routing table rt under routing epoch epoch.  A nil rt (a table with no
// routing table) always routes to partition 0.
type route struct {
	rt    *routingTable
	epoch uint64
	part  int
	key   []byte
}

// routeOf routes key of table.  The epoch is loaded before the lookup, so
// a boundary move between the two makes owns re-check, never the reverse.
func (e *Engine) routeOf(table string, key []byte) route {
	rt := e.routing[table]
	if rt == nil {
		return route{key: key}
	}
	epoch := rt.epoch.Load()
	return route{rt: rt, epoch: epoch, part: rt.partitionFor(key), key: key}
}

// owns is the ownership check every routed task runs on its worker before
// it touches data: online repartitioning can move a boundary between the
// moment a task was routed and the moment the worker dequeues it, and a
// worker must never touch a latch-free sub-tree it no longer owns.  While
// no boundary of the table moved (one atomic load) the key is still owned;
// otherwise its routing lookup is repeated.  Any boundary move affecting
// the worker's ranges quiesces the worker first, so ownership cannot change
// between the check and the data access.  A task whose check fails has run
// nothing and goes to its current owner: a phase action or a scan chunk
// forwards itself, the single-site task re-drives through the phased path.
// A task can only keep moving while moves keep landing in its
// submit-to-dequeue window, so no hop cap is needed.
func (r route) owns() bool {
	return r.rt == nil || r.rt.epoch.Load() == r.epoch || r.rt.partitionFor(r.key) == r.part
}

// task is an engine task on a partition worker: it runs there, or reports
// itself not run.
type task interface {
	dora.Runner
	fail(error)
}

// one returns a batch holding just t.
func one(t task) *[]dora.Runner {
	ts := dora.GetTasks()
	*ts = append(*ts, t)
	return ts
}

// enqueue puts the batch ts, whose every element is a task, on w's input
// queue: all engine work reaches a worker through it.  Off the workers it
// waits for queue room.  On a worker it must not — a worker blocked on a
// full queue of a worker that is blocked on its own full queue would
// deadlock both, and a worker parked at a quiesce barrier would stall the
// worker feeding it — so when the queue is full, a fresh goroutine does the
// waiting.  A batch that cannot be enqueued reports each task not run.
func enqueue(w *dora.Worker, ts *[]dora.Runner, onWorker bool) {
	var err error
	if !onWorker {
		err = w.SubmitBatch(ts)
	} else if err = w.TrySubmitBatch(ts); err == dora.ErrQueueFull {
		go enqueue(w, ts, false)
		return
	}
	if err != nil {
		for _, t := range *ts {
			t.(task).fail(err)
		}
		dora.PutTasks(ts)
	}
}

// batchItem is one action of a per-partition phase batch, pooled inside the
// request's execState.  It implements dora.Runner so a batch submission
// allocates no closures — each task is a pointer into the items slice.
type batchItem struct {
	st      *execState
	a       Action
	r       route
	slot    int
	grouped bool
	ctx     Ctx
}

// RunTask executes one batched action on the worker, after the ownership
// check: an action whose key now belongs to another partition forwards
// itself to its current owner, and the rest of the batch keeps executing
// here.
func (it *batchItem) RunTask(w *dora.Worker) {
	st := it.st
	e := st.e
	if !it.r.owns() {
		it.r = e.routeOf(it.a.Table, it.r.key)
		enqueue(e.pool.Worker(it.r.part), one(it), true)
		return
	}
	st.tx.Breakdown.AddWait(txn.WaitQueue, w.BatchWait())
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
// batch — one channel operation per partition touched.
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
		key := a.routingKey()
		r := e.routeOf(a.Table, key)
		if observe {
			e.observeAccess(a.Table, e.pool.Worker(r.part).ID(), key)
		}
		st.items = append(st.items, batchItem{st: st, a: a, r: r, slot: i})
	}
	// Emit one batch per distinct worker, in first-seen order.  The items
	// slice is fully built before any pointer into it is taken, so the
	// pointers stay valid for the whole phase.  A batch's last action may
	// finish the phase and start the next before this loop ends, so the
	// loop reads only its own copy of the slice header and the items it
	// has not handed over yet.
	items, left := st.items, len(st.items)
	for i := 0; left > 0; i++ {
		if items[i].grouped {
			continue
		}
		w := e.pool.Worker(items[i].r.part)
		ts := dora.GetTasks()
		for j := i; j < len(items); j++ {
			if !items[j].grouped && e.pool.Worker(items[j].r.part) == w {
				items[j].grouped = true
				*ts = append(*ts, &items[j])
			}
		}
		left -= len(*ts)
		enqueue(w, ts, onWorker)
	}
}

// Loader provides direct, unlocked, unlogged access for bulk-loading a
// database before measurements start: it takes no locks, writes no log
// record (page splits are not logged either) and keeps no undo actions.
// Keys loaded in ascending order take each latch-free sub-tree's append
// case (see package btree).  It must be used single-threaded.
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

// Upsert loads one record, or overwrites the one under key (used by
// recovery replay).
func (l *Loader) Upsert(table string, key, rec []byte) error {
	return l.ctx.Upsert(table, key, rec)
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
	// RecordsMoved counts heap records relocated (PLP-Partition and
	// PLP-Leaf).
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
		// The PLP designs that give heap pages to partitions or leaves
		// re-home the heap records the move leaves on a page their
		// partition's worker does not own; PLP-Partition's re-homing is why
		// its repartitioning dip in Figure 8 is much larger.  The affected
		// range is walked and validated BEFORE anything moves: an
		// undecodable RID or unfixable page aborts the rebalance here, with
		// routing, sub-trees and heap ownership all still consistent.
		rehome := !tbl.Def.Clustered && (e.opts.Design == PLPPartition || e.opts.Design == PLPLeaf)
		var pending []rehomeEntry
		if rehome {
			// Under PLP-Partition only the keys between the old and the new
			// boundary change owner.  Under PLP-Leaf a leaf split moves no
			// heap records, so a leaf that changes partition may own pages
			// holding records of keys anywhere in the two partitions.
			lo, hi := oldBoundary, newBoundary
			if e.opts.Design == PLPLeaf {
				lo, _ = rt.rangeOf(idx - 1)
				_, hi = rt.rangeOf(idx)
			} else if bytes.Compare(lo, hi) > 0 {
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
		if !rehome {
			return nil
		}
		misplaced, err := e.misplacedTest(tbl, table, idx)
		if err != nil {
			return err
		}
		moved, err := e.applyRehome(tbl, pending, misplaced)
		st.RecordsMoved += moved
		return err
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

// collectRehome walks every primary entry in [lo, hi) — the keys whose
// records a boundary move can leave on a page of the wrong owner — and
// records its RID and current heap owner.  It runs BEFORE the boundary moves, so an undecodable RID or
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
		curOwner, ferr := tbl.Heap.OwnerOf(rid.Page)
		if ferr != nil {
			scanErr = fmt.Errorf("engine: rehome %s/%x: fix page %d: %w", table, k, rid.Page, ferr)
			return false
		}
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

// misplacedTest returns the test of whether a collected record sits on a
// heap page its partition's worker does not own once the boundary between
// partitions idx-1 and idx has moved.  Under PLP-Partition that is a page
// tagged with another partition.  Under PLP-Leaf it is a page whose tag
// names a node of the other partition's sub-tree (a tag names the leaf
// whose insert placed the record, which a root split may since have made
// interior).  A page whose tag names a page the move freed stays with the
// partition of the first of its records the walk reaches, and is re-tagged
// with that partition's sub-tree root; its other records are misplaced.
func (e *Engine) misplacedTest(tbl *catalog.Table, table string, idx int) (func(r rehomeEntry) (bool, error), error) {
	if e.opts.Design != PLPLeaf {
		return func(r rehomeEntry) (bool, error) {
			return r.owner != uint64(e.partitionFor(table, r.key))+1, nil
		}, nil
	}
	nodePart := make(map[uint64]int)
	roots := make(map[int]page.ID)
	for _, p := range []int{idx - 1, idx} {
		sub, err := tbl.Primary.PartitionTree(p)
		if err != nil {
			return nil, err
		}
		if err := sub.Pages(func(id page.ID) { nodePart[uint64(id)] = p }); err != nil {
			return nil, err
		}
		roots[p] = sub.RootPage()
	}
	claimed := make(map[page.ID]int)
	return func(r rehomeEntry) (bool, error) {
		p := e.partitionFor(table, r.key)
		if np, ok := nodePart[r.owner]; ok {
			return np != p, nil
		}
		if cp, ok := claimed[r.rid.Page]; ok {
			return cp != p, nil
		}
		claimed[r.rid.Page] = p
		return false, tbl.Heap.Retag(r.rid.Page, uint64(roots[p]))
	}, nil
}

// applyRehome moves every collected record that misplaced reports onto a
// page its partition owns under the (already moved) routing table and
// repoints the primary index at it (the storage-manager callback of
// Section 3.3).  The new copy is placed and indexed before the old one is
// deleted, so a failure loses no row.  Owners cannot have changed since
// collectRehome ran: both execute inside the same pair-quiesce.
func (e *Engine) applyRehome(tbl *catalog.Table, entries []rehomeEntry, misplaced func(r rehomeEntry) (bool, error)) (int, error) {
	moved := 0
	for _, r := range entries {
		move, err := misplaced(r)
		if err != nil {
			return moved, err
		}
		if !move {
			continue
		}
		rec, err := tbl.Heap.Get(nil, r.rid)
		if err != nil {
			return moved, err
		}
		if _, err := e.moveRecord(nil, tbl, r.key, rec); err != nil {
			return moved, err
		}
		if err := tbl.Heap.Delete(nil, r.rid); err != nil {
			return moved, err
		}
		moved++
	}
	return moved, nil
}

// lockManagerForTests exposes the centralized lock manager to white-box
// tests in this package.
func (e *Engine) lockManagerForTests() *lock.Manager { return e.locks }
