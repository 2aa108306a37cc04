// Request execution for the five designs, bulk loading, and rebalancing.
package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
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
	// or aborted).  It remains valid until the session's next Execute (or
	// Close), when the engine recycles the transaction object.
	Txn *txn.Txn
	// Breakdown is the transaction's blocked-time breakdown.
	Breakdown txn.Totals
	// Latency is the end-to-end request latency.
	Latency time.Duration
}

// Execute runs one request as a transaction and returns its result.  The
// session's goroutine blocks until the transaction commits or aborts.
func (s *Session) Execute(req *Request) (Result, error) {
	s.recycleLast()
	if s.e.opts.Design == Conventional {
		return s.executeConventional(req)
	}
	return s.executePartitioned(req)
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
	s.prepareGID = gid
	res, err := s.Execute(req)
	s.prepareGID = ""
	return res, err
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

// executeConventional runs every action inline on the calling goroutine,
// acquiring centralized locks and latching pages as a conventional
// shared-everything system does.
func (s *Session) executeConventional(req *Request) (Result, error) {
	e := s.e
	start := time.Now()
	tx := e.tm.Begin()
	st := getExecState(e, tx, req)
	defer putExecState(st)
	ctx := &st.ctx
	*ctx = Ctx{eng: e, tx: tx, sess: s, partition: -1}

	for pi, phase := range req.Phases {
		if req.Expand != nil && req.Expand[pi] != nil {
			phase = append(append(make([]Action, 0, len(phase)), phase...), req.Expand[pi]()...)
		}
		for i := range phase {
			if err := phase[i].Exec(ctx); err != nil {
				_ = e.tm.Abort(tx)
				s.releaseTableLocks(ctx, tx, false)
				s.lastTxn = tx
				return Result{Txn: tx, Breakdown: tx.Breakdown.Totals(), Latency: time.Since(start)},
					fmt.Errorf("%w: %w", ErrAborted, err)
			}
		}
	}
	// Inherit or release table-level locks before the commit releases the
	// record locks.
	s.releaseTableLocks(ctx, tx, true)
	if s.prepareGID != "" {
		if err := e.tm.Prepare(tx, s.prepareGID); err != nil {
			s.lastTxn = tx
			return Result{Txn: tx}, err
		}
		return Result{Txn: tx, Breakdown: tx.Breakdown.Totals(), Latency: time.Since(start)}, nil
	}
	if err := e.tm.Commit(tx); err != nil {
		s.lastTxn = tx
		return Result{Txn: tx}, err
	}
	s.lastTxn = tx
	return Result{Txn: tx, Breakdown: tx.Breakdown.Totals(), Latency: time.Since(start)}, nil
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

// errRedispatch is the worker's signal that a single-site batch found at
// least one of its actions mis-routed by a concurrent boundary move; the
// submitter re-drives the (entirely unexecuted) request through the phased
// path, which re-routes every action to its current owner.
var errRedispatch = errors.New("engine: single-site batch mis-routed")

// tableEpoch is one table's routing epoch captured at submit time.
type tableEpoch struct {
	rt    *routingTable
	epoch uint64
}

// execState is the per-request scratch the executor recycles through a
// sync.Pool: the per-phase error slots, the phase WaitGroup, the completion
// channel and worker Ctx of the single-site fast path, and the batch items
// of grouped dispatch.  Nothing in it survives the request; pooling it is
// what keeps the hot path allocation-free.
type execState struct {
	e   *Engine
	tx  *txn.Txn
	req *Request

	done       chan error
	wg         sync.WaitGroup
	errs       []error
	tabs       []tableEpoch
	items      []batchItem
	ctx        Ctx       // the single-site (and conventional) request Ctx
	enqueuedAt time.Time // sampled queue-wait stamp for the single-site task
	phasesExec int       // phases the single-site task ran (incl. a failing one)
}

var execStatePool = sync.Pool{New: func() any {
	return &execState{done: make(chan error, 1)}
}}

// getExecState returns pooled per-request scratch bound to the request.
func getExecState(e *Engine, tx *txn.Txn, req *Request) *execState {
	st := execStatePool.Get().(*execState)
	st.e, st.tx, st.req = e, tx, req
	return st
}

// putExecState clears references and recycles the scratch.  Callers must
// guarantee no worker still touches it: the single-site completion receive
// and the per-phase WaitGroup both provide that.
func putExecState(st *execState) {
	st.e, st.tx, st.req = nil, nil, nil
	st.tabs = st.tabs[:0]
	clear(st.errs)
	clear(st.items)
	st.items = st.items[:0]
	st.ctx = Ctx{}
	st.enqueuedAt = time.Time{}
	st.phasesExec = 0
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

// analyze decides whether the request qualifies for the single-site fast
// path: every action of every phase carries a static, non-nil routing key
// and all of them route to the same partition worker.  KeyFn actions
// disqualify (they route only at dispatch time, after earlier phases ran),
// and so do closure actions with a nil routing key — they default-route to
// partition 0 like always, but conservatively through the phased path.  It
// also captures each touched table's routing epoch — before that table's
// first routing lookup, so a boundary move between the two makes the
// worker-side re-check fire, never the reverse.
func (st *execState) analyze() (int, bool) {
	e := st.e
	pidx := -1
	if st.req.Expand != nil {
		// Dynamically expanded phases route at dispatch time, like KeyFn.
		return 0, false
	}
	for _, phase := range st.req.Phases {
		for i := range phase {
			a := &phase[i]
			if a.KeyFn != nil || a.Key == nil {
				return 0, false
			}
			if rt := e.routing[a.Table]; rt != nil && !st.hasTable(rt) {
				st.tabs = append(st.tabs, tableEpoch{rt: rt, epoch: rt.epoch.Load()})
			}
			p := e.partitionFor(a.Table, a.Key)
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

// stillOwned re-routes every action with the current boundaries and reports
// whether they all still land on worker w.
func (st *execState) stillOwned(w *dora.Worker) bool {
	for _, phase := range st.req.Phases {
		for i := range phase {
			if st.e.partitionFor(phase[i].Table, phase[i].Key) != w.ID() {
				return false
			}
		}
	}
	return true
}

// RunTask executes the whole single-site transaction on the owning worker:
// phases run serially in submission order — on one worker, serial execution
// IS the phase ordering — with no per-phase WaitGroup and no submitter
// round-trips.  Before touching any data the worker re-checks ownership
// against the captured routing epochs: a boundary move that landed while
// the batch sat in the queue means some action may now belong to another
// partition, and a worker must never touch a latch-free sub-tree it does
// not own.  Nothing has executed at that point, so the batch is handed back
// to the submitter (errRedispatch), whose phased re-drive routes every
// action to its current owner — the mis-routed ones are thereby forwarded,
// the rest come straight back here.  Once execution starts, ownership is
// stable: any move affecting this worker's ranges must quiesce this worker
// first, and the worker is busy right here until the batch completes.
func (st *execState) RunTask(w *dora.Worker) {
	for i := range st.tabs {
		if st.tabs[i].rt.epoch.Load() != st.tabs[i].epoch {
			if !st.stillOwned(w) {
				st.done <- errRedispatch
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
	st.phasesExec = 0
	actions := 0
	for _, phase := range st.req.Phases {
		// Mirror the phased path: every action of the failing phase still
		// runs (they were all dispatched before the error was visible
		// there); later phases do not.
		st.phasesExec++
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
	// The worker counts this batch as one task; credit the rest of the
	// actions it ACTUALLY ran so per-partition load accounting stays in
	// action units (a redispatched batch, above, credits nothing extra).
	if actions > 1 {
		w.AddExecuted(uint64(actions - 1))
	}
	w.Locks().ReleaseTxn(st.tx.ID())
	st.done <- firstErr
}

// executePartitioned routes the request's actions to the partition workers
// that own their data (the Logical and PLP designs): whole transactions
// whose actions all route to one partition take the single-site fast path,
// everything else goes phase by phase with per-partition action batching.
func (s *Session) executePartitioned(req *Request) (Result, error) {
	e := s.e
	start := time.Now()
	tx := e.tm.Begin()
	st := getExecState(e, tx, req)
	defer putExecState(st)

	if !e.opts.NoFastPath {
		if pidx, ok := st.analyze(); ok {
			res, err, done := s.executeSingleSite(st, pidx, start)
			if done {
				return res, err
			}
			// Mis-routed by a concurrent boundary move before anything
			// executed: fall through and re-drive phase by phase.
		}
	}
	return s.executePhased(st, start)
}

// executeSingleSite ships the whole transaction to the one worker that owns
// every action as a single task.  done is false only when the worker found
// the batch mis-routed and nothing was executed.
func (s *Session) executeSingleSite(st *execState, pidx int, start time.Time) (res Result, err error, done bool) {
	e := st.e
	st.enqueuedAt = e.sampleEnqueue()
	if serr := e.pool.Worker(pidx).Submit(dora.Task{Run: st}); serr != nil {
		res, err = s.finish(st.tx, serr, start)
		return res, err, true
	}
	execErr := <-st.done
	if execErr == errRedispatch {
		// Nothing executed and nothing was reported to the access observer:
		// the phased re-drive observes each action at its actual owner.
		return Result{}, nil, false
	}
	// Report the accesses only now that the batch really executed here, so
	// a redispatched batch is not double-counted in the repartitioning
	// heat statistics (still on the submitting goroutine, per the
	// AccessObserver contract), and only for the phases that actually ran —
	// an abort in phase k stops dispatch (and observation) after phase k on
	// the phased path too.
	for _, phase := range st.req.Phases[:st.phasesExec] {
		for i := range phase {
			e.observeAccess(phase[i].Table, pidx, phase[i].Key)
		}
	}
	res, err = s.finish(st.tx, execErr, start)
	return res, err, true
}

// executePhased is the general path: each phase's actions are grouped by
// owning partition and every group rides to its worker as one batch (k
// channel operations for a k-partition phase instead of one per action).
// With Options.NoFastPath set it degrades to the original one-task-per-
// action dispatch, which the fast-path benchmarks use as their baseline.
func (s *Session) executePhased(st *execState, start time.Time) (Result, error) {
	e := st.e
	tx := st.tx
	var abortErr error
	for pi, phase := range st.req.Phases {
		if abortErr != nil {
			continue
		}
		if st.req.Expand != nil && st.req.Expand[pi] != nil {
			if extra := st.req.Expand[pi](); len(extra) > 0 {
				phase = append(append(make([]Action, 0, len(phase)+len(extra)), phase...), extra...)
			}
		}
		if len(phase) == 0 {
			continue
		}
		st.resetErrs(len(phase))
		if e.opts.NoFastPath {
			for i := range phase {
				a := phase[i]
				rt := e.routing[a.Table]
				// The epoch is captured before the routing lookup: a boundary
				// move between the two makes the worker-side check fire and
				// recompute, never the reverse.
				var epoch uint64
				if rt != nil {
					epoch = rt.epoch.Load()
				}
				pidx := e.partitionFor(a.Table, a.routingKey())
				e.observeAccess(a.Table, pidx, a.routingKey())
				st.wg.Add(1)
				e.dispatchAction(a, rt, epoch, pidx, tx, st.errs, i, &st.wg)
			}
		} else {
			s.dispatchGrouped(st, phase)
		}
		st.wg.Wait()
		for _, err := range st.errs {
			if err != nil {
				abortErr = err
				break
			}
		}
	}
	return s.finish(tx, abortErr, start)
}

// finish commits (or, under ExecutePrepare, prepares) or aborts the
// transaction and builds the Result.
func (s *Session) finish(tx *txn.Txn, abortErr error, start time.Time) (Result, error) {
	e := s.e
	if abortErr != nil {
		s.lastTxn = tx
		_ = e.tm.Abort(tx)
		return Result{Txn: tx, Breakdown: tx.Breakdown.Totals(), Latency: time.Since(start)},
			fmt.Errorf("%w: %w", ErrAborted, abortErr)
	}
	if s.prepareGID != "" {
		// The branch stays active awaiting the coordinator's decision; it
		// must not be parked for recycling.
		if err := e.tm.Prepare(tx, s.prepareGID); err != nil {
			s.lastTxn = tx
			return Result{Txn: tx}, err
		}
		return Result{Txn: tx, Breakdown: tx.Breakdown.Totals(), Latency: time.Since(start)}, nil
	}
	s.lastTxn = tx
	if err := e.tm.Commit(tx); err != nil {
		return Result{Txn: tx}, err
	}
	return Result{Txn: tx, Breakdown: tx.Breakdown.Totals(), Latency: time.Since(start)}, nil
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
				go e.dispatchAction(it.a, it.rt, cur, curP, st.tx, st.errs, it.slot, &st.wg)
				return
			}
		}
	}
	if !it.enqueuedAt.IsZero() {
		st.tx.Breakdown.AddWait(txn.WaitQueue, time.Since(it.enqueuedAt)*waitSampleEvery)
	}
	it.ctx = Ctx{eng: e, tx: st.tx, worker: w, partition: w.ID()}
	st.errs[it.slot] = it.a.Exec(&it.ctx)
	// Thread-local locks are released when the action finishes; isolation
	// within the partition is guaranteed by the worker's serial execution.
	w.Locks().ReleaseTxn(st.tx.ID())
	st.wg.Done()
}

// dispatchGrouped submits one phase with per-partition batching: the
// phase's actions are grouped by owning worker and each group ships as one
// SubmitBatch — one channel operation per partition touched.
func (s *Session) dispatchGrouped(st *execState, phase []Action) {
	e := st.e
	if cap(st.items) < len(phase) {
		st.items = make([]batchItem, len(phase))
	}
	st.items = st.items[:len(phase)]
	for i := range phase {
		a := phase[i]
		rt := e.routing[a.Table]
		var epoch uint64
		if rt != nil {
			epoch = rt.epoch.Load()
		}
		pidx := e.partitionFor(a.Table, a.routingKey())
		e.observeAccess(a.Table, pidx, a.routingKey())
		st.items[i] = batchItem{
			st: st, a: a, rt: rt, epoch: epoch, slot: i, pidx: pidx,
			enqueuedAt: e.sampleEnqueue(),
		}
	}
	// Emit one batch per distinct partition, in first-seen order.  The
	// items slice is fully built before any pointer into it is taken, so
	// the pointers stay valid for the whole phase.
	for i := range st.items {
		if st.items[i].grouped {
			continue
		}
		pidx := st.items[i].pidx
		ts := dora.GetTasks()
		for j := i; j < len(st.items); j++ {
			if !st.items[j].grouped && st.items[j].pidx == pidx {
				st.items[j].grouped = true
				*ts = append(*ts, dora.Task{Run: &st.items[j]})
			}
		}
		st.wg.Add(len(*ts))
		w := e.pool.Worker(pidx)
		var err error
		if len(*ts) == 1 {
			t := (*ts)[0]
			dora.PutTasks(ts)
			err = w.Submit(t)
			if err != nil {
				it := t.Run.(*batchItem)
				st.errs[it.slot] = err
				st.wg.Done()
			}
		} else if err = w.SubmitBatch(ts); err != nil {
			// Ownership stayed with us: fail every action of the group.
			for _, t := range *ts {
				it := t.Run.(*batchItem)
				st.errs[it.slot] = err
				st.wg.Done()
			}
			dora.PutTasks(ts)
		}
	}
}

// dispatchAction submits one action to the worker owning partition pidx.
// It is both the forwarding mechanism for mis-routed batch actions and the
// per-action baseline Options.NoFastPath preserves for ablation, so it
// stays a self-contained closure.  NOTE: the ownership protocol below is
// implemented in three places that must stay in sync — this closure,
// batchItem.RunTask (split a phase batch, forward only the mis-routed
// actions), and execState.RunTask (hand a mis-routed single-site batch
// back unexecuted).
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
func (e *Engine) dispatchAction(a Action, rt *routingTable, epoch uint64, pidx int, tx *txn.Txn, errs []error, slot int, wg *sync.WaitGroup) {
	w := e.pool.Worker(pidx)
	enqueued := time.Now()
	err := w.Submit(dora.Task{Do: func(w *dora.Worker) {
		if rt != nil {
			if cur := rt.epoch.Load(); cur != epoch {
				if curP := e.partitionFor(a.Table, a.routingKey()); curP != w.ID() {
					go e.dispatchAction(a, rt, cur, curP, tx, errs, slot, wg)
					return
				}
			}
		}
		defer wg.Done()
		tx.Breakdown.AddWait(txn.WaitQueue, time.Since(enqueued))
		ctx := &Ctx{eng: e, tx: tx, worker: w, partition: w.ID()}
		errs[slot] = a.Exec(ctx)
		// Thread-local locks are released when the action finishes;
		// isolation within the partition is guaranteed by the
		// worker's serial execution.
		w.Locks().ReleaseTxn(tx.ID())
	}})
	if err != nil {
		errs[slot] = err
		wg.Done()
	}
}

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
