// Package txn implements transactions and the transaction manager.
//
// A transaction carries its identity, its lock footprint, its log chain and
// a per-transaction time breakdown (how long it spent waiting for index
// latches, heap latches, database locks, structure modifications and the
// log), which is what the paper's Figures 6, 7 and 10 report.
//
// The transaction manager counts the active transactions with one atomic
// counter, so beginning and retiring a transaction enters no critical
// section: the XctMgr category of Figure 1 stays at zero.
//
// Commit is continuation-driven.  CommitThen appends the commit record,
// releases the locks and retires the transaction on the calling goroutine,
// then registers the acknowledgement on the log (wal.Log.OnDurable) and, in
// replica-acked mode, on the quorum gate; the goroutine that passes the
// last gate — the log's flush daemon, or a follower's ack — runs the
// caller's continuation.  No goroutine waits per commit.  Commit is
// CommitThen plus a wait, for callers that have a goroutine to park.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"plp/internal/cs"
	"plp/internal/lock"
	"plp/internal/wal"
)

// State is the lifecycle state of a transaction.
type State int32

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

// String returns the state label.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Errors returned by transaction operations.
var (
	ErrNotActive = errors.New("txn: transaction is not active")
	ErrAborted   = errors.New("txn: transaction aborted")
	// ErrNotDurable is returned by Commit when the log device shut down
	// before the commit record reached the durable horizon (a commit racing
	// engine Close).  The transaction's effects are applied in memory, but
	// the caller must NOT acknowledge it to the client: after the imminent
	// restart, recovery will treat it as a loser.
	ErrNotDurable = errors.New("txn: commit record not durable (log closed)")
)

// WaitKind classifies where a transaction spent blocked time, matching the
// time-breakdown legends of Figures 6, 7 and 10.
type WaitKind int

// Wait kinds.
const (
	WaitIndexLatch WaitKind = iota
	WaitHeapLatch
	WaitLock
	WaitSMO
	WaitLog
	WaitQueue // time an action spent queued on a partition worker

	NumWaitKinds int = iota
)

// String returns the label used in reports.
func (k WaitKind) String() string {
	switch k {
	case WaitIndexLatch:
		return "Idx Latch Cont."
	case WaitHeapLatch:
		return "Heap Latch Cont."
	case WaitLock:
		return "Lock Cont."
	case WaitSMO:
		return "SMO Wait"
	case WaitLog:
		return "Log Wait"
	case WaitQueue:
		return "Queue Wait"
	default:
		return fmt.Sprintf("WaitKind(%d)", int(k))
	}
}

// Breakdown accumulates blocked time per wait kind plus operation counts.
// All fields are updated atomically because DORA/PLP execute the actions of
// one transaction on several partition workers.
type Breakdown struct {
	waits   [NumWaitKinds]atomic.Int64
	latches atomic.Uint64 // number of latch acquisitions performed
}

// AddWait records blocked time of the given kind.
func (b *Breakdown) AddWait(kind WaitKind, d time.Duration) {
	if b == nil || d <= 0 {
		return
	}
	if kind < 0 || int(kind) >= NumWaitKinds {
		return
	}
	b.waits[kind].Add(int64(d))
}

// AddLatch counts one latch acquisition.
func (b *Breakdown) AddLatch() {
	if b == nil {
		return
	}
	b.latches.Add(1)
}

// Wait returns the accumulated blocked time of the given kind.
func (b *Breakdown) Wait(kind WaitKind) time.Duration {
	if b == nil {
		return 0
	}
	return time.Duration(b.waits[kind].Load())
}

// Latches returns the number of latch acquisitions counted.
func (b *Breakdown) Latches() uint64 {
	if b == nil {
		return 0
	}
	return b.latches.Load()
}

// Totals returns a plain-struct copy of the breakdown.
type Totals struct {
	Waits   [NumWaitKinds]time.Duration
	Latches uint64
}

// Totals returns the accumulated values.
func (b *Breakdown) Totals() Totals {
	var t Totals
	if b == nil {
		return t
	}
	for i := 0; i < NumWaitKinds; i++ {
		t.Waits[i] = time.Duration(b.waits[i].Load())
	}
	t.Latches = b.latches.Load()
	return t
}

// UndoFunc reverses one logical update when a transaction aborts.
type UndoFunc func() error

// Txn is a single transaction.
type Txn struct {
	id    uint64
	state atomic.Int32
	m     *Manager

	mu        sync.Mutex
	lockNames []lock.Name
	undo      []UndoFunc
	lastLSN   wal.LSN

	Breakdown Breakdown

	start time.Time

	// The commit continuation's state (see CommitThen): the LSN the
	// acknowledgement waits on, whether the transaction logged nothing,
	// when the current gate wait began, and the caller's continuation.
	// onDurable and onReplicated are t.durable and t.replicated, bound once
	// per Txn object so that a commit allocates no closure.
	commitLSN    wal.LSN
	readOnly     bool
	gateStart    time.Time
	done         func(error)
	onDurable    func(error)
	onReplicated func(error)
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// State returns the current state.
func (t *Txn) State() State { return State(t.state.Load()) }

// Start returns the wall-clock time the transaction began.
func (t *Txn) Start() time.Time { return t.start }

// RecordLock remembers that the transaction acquired the named lock so it
// can be released at commit/abort.
func (t *Txn) RecordLock(n lock.Name) {
	t.mu.Lock()
	t.lockNames = append(t.lockNames, n)
	t.mu.Unlock()
}

// LockNames returns the names of all locks acquired by the transaction.
func (t *Txn) LockNames() []lock.Name {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]lock.Name(nil), t.lockNames...)
}

// PushUndo registers an undo action to run (in reverse order) on abort.
func (t *Txn) PushUndo(f UndoFunc) {
	t.mu.Lock()
	t.undo = append(t.undo, f)
	t.mu.Unlock()
}

// SetLastLSN records the LSN of the transaction's most recent log record.
func (t *Txn) SetLastLSN(lsn wal.LSN) {
	t.mu.Lock()
	if lsn > t.lastLSN {
		t.lastLSN = lsn
	}
	t.mu.Unlock()
}

// LastLSN returns the LSN of the transaction's most recent log record.
func (t *Txn) LastLSN() wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLSN
}

// Manager creates, commits and aborts transactions.
type Manager struct {
	nextID atomic.Uint64
	log    wal.Log
	locks  *lock.Manager
	cstats *cs.Stats
	lazy   atomic.Bool

	// ackGate, when set, extends the commit acknowledgement gate beyond
	// local durability: the commit's continuation runs only once the gate
	// passes the commit record's LSN (replica-acked mode waits for a quorum
	// of followers' durable acks).  Installed via SetCommitAckWaiter; nil
	// means local-fsync acknowledgement, the default.
	ackGate atomic.Pointer[func(wal.LSN, func(error))]

	// pool recycles finished Txn objects between requests: the object, its
	// lockNames/undo slice capacity and its Breakdown all get reused, so the
	// per-transaction hot path allocates nothing in steady state.  Only
	// transactions explicitly handed back through Recycle enter the pool —
	// a Txn that escaped to a caller is never reused underneath it.
	pool sync.Pool

	// active counts the transactions begun and not yet retired.
	active atomic.Int64

	// prepared maps cross-shard global transaction IDs to local branches
	// that voted yes and now await the coordinator's decision.  A prepared
	// transaction stays Active (and counted in active) so checkpoints and
	// shutdown correctly see it as unfinished business.
	mu       sync.Mutex
	prepared map[string]*preparedTxn

	committed atomic.Uint64
	aborted   atomic.Uint64

	// localAck/replicaAck record how long writer commits wait at each
	// acknowledgement gate (see hist.go).
	localAck   ackHist
	replicaAck ackHist
}

// preparedTxn is a local branch blocked in the in-doubt window.
type preparedTxn struct {
	txn   *Txn
	since time.Time
}

// NewManager returns a transaction manager.  log is required; locks may be
// nil when the engine uses thread-local locking (DORA/PLP); cstats may be
// nil.
func NewManager(log wal.Log, locks *lock.Manager, cstats *cs.Stats) *Manager {
	return &Manager{
		log:    log,
		locks:  locks,
		cstats: cstats,
	}
}

// Begin starts a new transaction.
func (m *Manager) Begin() *Txn {
	t, _ := m.pool.Get().(*Txn)
	if t == nil {
		t = &Txn{m: m}
		t.onDurable, t.onReplicated = t.durable, t.replicated
	}
	t.id = m.nextID.Add(1)
	t.start = time.Now()
	t.state.Store(int32(Active))
	m.active.Add(1)
	return t
}

// SetLazyCommit controls whether a commit's acknowledgement waits for its
// commit record to reach the durable horizon.  With lazy commit on, it is
// acknowledged as soon as the record is in the log buffer — the group-commit daemon makes it
// durable shortly after, but a crash in that window loses the transaction
// even though the client saw it acknowledged.  It may be toggled at
// runtime; in-flight commits use the value they observed.
func (m *Manager) SetLazyCommit(v bool) { m.lazy.Store(v) }

// LazyCommit reports whether lazy commit is enabled.
func (m *Manager) LazyCommit() bool { return m.lazy.Load() }

// SetCommitAckWaiter installs (or clears, with nil) the extended commit
// acknowledgement gate.  The gate is registered once the commit record is
// locally durable and must call its continuation exactly once, without
// blocking; a non-nil error propagates to the committer, who must NOT
// treat the transaction as acknowledged-replicated (it IS durable
// locally).  Read-only commits skip the gate — they ship no record, so
// there is nothing to replicate.
func (m *Manager) SetCommitAckWaiter(gate func(lsn wal.LSN, done func(error))) {
	if gate == nil {
		m.ackGate.Store(nil)
		return
	}
	m.ackGate.Store(&gate)
}

// CommitThen is the group-commit pipeline, in the two steps of the Aether
// scheme.  The first runs on the calling goroutine:
//
//   - append the commit record to the log buffer (cheap, no I/O);
//   - release the transaction's centralized locks and retire it — early
//     lock release: the transaction's effects are visible to others the
//     moment its commit record is *ordered* in the log, not when it is
//     durable, because any dependent transaction's own commit record
//     necessarily serializes after this one and the same flush ordering
//     makes both durable in order.
//
// The second is the completion: done runs once the durable horizon passes
// the commit record (wal.Log.OnDurable), riding one shared fsync with every
// other committer in the batch, and then once the extended gate passes it,
// if one is installed.  The time until then is the WaitLog component of
// the paper's time breakdowns.  With lazy commit the durability wait is
// skipped.
//
// A read-only transaction (one that never appended a log record) appends
// nothing, since recovery has nothing to win or lose.  It must still
// respect acknowledged-implies-durable causality: early lock release means
// it may have read a writer whose commit record is ordered but not yet
// flushed, so its completion registers on the LSN that was current at its
// commit (free on an already-quiet tail; one shared group-commit flush
// otherwise).  Lazy commit skips that wait too.
//
// done runs exactly once: at once on the calling goroutine when nothing is
// left to wait for, otherwise on the goroutine that passes the last gate.
// It receives ErrNotDurable when the log closed before the record became
// durable.  done must not block, and must not use t after it returns
// (the caller may recycle it).
func (m *Manager) CommitThen(t *Txn, done func(error)) {
	if !t.state.CompareAndSwap(int32(Active), int32(Committed)) {
		done(ErrNotActive)
		return
	}
	t.readOnly = t.LastLSN() == wal.InvalidLSN
	if t.readOnly {
		t.commitLSN = m.log.CurrentLSN() - 1
	} else {
		rec := &wal.Record{Txn: t.id, Type: wal.RecCommit}
		t.commitLSN = m.log.Append(rec)
		t.SetLastLSN(t.commitLSN)
	}
	if m.locks != nil {
		m.locks.ReleaseAll(t.id, t.LockNames())
	}
	m.retire()

	t.done = done
	if m.lazy.Load() || (t.readOnly && t.commitLSN == wal.InvalidLSN) {
		t.passDurable()
		return
	}
	t.gateStart = time.Now()
	m.log.OnDurable(t.commitLSN, t.onDurable)
}

// durable is the commit continuation's local-durability step.
func (t *Txn) durable(err error) {
	waited := time.Since(t.gateStart)
	t.Breakdown.AddWait(WaitLog, waited)
	if !t.readOnly {
		t.m.localAck.observe(waited)
	}
	if err != nil {
		// The log closed under us: "acknowledged means durable" can no
		// longer be kept, so the caller must surface a failure.
		t.finishCommit(ErrNotDurable)
		return
	}
	t.passDurable()
}

// passDurable runs once the commit record is durable (or need not be): it
// registers a writer on the extended gate, when one is installed, and
// completes the commit otherwise.
func (t *Txn) passDurable() {
	if gate := t.m.ackGate.Load(); gate != nil && !t.readOnly {
		t.gateStart = time.Now()
		(*gate)(t.commitLSN, t.onReplicated)
		return
	}
	t.finishCommit(nil)
}

// replicated is the commit continuation's extended-gate step.
func (t *Txn) replicated(err error) {
	waited := time.Since(t.gateStart)
	t.Breakdown.AddWait(WaitLog, waited)
	t.m.replicaAck.observe(waited)
	t.finishCommit(err)
}

// finishCommit counts the commit and runs the caller's continuation.
func (t *Txn) finishCommit(err error) {
	t.m.committed.Add(1)
	done := t.done
	t.done = nil
	done(err)
}

// Commit is CommitThen plus a wait: it returns once the commit may be
// acknowledged, with CommitThen's error.
func (m *Manager) Commit(t *Txn) error {
	ch := make(chan error, 1)
	m.CommitThen(t, func(err error) { ch <- err })
	return <-ch
}

// Abort runs the transaction's undo actions in reverse order, writes an
// abort record, releases locks and retires the transaction.
func (m *Manager) Abort(t *Txn) error {
	if !t.state.CompareAndSwap(int32(Active), int32(Aborted)) {
		return ErrNotActive
	}
	t.mu.Lock()
	undo := append([]UndoFunc(nil), t.undo...)
	t.mu.Unlock()
	var firstErr error
	for i := len(undo) - 1; i >= 0; i-- {
		if err := undo[i](); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// The abort record is appended but not flushed: recovery treats a
	// transaction without a durable commit record as a loser either way, so
	// forcing an fsync here would only add latency to the failure path.
	rec := &wal.Record{Txn: t.id, Type: wal.RecAbort}
	lsn := m.log.Append(rec)
	t.SetLastLSN(lsn)

	if m.locks != nil {
		m.locks.ReleaseAll(t.id, t.LockNames())
	}
	m.retire()
	m.aborted.Add(1)
	return firstErr
}

// retire stops counting the transaction as active.  The state transition
// out of Active guards it, so it runs once per transaction.
func (m *Manager) retire() { m.active.Add(-1) }

// Recycle returns a finished (committed or aborted) transaction to the
// manager's pool so the next Begin reuses the object instead of allocating.
// The caller asserts that no reference to t survives the call: the engine
// invokes it for the previous request's transaction when the same session
// starts its next request, which is what makes Result.Txn valid until then
// and no longer.  Recycling an active transaction is a no-op.
func (m *Manager) Recycle(t *Txn) {
	if t == nil || t.State() == Active {
		return
	}
	t.mu.Lock()
	t.lockNames = t.lockNames[:0]
	clear(t.undo) // drop closure references so the pool retains no captures
	t.undo = t.undo[:0]
	t.lastLSN = wal.InvalidLSN
	t.mu.Unlock()
	t.commitLSN, t.readOnly, t.gateStart = wal.InvalidLSN, false, time.Time{}
	for i := 0; i < NumWaitKinds; i++ {
		t.Breakdown.waits[i].Store(0)
	}
	t.Breakdown.latches.Store(0)
	m.pool.Put(t)
}

// NumActive returns the number of in-flight transactions.
func (m *Manager) NumActive() int { return int(m.active.Load()) }

// Stats reports commit/abort counts.
type Stats struct {
	Committed uint64
	Aborted   uint64
}

// Stats returns commit/abort counters.
func (m *Manager) Stats() Stats {
	return Stats{Committed: m.committed.Load(), Aborted: m.aborted.Load()}
}

// Log returns the manager's log (used by access methods to append records
// on behalf of a transaction).
func (m *Manager) Log() wal.Log { return m.log }

// Locks returns the centralized lock manager, or nil when the engine uses
// thread-local locking.
func (m *Manager) Locks() *lock.Manager { return m.locks }
