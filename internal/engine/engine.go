// Package engine implements the five transaction-execution designs compared
// in the paper behind a single API:
//
//   - Conventional: every client thread executes its whole transaction,
//     acquiring centralized database locks (optionally with Speculative Lock
//     Inheritance) and latching every page it touches.
//   - Logical (DORA, "logical-only partitioning"): a partition manager
//     decomposes transactions into actions and routes each action to the
//     worker goroutine that owns the corresponding logical partition.
//     Locking becomes thread-local, but page accesses are still latched.
//   - PLPRegular: Logical plus MRBTree-partitioned indexes accessed
//     latch-free by their owning workers.  Heap pages remain shared and
//     latched.
//   - PLPPartition: PLPRegular plus heap pages owned by a logical partition,
//     making heap accesses latch-free as well.
//   - PLPLeaf: PLPRegular plus heap pages owned by a single MRBTree leaf
//     page (the design the paper favours).
//
// An Engine owns the full storage manager stack (buffer pool, log, lock
// manager, transaction manager, catalog) plus, for the partitioned designs,
// the partition worker pool.  Clients obtain Sessions and submit Requests;
// the harness reads the critical-section, latch and time-breakdown
// statistics that the paper's figures are built from.
//
// On the partitioned designs a request runs on continuations
// (execute.go): Session.Submit hands its first phase to the workers and
// returns; the action that finishes a phase last dispatches the next
// phase, or commits; and the commit's completion, run by the log's
// flusher once the commit record is durable, calls the caller back.  A
// request whose actions all route to one worker is one task on it.
// Session.Execute is Submit plus a wait.
package engine

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"plp/internal/bufferpool"
	"plp/internal/catalog"
	"plp/internal/cs"
	"plp/internal/dora"
	"plp/internal/heap"
	"plp/internal/latch"
	"plp/internal/lock"
	"plp/internal/txn"
	"plp/internal/wal"
)

// Design selects one of the five systems.
type Design int

// The five designs of the evaluation (Section 4.1).
const (
	Conventional Design = iota
	Logical
	PLPRegular
	PLPPartition
	PLPLeaf
)

// String returns the label used in reports, matching the paper's figures.
func (d Design) String() string {
	switch d {
	case Conventional:
		return "Conventional"
	case Logical:
		return "Logical"
	case PLPRegular:
		return "PLP-Regular"
	case PLPPartition:
		return "PLP-Partition"
	case PLPLeaf:
		return "PLP-Leaf"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// Partitioned reports whether the design routes work through partition
// workers.
func (d Design) Partitioned() bool { return d != Conventional }

// LatchFreeIndex reports whether the design accesses index pages without
// latching.
func (d Design) LatchFreeIndex() bool {
	return d == PLPRegular || d == PLPPartition || d == PLPLeaf
}

// LatchFreeHeap reports whether the design accesses heap pages without
// latching.
func (d Design) LatchFreeHeap() bool { return d == PLPPartition || d == PLPLeaf }

// AllDesigns lists every design in reporting order.
func AllDesigns() []Design {
	return []Design{Conventional, Logical, PLPRegular, PLPPartition, PLPLeaf}
}

// Options configures an Engine.
type Options struct {
	// Design selects the execution design.
	Design Design
	// Partitions is the number of logical partitions (and worker
	// goroutines) for the partitioned designs, and the number of MRBTree
	// sub-trees when UseMRBTree is set.  It must match the number of
	// boundaries supplied when tables are created (len(boundaries)+1).
	Partitions int
	// UseMRBTree makes the Conventional and Logical designs use
	// multi-rooted primary indexes (the Appendix B experiment).  The PLP
	// designs always use MRBTrees.
	UseMRBTree bool
	// SLI enables Speculative Lock Inheritance in the Conventional design.
	SLI bool
	// NaiveLog replaces the Aether-style consolidated log buffer with a
	// single-mutex buffer (ablation only).
	NaiveLog bool
	// DataDir, when non-empty, selects the disk-backed segmented log device
	// so the engine survives a crash: appends are made durable by a
	// background group-commit flusher and a restarted engine rebuilds its
	// contents from the log (see Open and Recover).  Only Open honors it;
	// New always builds an in-memory engine.
	DataDir string
	// WALSegmentBytes overrides the durable log's segment rotation
	// threshold (0 selects the device default; tests use small values to
	// force rotation).
	WALSegmentBytes int64
	// LazyCommit makes Commit return without waiting for the commit record
	// to become durable: the group-commit daemon flushes it shortly after,
	// trading a small crash-loss window for commit latency.
	LazyCommit bool
	// ForceLatchedIndex keeps index latching on even for PLP designs
	// (ablation only).
	ForceLatchedIndex bool
	// MaxSlotsPerNode artificially limits index fan-out (tests only).
	MaxSlotsPerNode int
	// QueueDepth is the partition workers' input queue depth.
	QueueDepth int
	// LockTimeout overrides the centralized lock manager's deadlock
	// timeout.
	LockTimeout time.Duration
	// AccessObserver, when set, receives one callback per routed action in
	// the partitioned designs (see AccessObserver).  The online
	// repartitioning controller (package repartition) attaches itself here
	// — or later, through SetAccessObserver.
	AccessObserver AccessObserver
}

// AccessObserver receives one callback per action routed by the partition
// manager: the table, the logical partition the action was routed to, and
// the routing key.  Implementations must be cheap and must copy key if they
// retain it.  This is the feed for the DRP controller's aging access
// histograms (package repartition).  It is never invoked on a partition
// worker, so it may take locks a Rebalance holds while it quiesces
// workers: statically keyed actions are reported on the submitting
// goroutine, and actions routed at dispatch time where their phase is
// dispatched — on a fresh goroutine when the phase before ended on a
// worker.  Inline actions (Action.Inline) route to no partition and are
// not reported.
type AccessObserver func(table string, partition int, key []byte)

// normalize fills in defaults.
func (o *Options) normalize() {
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
}

// Engine is one instantiation of a design over a fresh in-memory database.
type Engine struct {
	opts Options

	csStats    *cs.Stats
	latchStats *latch.Stats
	bp         *bufferpool.Pool
	log        wal.Log
	locks      *lock.Manager
	tm         *txn.Manager
	cat        *catalog.Catalog
	pool       *dora.Pool

	routing map[string]*routingTable

	observer atomic.Pointer[AccessObserver]

	// stateProvider supplies the opaque controller-state blob checkpoints
	// carry (recovery.StateSource); recoveredState holds the blob the last
	// Recover found, for the controller to reclaim on re-attach.
	stateProvider  atomic.Pointer[func() []byte]
	recoveredMu    sync.Mutex
	recoveredState []byte

	// Cross-shard two-phase commit state (see twopc.go): branches recovered
	// in doubt awaiting the coordinator's verdict, and the gids this node
	// durably decided to commit as a coordinator.
	twopcMu sync.Mutex
	inDoubt map[string]*inDoubtBranch
	decided map[string]bool

	nextSession atomic.Uint64

	// planShapes caches compiled plan shapes so repeated executions of the
	// same plan structure skip validation and filter compilation (see
	// plancache.go).
	planShapes *planCache
}

// New creates an in-memory engine with the given options.  Options.DataDir
// is ignored; use Open for a disk-backed engine.
func New(opts Options) *Engine {
	opts.normalize()
	csStats := &cs.Stats{}
	var log wal.Log
	if opts.NaiveLog {
		log = wal.NewNaive(csStats)
	} else {
		log = wal.NewConsolidated(csStats)
	}
	return build(opts, csStats, log)
}

// Open creates an engine whose log is the disk-backed segmented device in
// Options.DataDir (an empty DataDir degenerates to New).  The returned
// engine is empty: create the schema, then call Recover to rebuild the
// database contents from the log before serving traffic.
func Open(opts Options) (*Engine, error) {
	if opts.DataDir == "" {
		return New(opts), nil
	}
	opts.normalize()
	csStats := &cs.Stats{}
	log, err := wal.OpenDurable(filepath.Join(opts.DataDir, "wal"), wal.DurableOptions{
		SegmentBytes: opts.WALSegmentBytes,
		CSStats:      csStats,
	})
	if err != nil {
		return nil, err
	}
	return build(opts, csStats, log), nil
}

// build assembles the engine around an already-constructed log device.
func build(opts Options, csStats *cs.Stats, log wal.Log) *Engine {
	latchStats := &latch.Stats{}
	bp := bufferpool.New(bufferpool.Config{LatchStats: latchStats, CSStats: csStats})

	var locks *lock.Manager
	if opts.Design == Conventional {
		locks = lock.NewManager(csStats)
		if opts.LockTimeout > 0 {
			locks.SetTimeout(opts.LockTimeout)
		}
	}
	tm := txn.NewManager(log, locks, csStats)
	tm.SetLazyCommit(opts.LazyCommit)
	e := &Engine{
		opts:       opts,
		csStats:    csStats,
		latchStats: latchStats,
		bp:         bp,
		log:        log,
		locks:      locks,
		tm:         tm,
		cat:        catalog.New(csStats),
		routing:    make(map[string]*routingTable),
		planShapes: newPlanCache(),
	}
	if opts.Design.Partitioned() {
		e.pool = dora.NewPool(opts.Partitions, opts.QueueDepth, csStats)
		e.pool.Start()
	}
	if opts.AccessObserver != nil {
		e.SetAccessObserver(opts.AccessObserver)
	}
	return e
}

// SetAccessObserver installs (or, with nil, removes) the per-action access
// observer.  It may be called while traffic is running; actions dispatched
// concurrently with the change may still report to the previous observer.
func (e *Engine) SetAccessObserver(obs AccessObserver) {
	if obs == nil {
		e.observer.Store(nil)
		return
	}
	e.observer.Store(&obs)
}

// observeAccess reports one routed action to the attached observer, if any.
func (e *Engine) observeAccess(table string, partition int, key []byte) {
	if p := e.observer.Load(); p != nil {
		(*p)(table, partition, key)
	}
}

// Close stops the partition workers and — for a disk-backed engine — drains
// the log's outstanding tail to disk and closes it, so a graceful shutdown
// never loses a lazily acknowledged commit.
func (e *Engine) Close() error {
	if e.pool != nil {
		e.pool.Stop()
	}
	if d, ok := e.log.(*wal.Durable); ok {
		return d.Close()
	}
	return nil
}

// Options returns the engine's options.
func (e *Engine) Options() Options { return e.opts }

// Design returns the engine's design.
func (e *Engine) Design() Design { return e.opts.Design }

// CSStats returns the critical-section statistics sink.
func (e *Engine) CSStats() *cs.Stats { return e.csStats }

// LatchStats returns the page-latch statistics sink.
func (e *Engine) LatchStats() *latch.Stats { return e.latchStats }

// BufferPool returns the engine's buffer pool.
func (e *Engine) BufferPool() *bufferpool.Pool { return e.bp }

// Log returns the engine's write-ahead log.
func (e *Engine) Log() wal.Log { return e.log }

// TxnStats returns commit/abort counters.
func (e *Engine) TxnStats() txn.Stats { return e.tm.Stats() }

// AckWaitHistograms returns the commit acknowledgement wait distributions:
// local group-commit fsync waits and extended replica/quorum-ack waits.
func (e *Engine) AckWaitHistograms() (local, replica txn.AckWaitHist) {
	return e.tm.AckWaitHistograms()
}

// ActiveTxns returns the number of in-flight transactions.  Checkpointing
// requires a transactionally quiet system and uses this to check.
func (e *Engine) ActiveTxns() int { return e.tm.NumActive() }

// WorkerStats returns the aggregated partition-worker counters (zero for
// the Conventional design).
func (e *Engine) WorkerStats() dora.Stats {
	if e.pool == nil {
		return dora.Stats{}
	}
	return e.pool.TotalStats()
}

// WorkerQueueDepths returns the current input-queue depth of every
// partition worker (nil for the Conventional design).  The plpd -pprof
// endpoint publishes it via expvar so hot-path regressions are diagnosable
// on a live daemon.
func (e *Engine) WorkerQueueDepths() []int {
	if e.pool == nil {
		return nil
	}
	out := make([]int, 0, e.pool.Size())
	for _, w := range e.pool.Workers() {
		out = append(out, w.QueueDepth())
	}
	return out
}

// PartitionStats returns per-partition worker counters (nil for the
// Conventional design).  Load-balancing experiments use it to see how work
// is spread across the workers.
func (e *Engine) PartitionStats() []dora.Stats {
	if e.pool == nil {
		return nil
	}
	out := make([]dora.Stats, 0, e.pool.Size())
	for _, w := range e.pool.Workers() {
		out = append(out, w.Stats())
	}
	return out
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// indexLatched reports whether primary/partition-aligned indexes latch.
func (e *Engine) indexLatched() bool {
	if e.opts.ForceLatchedIndex {
		return true
	}
	return !e.opts.Design.LatchFreeIndex()
}

// storage returns the storage resources the design builds its tables on.
func (e *Engine) storage() catalog.Resources {
	return catalog.Resources{
		BufferPool:      e.bp,
		CSStats:         e.csStats,
		IndexLatched:    e.indexLatched(),
		HeapMode:        e.heapMode(),
		MaxSlotsPerNode: e.opts.MaxSlotsPerNode,
	}
}

// heapMode returns the heap access mode for this design.
func (e *Engine) heapMode() heap.AccessMode {
	if e.opts.Design.LatchFreeHeap() {
		return heap.LatchFree
	}
	return heap.Latched
}

// CreateTable creates a table.  boundaries are the partitioning boundaries
// of the table's key space; they are always used for routing actions to
// partition workers, and used as index partitions when the design (or
// UseMRBTree) calls for a multi-rooted index.
func (e *Engine) CreateTable(def catalog.TableDef) (*catalog.Table, error) {
	boundaries := def.Boundaries
	useMRB := e.opts.Design.LatchFreeIndex() || e.opts.UseMRBTree
	if !useMRB {
		// Single-rooted indexes for the baseline designs.
		def.Boundaries = nil
	}
	tbl, err := e.cat.CreateTable(def, e.storage())
	if err != nil {
		return nil, err
	}
	e.routing[def.Name] = newRoutingTable(boundaries)
	return tbl, nil
}

// Table returns the named table.
func (e *Engine) Table(name string) (*catalog.Table, error) { return e.cat.Table(name) }

// partitionFor returns the logical partition owning key in table.
func (e *Engine) partitionFor(table string, key []byte) int {
	rt, ok := e.routing[table]
	if !ok {
		return 0
	}
	p := rt.partitionFor(key)
	if e.pool != nil {
		return p % e.pool.Size()
	}
	return p
}

// PartitionFor returns the logical partition that owns key in table
// according to the current routing table.  Load-balancing tools (package
// balance) and clients that want partition-affine request batching use it;
// the partition workers themselves never consult the routing table during
// normal processing (Section 3.1).
func (e *Engine) PartitionFor(table string, key []byte) int {
	return e.partitionFor(table, key)
}

// Boundaries returns a copy of the table's current routing boundaries
// (len = partitions-1).  The repartitioning controller plans boundary moves
// against them.
func (e *Engine) Boundaries(table string) ([][]byte, error) {
	rt, ok := e.routing[table]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", table)
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([][]byte, len(rt.boundaries))
	for i, b := range rt.boundaries {
		out[i] = append([]byte(nil), b...)
	}
	return out, nil
}

// Session is a client handle.  In the Conventional design it carries the
// agent-private Speculative Lock Inheritance cache; every client goroutine
// should use its own Session.
type Session struct {
	e   *Engine
	id  uint64
	sli *lock.SLICache

	// lastTxn is the previous request's finished transaction, recycled into
	// the manager's pool when the session's next request begins (which is
	// why Result.Txn is documented as valid only until then).
	lastTxn *txn.Txn

	// Execute's wait for its own submission: wake, bound once per session,
	// stores the outcome in res and err and signals woken.
	woken chan struct{}
	wake  func(Result, error)
	res   Result
	err   error
}

// NewSession returns a new client session.
func (e *Engine) NewSession() *Session {
	s := &Session{e: e, id: e.nextSession.Add(1), woken: make(chan struct{}, 1)}
	s.wake = func(res Result, err error) {
		s.res, s.err = res, err
		s.woken <- struct{}{}
	}
	if e.opts.Design == Conventional && e.opts.SLI && e.locks != nil {
		s.sli = lock.NewSLICache(e.locks, s.id)
	}
	return s
}

// Engine returns the session's engine.
func (s *Session) Engine() *Engine { return s.e }

// Close releases any locks parked in the session's SLI cache and recycles
// the last request's transaction object.
func (s *Session) Close() {
	if s.sli != nil {
		s.sli.Invalidate()
	}
	s.recycleLast()
}
