// Package plp is a from-scratch reproduction of "PLP: Page Latch-free
// Shared-everything OLTP" (Pandis, Tözün, Johnson, Ailamaki — PVLDB 4(10),
// 2011).
//
// The library implements the full storage-manager stack the paper builds
// on (slotted pages, buffer pool with page latching, ARIES-style write-ahead
// logging with an Aether-like consolidated buffer, a hierarchical lock
// manager with Speculative Lock Inheritance, and a latch-crabbing B+Tree),
// the paper's contributions (the multi-rooted B+Tree and physiological
// partitioning), and the five execution designs its evaluation compares:
//
//	Conventional   — shared-everything, centralized locking + page latching
//	Logical        — data-oriented (DORA) logical-only partitioning
//	PLPRegular     — PLP with latch-free index access
//	PLPPartition   — PLP with partition-owned heap pages
//	PLPLeaf        — PLP with leaf-owned heap pages (the paper's favourite)
//
// # Quick start
//
//	eng := plp.New(plp.Options{Design: plp.PLPLeaf, Partitions: 8})
//	defer eng.Close()
//
//	boundaries := [][]byte{plp.Uint64Key(500_000)} // 2 partitions
//	eng.CreateTable(plp.TableDef{Name: "accounts", Boundaries: boundaries})
//
//	sess := eng.NewSession()
//	req := plp.NewRequest(plp.Action{
//		Table: "accounts",
//		Key:   plp.Uint64Key(42),
//		Exec: func(c *plp.Ctx) error {
//			return c.Insert("accounts", plp.Uint64Key(42), []byte("hello"))
//		},
//	})
//	res, err := sess.Execute(req)
//
// # Declarative transactions
//
// Closure Actions are the native escape hatch; the preferred surface is the
// declarative one (package plan): transactions as phases of typed,
// introspectable ops with explicit data dependencies — the programmatic
// form of the paper's Section 3.1 transaction flow graphs.  Because a plan
// carries data instead of code, the identical value executes in-process and
// travels whole over the wire in one frame, so a networked
// client runs a dependent multi-phase transaction in ONE round trip,
// stored-procedure style.  The TATP UpdateLocation shape — probe a
// non-partition-aligned secondary index, then route the update by whatever
// primary key the probe produced:
//
//	b := plp.NewPlan()
//	probe := b.LookupSecondary("subscribers", "sub_nbr", secKey).Ref()
//	b.Then().Update("subscribers", nil, newLocation).KeyFrom(probe)
//	results, err := sess.ExecutePlan(b.MustBuild())
//
// Server-evaluated read-modify-writes (conditions plus int64-add / append /
// set mutations) cover the TPC-B account/teller/branch updates without a
// read round trip:
//
//	p := plp.NewPlan().
//		AddExisting("accounts", aKey, delta).
//		AddExisting("tellers", tKey, delta).
//		AddExisting("branches", bKey, delta).
//		MustBuild()
//	results, err := sess.ExecutePlan(p)
//
// Plans may mix bounded scans with point reads in one phase (each partition
// scans its own clipped sub-range in parallel, inside the transaction), and
// all five designs execute the compiled plan identically — the differential
// trace proves plan and closure surfaces equivalent, including under
// crash/recovery.  Package client mirrors the API (client.NewPlan,
// Client.DoPlan), and a context cancellation sends a wire cancel frame that
// aborts the server-side transaction.
//
// # Query layer
//
// Scans carry typed predicate trees (package plan: FieldCmp / Int64Cmp /
// KeyPrefix leaves under And/Or/Not) attached with Builder.Where.  The
// engine compiles the tree once per plan into a closure-free instruction
// program and evaluates it INSIDE each partition worker's scan task, so
// filtering happens where the rows live: only passing rows are copied out,
// counted against the limit, and — over the wire — shipped to the client.
// At 1% selectivity a test (TestScanPushdownSpeedupAndBytes in
// internal/server) checks both the speedup and the bytes-on-wire
// reduction against client-side filtering.
//
// What a pushed-down filter costs is paid per examined row, not per
// returned one, on the partition's own worker, so the scan loop is kept
// straight: the index checks the range's upper bound once per leaf, each
// row reaches the chunk's visitor through one callback with its heap
// record read in place (no latch call under PLP), and a comparison whose
// field and operand have the same width of at most 8 bytes — TATP's 4-byte
// location field, any Int64Cmp — is one unsigned-integer compare against
// an operand decoded at compile (or cache rebind) time.  A filter of one
// test skips the stack machine.
//
// Over the wire a scan can stream instead of materializing: the server
// walks the partitions in key order and emits flow-controlled SCAN-CHUNK
// frames (a per-stream credit window caps unacknowledged chunks, so a slow
// consumer exerts backpressure instead of ballooning server memory), and
// client.ScanStream exposes the arriving rows as an iterator whose context
// cancellation sends a wire cancel that aborts the server-side scan
// mid-stream.  The sharded routing client merges per-shard streams in key
// order under one global limit, opening each shard's stream lazily so a
// limit satisfied by early shards never contacts later ones.
//
// A plan op can also fan out over an earlier scan's results (ForEach):
// update-where-style statements execute entirely server-side.  Because
// plans carry data, not code, the server caches compiled plans by
// structural shape — parameters (keys, bounds, deltas, predicate operands)
// are excluded from the fingerprint and rebound per execution — so a
// workload's steady state compiles nothing (the plp_plan_cache_hits /
// plp_plan_compiles expvars track this).
// Aborted wire transactions carry a retry hint: client.IsTransient
// distinguishes lock-timeout-style aborts worth retrying from permanent
// ones, and the plp_latency expvar publishes sampled latency histograms
// per operation kind ("plan" for transactions, "scan_chunk" for streams).
//
// # Execution fast paths
//
// The paper's partitioned designs replace unscalable critical sections with
// fixed-cost message passing; the partition manager makes sure that fixed
// cost is paid as few times as possible.  At submit time the partition manager
// analyzes the request's routing keys (they are static for everything but
// KeyFn actions):
//
//   - Single-site fast path: when every action of every phase routes to one
//     partition — the dominant TATP/TPC-B transaction shape — the WHOLE
//     transaction ships to the owning worker as one task.  Phases run
//     serially on the worker (serial execution on one worker IS the phase
//     ordering), so the transaction costs one queue operation and one
//     completion signal instead of a channel round trip per phase, and the
//     per-request scratch (transaction object, execution context, error
//     slots, wait groups) is recycled through pools: a committed
//     single-site read transaction performs only a handful of allocations
//     (TestSingleSiteAllocs gates the budget in CI) and a read-only commit
//     writes no log record at all.
//   - Per-partition batching: when a phase spans partitions, its actions
//     are grouped by owning worker and each group rides one SubmitBatch —
//     k channel operations for a k-partition phase instead of one per
//     action.
//   - Continuations: nothing waits for a phase or a commit.  The action
//     that finishes a phase last dispatches the next phase or commits
//     (DORA's rendezvous points), and the commit's completion runs on the
//     log's flusher once the commit record is durable (Aether's flush
//     pipelining), so a request costs its worker tasks and no goroutine
//     wake-up of its own.  Session.Submit takes a completion; Execute is
//     Submit plus a wait.
//   - Inline probes: an op on a secondary index that is not
//     partition-aligned touches no partition-owned data (the index is
//     latched), so a probe runs where its phase is dispatched — at submit,
//     for a leading probe — and a probe-then-update request is single-site.
//
// Two things disable the single-site fast path for a request: routing by
// a key an earlier, not yet executed phase produces (KeyFn routing; a
// KeyFn fed only by inline phases that already ran is fine) and closure
// Actions with a nil routing key; both fall back to the per-phase dispatch
// path.  Online repartitioning composes with batching: the worker
// re-checks the routing epoch at dequeue, a mis-routed phase batch is split with only the
// mis-routed actions forwarded to their current owner, and a mis-routed
// single-site batch is re-driven unexecuted phase by phase.  The fast paths are
// an execution strategy, not a semantics change — the differential trace
// passes unchanged across all five designs.
//
// Beyond the core engine the package exposes the operational subsystems a
// deployment needs (see extensions.go): Open for a durable, crash-safe
// engine backed by a disk-based group-commit log, Checkpoint/Recover and
// the background Checkpointer for restart recovery over the shared log,
// AttachRepartitioner for the paper's online dynamic repartitioning (DRP),
// NewAdvisorTracker for the partition-alignment analysis of Appendix E, and
// NewServer plus the client, wire and keys packages (and cmd/plpd,
// cmd/plpctl) for serving an engine over TCP.
//
// # Durability and crash recovery
//
// plp.New builds a memory-resident engine, matching the paper's
// experimental setup: its log devices (the Aether-style consolidated
// buffer and the single-mutex ablation baseline) simulate the durable
// horizon without touching a disk.  plp.Open instead puts the disk-backed
// segmented log device behind the same Log interface: appends go to an
// in-memory tail and a background flush daemon batches every outstanding
// record into one write+fsync — group commit — before advancing the
// durable LSN.  Commit is split Aether-style: append the commit record,
// release locks early, then wait for the durable horizon to pass the
// record (skipped with Options.LazyCommit), so N concurrent committers
// share ~one fsync and the WaitLog component of the paper's time
// breakdowns measures real flush waits.
//
//	eng, err := plp.Open(plp.Options{Design: plp.PLPLeaf, Partitions: 8,
//		DataDir: "/var/lib/plp"})
//	eng.CreateTable(...)          // same schema as before the crash
//	info, err := eng.Recover()    // snapshot + boundaries + committed tail
//	...
//	eng.Checkpoint()              // bound the tail; Log().Truncate reclaims
//
// Engine.Checkpoint captures a transactionally consistent snapshot of
// every table plus a meta record holding the current partition boundaries
// and the repartitioning controller's histogram state; Engine.Recover
// replays the most recent checkpoint, re-applies the boundary moves, and
// replays the committed log tail, discarding transactions that never
// committed — so a SIGKILLed engine restarts with exactly the acknowledged
// state.  cmd/plpd wires this end to end (-data-dir, -lazy-commit,
// recovery before accepting connections, a token-gated "checkpoint"
// control verb, and a graceful-shutdown flush).
//
// # Network serving
//
// NewServer exposes an engine over TCP speaking the wire protocol (package
// wire; one version, no legacy dialects): sessions open with a handshake
// that optionally authenticates a token (Server.SetAuthToken / plpd -token)
// gating the administrative control verbs, and connections are pipelined —
// the connection's reader submits each request to the engine and returns
// to reading, the request's completion queues its reply (no goroutine
// waits per request), and responses return out of order matched by
// request ID, so a single connection can keep every partition worker busy.  Every
// transaction request is a plan frame (bounded range scans run as Section
// 3.3 distributed partition scans), so one path — one compiler, one set of
// cancel, retry-hint and shard-ownership rules — serves them all; pings and
// control verbs have frames of their own.  Package client is the matching
// asynchronous Go client (futures, context cancellation, a Txn builder
// that packs statements into a plan), and package keys is the shared
// order-preserving key encoding both sides build keys with.
//
// # Sharding
//
// Cross-process sharding (v1) layers a versioned shard map — package shard,
// a small text file assigning contiguous key ranges to plpd processes —
// over the same order-preserving key encoding that drives in-process
// partitioning, so a key's owner is a pure function of the map computable
// identically by clients, coordinators and participants:
//
//	version 1
//	shard 0 10.0.0.1:7070 500000
//	shard 1 10.0.0.2:7070 -
//
// Each plpd joins with -shard-map/-shard-id (the data directory remembers
// its assignment in a shard.state file and the daemon refuses to start when
// they disagree).  A transaction whose keys are all local takes the
// unchanged single-process fast path; one whose keys all live elsewhere is
// refused with a wrong-shard error carrying the current map — the routing
// client (client.DialSharded) adopts the attached map and forwards in the
// same call, mirroring the executor's epoch-checked mis-route forwarding;
// and one spanning shards commits through a coordinator-logged two-phase
// protocol over wire PREPARE/DECIDE frames: participants vote by forcing
// a prepare record and holding the branch prepared (locks held, undo
// retained), the coordinator's durable decide record is the global commit
// point, and presumed abort plus a janitor that chases lost decisions
// resolve every crash combination — the SIGKILL harness kills the
// coordinator between prepare and decide and proves no acknowledged
// cross-shard commit is lost and no unacknowledged one half-applies.
// Global transaction IDs are stamped with a per-incarnation epoch (the
// shard.state file counts restarts) so a restarted coordinator can never
// reuse a gid whose durable fate belongs to a previous life, and a commit
// decision whose log flush fails is treated as in doubt — branches stay
// prepared and queries answer "decision pending" — rather than aborted,
// since the appended decide record may still reach disk.
// Secondary-index ops and scans stay shard-local in v1.  The coordinator
// splits a spanning plan into per-shard sub-plans, refusing an op bound to
// an op on another shard; clients route by the rule servers check
// (shard.Map.Placement).  A map version bump moves ownership but not data;
// "plpctl shards" prints a running daemon's map.
//
// # Replication
//
// A durable plpd can ship its write-ahead log to followers: the log IS the
// replication stream, so a follower's log is a byte-identical prefix of
// the primary's, LSNs agree on both sides, resubscription after a dropped
// stream is "start from my durable LSN", and a promoted follower recovers
// through the exact same torn-tail truncation path as a restarted primary.
// A follower (plpd -follow <primary-addr>) subscribes over an ordinary
// wire session (REPL-SUBSCRIBE / REPL-RECORDS / REPL-ACK frames),
// persists each shipped batch before acking, and applies committed
// transactions through the restart-recovery path — whole transactions
// only, under a partition-worker quiesce, so its reads (gets, secondary
// lookups, scans, read-only plans — writes are refused) are always
// transaction-consistent.  Application never writes the follower's log:
// even the page-split SMO records its own B+Trees would emit are
// suppressed during replay, preserving the byte-identical prefix.
// Retention pins trail each subscriber so checkpoint-driven log truncation
// cannot unlink a segment a lagging follower still needs.
//
// Commit acknowledgement is local-fsync by default; replica-acked mode
// (plpd -ack-mode replica) additionally holds each commit ack until the
// commit record is durable on k distinct followers (plpd -ack-quorum k,
// default 1) — the gate tracks the k-th highest follower ack as a
// monotonic watermark, so an acknowledged write survives losing any k-1
// replicas plus the primary.  A subscriber that cannot catch up from the
// retained log — its start LSN precedes the truncation horizon, or its
// epoch belongs to a fenced lineage — is no longer refused: the primary
// converts the subscription into a snapshot re-seed, streaming a
// transactionally consistent checkpoint image plus the log tail over the
// same wire session (SEED frames).  The follower resets its data
// directory, installs the image, adopts the primary's epoch and resumes an
// ordinary subscription; seed chunks apply as idempotent upserts, so a
// follower SIGKILLed mid-seed restarts and simply resumes.
//
// Failover can be manual ("plpctl promote" stops the follower's stream,
// discards uncommitted in-flight buffers, bumps the persisted replication
// epoch and the shard incarnation, and starts accepting writes) or
// automatic: plpd -cluster id@addr,... -node-id N runs a lease-based
// monitor on every member.  Followers treat the replication stream's
// heartbeats as a primary lease (-lease, default 3s); when it expires they
// probe the membership, and a deterministic election — highest durable
// LSN, lowest id on ties — picks exactly one candidate to self-promote
// through the same epoch fencing, re-homing the shard map's primary onto
// itself.  A fenced old primary that comes back discovers the
// higher-epoch primary, demotes itself to follower and re-seeds from the
// new lineage, with no operator involvement end to end.  The shard map
// carries per-shard replica sets ("replica <shard> <id> <addr>" lines), so
// client.DialSharded load-balances read-only transactions across live
// followers, routes writes to the primary, and follows promotions by
// adopting the re-homed map attached to refusals (or refreshed after a
// dead peer).  "plpctl repl status" prints either side's progress (epoch,
// durable/applied LSNs, follower lag and seed phase, per-mode ack-wait
// histograms), which also feeds the plp_repl expvar; client and
// replication connections speak TLS with plpd -tls-cert/-tls-key and
// client DialOptions.TLSConfig / plpctl -tls-ca.
//
// # Online dynamic repartitioning
//
// Physiological partitioning only stays latch-free under shifting workloads
// if the system re-partitions continuously.  AttachRepartitioner installs
// the closed-loop DRP controller: every action routed through the
// partition manager feeds an aging per-table access histogram, and each
// control period the controller re-buckets the aged key weights over the
// current partition boundaries, invokes the two-phase load-balancing
// optimizer when the hottest partition exceeds its fair share, and applies
// the planned boundary moves through the engine's Rebalance path — which
// quiesces only the two workers owning the affected ranges, so the rest of
// the system never stops.  Histogram aging makes a hot spot that migrates
// stop looking hot where it used to be, so the controller follows it.
//
//	ctrl, err := plp.AttachRepartitioner(eng, plp.RepartitionConfig{})
//	ctrl.Start()        // background control loop; or call ctrl.Step()
//	defer ctrl.Stop()
//
// A controller attached to a served engine also answers the plpctl "drp"
// verbs (status, trigger, shares) on the running daemon; cmd/plpd -drp
// enables it, and examples/repartitioning demonstrates convergence under a
// Zipfian hot spot that migrates mid-run.
//
// The workload generators used by the paper's evaluation (TATP, TPC-B, a
// reduced TPC-C, and the microbenchmarks), the measurement harness and the
// per-figure experiment drivers live under internal/ and are exercised by
// cmd/plpbench, the examples, and the benchmark suite in bench_test.go.
package plp

import (
	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/plan"
)

// Design selects one of the five execution designs of the paper.
type Design = engine.Design

// The five designs.
const (
	Conventional = engine.Conventional
	Logical      = engine.Logical
	PLPRegular   = engine.PLPRegular
	PLPPartition = engine.PLPPartition
	PLPLeaf      = engine.PLPLeaf
)

// Options configures an Engine.
type Options = engine.Options

// Engine is a fully assembled storage manager plus execution design.
type Engine = engine.Engine

// Session is a client handle; each concurrent client goroutine should use
// its own Session.
type Session = engine.Session

// Request is one transaction: phases of routable actions.
type Request = engine.Request

// Action is one per-partition unit of work within a Request.
type Action = engine.Action

// Ctx is the design-aware data-access handle passed to Action bodies.
type Ctx = engine.Ctx

// Result describes a completed request.
type Result = engine.Result

// Plan is a declarative transaction: phases of typed ops with explicit data
// dependencies (see package plan).  Session.ExecutePlan runs one
// in-process; client.Client.DoPlan ships one over the wire in one frame.
type Plan = plan.Plan

// PlanBuilder assembles a Plan fluently.
type PlanBuilder = plan.Builder

// NewPlan returns an empty declarative plan builder.
func NewPlan() *PlanBuilder { return plan.New() }

// TableDef describes a table to create.
type TableDef = catalog.TableDef

// SecondaryDef describes a secondary index of a table.
type SecondaryDef = catalog.SecondaryDef

// New creates an engine with the given options.
func New(opts Options) *Engine { return engine.New(opts) }

// NewRequest builds a single-phase request from the given actions.
func NewRequest(actions ...Action) *Request { return engine.NewRequest(actions...) }

// AllDesigns lists every design in reporting order.
func AllDesigns() []Design { return engine.AllDesigns() }

// Uint64Key encodes a uint64 as an order-preserving index key.
func Uint64Key(v uint64) []byte { return keyenc.Uint64Key(v) }

// UniformBoundaries splits the key space [1, max] into n contiguous ranges
// and returns the n-1 internal boundaries, ready to be passed to TableDef.
func UniformBoundaries(max uint64, n int) [][]byte {
	if n <= 1 {
		return nil
	}
	out := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, keyenc.Uint64Key(max*uint64(i)/uint64(n)+1))
	}
	return out
}
