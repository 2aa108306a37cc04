// Package repartition closes the loop between workload observation and
// physical repartitioning: the paper's online dynamic repartitioning (DRP)
// component.
//
// The paper argues that physiological partitioning only stays latch-free
// under real workloads because repartitioning is cheap enough to run
// *continuously*: a controller watches aging access histograms, detects
// load imbalance, and moves MRBTree partition boundaries while the system
// keeps executing, quiescing only the partition pair a move affects.  This
// package is that controller for this reproduction:
//
//   - Attach registers the controller as the engine's access observer, so
//     every action routed through the DORA partition manager feeds one
//     observation into a per-table aging histogram (AgingHistogram, in
//     histogram.go) — the controller never touches the workers' execution
//     path;
//   - each control period, Step re-buckets the aged key weights through the
//     current routing, and when the hottest partition exceeds its fair
//     share by the trigger ratio (MaxFairRatio) it invokes the two-phase
//     optimizer (Optimize, in optimizer.go) to plan boundary moves;
//   - each planned move is applied through engine.Rebalance, which
//     quiesces only the two workers owning the affected ranges — the rest
//     of the system never stops;
//   - the histograms then age, so a hot spot that migrates stops looking
//     hot where it used to be and the controller follows it.
//
// Start runs Step on a background ticker; tests and the plpctl control verb
// drive Step directly for deterministic control periods.
package repartition

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"plp/internal/engine"
)

// Errors returned by the controller.
var (
	// ErrNotPartitioned is returned when the engine cannot be rebalanced
	// (fewer than two partitions, or the Conventional design).
	ErrNotPartitioned = errors.New("repartition: engine has fewer than two partitions")
	// ErrUnknownTable is returned by table-scoped queries for tables the
	// controller has never observed.
	ErrUnknownTable = errors.New("repartition: table not observed")
)

// Config tunes a Controller.
type Config struct {
	// Tables restricts the controller to the named tables.  Empty means
	// every table whose actions the engine routes.
	Tables []string
	// Period is the control period of the background loop started by
	// Start.  Default 100ms.
	Period time.Duration
	// Decay is the aging factor applied to the histograms after every
	// control period; each period the previous history keeps Decay of its
	// weight.  Default 0.5.
	Decay float64
	// TriggerRatio is the hottest partition's load over the fair share
	// above which the controller plans moves.  Values <= 1 select the
	// default of 1.5.
	TriggerRatio float64
	// MinObservations is the minimum number of raw observations in the
	// current window before a control period acts; it prevents rebalancing
	// on noise.  Default 512.
	MinObservations uint64
	// MinTransferFraction is the smallest fraction of a table's total load
	// worth moving across one cut; smaller flows are left alone so the
	// optimizer does not chase noise.  Default 0.05.
	MinTransferFraction float64
	// MaxMovesPerPeriod caps how many boundary moves one control period
	// applies per table (0 = no cap).  Each move quiesces one partition
	// pair, so the cap bounds the per-period disturbance.
	MaxMovesPerPeriod int
	// MaxTrackedKeys bounds each table's key histogram.  Default 16384.
	MaxTrackedKeys int
}

// normalize fills in defaults.
func (c *Config) normalize() {
	if c.Period <= 0 {
		c.Period = 100 * time.Millisecond
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 0.5
	}
	if c.TriggerRatio <= 1 {
		c.TriggerRatio = 1.5
	}
	if c.MinObservations == 0 {
		c.MinObservations = 512
	}
	if c.MinTransferFraction <= 0 {
		c.MinTransferFraction = 0.05
	}
	if c.MaxTrackedKeys <= 0 {
		c.MaxTrackedKeys = 16384
	}
}

// Decision records one boundary move the controller applied.
type Decision struct {
	// When the move was applied.
	When time.Time
	// Table whose boundary moved.
	Table string
	// Move is the optimizer's plan that was applied.
	Move Move
	// Stats is the physical cost reported by engine.Rebalance.
	Stats engine.RebalanceStats
}

// String renders the decision for logs.
func (d Decision) String() string {
	return fmt.Sprintf("%s: boundary %d -> %x (partition %d sheds %.0f to %d; %d entries, %d records moved, %v quiesced)",
		d.Table, d.Move.Boundary, d.Move.NewKey, d.Move.From, d.Move.Transfer, d.Move.To,
		d.Stats.EntriesMoved, d.Stats.RecordsMoved, d.Stats.Duration.Round(time.Microsecond))
}

// TableStatus describes one managed table's current state.
type TableStatus struct {
	// Table name.
	Table string
	// Loads is the aged key weight per partition under the current
	// routing (what the optimizer balances).
	Loads []float64
	// Ratio is the hottest partition's load over the fair share.
	Ratio float64
	// WindowObservations counts raw observations in the current window.
	WindowObservations uint64
	// PartitionEntries is the number of primary-index entries per
	// partition (data volume, as opposed to access volume), when the
	// primary index is multi-rooted.
	PartitionEntries []int
}

// Status is a snapshot of the controller's activity.
type Status struct {
	// Running reports whether the background loop is active.
	Running bool
	// Periods counts Step invocations; Applied counts boundary moves made;
	// Skipped counts control periods that saw no actionable skew.
	Periods, Applied, Skipped uint64
	// Tables holds one entry per managed table, sorted by name.
	Tables []TableStatus
	// Decisions holds the most recent boundary moves, oldest first.
	Decisions []Decision
}

// maxStatusDecisions bounds how many recent decisions Status returns.
const maxStatusDecisions = 32

// Controller is the online dynamic repartitioning controller for one
// engine.
type Controller struct {
	e   *engine.Engine
	cfg Config

	mu     sync.RWMutex
	tables map[string]*AgingHistogram

	stepMu    sync.Mutex // serializes control periods
	statMu    sync.Mutex
	decisions []Decision
	periods   uint64
	applied   uint64
	skipped   uint64
	lastErr   error

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// Attach creates a controller and registers it as the engine's access
// observer, so the DORA routing path starts feeding its histograms
// immediately.  It also registers the controller's state exporter as the
// engine's checkpoint-state provider, and — when the engine's Recover found
// a persisted controller blob in the checkpoint meta record — warm-starts
// the histograms from it, so a restarted controller resumes with the hot
// set its previous incarnation had learned.  The engine must use a
// partitioned design with at least two partitions.  Call Detach (or Stop
// and Detach) to disconnect.
func Attach(e *engine.Engine, cfg Config) (*Controller, error) {
	cfg.normalize()
	if !e.Design().Partitioned() || e.Options().Partitions < 2 {
		return nil, ErrNotPartitioned
	}
	c := &Controller{
		e:      e,
		cfg:    cfg,
		tables: make(map[string]*AgingHistogram),
	}
	for _, t := range cfg.Tables {
		c.tables[t] = NewAgingHistogram(e.Options().Partitions, cfg.MaxTrackedKeys)
	}
	if blob := e.RecoveredControllerState(); len(blob) > 0 {
		if err := c.importState(blob); err != nil {
			// A stale or foreign blob must not block startup: a cold
			// controller is always safe.
			c.statMu.Lock()
			c.lastErr = err
			c.statMu.Unlock()
		}
	}
	e.SetAccessObserver(c.Observe)
	e.SetCheckpointStateProvider(c.exportState)
	return c, nil
}

// Detach stops feeding the controller: the engine's observer slot and
// checkpoint-state provider are cleared.  The histograms keep their state;
// Step can still be called.
func (c *Controller) Detach() {
	c.e.SetAccessObserver(nil)
	c.e.SetCheckpointStateProvider(nil)
}

// managed reports whether the controller manages the table, creating the
// histogram on first contact when no table filter was configured.
func (c *Controller) histogram(table string, create bool) *AgingHistogram {
	c.mu.RLock()
	h := c.tables[table]
	c.mu.RUnlock()
	if h != nil || !create || len(c.cfg.Tables) > 0 {
		return h
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h = c.tables[table]; h == nil {
		h = NewAgingHistogram(c.e.Options().Partitions, c.cfg.MaxTrackedKeys)
		c.tables[table] = h
	}
	return h
}

// Observe is the engine's AccessObserver: one callback per routed action.
func (c *Controller) Observe(table string, partition int, key []byte) {
	if h := c.histogram(table, true); h != nil {
		h.Observe(partition, key)
	}
}

// rebucket distributes the aged key weights over the current boundaries.
func rebucket(keys []KeyWeight, boundaries [][]byte) []float64 {
	loads := make([]float64, len(boundaries)+1)
	for _, kw := range keys {
		p := sort.Search(len(boundaries), func(i int) bool { return bytes.Compare(boundaries[i], kw.Key) > 0 })
		loads[p] += kw.Weight
	}
	return loads
}

// Step runs one control period over every managed table: snapshot the
// histograms, plan moves where the trigger ratio is exceeded, apply them
// through engine.Rebalance, then age the histograms.  It returns the moves
// applied this period.  Step is safe to call concurrently with traffic and
// with the background loop (periods are serialized).
func (c *Controller) Step() []Decision {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()

	// Each period reports its own errors; a transient failure in an earlier
	// period must not keep surfacing from LastErr (and the trigger verb)
	// after later periods succeed.
	c.statMu.Lock()
	c.lastErr = nil
	c.statMu.Unlock()

	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for name := range c.tables {
		names = append(names, name)
	}
	c.mu.RUnlock()
	sort.Strings(names)

	var made []Decision
	for _, name := range names {
		h := c.histogram(name, false)
		if h == nil {
			continue
		}
		snap := h.Snapshot()
		acted := c.stepTable(name, snap, &made)
		if !acted {
			c.statMu.Lock()
			c.skipped++
			c.statMu.Unlock()
		}
		// Age after the decision so the next period sees a fresh window and
		// an exponentially faded history.
		h.Age(c.cfg.Decay)
	}

	c.statMu.Lock()
	c.periods++
	c.statMu.Unlock()
	return made
}

// stepTable evaluates one table and applies any planned moves, reporting
// whether it acted.
func (c *Controller) stepTable(name string, snap HistogramSnapshot, made *[]Decision) bool {
	if snap.WindowObservations < c.cfg.MinObservations {
		return false
	}
	boundaries, err := c.e.Boundaries(name)
	if err != nil || len(boundaries) == 0 {
		return false
	}
	loads := rebucket(snap.Keys, boundaries)
	if MaxFairRatio(loads) < c.cfg.TriggerRatio {
		return false
	}
	moves := Optimize(loads, snap.Keys, boundaries, c.cfg.MinTransferFraction)
	if c.cfg.MaxMovesPerPeriod > 0 && len(moves) > c.cfg.MaxMovesPerPeriod {
		moves = moves[:c.cfg.MaxMovesPerPeriod]
	}
	acted := false
	for _, m := range moves {
		st, err := c.e.Rebalance(name, m.Boundary, m.NewKey)
		if err != nil {
			c.statMu.Lock()
			c.lastErr = fmt.Errorf("rebalance %s boundary %d: %w", name, m.Boundary, err)
			c.statMu.Unlock()
			break
		}
		d := Decision{When: time.Now(), Table: name, Move: m, Stats: st}
		*made = append(*made, d)
		acted = true
		c.statMu.Lock()
		c.applied++
		c.decisions = append(c.decisions, d)
		if len(c.decisions) > maxStatusDecisions {
			c.decisions = c.decisions[len(c.decisions)-maxStatusDecisions:]
		}
		c.statMu.Unlock()
	}
	return acted
}

// LastErr returns the Rebalance error of the most recent control period, if
// any; it is cleared at the start of every Step.
func (c *Controller) LastErr() error {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return c.lastErr
}

// Loads returns the table's aged per-partition loads under the current
// routing, or ErrUnknownTable.
func (c *Controller) Loads(table string) ([]float64, error) {
	h := c.histogram(table, false)
	if h == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTable, table)
	}
	boundaries, err := c.e.Boundaries(table)
	if err != nil {
		return nil, err
	}
	return rebucket(h.Snapshot().Keys, boundaries), nil
}

// Status returns a snapshot of the controller's state.
func (c *Controller) Status() Status {
	c.loopMu.Lock()
	running := c.stop != nil
	c.loopMu.Unlock()

	c.statMu.Lock()
	s := Status{
		Running:   running,
		Periods:   c.periods,
		Applied:   c.applied,
		Skipped:   c.skipped,
		Decisions: append([]Decision(nil), c.decisions...),
	}
	c.statMu.Unlock()

	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for name := range c.tables {
		names = append(names, name)
	}
	c.mu.RUnlock()
	sort.Strings(names)

	for _, name := range names {
		h := c.histogram(name, false)
		if h == nil {
			continue
		}
		snap := h.Snapshot()
		ts := TableStatus{Table: name, WindowObservations: snap.WindowObservations}
		if boundaries, err := c.e.Boundaries(name); err == nil {
			ts.Loads = rebucket(snap.Keys, boundaries)
			ts.Ratio = MaxFairRatio(ts.Loads)
		}
		if tbl, err := c.e.Table(name); err == nil && tbl.Primary != nil {
			if counts, err := tbl.Primary.PartitionCounts(nil); err == nil {
				ts.PartitionEntries = counts
			}
		}
		s.Tables = append(s.Tables, ts)
	}
	return s
}

// String renders the status as a small text document (the payload of the
// plpctl "drp status" verb).
func (s Status) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "drp: running=%v periods=%d moves=%d skipped=%d\n", s.Running, s.Periods, s.Applied, s.Skipped)
	for _, t := range s.Tables {
		fmt.Fprintf(&b, "  table %-16s ratio=%.2f window=%d loads:", t.Table, t.Ratio, t.WindowObservations)
		for _, l := range t.Loads {
			fmt.Fprintf(&b, " %.0f", l)
		}
		if len(t.PartitionEntries) > 0 {
			b.WriteString(" entries:")
			for _, n := range t.PartitionEntries {
				fmt.Fprintf(&b, " %d", n)
			}
		}
		b.WriteByte('\n')
	}
	for _, d := range s.Decisions {
		fmt.Fprintf(&b, "  %s\n", d.String())
	}
	return b.String()
}

// Control implements the server's control verb (see internal/server): it
// executes one textual command and returns a human-readable result.
// Commands: "status" (full status), "trigger" (run one control period now),
// "shares <table>" (per-partition loads of one table).
func (c *Controller) Control(cmd, table string) (string, error) {
	switch cmd {
	case "status":
		return c.Status().String(), nil
	case "trigger":
		made := c.Step()
		if err := c.LastErr(); err != nil {
			return "", err
		}
		if len(made) == 0 {
			return "no moves: load within threshold or too few observations\n", nil
		}
		var b strings.Builder
		for _, d := range made {
			fmt.Fprintf(&b, "%s\n", d.String())
		}
		return b.String(), nil
	case "shares":
		loads, err := c.Loads(table)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "table %s ratio=%.2f loads:", table, MaxFairRatio(loads))
		for _, l := range loads {
			fmt.Fprintf(&b, " %.0f", l)
		}
		b.WriteByte('\n')
		return b.String(), nil
	default:
		return "", fmt.Errorf("repartition: unknown control command %q (want status, trigger or shares)", cmd)
	}
}

// Start launches the background control loop.
func (c *Controller) Start() {
	c.loopMu.Lock()
	if c.stop != nil {
		c.loopMu.Unlock()
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	stop, done := c.stop, c.done
	c.loopMu.Unlock()

	go func() {
		defer close(done)
		ticker := time.NewTicker(c.cfg.Period)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				c.Step()
			}
		}
	}()
}

// Stop terminates the background loop and waits for it to exit.
func (c *Controller) Stop() {
	c.loopMu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.loopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
