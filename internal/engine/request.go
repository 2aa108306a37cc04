// Requests, actions and routing tables.
package engine

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"
)

// Action is the unit of work the partition manager routes: it touches data
// of a single logical partition of a single table, identified by the routing
// key.  Exec runs on the owning partition worker (or inline, in the
// Conventional design) with a Ctx that provides design-appropriate data
// access.
type Action struct {
	// Table is the routing table name.
	Table string
	// Key is the routing key (the table's partitioning key).
	Key []byte
	// KeyFn, when set, supplies the routing key at the moment the action's
	// phase is dispatched and overrides Key.  Use it for actions whose
	// routing key is produced by an earlier phase — the classic case is a
	// probe of a non-partition-aligned secondary index that yields the
	// primary key the next action must be routed by (Section 3.1 /
	// Appendix E).
	KeyFn func() []byte
	// Exec performs the action's data accesses through the Ctx.
	Exec func(c *Ctx) error
	// Inline marks an action that touches no partition-owned data — a
	// probe of (or a write to) a latched secondary index that is not
	// partition-aligned, which no worker owns.  It runs on the goroutine
	// that dispatches its phase, with a Ctx bound to no worker, and takes
	// no worker hop: a request whose first phase is inline runs it at
	// submit.  Table and Key do not route it.
	Inline bool
}

// routingKey returns the key used to route the action.
func (a *Action) routingKey() []byte {
	if a.KeyFn != nil {
		return a.KeyFn()
	}
	return a.Key
}

// Request is one transaction: a sequence of phases, each holding actions
// that are mutually independent and may execute in parallel on different
// partition workers.  Phases execute in order, which is how data
// dependencies between actions are expressed (the "directed graphs" of
// Section 3.1).
type Request struct {
	Phases [][]Action

	// Expand, when non-nil, is indexed like Phases: a non-nil entry is
	// invoked when its phase is about to dispatch — every earlier phase
	// has completed, so results they produced are visible — and returns
	// actions appended to the phase's static ones.  This is how a plan op
	// fanned out over a scan's result set (plan.Op.EachFrom) materializes:
	// the entry list does not exist until the scan's phase has run, so the
	// per-entry actions cannot be compiled statically.  Requests with
	// expanders never take the single-site fast path (like KeyFn actions,
	// their routing is only known at dispatch time).
	Expand []func() []Action
}

// NewRequest builds a single-phase request.
func NewRequest(actions ...Action) *Request {
	return &Request{Phases: [][]Action{actions}}
}

// AddPhase appends a phase of actions executed after all previous phases.
func (r *Request) AddPhase(actions ...Action) *Request {
	r.Phases = append(r.Phases, actions)
	return r
}

// NumActions returns the total number of actions in the request.
func (r *Request) NumActions() int {
	n := 0
	for _, p := range r.Phases {
		n += len(p)
	}
	return n
}

// routingTable maps keys to logical partitions.  It mirrors the partition
// boundaries of the table's primary MRBTree but exists independently so that
// the Logical design (whose indexes are single-rooted) can still route
// actions, and so that routing updates during rebalancing are a pure
// metadata operation.
type routingTable struct {
	mu         sync.RWMutex
	boundaries [][]byte // sorted; partition i covers [boundaries[i-1], boundaries[i])

	// epoch counts boundary updates.  Workers compare it against the value
	// captured at submit time to detect that routing may have moved while an
	// action sat in their queue — a single atomic load on the hot path
	// instead of a read-locked routing lookup per action.
	epoch atomic.Uint64
}

func newRoutingTable(boundaries [][]byte) *routingTable {
	cp := make([][]byte, len(boundaries))
	for i, b := range boundaries {
		cp[i] = append([]byte(nil), b...)
	}
	return &routingTable{boundaries: cp}
}

// partitionFor returns the partition index owning key.  It is called by
// client goroutines concurrently with boundary updates performed by
// rebalancing, so it takes the table's read lock.
func (rt *routingTable) partitionFor(key []byte) int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	// Partition 0 covers keys below boundaries[0]; partition i covers
	// [boundaries[i-1], boundaries[i]).
	return sort.Search(len(rt.boundaries), func(i int) bool {
		return bytes.Compare(rt.boundaries[i], key) > 0
	})
}

// setBoundary updates boundary i (the lower bound of partition i+1).
func (rt *routingTable) setBoundary(i int, key []byte) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if i < 0 || i >= len(rt.boundaries) {
		return
	}
	rt.boundaries[i] = append([]byte(nil), key...)
	rt.epoch.Add(1)
}

// boundary returns a copy of boundary i (the lower bound of partition i+1),
// or nil when i is out of range.
func (rt *routingTable) boundary(i int) []byte {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if i < 0 || i >= len(rt.boundaries) {
		return nil
	}
	return append([]byte(nil), rt.boundaries[i]...)
}

// numPartitions returns the number of partitions.
func (rt *routingTable) numPartitions() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.boundaries) + 1
}

// rangeOf returns the key range [lo, hi) covered by partition i; nil bounds
// mean "from the beginning" / "to the end".
func (rt *routingTable) rangeOf(i int) (lo, hi []byte) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if i > 0 && i-1 < len(rt.boundaries) {
		lo = append([]byte(nil), rt.boundaries[i-1]...)
	}
	if i < len(rt.boundaries) {
		hi = append([]byte(nil), rt.boundaries[i]...)
	}
	return lo, hi
}
