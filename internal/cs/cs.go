// Package cs provides critical-section instrumentation for the storage
// manager and the execution engines.
//
// The PLP paper (Section 2) analyzes the behaviour of a transaction
// processing system by counting every critical section the system enters,
// categorized by the component that owns it (lock manager, page latching,
// buffer pool, log manager, transaction manager, metadata, message passing)
// and by the kind of contention it can generate (unscalable, fixed, or
// composable).  This package implements exactly that accounting: components
// report every critical section entry together with whether the entry was
// contended (i.e. the caller had to wait), and the harness takes snapshots
// before and after a run to compute per-transaction breakdowns
// (Figures 1 and 3 of the paper).
//
// All counters are updated with atomic operations so that the accounting
// itself never becomes a point of contention.
package cs

import (
	"fmt"
	"sync/atomic"
)

// Category identifies the storage-manager component that owns a critical
// section.  The categories match the legend of Figure 1 in the paper.
type Category int

// Component categories, in the order they are reported.
const (
	LockMgr        Category = iota // centralized (or thread-local) lock manager
	Latching                       // page latching
	Bpool                          // buffer pool internal state (page table, free page IDs)
	Metadata                       // catalog and free-space metadata
	LogMgr                         // write-ahead log buffer and flush path
	XctMgr                         // transaction object / transaction manager state
	MessagePassing                 // DORA/PLP input queues between partition workers
	Uncategorized                  // everything else

	NumCategories int = iota
)

// String returns the human-readable label used in reports.
func (c Category) String() string {
	switch c {
	case LockMgr:
		return "Lock mgr"
	case Latching:
		return "Page Latches"
	case Bpool:
		return "Bpool"
	case Metadata:
		return "Metadata"
	case LogMgr:
		return "Log mgr"
	case XctMgr:
		return "Xct mgr"
	case MessagePassing:
		return "Message passing"
	case Uncategorized:
		return "Uncategorized"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Class describes how a critical section behaves as hardware parallelism
// grows (Section 2.1 of the paper).
type Class int

// Contention classes.
const (
	// Unscalable critical sections can be entered by any thread in the
	// system; contention grows with hardware parallelism.
	Unscalable Class = iota
	// Fixed critical sections are shared by a bounded set of threads
	// (e.g. a producer/consumer pair); contention does not grow with the
	// machine size.
	Fixed
	// Composable critical sections allow waiting threads to combine their
	// requests (e.g. the consolidated log buffer), so queuing is
	// self-regulating.
	Composable

	NumClasses int = iota
)

// String returns the human-readable label of a contention class.
func (c Class) String() string {
	switch c {
	case Unscalable:
		return "unscalable"
	case Fixed:
		return "fixed"
	case Composable:
		return "composable"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// DefaultClass reports the contention class that a category's critical
// sections belong to in a conventional shared-everything design.
// Individual Record calls may override it.
func DefaultClass(c Category) Class {
	switch c {
	case MessagePassing, XctMgr:
		return Fixed
	case LogMgr:
		return Composable
	default:
		return Unscalable
	}
}

// Stats accumulates critical-section counts.  The zero value is ready to
// use.  A single Stats instance is shared by all components of one engine
// instance; the harness snapshots it around measured runs.
type Stats struct {
	entered   [NumCategories]atomic.Uint64
	contended [NumCategories]atomic.Uint64
	byClass   [NumClasses]atomic.Uint64
}

// Record notes one critical-section entry for category cat using the
// category's default contention class.  contended reports whether the
// caller had to wait for another thread to leave the critical section.
// Record is safe for concurrent use and tolerates a nil receiver so that
// components can be used without instrumentation.
func (s *Stats) Record(cat Category, contended bool) {
	s.RecordClass(cat, DefaultClass(cat), contended)
}

// RecordClass notes one critical-section entry with an explicit contention
// class.
func (s *Stats) RecordClass(cat Category, class Class, contended bool) {
	if s == nil {
		return
	}
	if cat < 0 || int(cat) >= NumCategories {
		cat = Uncategorized
	}
	s.entered[cat].Add(1)
	if contended {
		s.contended[cat].Add(1)
	}
	if class >= 0 && int(class) < NumClasses {
		s.byClass[class].Add(1)
	}
}

// RecordN notes n uncontended critical-section entries at once.  It is used
// by batch paths (e.g. group commit) that enter the same critical section
// logically n times but physically once.
func (s *Stats) RecordN(cat Category, n uint64) {
	if s == nil || n == 0 {
		return
	}
	if cat < 0 || int(cat) >= NumCategories {
		cat = Uncategorized
	}
	s.entered[cat].Add(n)
	class := DefaultClass(cat)
	s.byClass[class].Add(n)
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	for i := 0; i < NumCategories; i++ {
		s.entered[i].Store(0)
		s.contended[i].Store(0)
	}
	for i := 0; i < NumClasses; i++ {
		s.byClass[i].Store(0)
	}
}

// Snapshot is an immutable copy of the counters at one point in time.
type Snapshot struct {
	Entered   [NumCategories]uint64
	Contended [NumCategories]uint64
	ByClass   [NumClasses]uint64
}

// Snapshot returns a copy of the current counter values.  A nil Stats
// yields a zero Snapshot.
func (s *Stats) Snapshot() Snapshot {
	var snap Snapshot
	if s == nil {
		return snap
	}
	for i := 0; i < NumCategories; i++ {
		snap.Entered[i] = s.entered[i].Load()
		snap.Contended[i] = s.contended[i].Load()
	}
	for i := 0; i < NumClasses; i++ {
		snap.ByClass[i] = s.byClass[i].Load()
	}
	return snap
}

// Sub returns the difference snap - prev, counter by counter.  It is used to
// isolate the critical sections entered during a measured interval.
func (snap Snapshot) Sub(prev Snapshot) Snapshot {
	var d Snapshot
	for i := 0; i < NumCategories; i++ {
		d.Entered[i] = snap.Entered[i] - prev.Entered[i]
		d.Contended[i] = snap.Contended[i] - prev.Contended[i]
	}
	for i := 0; i < NumClasses; i++ {
		d.ByClass[i] = snap.ByClass[i] - prev.ByClass[i]
	}
	return d
}

// Total returns the total number of critical sections entered.
func (snap Snapshot) Total() uint64 {
	var t uint64
	for i := 0; i < NumCategories; i++ {
		t += snap.Entered[i]
	}
	return t
}

// TotalContended returns the total number of contended critical sections.
func (snap Snapshot) TotalContended() uint64 {
	var t uint64
	for i := 0; i < NumCategories; i++ {
		t += snap.Contended[i]
	}
	return t
}

// PerTxn divides every counter by the number of transactions executed,
// producing the per-transaction breakdown reported in Figure 1.
func (snap Snapshot) PerTxn(txns uint64) Breakdown {
	var b Breakdown
	if txns == 0 {
		return b
	}
	for i := 0; i < NumCategories; i++ {
		b.Entered[i] = float64(snap.Entered[i]) / float64(txns)
		b.Contended[i] = float64(snap.Contended[i]) / float64(txns)
	}
	b.Total = float64(snap.Total()) / float64(txns)
	b.TotalContended = float64(snap.TotalContended()) / float64(txns)
	return b
}

// Breakdown is a per-transaction view of a Snapshot.
type Breakdown struct {
	Entered        [NumCategories]float64
	Contended      [NumCategories]float64
	Total          float64
	TotalContended float64
}

// Categories lists all categories in reporting order.
func Categories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}
