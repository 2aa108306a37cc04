// Package latch implements page latches with contention accounting.
//
// A latch protects the physical consistency of a single database page while
// a thread reads or modifies it.  Latches are the communication primitive
// that the PLP paper eliminates: the evaluation (Figures 2, 3, 6 and 7)
// counts latch acquisitions per page type and measures the time transactions
// spend waiting for contended latches.  Every latch therefore records, per
// page kind, how many times it was acquired, how many of those acquisitions
// were contended, and how long callers waited.
package latch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"plp/internal/cs"
)

// Mode selects shared (read) or exclusive (write) latching.
type Mode int

// Latch modes.
const (
	Shared Mode = iota
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// PageKind classifies the page a latch protects, for the breakdowns of
// Figures 2 and 3 (index, heap, and catalog/space-management pages).
type PageKind int

// Page kinds.
const (
	KindIndex PageKind = iota
	KindHeap
	KindCatalog

	NumKinds int = iota
)

// String returns the label used in reports.
func (k PageKind) String() string {
	switch k {
	case KindIndex:
		return "INDEX"
	case KindHeap:
		return "HEAP"
	case KindCatalog:
		return "CATALOG/SPACE"
	default:
		return fmt.Sprintf("PageKind(%d)", int(k))
	}
}

// Stats aggregates latch activity for one engine instance.  The zero value
// is ready to use; a nil *Stats disables accounting.
type Stats struct {
	acquired  [NumKinds]atomic.Uint64
	contended [NumKinds]atomic.Uint64
	waitNanos [NumKinds]atomic.Int64
}

// record notes one acquisition of kind k.
func (s *Stats) record(k PageKind, contended bool, wait time.Duration) {
	if s == nil {
		return
	}
	if k < 0 || int(k) >= NumKinds {
		k = KindCatalog
	}
	s.acquired[k].Add(1)
	if contended {
		s.contended[k].Add(1)
		s.waitNanos[k].Add(int64(wait))
	}
}

// Snapshot is an immutable copy of latch counters.
type Snapshot struct {
	Acquired  [NumKinds]uint64
	Contended [NumKinds]uint64
	WaitNanos [NumKinds]int64
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() Snapshot {
	var snap Snapshot
	if s == nil {
		return snap
	}
	for i := 0; i < NumKinds; i++ {
		snap.Acquired[i] = s.acquired[i].Load()
		snap.Contended[i] = s.contended[i].Load()
		snap.WaitNanos[i] = s.waitNanos[i].Load()
	}
	return snap
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	for i := 0; i < NumKinds; i++ {
		s.acquired[i].Store(0)
		s.contended[i].Store(0)
		s.waitNanos[i].Store(0)
	}
}

// Sub returns snap - prev.
func (snap Snapshot) Sub(prev Snapshot) Snapshot {
	var d Snapshot
	for i := 0; i < NumKinds; i++ {
		d.Acquired[i] = snap.Acquired[i] - prev.Acquired[i]
		d.Contended[i] = snap.Contended[i] - prev.Contended[i]
		d.WaitNanos[i] = snap.WaitNanos[i] - prev.WaitNanos[i]
	}
	return d
}

// Total returns the total number of latch acquisitions in the snapshot.
func (snap Snapshot) Total() uint64 {
	var t uint64
	for i := 0; i < NumKinds; i++ {
		t += snap.Acquired[i]
	}
	return t
}

// Kinds lists all page kinds in reporting order.
func Kinds() []PageKind {
	out := make([]PageKind, NumKinds)
	for i := range out {
		out[i] = PageKind(i)
	}
	return out
}

// Latch is a reader/writer page latch.  It wraps sync.RWMutex with a fast
// uncontended path (TryLock / TryRLock) so that contention can be detected
// and reported without penalizing the common case.
//
// The zero value is not usable: latches are created by New so they carry
// their page kind and the shared Stats / cs.Stats sinks.
type Latch struct {
	mu    sync.RWMutex
	kind  PageKind
	stats *Stats
	cstat *cs.Stats
}

// New returns a latch of the given kind reporting into stats and cstats.
// Either sink may be nil.
func New(kind PageKind, stats *Stats, cstats *cs.Stats) *Latch {
	return &Latch{kind: kind, stats: stats, cstat: cstats}
}

// Kind returns the page kind this latch protects.
func (l *Latch) Kind() PageKind { return l.kind }

// Acquire obtains the latch in the given mode and returns the time the
// caller spent blocked (zero when the latch was free).
func (l *Latch) Acquire(mode Mode) time.Duration {
	var wait time.Duration
	contended := false
	if mode == Exclusive {
		if !l.mu.TryLock() {
			contended = true
			start := time.Now()
			l.mu.Lock()
			wait = time.Since(start)
		}
	} else {
		if !l.mu.TryRLock() {
			contended = true
			start := time.Now()
			l.mu.RLock()
			wait = time.Since(start)
		}
	}
	l.stats.record(l.kind, contended, wait)
	l.cstat.Record(cs.Latching, contended)
	return wait
}

// TryAcquire attempts to obtain the latch without blocking.  It reports
// whether the latch was obtained; the acquisition is counted either way so
// that "conditional latch" probes show up in the breakdown, as they do in
// Shore-MT.
func (l *Latch) TryAcquire(mode Mode) bool {
	var ok bool
	if mode == Exclusive {
		ok = l.mu.TryLock()
	} else {
		ok = l.mu.TryRLock()
	}
	l.stats.record(l.kind, !ok, 0)
	l.cstat.Record(cs.Latching, !ok)
	return ok
}

// Release releases the latch previously acquired in the given mode.
func (l *Latch) Release(mode Mode) {
	if mode == Exclusive {
		l.mu.Unlock()
	} else {
		l.mu.RUnlock()
	}
}

// Upgrade converts a shared latch into an exclusive one.  It is not atomic:
// the shared latch is released before the exclusive latch is acquired, so
// the caller must revalidate any state read under the shared latch.  The
// returned duration is the time spent waiting for the exclusive latch.
func (l *Latch) Upgrade() time.Duration {
	l.mu.RUnlock()
	return l.Acquire(Exclusive)
}

// Downgrade converts an exclusive latch into a shared one without allowing
// other writers in between.
func (l *Latch) Downgrade() {
	// sync.RWMutex has no native downgrade; releasing the write lock and
	// immediately taking a read lock allows another writer to slip in, so
	// callers must only downgrade when that is acceptable (it is for
	// B+Tree crabbing, where the structure below has already been made
	// consistent).
	l.mu.Unlock()
	l.mu.RLock()
	l.stats.record(l.kind, false, 0)
	l.cstat.Record(cs.Latching, false)
}
