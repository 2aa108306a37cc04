// Package bufferpool implements the buffer manager: the layer that hands out
// pinned, latched page frames to the access methods.
//
// Every page access in the conventional and logically-partitioned designs
// goes through Fix/Unfix and acquires the frame's page latch; the PLP
// designs bypass the latch (but not the fix) for pages owned by a single
// partition worker.  The buffer pool's own internal state (the page table
// and the free list of page IDs) is protected by one mutex whose
// acquisitions are reported to the critical-section statistics under the
// Bpool category, exactly as the paper's Figure 1 accounts for them.
//
// The experiments in the paper run with memory-resident databases, so the
// pool is memory resident: every allocated page stays in its frame until it
// is freed, and there is no backing store, eviction or write-back.
// Durability comes from the write-ahead log and logical checkpoints.
package bufferpool

import (
	"errors"
	"sync"
	"sync/atomic"

	"plp/internal/cs"
	"plp/internal/latch"
	"plp/internal/page"
)

// Errors returned by the buffer pool.
var (
	ErrNoSuchPage = errors.New("bufferpool: page does not exist")
	ErrPagePinned = errors.New("bufferpool: page still pinned")
	ErrFreedTwice = errors.New("bufferpool: page freed twice")
)

// Frame is an in-memory slot holding one page together with its latch and
// pin count.  Access methods receive *Frame from Fix and must Unfix it when
// done.
type Frame struct {
	page  *page.Page
	latch *latch.Latch
	pin   atomic.Int32
}

// Page returns the page held in the frame.
func (f *Frame) Page() *page.Page { return f.page }

// Latch returns the frame's page latch.
func (f *Frame) Latch() *latch.Latch { return f.latch }

// PinCount returns the current pin count (for tests and assertions).
func (f *Frame) PinCount() int { return int(f.pin.Load()) }

// Config configures a buffer pool.
type Config struct {
	// LatchStats receives page-latch accounting; may be nil.
	LatchStats *latch.Stats
	// CSStats receives critical-section accounting; may be nil.
	CSStats *cs.Stats
}

// Pool is the buffer manager.
type Pool struct {
	cfg Config

	mu     sync.Mutex
	frames []*Frame  // page table indexed by page ID; nil for a free ID
	free   []page.ID // freed IDs, reused before new ones are minted
	nFixes atomic.Uint64
}

// New returns an empty memory-resident buffer pool.
func New(cfg Config) *Pool {
	// Slot 0 stays nil forever: it is page.InvalidID.
	return &Pool{cfg: cfg, frames: make([]*Frame, 1)}
}

// latchKindFor maps a page kind to the latch accounting bucket.
func latchKindFor(k page.Kind) latch.PageKind {
	switch {
	case k.IsIndex():
		return latch.KindIndex
	case k == page.KindHeap:
		return latch.KindHeap
	default:
		return latch.KindCatalog
	}
}

// lock enters the page-table critical section and records it.
func (bp *Pool) lock() {
	contended := !bp.mu.TryLock()
	if contended {
		bp.mu.Lock()
	}
	bp.cfg.CSStats.Record(cs.Bpool, contended)
}

// NewPage allocates a new page of the given kind, fixes it, and returns the
// frame with pin count 1.
func (bp *Pool) NewPage(kind page.Kind) *Frame {
	// Build the frame outside the critical section; only the ID is chosen
	// inside it.
	f := &Frame{
		page:  page.New(page.InvalidID, kind),
		latch: latch.New(latchKindFor(kind), bp.cfg.LatchStats, bp.cfg.CSStats),
	}
	f.pin.Store(1)

	bp.lock()
	var id page.ID
	if n := len(bp.free); n > 0 {
		id = bp.free[n-1]
		bp.free = bp.free[:n-1]
		bp.frames[id] = f
	} else {
		id = page.ID(len(bp.frames))
		bp.frames = append(bp.frames, f)
	}
	f.page.Reset(id, kind)
	bp.mu.Unlock()
	return f
}

// Fix pins the page and returns its frame.  The caller must call Unfix
// exactly once for every successful Fix.
func (bp *Pool) Fix(id page.ID) (*Frame, error) {
	if id == page.InvalidID {
		return nil, ErrNoSuchPage
	}
	bp.nFixes.Add(1)
	bp.lock()
	var f *Frame
	if id < page.ID(len(bp.frames)) {
		f = bp.frames[id]
	}
	if f == nil {
		bp.mu.Unlock()
		return nil, ErrNoSuchPage
	}
	f.pin.Add(1)
	bp.mu.Unlock()
	return f, nil
}

// Unfix releases one pin on the frame.
func (bp *Pool) Unfix(f *Frame) {
	if n := f.pin.Add(-1); n < 0 {
		panic("bufferpool: unfix without matching fix")
	}
}

// FreePage removes the page from the pool and puts its ID on the free list.
// The page must be unpinned.
func (bp *Pool) FreePage(id page.ID) error {
	bp.lock()
	defer bp.mu.Unlock()
	if id == page.InvalidID || id >= page.ID(len(bp.frames)) {
		return ErrNoSuchPage
	}
	f := bp.frames[id]
	if f == nil {
		return ErrFreedTwice
	}
	if f.pin.Load() > 0 {
		return ErrPagePinned
	}
	bp.frames[id] = nil
	bp.free = append(bp.free, id)
	return nil
}

// Stats reports buffer pool activity.
type Stats struct {
	Fixes    uint64
	Resident int
}

// Stats returns a snapshot of buffer pool activity.
func (bp *Pool) Stats() Stats {
	bp.mu.Lock()
	resident := len(bp.frames) - 1 - len(bp.free)
	bp.mu.Unlock()
	return Stats{Fixes: bp.nFixes.Load(), Resident: resident}
}
