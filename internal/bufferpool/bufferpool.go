// Package bufferpool implements the buffer manager: the layer that hands out
// page frames to the access methods.
//
// A page is reached in one of two ways, picked by the access method's own
// latched or latch-free mode:
//
//   - Fix/Unfix, for latched structures (the conventional and logically
//     partitioned designs, PLP-Regular's shared heap and secondary indexes
//     that are not partition-aligned).  Fix looks the page up inside the
//     page-table critical section, pins the frame, and records the section
//     under the Bpool category, exactly as the paper's Figure 1 accounts
//     for a centralized buffer pool; the caller then takes the page latch.
//   - Lookup, for latch-free structures (PLP's MRBTree sub-trees and
//     partition-aligned indexes, and latch-free heap files).  Their pages
//     are owned by one partition worker, so, as in the paper's PLP, a page
//     access enters no centralized critical section: Lookup reads the page
//     table without a lock, takes no pin and records no Bpool section.
//     Repartitioning, which moves pages between owners, quiesces the
//     workers involved first.
//
// NewPage and FreePage change the page table and the free list of page IDs
// inside the page-table critical section and record it under Bpool on
// every path.  The page table is a directory of fixed-size chunks of
// atomically published frame pointers: a chunk never moves once published,
// and growing the table publishes a longer copy of the directory, so a
// lock-free reader sees either a page's frame or none.
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
// pin count.  Access methods receive *Frame from Fix, and must Unfix it when
// done, or from Lookup, which pins nothing.
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

// chunkBits sets the page-table chunk size: 1024 frame pointers, 8 KiB.
const chunkBits = 10

// chunk is one fixed-size block of the page table.
type chunk [1 << chunkBits]atomic.Pointer[Frame]

// Pool is the buffer manager.
type Pool struct {
	cfg Config

	// dir is the page table: page ID id lives in dir[id>>chunkBits] at
	// id&(1<<chunkBits-1); a nil frame pointer is a free or unused ID.
	// Readers load it without a lock; it is replaced only under mu.
	dir atomic.Pointer[[]*chunk]

	mu     sync.Mutex
	next   page.ID   // the smallest ID never handed out
	free   []page.ID // freed IDs, reused before new ones are minted
	nFixes atomic.Uint64
}

// New returns an empty memory-resident buffer pool.
func New(cfg Config) *Pool {
	// ID 0 is never handed out: it is page.InvalidID.
	bp := &Pool{cfg: cfg, next: 1}
	bp.dir.Store(&[]*chunk{})
	return bp
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

// slot returns the page-table entry of id, or nil when the table has not
// grown that far.  It takes no lock.
func (bp *Pool) slot(id page.ID) *atomic.Pointer[Frame] {
	dir := *bp.dir.Load()
	c := uint64(id) >> chunkBits
	if c >= uint64(len(dir)) {
		return nil
	}
	return &dir[c][id&(1<<chunkBits-1)]
}

// frame returns the frame of id, or nil for a free or unknown ID.  It takes
// no lock.
func (bp *Pool) frame(id page.ID) *Frame {
	if s := bp.slot(id); s != nil {
		return s.Load()
	}
	return nil
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
	} else {
		id = bp.next
		bp.next++
		if dir := *bp.dir.Load(); uint64(id)>>chunkBits >= uint64(len(dir)) {
			grown := append(dir[:len(dir):len(dir)], new(chunk))
			bp.dir.Store(&grown)
		}
	}
	// The page is initialised before it is published, so a reader that
	// finds the frame finds its ID and kind too.
	f.page.Reset(id, kind)
	bp.slot(id).Store(f)
	bp.mu.Unlock()
	return f
}

// Fix pins the page and returns its frame, inside the page-table critical
// section.  The caller must call Unfix exactly once for every successful
// Fix.
func (bp *Pool) Fix(id page.ID) (*Frame, error) {
	if id == page.InvalidID {
		return nil, ErrNoSuchPage
	}
	bp.nFixes.Add(1)
	bp.lock()
	f := bp.frame(id)
	if f == nil {
		bp.mu.Unlock()
		return nil, ErrNoSuchPage
	}
	f.pin.Add(1)
	bp.mu.Unlock()
	return f, nil
}

// Lookup returns the frame of a page without entering the page-table
// critical section: no lock, no Bpool record and no pin, so there is
// nothing to release.  It is for pages owned by the calling partition
// worker, which nobody frees while the worker uses them.  Lookups count in
// Stats().Fixes like Fix, so page-access counts do not depend on the path.
func (bp *Pool) Lookup(id page.ID) (*Frame, error) {
	bp.nFixes.Add(1)
	if f := bp.frame(id); f != nil {
		return f, nil
	}
	return nil, ErrNoSuchPage
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
	if id == page.InvalidID || id >= bp.next {
		return ErrNoSuchPage
	}
	s := bp.slot(id)
	f := s.Load()
	if f == nil {
		return ErrFreedTwice
	}
	if f.pin.Load() > 0 {
		return ErrPagePinned
	}
	s.Store(nil)
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
	resident := int(bp.next) - 1 - len(bp.free)
	bp.mu.Unlock()
	return Stats{Fixes: bp.nFixes.Load(), Resident: resident}
}
