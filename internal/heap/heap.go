// Package heap implements heap files: the pages that store non-clustered
// records, referenced from indexes by RID.
//
// The three PLP heap-page policies of Section 3.3 are supported through the
// notion of an owner tag on every heap page:
//
//   - Regular (shared pool, owner 0): any thread may insert into or read any
//     page, so accesses acquire the page latch.  This is the layout used by
//     the Conventional, Logical and PLP-Regular designs.
//   - Partition-owned: each page carries the owning logical partition's ID;
//     records of a partition are only placed on pages it owns
//     (PLP-Partition).  Accesses by the owning worker are latch-free, and
//     reach the page through the buffer pool's lock-free Lookup, with no
//     Bpool critical section.
//   - Leaf-owned: each page carries the ID of the MRBTree leaf page whose
//     insert placed the records on it (PLP-Leaf): the primary-index insert
//     hands its leaf to the placement.  Accesses are latch-free, like
//     partition-owned ones.  A leaf split moves no records, so a leaf's
//     records may sit on pages of the leaf it split from.
//
// The free-space directory (which pages have room) is metadata shared by all
// threads; its mutex is reported under the Metadata critical-section
// category, which is the residual latching the paper observes even for
// PLP-Leaf ("the remaining latches are associated with metadata and free
// space management").
package heap

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"plp/internal/bufferpool"
	"plp/internal/cs"
	"plp/internal/latch"
	"plp/internal/page"
	"plp/internal/txn"
)

// Errors returned by heap file operations.
var (
	ErrNoSuchRecord = errors.New("heap: no such record")
	ErrRecordSize   = errors.New("heap: record too large for a page")
)

// AccessMode selects whether record accesses latch the heap page.
type AccessMode int

// Access modes.
const (
	// Latched acquires the page latch around every record access
	// (conventional shared-everything behaviour).
	Latched AccessMode = iota
	// LatchFree skips page latches; the caller guarantees that only the
	// owning partition worker touches the page (PLP-Partition, PLP-Leaf).
	LatchFree
)

// SharedOwner is the owner tag of pages in the shared pool used by the
// Regular placement policy.
const SharedOwner uint64 = 0

// File is a heap file.
type File struct {
	id   uint32
	bp   *bufferpool.Pool
	mode AccessMode
	cst  *cs.Stats

	mu sync.Mutex
	// freeByOwner maps an owner tag to page IDs that may still have room.
	freeByOwner map[uint64][]page.ID
	// pagesByOwner maps an owner tag to every page it owns, in allocation
	// order (used for scans and fragmentation accounting).
	pagesByOwner map[uint64][]page.ID
	allPages     []page.ID

	// nRecords counts live records; it is kept outside mu, so an insert or
	// a delete enters the directory only to pick or free a page.
	nRecords atomic.Int64
}

// New creates an empty heap file with the given space id.
func New(id uint32, bp *bufferpool.Pool, mode AccessMode, cstats *cs.Stats) *File {
	return &File{
		id:           id,
		bp:           bp,
		mode:         mode,
		cst:          cstats,
		freeByOwner:  make(map[uint64][]page.ID),
		pagesByOwner: make(map[uint64][]page.ID),
	}
}

// ID returns the heap file's space id.
func (f *File) ID() uint32 { return f.id }

// Mode returns the access mode.
func (f *File) Mode() AccessMode { return f.mode }

// metadataCS records one free-space-directory critical section.
func (f *File) metadataCS(contended bool) {
	f.cst.Record(cs.Metadata, contended)
}

// lockMeta acquires the free-space directory mutex, recording the critical
// section.
func (f *File) lockMeta() {
	contended := !f.mu.TryLock()
	if contended {
		f.mu.Lock()
	}
	f.metadataCS(contended)
}

// pickPage returns the frame of a page owned by owner with at least need
// bytes free, allocating a new page if necessary: fixed (pinned in Latched
// mode), so Insert writes to it without fixing it again.  The caller
// unfixes it.
func (f *File) pickPage(owner uint64, need int) (*bufferpool.Frame, error) {
	f.lockMeta()
	free := f.freeByOwner[owner]
	for len(free) > 0 {
		pid := free[len(free)-1]
		f.mu.Unlock()
		frame, err := f.fix(pid)
		if err != nil {
			return nil, err
		}
		// The room check is advisory (Insert re-checks under the exclusive
		// latch and retries), but in Latched mode concurrent writers may be
		// mutating the page, so the read itself must be latched.
		f.acquire(nil, frame, latch.Shared)
		ok := frame.Page().HasRoomFor(need)
		f.release(frame, latch.Shared)
		if ok {
			return frame, nil
		}
		f.unfix(frame)
		// Page is full: drop it from the free list and try the next one.
		f.lockMeta()
		free = f.freeByOwner[owner]
		if len(free) > 0 && free[len(free)-1] == pid {
			free = free[:len(free)-1]
			f.freeByOwner[owner] = free
		}
	}
	f.mu.Unlock()

	// Allocate a fresh page for this owner.  NewPage pins in either mode;
	// the pin is the caller's in Latched mode.
	frame := f.bp.NewPage(page.KindHeap)
	p := frame.Page()
	p.SetOwner(owner)
	pid := p.ID()
	if f.mode == LatchFree {
		f.bp.Unfix(frame)
	}

	f.lockMeta()
	f.freeByOwner[owner] = append(f.freeByOwner[owner], pid)
	f.pagesByOwner[owner] = append(f.pagesByOwner[owner], pid)
	f.allPages = append(f.allPages, pid)
	f.mu.Unlock()
	return frame, nil
}

// fix returns the frame of page pid: through the buffer pool's Fix (pinned,
// inside its page-table critical section) in Latched mode, through the
// lock-free Lookup in LatchFree mode, whose pages only their owning
// partition worker touches.
func (f *File) fix(pid page.ID) (*bufferpool.Frame, error) {
	if f.mode == LatchFree {
		return f.bp.Lookup(pid)
	}
	return f.bp.Fix(pid)
}

// unfix releases a frame fix returned: the pin in Latched mode, nothing in
// LatchFree mode.
func (f *File) unfix(frame *bufferpool.Frame) {
	if f.mode == Latched {
		f.bp.Unfix(frame)
	}
}

// acquire latches the frame if the file is in Latched mode and attributes
// the wait to the transaction's heap-latch bucket.
func (f *File) acquire(t *txn.Txn, frame *bufferpool.Frame, mode latch.Mode) {
	if f.mode == LatchFree {
		return
	}
	wait := frame.Latch().Acquire(mode)
	if t != nil {
		t.Breakdown.AddLatch()
		t.Breakdown.AddWait(txn.WaitHeapLatch, wait)
	}
}

// release releases the latch if the file is in Latched mode.
func (f *File) release(frame *bufferpool.Frame, mode latch.Mode) {
	if f.mode == LatchFree {
		return
	}
	frame.Latch().Release(mode)
}

// Insert places rec on a page owned by owner and returns its RID.
func (f *File) Insert(t *txn.Txn, owner uint64, rec []byte) (page.RID, error) {
	if len(rec) > page.MaxRecordSize {
		return page.RID{}, fmt.Errorf("%w: %d bytes", ErrRecordSize, len(rec))
	}
	for attempt := 0; attempt < 16; attempt++ {
		frame, err := f.pickPage(owner, len(rec))
		if err != nil {
			return page.RID{}, err
		}
		f.acquire(t, frame, latch.Exclusive)
		slot, err := frame.Page().Add(rec)
		if err == nil {
			pid := frame.Page().ID()
			f.release(frame, latch.Exclusive)
			f.unfix(frame)
			f.nRecords.Add(1)
			return page.RID{Page: pid, Slot: slot}, nil
		}
		f.release(frame, latch.Exclusive)
		f.unfix(frame)
		if !errors.Is(err, page.ErrPageFull) {
			return page.RID{}, err
		}
		// Raced with another inserter that filled the page; retry.
	}
	return page.RID{}, page.ErrPageFull
}

// Get returns a copy of the record at rid.
func (f *File) Get(t *txn.Txn, rid page.RID) ([]byte, error) {
	frame, err := f.fix(rid.Page)
	if err != nil {
		return nil, err
	}
	f.acquire(t, frame, latch.Shared)
	rec, err := frame.Page().Get(rid.Slot)
	var out []byte
	if err == nil {
		out = append([]byte(nil), rec...)
	}
	f.release(frame, latch.Shared)
	f.unfix(frame)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchRecord, rid)
	}
	return out, nil
}

// Reader reads the records of a scan in place.  It keeps the current heap
// page fixed while consecutive RIDs fall on it, so a scan over records
// that share pages fixes each page once per run of records on it instead
// of once per record (in Latched mode, one buffer-pool critical section
// per run).  In Latched mode Get takes the page's shared latch and Release
// drops it, once per record exactly like File.Get; the pin alone outlives
// Release, and a pin blocks nothing but FreePage.  In LatchFree mode Get
// and Release make no latch calls at all, and pages are looked up without
// a pin.
// A Reader is used by one goroutine and must be closed.
type Reader struct {
	f       *File
	t       *txn.Txn
	frame   *bufferpool.Frame
	latched bool
}

// NewReader returns a reader that attributes latch waits to t (may be nil).
func (f *File) NewReader(t *txn.Txn) *Reader {
	return &Reader{f: f, t: t}
}

// Get returns the record at rid.  The slice points into the page: it is
// valid only until the next Release, Get or Close, and must not be
// modified.  Every successful Get must be followed by Release before the
// caller latches any other page.
func (r *Reader) Get(rid page.RID) ([]byte, error) {
	if r.frame != nil && r.frame.Page().ID() != rid.Page {
		r.f.unfix(r.frame)
		r.frame = nil
	}
	if r.frame == nil {
		frame, err := r.f.fix(rid.Page)
		if err != nil {
			return nil, err
		}
		r.frame = frame
	}
	if r.f.mode == Latched {
		r.f.acquire(r.t, r.frame, latch.Shared)
		r.latched = true
	}
	rec, err := r.frame.Page().Get(rid.Slot)
	if err != nil {
		r.Release()
		return nil, fmt.Errorf("%w: %v", ErrNoSuchRecord, rid)
	}
	return rec[:len(rec):len(rec)], nil
}

// Release drops the latch Get took (a no-op in LatchFree mode or when no
// record is held).  The page stays fixed.
func (r *Reader) Release() {
	if r.latched {
		r.f.release(r.frame, latch.Shared)
		r.latched = false
	}
}

// Close releases any latch and unfixes the current page.
func (r *Reader) Close() {
	r.Release()
	if r.frame != nil {
		r.f.unfix(r.frame)
		r.frame = nil
	}
}

// Update replaces the record at rid with rec (the record must still fit on
// its page; growth beyond the page is not supported by the workloads used
// here).
func (f *File) Update(t *txn.Txn, rid page.RID, rec []byte) error {
	frame, err := f.fix(rid.Page)
	if err != nil {
		return err
	}
	f.acquire(t, frame, latch.Exclusive)
	err = frame.Page().Set(rid.Slot, rec)
	f.release(frame, latch.Exclusive)
	f.unfix(frame)
	if err != nil {
		return fmt.Errorf("heap: update %v: %w", rid, err)
	}
	return nil
}

// Delete removes the record at rid.
func (f *File) Delete(t *txn.Txn, rid page.RID) error {
	frame, err := f.fix(rid.Page)
	if err != nil {
		return err
	}
	f.acquire(t, frame, latch.Exclusive)
	err = frame.Page().Delete(rid.Slot)
	f.release(frame, latch.Exclusive)
	f.unfix(frame)
	if err != nil {
		return fmt.Errorf("heap: delete %v: %w", rid, err)
	}
	// The page now has free space again; make it eligible for reuse.
	owner, _ := f.OwnerOf(rid.Page)
	f.nRecords.Add(-1)
	f.lockMeta()
	found := false
	for _, pid := range f.freeByOwner[owner] {
		if pid == rid.Page {
			found = true
			break
		}
	}
	if !found {
		f.freeByOwner[owner] = append(f.freeByOwner[owner], rid.Page)
	}
	f.mu.Unlock()
	return nil
}

// OwnerOf returns the owner tag of the given heap page.
func (f *File) OwnerOf(pid page.ID) (uint64, error) {
	frame, err := f.fix(pid)
	if err != nil {
		return 0, err
	}
	owner := frame.Page().Owner()
	f.unfix(frame)
	return owner, nil
}

// Retag re-tags page pid with owner and moves it to owner's page lists.
// PLP-Leaf re-tags a page whose tag names a page a boundary move freed, so
// that the tag names a node of the partition its records belong to again
// and a later leaf that reuses the freed page's ID places nothing on it.
func (f *File) Retag(pid page.ID, owner uint64) error {
	frame, err := f.fix(pid)
	if err != nil {
		return err
	}
	f.acquire(nil, frame, latch.Exclusive)
	old := frame.Page().Owner()
	frame.Page().SetOwner(owner)
	f.release(frame, latch.Exclusive)
	f.unfix(frame)
	f.lockMeta()
	f.freeByOwner[old] = slices.DeleteFunc(f.freeByOwner[old], func(id page.ID) bool { return id == pid })
	f.pagesByOwner[old] = slices.DeleteFunc(f.pagesByOwner[old], func(id page.ID) bool { return id == pid })
	if len(f.pagesByOwner[old]) == 0 {
		delete(f.pagesByOwner, old)
		delete(f.freeByOwner, old)
	}
	f.pagesByOwner[owner] = append(f.pagesByOwner[owner], pid)
	f.freeByOwner[owner] = append(f.freeByOwner[owner], pid)
	f.mu.Unlock()
	return nil
}

// ScanFunc is called for every record during a scan.  Returning false stops
// the scan.
type ScanFunc func(rid page.RID, rec []byte) bool

// Scan visits every live record in the file in page order.
func (f *File) Scan(t *txn.Txn, fn ScanFunc) error {
	f.lockMeta()
	pages := append([]page.ID(nil), f.allPages...)
	f.mu.Unlock()
	for _, pid := range pages {
		if more, err := f.scanPage(t, pid, fn); err != nil || !more {
			return err
		}
	}
	return nil
}

// scanPage visits the live records of page pid and reports whether fn
// asked for more.
func (f *File) scanPage(t *txn.Txn, pid page.ID, fn ScanFunc) (bool, error) {
	frame, err := f.fix(pid)
	if err != nil {
		return false, err
	}
	f.acquire(t, frame, latch.Shared)
	defer f.unfix(frame)
	defer f.release(frame, latch.Shared)
	p := frame.Page()
	for _, slot := range p.LiveSlots() {
		rec, err := p.Get(slot)
		if err != nil {
			continue
		}
		if !fn(page.RID{Page: pid, Slot: slot}, rec) {
			return false, nil
		}
	}
	return true, nil
}

// Stats describes heap file occupancy, used by the fragmentation experiment
// (Figure 11).
type Stats struct {
	Pages     int
	Records   int
	Owners    int
	UsedBytes int
}

// Stats returns occupancy statistics.  It fixes every page, so it is meant
// for reporting, not for the hot path.
func (f *File) Stats() Stats {
	f.lockMeta()
	pages := append([]page.ID(nil), f.allPages...)
	owners := len(f.pagesByOwner)
	f.mu.Unlock()
	records := int(f.nRecords.Load())
	st := Stats{Pages: len(pages), Records: records, Owners: owners}
	for _, pid := range pages {
		frame, err := f.fix(pid)
		if err != nil {
			continue
		}
		f.acquire(nil, frame, latch.Shared)
		st.UsedBytes += frame.Page().UsedBytes()
		f.release(frame, latch.Shared)
		f.unfix(frame)
	}
	return st
}

// NumPages returns the number of heap pages allocated to the file.
func (f *File) NumPages() int {
	f.lockMeta()
	defer f.mu.Unlock()
	return len(f.allPages)
}

// NumRecords returns the number of live records in the file.
func (f *File) NumRecords() int { return int(f.nRecords.Load()) }

// PagesOwnedBy returns the page IDs owned by the given owner tag.
func (f *File) PagesOwnedBy(owner uint64) []page.ID {
	f.lockMeta()
	defer f.mu.Unlock()
	return append([]page.ID(nil), f.pagesByOwner[owner]...)
}
