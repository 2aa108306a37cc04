package bufferpool

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"plp/internal/cs"
	"plp/internal/latch"
	"plp/internal/page"
)

func newPool() *Pool {
	return New(Config{LatchStats: &latch.Stats{}, CSStats: &cs.Stats{}})
}

func TestNewPageAndFix(t *testing.T) {
	bp := newPool()
	f := bp.NewPage(page.KindHeap)
	id := f.Page().ID()
	if id == page.InvalidID {
		t.Fatal("invalid id allocated")
	}
	if f.PinCount() != 1 {
		t.Fatalf("pin=%d", f.PinCount())
	}
	if _, err := f.Page().Add([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	bp.Unfix(f)

	g, err := bp.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := g.Page().Get(0)
	if err != nil || string(rec) != "hello" {
		t.Fatalf("rec=%q err=%v", rec, err)
	}
	bp.Unfix(g)
	if _, err := bp.Fix(page.InvalidID); err == nil {
		t.Fatal("fixed the invalid page")
	}
}

func TestFixMissingPage(t *testing.T) {
	bp := newPool()
	if _, err := bp.Fix(page.ID(9999)); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("Fix of an unknown page: %v, want ErrNoSuchPage", err)
	}
}

func TestUnfixPanicsWithoutFix(t *testing.T) {
	bp := newPool()
	f := bp.NewPage(page.KindHeap)
	bp.Unfix(f)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on extra unfix")
		}
	}()
	bp.Unfix(f)
}

func TestFreePage(t *testing.T) {
	bp := newPool()
	f := bp.NewPage(page.KindHeap)
	id := f.Page().ID()
	if err := bp.FreePage(id); !errors.Is(err, ErrPagePinned) {
		t.Fatalf("FreePage of a pinned page: %v, want ErrPagePinned", err)
	}
	bp.Unfix(f)
	if err := bp.FreePage(id); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Fix(id); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("Fix of a freed page: %v, want ErrNoSuchPage", err)
	}
	if got := bp.Stats().Resident; got != 0 {
		t.Fatalf("resident=%d after freeing the only page", got)
	}
}

// TestFreePageTwice checks that a second FreePage of one ID is refused, so
// the ID is not queued for reuse twice and handed to two later NewPages.
func TestFreePageTwice(t *testing.T) {
	bp := newPool()
	f := bp.NewPage(page.KindHeap)
	id := f.Page().ID()
	bp.Unfix(f)
	if err := bp.FreePage(id); err != nil {
		t.Fatal(err)
	}
	if err := bp.FreePage(id); !errors.Is(err, ErrFreedTwice) {
		t.Fatalf("second FreePage: %v, want ErrFreedTwice", err)
	}
	if err := bp.FreePage(id + 100); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("FreePage of a never-allocated page: %v, want ErrNoSuchPage", err)
	}
	a, b := bp.NewPage(page.KindHeap), bp.NewPage(page.KindHeap)
	if a.Page().ID() == b.Page().ID() {
		t.Fatalf("one page ID handed out twice: %v", a.Page().ID())
	}
}

func TestFreedIDReused(t *testing.T) {
	bp := newPool()
	a := bp.NewPage(page.KindHeap)
	b := bp.NewPage(page.KindHeap)
	if a.Page().ID() == b.Page().ID() {
		t.Fatal("duplicate allocation")
	}
	freed := a.Page().ID()
	bp.Unfix(a)
	if err := bp.FreePage(freed); err != nil {
		t.Fatal(err)
	}
	c := bp.NewPage(page.KindIndexLeaf)
	if c.Page().ID() != freed {
		t.Fatalf("freed id not reused: got %v want %v", c.Page().ID(), freed)
	}
	if c.Page().Kind() != page.KindIndexLeaf || c.Page().NumSlots() != 0 {
		t.Fatalf("reused page not fresh: kind=%v slots=%d", c.Page().Kind(), c.Page().NumSlots())
	}
	g, err := bp.Fix(freed)
	if err != nil || g != c {
		t.Fatalf("Fix of the reused id: frame %p err %v, want %p", g, err, c)
	}
	bp.Unfix(g)
}

// TestNewPageAllocBytes bounds the memory one new page costs: the page
// itself plus at most 1 KiB of frame, latch and page-table bookkeeping.
func TestNewPageAllocBytes(t *testing.T) {
	const n = 1000
	bp := newPool()
	frames := make([]*Frame, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		frames = append(frames, bp.NewPage(page.KindHeap))
	}
	runtime.ReadMemStats(&after)
	limit := uint64(n * (page.Size + 1024))
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("%d NewPage calls allocated %d bytes, limit %d", n, got, limit)
	}
	runtime.KeepAlive(frames)
}

func TestLatchKindAssignment(t *testing.T) {
	ls := &latch.Stats{}
	bp := New(Config{LatchStats: ls, CSStats: &cs.Stats{}})
	heapFrame := bp.NewPage(page.KindHeap)
	idxFrame := bp.NewPage(page.KindIndexLeaf)
	catFrame := bp.NewPage(page.KindMetadata)
	heapFrame.Latch().Acquire(latch.Shared)
	heapFrame.Latch().Release(latch.Shared)
	idxFrame.Latch().Acquire(latch.Shared)
	idxFrame.Latch().Release(latch.Shared)
	catFrame.Latch().Acquire(latch.Shared)
	catFrame.Latch().Release(latch.Shared)
	snap := ls.Snapshot()
	if snap.Acquired[latch.KindHeap] != 1 || snap.Acquired[latch.KindIndex] != 1 || snap.Acquired[latch.KindCatalog] != 1 {
		t.Fatalf("latch kinds misassigned: %+v", snap)
	}
	bp.Unfix(heapFrame)
	bp.Unfix(idxFrame)
	bp.Unfix(catFrame)
}

// TestBpoolCriticalSectionsReported checks the Figure 1 accounting: one
// Bpool critical section per NewPage, Fix and FreePage, none per Unfix.
func TestBpoolCriticalSectionsReported(t *testing.T) {
	cstats := &cs.Stats{}
	bp := New(Config{CSStats: cstats, LatchStats: &latch.Stats{}})
	f := bp.NewPage(page.KindHeap)
	bp.Unfix(f)
	for i := 0; i < 10; i++ {
		g, err := bp.Fix(f.Page().ID())
		if err != nil {
			t.Fatal(err)
		}
		bp.Unfix(g)
	}
	if err := bp.FreePage(f.Page().ID()); err != nil {
		t.Fatal(err)
	}
	if got := cstats.Snapshot().Entered[cs.Bpool]; got != 12 {
		t.Fatalf("Bpool critical sections = %d, want 12 (1 NewPage + 10 Fix + 1 FreePage)", got)
	}
	if got := bp.Stats().Fixes; got != 10 {
		t.Fatalf("fixes = %d, want 10", got)
	}
}

func TestConcurrentFixUnfix(t *testing.T) {
	bp := newPool()
	var ids []page.ID
	for i := 0; i < 32; i++ {
		f := bp.NewPage(page.KindHeap)
		ids = append(ids, f.Page().ID())
		bp.Unfix(f)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(g*31+i)%len(ids)]
				f, err := bp.Fix(id)
				if err != nil {
					t.Errorf("Fix: %v", err)
					return
				}
				f.Latch().Acquire(latch.Shared)
				f.Latch().Release(latch.Shared)
				bp.Unfix(f)
			}
		}(g)
	}
	wg.Wait()
	for _, id := range ids {
		f, err := bp.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.PinCount() != 1 {
			t.Fatalf("pin count leaked on %v: %d", id, f.PinCount())
		}
		bp.Unfix(f)
	}
}

// TestConcurrentAllocFreeUniqueIDs runs NewPage, Fix and FreePage from 8
// goroutines and checks that no ID is ever held by two live pages at once
// and that each goroutine's pages keep their contents.
func TestConcurrentAllocFreeUniqueIDs(t *testing.T) {
	bp := newPool()
	var live sync.Map // page.ID -> owning goroutine
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []page.ID
			for i := 0; i < 400; i++ {
				f := bp.NewPage(page.KindHeap)
				id := f.Page().ID()
				if prev, dup := live.LoadOrStore(id, g); dup {
					t.Errorf("id %v handed to goroutine %d while live in %v", id, g, prev)
					return
				}
				if _, err := f.Page().Add([]byte{byte(g)}); err != nil {
					t.Error(err)
					return
				}
				bp.Unfix(f)
				mine = append(mine, id)
				for _, id := range mine {
					h, err := bp.Fix(id)
					if err != nil {
						t.Errorf("Fix %v: %v", id, err)
						return
					}
					if rec, err := h.Page().Get(0); err != nil || rec[0] != byte(g) {
						t.Errorf("page %v of goroutine %d holds %v (%v)", id, g, rec, err)
					}
					bp.Unfix(h)
				}
				if i%3 == 2 {
					// Free the oldest page; the ID becomes reusable.
					id := mine[0]
					mine = mine[1:]
					live.Delete(id)
					if err := bp.FreePage(id); err != nil {
						t.Errorf("FreePage %v: %v", id, err)
						return
					}
				}
				if len(mine) > 8 {
					mine = mine[len(mine)-8:]
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLookupEntersNoCriticalSection checks the partition-owned path: Lookup
// finds the page without a Bpool critical section and without a pin, and
// still counts as a fix.
func TestLookupEntersNoCriticalSection(t *testing.T) {
	cstats := &cs.Stats{}
	bp := New(Config{CSStats: cstats, LatchStats: &latch.Stats{}})
	f := bp.NewPage(page.KindIndexLeaf)
	bp.Unfix(f)
	before := cstats.Snapshot().Entered[cs.Bpool]
	for i := 0; i < 10; i++ {
		g, err := bp.Lookup(f.Page().ID())
		if err != nil || g != f {
			t.Fatalf("Lookup: frame %p err %v, want %p", g, err, f)
		}
	}
	if got := cstats.Snapshot().Entered[cs.Bpool] - before; got != 0 {
		t.Fatalf("10 Lookups entered %d Bpool critical sections, want 0", got)
	}
	if f.PinCount() != 0 {
		t.Fatalf("Lookup pinned the frame: pin=%d", f.PinCount())
	}
	if got := bp.Stats().Fixes; got != 10 {
		t.Fatalf("fixes = %d, want 10 (Lookups count as fixes)", got)
	}
	for _, id := range []page.ID{page.InvalidID, f.Page().ID() + 1, 1 << 40} {
		if _, err := bp.Lookup(id); !errors.Is(err, ErrNoSuchPage) {
			t.Fatalf("Lookup(%v): %v, want ErrNoSuchPage", id, err)
		}
	}
	if err := bp.FreePage(f.Page().ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Lookup(f.Page().ID()); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("Lookup of a freed page: %v, want ErrNoSuchPage", err)
	}
}

// TestLookupDuringAllocAndFree runs NewPage and FreePage on some goroutines
// while others look their own pages up without the lock, across many
// page-table growths.  Every owner must always find its own page, with its
// contents, and never another's.  Run under -race it checks that frames
// are published safely.
func TestLookupDuringAllocAndFree(t *testing.T) {
	bp := newPool()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []page.ID
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := bp.NewPage(page.KindHeap)
				held = append(held, f.Page().ID())
				bp.Unfix(f)
				if len(held) > 64 || i%2 == 1 {
					if err := bp.FreePage(held[0]); err != nil {
						t.Error(err)
						return
					}
					held = held[1:]
				}
			}
		}()
	}
	var owners sync.WaitGroup
	for g := 0; g < 4; g++ {
		owners.Add(1)
		go func(g int) {
			defer owners.Done()
			var mine []page.ID
			for i := 0; i < 3000; i++ {
				f := bp.NewPage(page.KindIndexLeaf)
				if _, err := f.Page().Add([]byte{byte(g), byte(i)}); err != nil {
					t.Error(err)
					return
				}
				bp.Unfix(f)
				mine = append(mine, f.Page().ID())
				for _, id := range mine[max(0, len(mine)-16):] {
					h, err := bp.Lookup(id)
					if err != nil {
						t.Errorf("Lookup %v: %v", id, err)
						return
					}
					if h.Page().ID() != id {
						t.Errorf("Lookup %v returned page %v", id, h.Page().ID())
						return
					}
					if rec, err := h.Page().Get(0); err != nil || rec[0] != byte(g) {
						t.Errorf("page %v of goroutine %d holds %v (%v)", id, g, rec, err)
						return
					}
				}
			}
		}(g)
	}
	owners.Wait()
	close(stop)
	wg.Wait()
}
