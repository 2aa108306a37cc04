package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"plp/internal/bufferpool"
	"plp/internal/cs"
	"plp/internal/latch"
	"plp/internal/page"
)

func newFile(mode AccessMode) (*File, *latch.Stats) {
	ls := &latch.Stats{}
	bp := bufferpool.New(bufferpool.Config{LatchStats: ls, CSStats: &cs.Stats{}})
	return New(1, bp, mode, &cs.Stats{}), ls
}

func TestInsertGetUpdateDelete(t *testing.T) {
	f, _ := newFile(Latched)
	rid, err := f.Insert(nil, SharedOwner, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.Get(nil, rid)
	if err != nil || string(rec) != "hello" {
		t.Fatalf("get: %q %v", rec, err)
	}
	if err := f.Update(nil, rid, []byte("world")); err != nil {
		t.Fatal(err)
	}
	rec, _ = f.Get(nil, rid)
	if string(rec) != "world" {
		t.Fatalf("update lost: %q", rec)
	}
	if err := f.Delete(nil, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(nil, rid); !errors.Is(err, ErrNoSuchRecord) {
		t.Fatalf("deleted record still readable: %v", err)
	}
	if f.NumRecords() != 0 {
		t.Fatal("record count wrong")
	}
}

func TestRIDStability(t *testing.T) {
	f, _ := newFile(Latched)
	var rids []page.RID
	for i := 0; i < 2000; i++ {
		rid, err := f.Insert(nil, SharedOwner, []byte(fmt.Sprintf("rec-%05d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Delete a third of the records; the rest must remain addressable by
	// their original RIDs.
	for i := 0; i < len(rids); i += 3 {
		if err := f.Delete(nil, rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, rid := range rids {
		rec, err := f.Get(nil, rid)
		if i%3 == 0 {
			if err == nil {
				t.Fatalf("deleted record %d readable", i)
			}
			continue
		}
		if err != nil || string(rec) != fmt.Sprintf("rec-%05d", i) {
			t.Fatalf("record %d: %q %v", i, rec, err)
		}
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	f, _ := newFile(Latched)
	if _, err := f.Insert(nil, SharedOwner, make([]byte, page.MaxRecordSize+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestOwnerSegregation(t *testing.T) {
	f, _ := newFile(LatchFree)
	const perOwner = 300
	for owner := uint64(1); owner <= 3; owner++ {
		for i := 0; i < perOwner; i++ {
			if _, err := f.Insert(nil, owner, bytes.Repeat([]byte{byte(owner)}, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Pages of different owners must be disjoint.
	seen := map[page.ID]uint64{}
	for owner := uint64(1); owner <= 3; owner++ {
		for _, pid := range f.PagesOwnedBy(owner) {
			if prev, ok := seen[pid]; ok && prev != owner {
				t.Fatalf("page %v owned by %d and %d", pid, prev, owner)
			}
			seen[pid] = owner
		}
	}
	// Every record sits on a page of its own owner.
	n := map[uint64]int{}
	err := f.Scan(nil, func(rid page.RID, rec []byte) bool {
		owner, err := f.OwnerOf(rid.Page)
		if err != nil || owner != uint64(rec[0]) {
			t.Fatalf("owner %d's record on a page owned by %d (%v)", rec[0], owner, err)
		}
		n[owner]++
		return true
	})
	if err != nil || len(n) != 3 || n[1] != perOwner || n[2] != perOwner || n[3] != perOwner {
		t.Fatalf("records per owner %v (%v), want %d each", n, err, perOwner)
	}
	// Owner-partitioned placement costs extra pages versus a single shared
	// pool filling pages completely (this is the Figure 11 effect).
	if f.NumPages() < 3 {
		t.Fatal("expected at least one page per owner")
	}
}

func TestScanVisitsEverything(t *testing.T) {
	f, _ := newFile(Latched)
	want := map[string]bool{}
	for i := 0; i < 1000; i++ {
		rec := fmt.Sprintf("row-%d", i)
		if _, err := f.Insert(nil, SharedOwner, []byte(rec)); err != nil {
			t.Fatal(err)
		}
		want[rec] = true
	}
	got := map[string]bool{}
	if err := f.Scan(nil, func(_ page.RID, rec []byte) bool {
		got[string(rec)] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan saw %d of %d records", len(got), len(want))
	}
	// Early termination, on the first page and on a later one.
	if f.NumPages() < 2 {
		t.Fatalf("%d records fill %d page, want at least 2", len(want), f.NumPages())
	}
	for _, stopAt := range []int{10, len(want) - 10} {
		n := 0
		_ = f.Scan(nil, func(_ page.RID, _ []byte) bool {
			n++
			return n < stopAt
		})
		if n != stopAt {
			t.Fatalf("a scan stopping at record %d visited %d", stopAt, n)
		}
	}
}

func TestLatchedModeCountsHeapLatches(t *testing.T) {
	f, ls := newFile(Latched)
	rid, _ := f.Insert(nil, SharedOwner, []byte("x"))
	_, _ = f.Get(nil, rid)
	if ls.Snapshot().Acquired[latch.KindHeap] == 0 {
		t.Fatal("latched heap access acquired no latches")
	}

	f2, ls2 := newFile(LatchFree)
	rid2, _ := f2.Insert(nil, 1, []byte("x"))
	_, _ = f2.Get(nil, rid2)
	if ls2.Snapshot().Acquired[latch.KindHeap] != 0 {
		t.Fatal("latch-free heap access acquired latches")
	}
}

func TestStats(t *testing.T) {
	f, _ := newFile(Latched)
	for i := 0; i < 100; i++ {
		if _, err := f.Insert(nil, SharedOwner, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Records != 100 || st.Pages == 0 || st.UsedBytes < 100*100 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestConcurrentInsertsSharedPool(t *testing.T) {
	f, _ := newFile(Latched)
	var wg sync.WaitGroup
	var mu sync.Mutex
	all := map[page.RID]string{}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				rec := fmt.Sprintf("g%d-%d", g, i)
				rid, err := f.Insert(nil, SharedOwner, []byte(rec))
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				mu.Lock()
				all[rid] = rec
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(all) != 8*250 {
		t.Fatalf("duplicate RIDs handed out: %d unique", len(all))
	}
	for rid, want := range all {
		rec, err := f.Get(nil, rid)
		if err != nil || string(rec) != want {
			t.Fatalf("rid %v: %q %v (want %q)", rid, rec, err, want)
		}
	}
}

func TestPropertyHeapAgainstModel(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		hf, _ := newFile(Latched)
		model := map[page.RID][]byte{}
		var live []page.RID
		for i := 0; i < int(n); i++ {
			switch rng.Intn(3) {
			case 0:
				rec := make([]byte, 1+rng.Intn(200))
				rng.Read(rec)
				rid, err := hf.Insert(nil, SharedOwner, rec)
				if err != nil {
					return false
				}
				model[rid] = append([]byte(nil), rec...)
				live = append(live, rid)
			case 1:
				if len(live) == 0 {
					continue
				}
				idx := rng.Intn(len(live))
				rid := live[idx]
				if err := hf.Delete(nil, rid); err != nil {
					return false
				}
				delete(model, rid)
				live = append(live[:idx], live[idx+1:]...)
			case 2:
				if len(live) == 0 {
					continue
				}
				rid := live[rng.Intn(len(live))]
				rec := make([]byte, 1+rng.Intn(200))
				rng.Read(rec)
				if err := hf.Update(nil, rid, rec); err != nil {
					// Updates that outgrow the page are allowed to fail.
					if errors.Is(err, page.ErrPageFull) {
						continue
					}
					return false
				}
				model[rid] = append([]byte(nil), rec...)
			}
		}
		if hf.NumRecords() != len(model) {
			return false
		}
		for rid, want := range model {
			got, err := hf.Get(nil, rid)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReaderFixesOncePerPage checks the scan reader: one buffer-pool fix
// per run of records on a page, one shared latch per record in Latched mode
// and none in LatchFree mode, no pin left behind by Close, and the same
// bytes File.Get returns.
func TestReaderFixesOncePerPage(t *testing.T) {
	for _, mode := range []AccessMode{Latched, LatchFree} {
		f, ls := newFile(mode)
		var rids []page.RID
		for i := 0; i < 500; i++ {
			rid, err := f.Insert(nil, SharedOwner, []byte(fmt.Sprintf("rec-%05d", i)))
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		fixes0, latches0 := f.bp.Stats().Fixes, ls.Snapshot()
		r := f.NewReader(nil)
		for i, rid := range rids {
			rec, err := r.Get(rid)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("rec-%05d", i); string(rec) != want {
				t.Fatalf("mode %d: record %v = %q, want %q", mode, rid, rec, want)
			}
			r.Release()
		}
		r.Close()
		fixes := f.bp.Stats().Fixes - fixes0
		latches := ls.Snapshot().Sub(latches0).Acquired[latch.KindHeap]
		if pages := uint64(f.NumPages()); fixes != pages {
			t.Fatalf("mode %d: %d fixes for %d records on %d pages, want one per page", mode, fixes, len(rids), pages)
		}
		wantLatches := uint64(len(rids))
		if mode == LatchFree {
			wantLatches = 0
		}
		if latches != wantLatches {
			t.Fatalf("mode %d: %d heap latches, want %d", mode, latches, wantLatches)
		}
		for _, pid := range f.PagesOwnedBy(SharedOwner) {
			frame, err := f.bp.Fix(pid)
			if err != nil {
				t.Fatal(err)
			}
			if pins := frame.PinCount(); pins != 1 {
				t.Fatalf("mode %d: page %v has %d pins after Close, want only this test's", mode, pid, pins)
			}
			f.bp.Unfix(frame)
		}
	}
}

// TestReaderMissingRecord checks that a deleted RID reports ErrNoSuchRecord
// and leaves no latch held: an exclusive latch on the page still succeeds.
func TestReaderMissingRecord(t *testing.T) {
	f, _ := newFile(Latched)
	rid, err := f.Insert(nil, SharedOwner, []byte("gone"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(nil, rid); err != nil {
		t.Fatal(err)
	}
	r := f.NewReader(nil)
	defer r.Close()
	if _, err := r.Get(rid); !errors.Is(err, ErrNoSuchRecord) {
		t.Fatalf("Get of a deleted record: %v, want ErrNoSuchRecord", err)
	}
	frame, err := f.bp.Fix(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	defer f.bp.Unfix(frame)
	if !frame.Latch().TryAcquire(latch.Exclusive) {
		t.Fatal("failed Get left the page latched")
	}
	frame.Latch().Release(latch.Exclusive)
}

// TestInsertVisitsDirectoryOnce is the count gate on a heap insert into a
// page with room: one free-space-directory critical section (picking the
// page) and one buffer-pool fix (the page it picked, checked and then
// written), in both access modes.  Counting the live records outside the
// directory, and writing to the frame the pick already fixed, is what
// makes it one of each instead of two.
func TestInsertVisitsDirectoryOnce(t *testing.T) {
	for _, mode := range []AccessMode{Latched, LatchFree} {
		bp := bufferpool.New(bufferpool.Config{LatchStats: &latch.Stats{}, CSStats: &cs.Stats{}})
		cst := &cs.Stats{}
		f := New(1, bp, mode, cst)
		if _, err := f.Insert(nil, 1, []byte("first")); err != nil { // allocates the page
			t.Fatal(err)
		}
		const n = 50
		cs0, fix0 := cst.Snapshot(), bp.Stats().Fixes
		for i := 0; i < n; i++ {
			if _, err := f.Insert(nil, 1, []byte(fmt.Sprintf("record-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		meta := cst.Snapshot().Sub(cs0).Entered[cs.Metadata]
		fixes := bp.Stats().Fixes - fix0
		if f.NumPages() != 1 || f.NumRecords() != n+1 {
			t.Fatalf("mode %d: %d pages and %d records, want 1 and %d", mode, f.NumPages(), f.NumRecords(), n+1)
		}
		if meta != n || fixes != n {
			t.Fatalf("mode %d: %d inserts entered the directory %d times and fixed %d pages, want %d of each",
				mode, n, meta, fixes, n)
		}
	}
}
