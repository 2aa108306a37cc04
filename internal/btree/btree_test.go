package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"plp/internal/bufferpool"
	"plp/internal/cs"
	"plp/internal/heap"
	"plp/internal/keyenc"
	"plp/internal/latch"
	"plp/internal/page"
)

func newTestTree(t testing.TB, cfg Config) *Tree {
	t.Helper()
	bp := bufferpool.New(bufferpool.Config{LatchStats: &latch.Stats{}, CSStats: &cs.Stats{}})
	tree := Create(bp, 1, cfg)
	return tree
}

func TestInsertSearchSmall(t *testing.T) {
	tree := newTestTree(t, Config{Latched: true})
	for i := 0; i < 100; i++ {
		key := keyenc.Uint64Key(uint64(i))
		val := []byte(fmt.Sprintf("value-%d", i))
		if err := tree.Insert(nil, key, val); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		key := keyenc.Uint64Key(uint64(i))
		val, found, err := tree.Search(nil, key)
		if err != nil || !found {
			t.Fatalf("Search %d: found=%v err=%v", i, found, err)
		}
		if want := fmt.Sprintf("value-%d", i); string(val) != want {
			t.Fatalf("Search %d: got %q want %q", i, val, want)
		}
	}
	if _, found, _ := tree.Search(nil, keyenc.Uint64Key(1000)); found {
		t.Fatal("found a key that was never inserted")
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	tree := newTestTree(t, Config{Latched: true})
	key := keyenc.Uint64Key(7)
	if err := tree.Insert(nil, key, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(nil, key, []byte("b")); err == nil {
		t.Fatal("expected ErrDuplicateKey")
	}
	if err := tree.Put(nil, key, []byte("b")); err != nil {
		t.Fatalf("Put should overwrite: %v", err)
	}
	v, _, _ := tree.Search(nil, key)
	if string(v) != "b" {
		t.Fatalf("got %q want b", v)
	}
}

func TestInsertWithSplits(t *testing.T) {
	for _, maxSlots := range []int{4, 7, 16} {
		maxSlots := maxSlots
		t.Run(fmt.Sprintf("maxSlots=%d", maxSlots), func(t *testing.T) {
			tree := newTestTree(t, Config{Latched: true, MaxSlotsPerNode: maxSlots})
			const n = 2000
			perm := rand.New(rand.NewSource(42)).Perm(n)
			for _, i := range perm {
				key := keyenc.Uint64Key(uint64(i))
				if err := tree.Insert(nil, key, key); err != nil {
					t.Fatalf("Insert %d: %v", i, err)
				}
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			count, err := tree.Count(nil)
			if err != nil || count != n {
				t.Fatalf("Count=%d err=%v want %d", count, err, n)
			}
			h, _ := tree.Height()
			if h < 3 {
				t.Fatalf("expected a deep tree with maxSlots=%d, got height %d", maxSlots, h)
			}
			for i := 0; i < n; i++ {
				_, found, err := tree.Search(nil, keyenc.Uint64Key(uint64(i)))
				if err != nil || !found {
					t.Fatalf("Search %d after splits: found=%v err=%v", i, found, err)
				}
			}
		})
	}
}

func TestDelete(t *testing.T) {
	tree := newTestTree(t, Config{Latched: true, MaxSlotsPerNode: 8})
	const n = 500
	for i := 0; i < n; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(uint64(i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		ok, err := tree.Delete(nil, keyenc.Uint64Key(uint64(i)))
		if err != nil || !ok {
			t.Fatalf("Delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < n; i++ {
		_, found, _ := tree.Search(nil, keyenc.Uint64Key(uint64(i)))
		want := i%2 == 1
		if found != want {
			t.Fatalf("key %d: found=%v want %v", i, found, want)
		}
	}
	ok, err := tree.Delete(nil, keyenc.Uint64Key(99999))
	if err != nil || ok {
		t.Fatalf("Delete missing key: ok=%v err=%v", ok, err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants after delete: %v", err)
	}
}

func TestUpdate(t *testing.T) {
	tree := newTestTree(t, Config{Latched: true})
	key := keyenc.Uint64Key(1)
	if err := tree.Update(nil, key, []byte("x")); err == nil {
		t.Fatal("Update of missing key should fail")
	}
	if err := tree.Insert(nil, key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tree.Update(nil, key, []byte("yyyy")); err != nil {
		t.Fatal(err)
	}
	v, _, _ := tree.Search(nil, key)
	if string(v) != "yyyy" {
		t.Fatalf("got %q", v)
	}
}

// leafKeys returns the keys of every leaf, leaves in key order.
func leafKeys(t *testing.T, tree *Tree) [][]uint64 {
	t.Helper()
	f, err := tree.leftmostLeaf(nil)
	if err != nil {
		t.Fatal(err)
	}
	var leaves [][]uint64
	for {
		p := f.Page()
		var keys []uint64
		for i := 0; i < p.NumSlots(); i++ {
			k, err := leafKeyAt(p, i)
			if err != nil {
				t.Fatal(err)
			}
			kv, _ := keyenc.DecodeUint64(k)
			keys = append(keys, kv)
		}
		leaves = append(leaves, keys)
		next := p.Next()
		tree.releaseNode(f, latch.Shared)
		if next == page.InvalidID {
			return leaves
		}
		if f, err = tree.bp.Fix(next); err != nil {
			t.Fatal(err)
		}
		tree.latchNode(nil, f, latch.Shared)
	}
}

// TestAscendRange checks the range bounds and the stop report with hi at
// several places of one leaf.  AscendRange checks hi once per leaf, so hi
// in the middle of a leaf (whose first key lies below hi and whose last key
// does not) must still cut the leaf at hi.
func TestAscendRange(t *testing.T) {
	tree := newTestTree(t, Config{Latched: true, MaxSlotsPerNode: 6})
	const n = 300
	for i := 0; i < n; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(uint64(i*2)), keyenc.Uint64Key(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	leaves := leafKeys(t, tree)
	leaf := leaves[len(leaves)/2]
	if len(leaves) < 8 || len(leaf) < 3 {
		t.Fatalf("tree has %d leaves, the middle one %d keys; want several leaves of at least 3", len(leaves), len(leaf))
	}
	lo := leaves[2][1] // inside a leaf, two leaves to the left
	key := func(v uint64) []byte { return keyenc.Uint64Key(v) }
	cases := []struct {
		name    string
		lo, hi  []byte
		stopAt  int // fn returns false on this visit (1-based); 0 never
		want    []uint64
		stopped bool
	}{
		{name: "hi at first slot", lo: key(lo), hi: key(leaf[0])},
		{name: "hi at middle slot", lo: key(lo), hi: key(leaf[len(leaf)/2])},
		{name: "hi at last slot", lo: key(lo), hi: key(leaf[len(leaf)-1])},
		{name: "hi absent inside leaf", lo: key(lo), hi: key(leaf[1] + 1)},
		{name: "hi absent past leaf end", lo: key(lo), hi: key(leaf[len(leaf)-1] + 1)},
		{name: "hi nil", lo: key(lo)},
		{name: "lo and hi nil"},
		{name: "empty range", lo: key(leaf[1]), hi: key(leaf[1])},
		{name: "early stop", lo: key(lo), hi: key(leaf[len(leaf)/2]), stopAt: 5, stopped: true},
		{name: "stop on last entry", lo: key(leaf[0]), hi: key(leaf[1] + 1), stopAt: 2, stopped: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []uint64
			for i := 0; i < n; i++ {
				kv := uint64(i * 2)
				if (tc.lo == nil || bytes.Compare(key(kv), tc.lo) >= 0) && (tc.hi == nil || bytes.Compare(key(kv), tc.hi) < 0) {
					want = append(want, kv)
				}
			}
			if tc.stopAt > 0 {
				want = want[:tc.stopAt]
			}
			var got []uint64
			stopped, err := tree.AscendRange(nil, tc.lo, tc.hi, func(k, v []byte) bool {
				kv, _ := keyenc.DecodeUint64(k)
				vv, _ := keyenc.DecodeUint64(v)
				if vv*2 != kv {
					t.Errorf("key %d carries value %d", kv, vv)
				}
				got = append(got, kv)
				return len(got) != tc.stopAt
			})
			if err != nil {
				t.Fatal(err)
			}
			if stopped != tc.stopped {
				t.Errorf("stopped = %v, want %v", stopped, tc.stopped)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("visited %v\nwant    %v", got, want)
			}
		})
	}
	// Every scan released its leaf latches: a writer gets through.
	if err := tree.Insert(nil, keyenc.Uint64Key(1), nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertSearch(t *testing.T) {
	tree := newTestTree(t, Config{Latched: true, MaxSlotsPerNode: 16})
	const (
		writers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := keyenc.CompositeUint64(uint64(w), uint64(i))
				if err := tree.Insert(nil, key, key); err != nil {
					t.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
				if _, found, err := tree.Search(nil, key); err != nil || !found {
					t.Errorf("writer %d readback %d: found=%v err=%v", w, i, found, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	count, err := tree.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	if count != writers*perW {
		t.Fatalf("count=%d want %d", count, writers*perW)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestLatchFreeMode(t *testing.T) {
	ls := &latch.Stats{}
	bp := bufferpool.New(bufferpool.Config{LatchStats: ls, CSStats: &cs.Stats{}})
	tree := Create(bp, 1, Config{Latched: false, MaxSlotsPerNode: 8})
	for i := 0; i < 1000; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(uint64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	snap := ls.Snapshot()
	if snap.Acquired[latch.KindIndex] != 0 {
		t.Fatalf("latch-free tree acquired %d index latches", snap.Acquired[latch.KindIndex])
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLatchedModeCountsLatches(t *testing.T) {
	ls := &latch.Stats{}
	bp := bufferpool.New(bufferpool.Config{LatchStats: ls, CSStats: &cs.Stats{}})
	tree := Create(bp, 1, Config{Latched: true})
	for i := 0; i < 100; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(uint64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if snap := ls.Snapshot(); snap.Acquired[latch.KindIndex] == 0 {
		t.Fatal("latched tree acquired no index latches")
	}
}

func TestSliceAt(t *testing.T) {
	tree := newTestTree(t, Config{Latched: false, MaxSlotsPerNode: 8})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(uint64(i)), keyenc.Uint64Key(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	cut := keyenc.Uint64Key(1200)
	right, st, err := tree.SliceAt(cut)
	if err != nil {
		t.Fatalf("SliceAt: %v", err)
	}
	if st.EntriesMoved <= 0 || st.EntriesMoved >= n/2 {
		t.Fatalf("slice moved %d entries; expected a small positive number", st.EntriesMoved)
	}
	leftCount, _ := tree.Count(nil)
	rightCount, _ := right.Count(nil)
	if leftCount != 1200 || rightCount != n-1200 {
		t.Fatalf("counts after slice: left=%d right=%d", leftCount, rightCount)
	}
	if ok, _ := tree.BoundaryCheck(nil, cut); !ok {
		t.Fatal("left tree has keys >= cut")
	}
	if ok, _ := right.BoundaryCheck(cut, nil); !ok {
		t.Fatal("right tree has keys < cut")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("left invariants: %v", err)
	}
	if err := right.CheckInvariants(); err != nil {
		t.Fatalf("right invariants: %v", err)
	}
	// Both halves remain fully usable.
	if err := tree.Insert(nil, keyenc.Uint64Key(5000+0), []byte("x")); err == nil {
		// key 5000 >= cut belongs to right; inserting into left would violate
		// partitioning, but the tree itself cannot know that — it should
		// still accept it mechanically.  Clean it up.
		if _, err := tree.Delete(nil, keyenc.Uint64Key(5000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := right.Insert(nil, keyenc.Uint64Key(3000), []byte("y")); err != nil {
		t.Fatalf("insert into sliced-off tree: %v", err)
	}
}

func TestMeldEqualAndUnequalHeights(t *testing.T) {
	cases := []struct {
		name         string
		leftN, right int
	}{
		{"similar", 1000, 1000},
		{"leftTaller", 4000, 40},
		{"rightTaller", 40, 4000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			bp := bufferpool.New(bufferpool.Config{LatchStats: &latch.Stats{}, CSStats: &cs.Stats{}})
			cfg := Config{Latched: false, MaxSlotsPerNode: 8}
			left := Create(bp, 1, cfg)
			right := Create(bp, 1, cfg)
			boundary := uint64(100000)
			for i := 0; i < tc.leftN; i++ {
				if err := left.Insert(nil, keyenc.Uint64Key(uint64(i)), []byte("l")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < tc.right; i++ {
				if err := right.Insert(nil, keyenc.Uint64Key(boundary+uint64(i)), []byte("r")); err != nil {
					t.Fatal(err)
				}
			}
			merged, _, err := Meld(left, right, keyenc.Uint64Key(boundary))
			if err != nil {
				t.Fatalf("Meld: %v", err)
			}
			count, err := merged.Count(nil)
			if err != nil {
				t.Fatal(err)
			}
			if count != tc.leftN+tc.right {
				t.Fatalf("merged count=%d want %d", count, tc.leftN+tc.right)
			}
			if err := merged.CheckInvariants(); err != nil {
				t.Fatalf("merged invariants: %v", err)
			}
			// Every key from both sides must be findable.
			for i := 0; i < tc.leftN; i += 17 {
				if _, found, _ := merged.Search(nil, keyenc.Uint64Key(uint64(i))); !found {
					t.Fatalf("left key %d lost after meld", i)
				}
			}
			for i := 0; i < tc.right; i += 7 {
				if _, found, _ := merged.Search(nil, keyenc.Uint64Key(boundary+uint64(i))); !found {
					t.Fatalf("right key %d lost after meld", i)
				}
			}
			// The merged tree keeps working for inserts.
			if err := merged.Insert(nil, keyenc.Uint64Key(boundary-1), []byte("mid")); err != nil {
				t.Fatalf("insert into merged tree: %v", err)
			}
		})
	}
}

func TestPropertyAgainstMapModel(t *testing.T) {
	cfgs := []Config{
		{Latched: true, MaxSlotsPerNode: 6},
		{Latched: false, MaxSlotsPerNode: 10},
		{Latched: true},
	}
	for ci, cfg := range cfgs {
		cfg := cfg
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			f := func(ops []uint16, seed int64) bool {
				tree := newTestTree(t, cfg)
				model := make(map[uint64][]byte)
				rng := rand.New(rand.NewSource(seed))
				for _, op := range ops {
					k := uint64(op % 256)
					key := keyenc.Uint64Key(k)
					switch rng.Intn(3) {
					case 0:
						v := []byte(fmt.Sprintf("v%d-%d", k, rng.Intn(1000)))
						if err := tree.Put(nil, key, v); err != nil {
							return false
						}
						model[k] = v
					case 1:
						ok, err := tree.Delete(nil, key)
						if err != nil {
							return false
						}
						_, inModel := model[k]
						if ok != inModel {
							return false
						}
						delete(model, k)
					case 2:
						v, found, err := tree.Search(nil, key)
						if err != nil {
							return false
						}
						mv, inModel := model[k]
						if found != inModel {
							return false
						}
						if found && !bytes.Equal(v, mv) {
							return false
						}
					}
				}
				// Final full comparison via scan.
				scanned := make(map[uint64][]byte)
				if err := tree.Ascend(nil, func(k, v []byte) bool {
					kv, _ := keyenc.DecodeUint64(k)
					scanned[kv] = append([]byte(nil), v...)
					return true
				}); err != nil {
					return false
				}
				if len(scanned) != len(model) {
					return false
				}
				for k, v := range model {
					if !bytes.Equal(scanned[k], v) {
						return false
					}
				}
				return tree.CheckInvariants() == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestKeyValueSizeLimits(t *testing.T) {
	tree := newTestTree(t, Config{Latched: true})
	bigKey := make([]byte, MaxKeySize+1)
	if err := tree.Insert(nil, bigKey, []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	bigVal := make([]byte, MaxValueSize+1)
	if err := tree.Insert(nil, keyenc.Uint64Key(1), bigVal); err == nil {
		t.Fatal("oversized value accepted")
	}
	if err := tree.Insert(nil, nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestHeightGrowth(t *testing.T) {
	tree := newTestTree(t, Config{Latched: true, MaxSlotsPerNode: 4})
	h0, _ := tree.Height()
	if h0 != 1 {
		t.Fatalf("empty tree height=%d", h0)
	}
	for i := 0; i < 100; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(uint64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	h1, _ := tree.Height()
	if h1 <= h0 {
		t.Fatalf("height did not grow: %d", h1)
	}
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 100 || st.LeafPages == 0 || st.InteriorPages == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

// TestInsertPlacedRecordsOnCoveringLeafPages checks PLP-Leaf's placement
// property: InsertPlaced hands place the leaf that covers the key, so
// adjacent keys' records land on heap pages owned by the leaf they share,
// and a distant key's on another leaf's pages.  That holds for inserts
// into full leaves too, whose key lands on whichever half the split gives
// it: past the end of the rightmost leaf (an append split) and in the
// middle of the tree (a 50/50 split).  A duplicate places nothing.
// UpdatePlaced, which moves a present key's record, sees the same leaf.
func TestInsertPlacedRecordsOnCoveringLeafPages(t *testing.T) {
	bp := bufferpool.New(bufferpool.Config{LatchStats: &latch.Stats{}, CSStats: &cs.Stats{}})
	tree := Create(bp, 1, Config{MaxSlotsPerNode: 8})
	hf := heap.New(2, bp, heap.LatchFree, &cs.Stats{})
	for i := uint64(1); i <= 500; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(i*100), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	covers := func(leaf page.ID, key []byte) bool {
		t.Helper()
		f, err := bp.Lookup(leaf)
		if err != nil || !isLeaf(f.Page()) {
			t.Fatalf("place was handed page %v, not a leaf (%v)", leaf, err)
		}
		_, found, err := leafSearch(f.Page(), key)
		if err != nil {
			t.Fatal(err)
		}
		return found
	}
	place := func(id uint64) page.ID {
		t.Helper()
		key := keyenc.Uint64Key(id)
		var leaf page.ID
		var rid page.RID
		err := tree.InsertPlaced(nil, key, func(l page.ID) (page.RID, error) {
			leaf = l
			var herr error
			rid, herr = hf.Insert(nil, uint64(l), key)
			return rid, herr
		})
		if err != nil {
			t.Fatal(err)
		}
		if owner, err := hf.OwnerOf(rid.Page); err != nil || owner != uint64(leaf) {
			t.Fatalf("key %d's record is on a page owned by %d (%v), not by its leaf %v", id, owner, err, leaf)
		}
		if !covers(leaf, key) {
			t.Fatalf("key %d's entry is not on the leaf %v its record's page belongs to", id, leaf)
		}
		v, found, err := tree.Search(nil, key)
		if err != nil || !found {
			t.Fatalf("key %d: found=%v err=%v", id, found, err)
		}
		if got, _ := page.DecodeRID(v); got != rid {
			t.Fatalf("key %d indexes %v, its record is at %v", id, got, rid)
		}
		return leaf
	}
	a, b := place(101), place(102)
	if a != b {
		t.Fatalf("adjacent keys placed on leaves %v and %v", a, b)
	}
	if !covers(a, keyenc.Uint64Key(100)) {
		t.Fatalf("leaf %v does not hold key 100, the neighbour of keys 101 and 102", a)
	}
	if far := place(25001); far == a {
		t.Fatal("distant keys should not share a leaf in a deep tree")
	}
	// Full leaves: appends past the largest key split the rightmost leaf,
	// random keys inside the loaded range split leaves in the middle.
	leaves := func() int {
		st, err := tree.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st.LeafPages
	}
	before := leaves()
	for id := uint64(50001); id <= 50200; id++ {
		place(id)
	}
	appended := leaves()
	if appended <= before {
		t.Fatalf("200 appends left %d leaves, had %d: no append split placed a record", appended, before)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		id := uint64(rng.Int63n(50000)) | 1
		if _, found, _ := tree.Search(nil, keyenc.Uint64Key(id)); !found {
			place(id)
		}
	}
	if leaves() <= appended {
		t.Fatal("random inserts split no leaf")
	}
	err := tree.InsertPlaced(nil, keyenc.Uint64Key(101), func(page.ID) (page.RID, error) {
		t.Fatal("place called for a duplicate key")
		return page.RID{}, nil
	})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate InsertPlaced: %v, want ErrDuplicateKey", err)
	}
	// UpdatePlaced hands place the same covering leaf for a present key and
	// repoints the entry; an absent key places nothing.
	var moved page.RID
	err = tree.UpdatePlaced(nil, keyenc.Uint64Key(101), func(l page.ID) (page.RID, error) {
		if l != a {
			t.Fatalf("UpdatePlaced handed leaf %v for key 101, InsertPlaced %v", l, a)
		}
		var herr error
		moved, herr = hf.Insert(nil, uint64(l), []byte("grown"))
		return moved, herr
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := tree.Search(nil, keyenc.Uint64Key(101)); !bytes.Equal(v, page.EncodeRID(moved)) {
		t.Fatalf("key 101 indexes %x after UpdatePlaced, want %v", v, moved)
	}
	err = tree.UpdatePlaced(nil, keyenc.Uint64Key(103), func(page.ID) (page.RID, error) {
		t.Fatal("place called for an absent key")
		return page.RID{}, nil
	})
	if !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("UpdatePlaced of an absent key: %v, want ErrKeyNotFound", err)
	}
}

// TestSliceAtSeparatorKey slices at keys that are interior separators, at
// every level.  The separator's child holds only keys at or above the cut,
// so it must move to the new tree whole: the old tree may keep no entry
// whose key equals its new upper bound.
func TestSliceAtSeparatorKey(t *testing.T) {
	const n = 400
	build := func() *Tree {
		tree := newTestTree(t, Config{MaxSlotsPerNode: 8})
		for i := uint64(0); i < n; i++ {
			if err := tree.Insert(nil, keyenc.Uint64Key(i), keyenc.Uint64Key(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tree
	}
	var seps [][]byte
	var collect func(tree *Tree, pid page.ID)
	collect = func(tree *Tree, pid page.ID) {
		f, err := tree.bp.Lookup(pid)
		if err != nil {
			t.Fatal(err)
		}
		if isLeaf(f.Page()) {
			return
		}
		for i := 0; i < f.Page().NumSlots(); i++ {
			k, child, err := interiorEntryAt(f.Page(), i)
			if err != nil {
				t.Fatal(err)
			}
			if len(k) > 0 {
				seps = append(seps, append([]byte(nil), k...))
			}
			collect(tree, child)
		}
	}
	probe := build()
	collect(probe, probe.root)
	if len(seps) < 10 {
		t.Fatalf("only %d separators in a tree of %d keys", len(seps), n)
	}
	for i := 0; i < len(seps); i += 3 {
		cut := seps[i]
		tree := build()
		right, _, err := tree.SliceAt(cut)
		if err != nil {
			t.Fatalf("SliceAt(%x): %v", cut, err)
		}
		if err := tree.checkNode(tree.root, nil, cut, -1); err != nil {
			t.Fatalf("left of %x: %v", cut, err)
		}
		if err := right.checkNode(right.root, cut, nil, -1); err != nil {
			t.Fatalf("right of %x: %v", cut, err)
		}
		l, _ := tree.Count(nil)
		r, _ := right.Count(nil)
		if at := int(binary.BigEndian.Uint64(cut)); l != at || r != n-at {
			t.Fatalf("slice at %d left %d and %d entries", at, l, r)
		}
	}
}

// leafChain returns the leaves of a latch-free tree from left to right.
func leafChain(t *testing.T, tree *Tree) []*page.Page {
	t.Helper()
	f, err := tree.leftmostLeaf(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []*page.Page
	for {
		out = append(out, f.Page())
		next := f.Page().Next()
		if next == page.InvalidID {
			return out
		}
		if f, err = tree.bp.Lookup(next); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendSplitFillsLeaves checks the split rule.  Keys inserted in
// ascending order split the rightmost leaf 90/10, so every leaf but the
// last stays at least 85% full, slot directory included; a 50/50 split
// would leave them half full.  Random-order inserts, whose largest key is
// already present, never append, so every split is 50/50.  And an insert
// past the last key of a full leaf that has a right sibling is no append
// either: that split stays 50/50.
func TestAppendSplitFillsLeaves(t *testing.T) {
	t.Run("ascending", func(t *testing.T) {
		tree := newTestTree(t, Config{})
		for i := uint64(0); i < 20000; i++ {
			if err := tree.Insert(nil, keyenc.Uint64Key(i), keyenc.Uint64Key(i)); err != nil {
				t.Fatal(err)
			}
		}
		chain := leafChain(t, tree)
		if len(chain) < 10 {
			t.Fatalf("only %d leaves", len(chain))
		}
		for i, p := range chain[:len(chain)-1] {
			if fill := 1 - float64(p.FreeSpace())/page.MaxRecordSize; fill < 0.85 {
				t.Fatalf("leaf %d of %d is %.0f%% full after an ascending load, want at least 85%%", i, len(chain), 100*fill)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("random", func(t *testing.T) {
		const n = 2000
		tree := newTestTree(t, Config{MaxSlotsPerNode: 8})
		insert := func(k int) {
			if err := tree.Insert(nil, keyenc.Uint64Key(uint64(k)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		insert(n)
		known := map[page.ID]bool{}
		for _, k := range rand.New(rand.NewSource(3)).Perm(n) {
			insert(k)
			for _, p := range leafChain(t, tree) {
				if known[p.ID()] {
					continue
				}
				known[p.ID()] = true
				if p.Prev() == page.InvalidID {
					continue // the leftmost leaf, which a root raise created
				}
				left, err := tree.bp.Lookup(p.Prev())
				if err != nil {
					t.Fatal(err)
				}
				if l, r := left.Page().NumSlots(), p.NumSlots(); l < 4 || r < 4 {
					t.Fatalf("a random insert split a full leaf %d/%d; want 4/5 or 5/4", l, r)
				}
			}
		}
	})
	t.Run("end of inner leaf", func(t *testing.T) {
		tree := newTestTree(t, Config{MaxSlotsPerNode: 8})
		for i := uint64(0); i < 100; i++ {
			if err := tree.Insert(nil, keyenc.Uint64Key(10*i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		leaf := leafChain(t, tree)[0]
		if leaf.NumSlots() != 7 || leaf.Next() == page.InvalidID {
			t.Fatalf("the first leaf holds %d entries, want 7 and a right sibling", leaf.NumSlots())
		}
		lastKey, err := leafKeyAt(leaf, leaf.NumSlots()-1)
		if err != nil {
			t.Fatal(err)
		}
		last, _ := keyenc.DecodeUint64(lastKey)
		for _, k := range []uint64{last + 1, last + 2} {
			if err := tree.Insert(nil, keyenc.Uint64Key(k), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		right, err := tree.bp.Lookup(leaf.Next())
		if err != nil {
			t.Fatal(err)
		}
		if l, r := leaf.NumSlots(), right.Page().NumSlots(); l != 4 || r != 5 {
			t.Fatalf("an insert at the end of a full inner leaf split it %d/%d, want 4/5", l, r)
		}
	})
}

// TestAppendCaseAgainstMapModel drives latch-free sub-trees, as an MRBTree
// holds them, through a random mix of appends (a key past the largest one
// its sub-tree holds), random inserts, deletes of a sub-tree's last keys,
// overwrites, and SliceAt and Meld of the sub-trees, and checks them
// against a sorted model.  A stale append hint must never put a key
// anywhere but where a descent would: every sub-tree keeps exactly the
// model's keys of its range, in order, with valid separators.  Eight
// slots per node force splits and root raises throughout.  The test also
// checks that the append case is taken: most appends into a tree at
// least two levels high cost one buffer-pool fix, the leaf, where a
// descent costs the height.
func TestAppendCaseAgainstMapModel(t *testing.T) {
	const space = 1 << 16
	type part struct {
		lo   uint64 // inclusive lower bound; the next part's lo is the upper
		tree *Tree
	}
	for seed := int64(1); seed <= 12; seed++ {
		bp := bufferpool.New(bufferpool.Config{LatchStats: &latch.Stats{}, CSStats: &cs.Stats{}})
		cfg := Config{MaxSlotsPerNode: 8}
		parts := []part{{0, Create(bp, 1, cfg)}}
		var keys []uint64 // the model: every key present, ascending
		vals := map[uint64][]byte{}
		rng := rand.New(rand.NewSource(seed))
		hi := func(i int) uint64 {
			if i+1 < len(parts) {
				return parts[i+1].lo
			}
			return space
		}
		covering := func(k uint64) int {
			return sort.Search(len(parts), func(i int) bool { return parts[i].lo > k }) - 1
		}
		// last returns the position in keys of part i's largest key, or -1.
		last := func(i int) int {
			j := sort.Search(len(keys), func(j int) bool { return keys[j] >= hi(i) }) - 1
			if j < 0 || keys[j] < parts[i].lo {
				return -1
			}
			return j
		}
		insert := func(k uint64, step int) {
			t.Helper()
			v := []byte(fmt.Sprintf("v%d-%d", k, step))
			err := parts[covering(k)].tree.Insert(nil, keyenc.Uint64Key(k), v)
			if _, dup := vals[k]; dup {
				if !errors.Is(err, ErrDuplicateKey) {
					t.Fatalf("seed %d step %d: duplicate insert of %d returned %v", seed, step, k, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("seed %d step %d: insert %d: %v", seed, step, k, err)
			}
			keys = slices.Insert(keys, sort.Search(len(keys), func(j int) bool { return keys[j] > k }), k)
			vals[k] = v
		}
		check := func(step int) {
			t.Helper()
			for i, p := range parts {
				lo, hiKey := keyenc.Uint64Key(p.lo), keyenc.Uint64Key(hi(i))
				if err := p.tree.CheckInvariantsWithin(lo, hiKey); err != nil {
					t.Fatalf("seed %d step %d: part %d: %v", seed, step, i, err)
				}
				var got []uint64
				if err := p.tree.Ascend(nil, func(k, v []byte) bool {
					kv, _ := keyenc.DecodeUint64(k)
					if !bytes.Equal(v, vals[kv]) {
						t.Fatalf("seed %d step %d: key %d holds %q, want %q", seed, step, kv, v, vals[kv])
					}
					got = append(got, kv)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				from := sort.Search(len(keys), func(j int) bool { return keys[j] >= p.lo })
				to := sort.Search(len(keys), func(j int) bool { return keys[j] >= hi(i) })
				if want := keys[from:to]; !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: part [%d, %d) holds %d keys, the model %d", seed, step, p.lo, hi(i), len(got), len(want))
				}
			}
		}
		appends, oneFix := 0, 0
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 60: // append past the largest key of a part
				i := rng.Intn(len(parts))
				k := parts[i].lo
				if j := last(i); j >= 0 {
					k = keys[j] + 1 + uint64(rng.Intn(3))
				}
				if k >= hi(i) {
					continue
				}
				h, err := parts[i].tree.Height()
				if err != nil {
					t.Fatal(err)
				}
				f0 := bp.Stats().Fixes
				insert(k, step)
				if h >= 2 {
					appends++
					if bp.Stats().Fixes-f0 == 1 {
						oneFix++
					}
				}
			case r < 80: // a random insert, a duplicate now and then
				insert(uint64(rng.Intn(space)), step)
			case r < 85: // overwrite a present key
				if len(keys) == 0 {
					continue
				}
				k := keys[rng.Intn(len(keys))]
				v := []byte(fmt.Sprintf("put%d-%d", k, step))
				if err := parts[covering(k)].tree.Put(nil, keyenc.Uint64Key(k), v); err != nil {
					t.Fatal(err)
				}
				vals[k] = v
			case r < 95: // delete the last keys of a part
				i := rng.Intn(len(parts))
				for n := 1 + rng.Intn(3); n > 0; n-- {
					j := last(i)
					if j < 0 {
						break
					}
					k := keys[j]
					if ok, err := parts[i].tree.Delete(nil, keyenc.Uint64Key(k)); err != nil || !ok {
						t.Fatalf("seed %d step %d: delete %d: %v %v", seed, step, k, ok, err)
					}
					keys = slices.Delete(keys, j, j+1)
					delete(vals, k)
				}
			case r < 98: // slice a part
				k := uint64(1 + rng.Intn(space-1))
				i := covering(k)
				if parts[i].lo == k {
					continue
				}
				right, _, err := parts[i].tree.SliceAt(keyenc.Uint64Key(k))
				if err != nil {
					t.Fatal(err)
				}
				parts = slices.Insert(parts, i+1, part{k, right})
			default: // meld two neighbours
				if len(parts) < 2 {
					continue
				}
				i := rng.Intn(len(parts) - 1)
				merged, _, err := Meld(parts[i].tree, parts[i+1].tree, keyenc.Uint64Key(parts[i+1].lo))
				if err != nil {
					t.Fatal(err)
				}
				parts[i].tree = merged
				parts = slices.Delete(parts, i+1, i+2)
			}
			if step%250 == 0 {
				check(step)
			}
		}
		check(3000)
		if appends == 0 || 2*oneFix < appends {
			t.Fatalf("seed %d: %d of %d appends into trees of height 2 or more made one fix; want most", seed, oneFix, appends)
		}
	}
}

// TestSliceDropsAppendHint checks that SliceAt forgets the append case's
// hint.  After a slice the hinted leaf, the old rightmost, belongs to the
// sliced-off tree; a key past it inserted into the remaining tree (which
// the tree accepts mechanically, see TestSliceAt) must go where a descent
// puts it, the remaining tree's own rightmost leaf.
func TestSliceDropsAppendHint(t *testing.T) {
	tree := newTestTree(t, Config{MaxSlotsPerNode: 8})
	for i := uint64(0); i < 100; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	right, _, err := tree.SliceAt(keyenc.Uint64Key(50))
	if err != nil {
		t.Fatal(err)
	}
	past := keyenc.Uint64Key(1000)
	if err := tree.Insert(nil, past, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := tree.Search(nil, past); !found {
		t.Fatal("the key inserted into the remaining tree is not found there")
	}
	if n, _ := right.Count(nil); n != 50 {
		t.Fatalf("the sliced-off tree holds %d keys, want its 50", n)
	}
	for _, tr := range []*Tree{tree, right} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSliceMeldRoundTripsLeakNoPages slices a tree and melds the piece back
// 1,000 times, at keys that start leaves once the first round trip made
// them separators.  A slice that moves no leaf entry must allocate no leaf,
// or every round trip leaves an empty leaf behind and the tree grows
// without bound under a rebalancer that keeps moving one boundary.  The
// first round trips at each key may split a node per level of its path;
// after that the page count must not move.
func TestSliceMeldRoundTripsLeakNoPages(t *testing.T) {
	const n = 2000
	tree := newTestTree(t, Config{MaxSlotsPerNode: 8})
	for i := uint64(0); i < n; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(i), keyenc.Uint64Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	start := tree.bp.Stats().Resident
	height, err := tree.Height()
	if err != nil {
		t.Fatal(err)
	}
	cuts := []uint64{900, 1100, 1000, 901}
	settled := 0
	for i := 0; i < 1000; i++ {
		if i == 100 {
			settled = tree.bp.Stats().Resident
		}
		cut := keyenc.Uint64Key(cuts[i%len(cuts)])
		right, _, err := tree.SliceAt(cut)
		if err != nil {
			t.Fatalf("round trip %d: SliceAt: %v", i, err)
		}
		if tree, _, err = Meld(tree, right, cut); err != nil {
			t.Fatalf("round trip %d: Meld: %v", i, err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, _ := tree.Count(nil); got != n {
		t.Fatalf("%d entries after the round trips, want %d", got, n)
	}
	empty := 0
	for _, leaf := range leafChain(t, tree) {
		if leaf.NumSlots() == 0 {
			empty++
		}
	}
	if empty != 0 {
		t.Fatalf("%d empty leaves after 1,000 slice/meld round trips", empty)
	}
	if end := tree.bp.Stats().Resident; end > settled || end > start+len(cuts)*height {
		t.Fatalf("round trips grew the tree from %d pages to %d after 100 and %d after 1,000", start, settled, end)
	}
}
