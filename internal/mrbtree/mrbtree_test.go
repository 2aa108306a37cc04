package mrbtree

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"plp/internal/bufferpool"
	"plp/internal/cs"
	"plp/internal/keyenc"
	"plp/internal/latch"
)

func newPool() *bufferpool.Pool {
	return bufferpool.New(bufferpool.Config{LatchStats: &latch.Stats{}, CSStats: &cs.Stats{}})
}

func boundaries(max uint64, n int) [][]byte {
	var out [][]byte
	for i := 1; i < n; i++ {
		out = append(out, keyenc.Uint64Key(max*uint64(i)/uint64(n)+1))
	}
	return out
}

func newTree(t testing.TB, parts int, cfg Config) *Tree {
	t.Helper()
	tree, err := Create(newPool(), 1, cfg, boundaries(100000, parts)...)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestCreateValidation(t *testing.T) {
	bp := newPool()
	if _, err := Create(bp, 1, Config{}, keyenc.Uint64Key(10), keyenc.Uint64Key(5)); err == nil {
		t.Fatal("unsorted boundaries accepted")
	}
	tree, err := Create(bp, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumPartitions() != 1 {
		t.Fatal("boundary-less tree should have one partition")
	}
}

func TestInsertSearchAcrossPartitions(t *testing.T) {
	tree := newTree(t, 4, Config{MaxSlotsPerNode: 16})
	const n = 5000
	for i := 1; i <= n; i++ {
		key := keyenc.Uint64Key(uint64(i * 17 % 100000))
		_ = tree.Put(nil, key, keyenc.Uint64Key(uint64(i)))
	}
	count, err := tree.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("nothing inserted")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Routing must send each key to the partition covering it.
	for i := 0; i < tree.NumPartitions(); i++ {
		lo, hi, err := tree.PartitionBounds(i)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := tree.PartitionTree(i)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := sub.BoundaryCheck(lo, hi)
		if err != nil || !ok {
			t.Fatalf("partition %d violates bounds: %v", i, err)
		}
	}
}

func TestPartitionIndexFor(t *testing.T) {
	tree := newTree(t, 4, Config{})
	cases := []struct {
		key  uint64
		want int
	}{
		{1, 0}, {25000, 0}, {25001, 1}, {50000, 1}, {50001, 2}, {75001, 3}, {99999, 3},
	}
	for _, c := range cases {
		if got := tree.PartitionIndexFor(keyenc.Uint64Key(c.key)); got != c.want {
			t.Errorf("key %d routed to %d want %d", c.key, got, c.want)
		}
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	tree := newTree(t, 3, Config{})
	key := keyenc.Uint64Key(42)
	if err := tree.Insert(nil, key, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tree.Update(nil, key, []byte("b")); err != nil {
		t.Fatal(err)
	}
	v, found, _ := tree.Search(nil, key)
	if !found || string(v) != "b" {
		t.Fatalf("update lost: %q", v)
	}
	ok, err := tree.Delete(nil, key)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if _, found, _ := tree.Search(nil, key); found {
		t.Fatal("delete lost")
	}
}

func TestAscendRangeCrossesPartitions(t *testing.T) {
	tree := newTree(t, 4, Config{MaxSlotsPerNode: 8})
	for i := uint64(1); i <= 1000; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(i*97), keyenc.Uint64Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	var keys []uint64
	err := tree.AscendRange(nil, keyenc.Uint64Key(20000), keyenc.Uint64Key(80000), func(k, _ []byte) bool {
		v, _ := keyenc.DecodeUint64(k)
		keys = append(keys, v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("range scan returned nothing")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatal("range scan out of order across partitions")
		}
	}
	for _, k := range keys {
		if k < 20000 || k >= 80000 {
			t.Fatalf("key %d outside range", k)
		}
	}
}

func TestSliceAddsPartition(t *testing.T) {
	tree := newTree(t, 2, Config{MaxSlotsPerNode: 16})
	for i := uint64(1); i <= 4000; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(i*20), keyenc.Uint64Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := tree.Count(nil)
	idx, st, err := tree.Slice(keyenc.Uint64Key(30000))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("new partition index %d", idx)
	}
	if tree.NumPartitions() != 3 {
		t.Fatalf("partitions=%d", tree.NumPartitions())
	}
	if st.EntriesMoved == 0 || st.EntriesMoved > 200 {
		t.Fatalf("slice should move a boundary path's worth of entries, moved %d", st.EntriesMoved)
	}
	after, _ := tree.Count(nil)
	if before != after {
		t.Fatalf("entries lost by slice: %d -> %d", before, after)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Repartitions() != 1 {
		t.Fatal("repartition not counted")
	}
	// Slicing at an existing boundary is rejected.
	if _, _, err := tree.Slice(keyenc.Uint64Key(30000)); err == nil {
		t.Fatal("slice at existing boundary accepted")
	}
}

func TestMeldRemovesPartition(t *testing.T) {
	tree := newTree(t, 4, Config{MaxSlotsPerNode: 16})
	for i := uint64(1); i <= 5000; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(i*19), keyenc.Uint64Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := tree.Count(nil)
	if _, err := tree.Meld(1); err != nil {
		t.Fatal(err)
	}
	if tree.NumPartitions() != 3 {
		t.Fatalf("partitions=%d", tree.NumPartitions())
	}
	after, _ := tree.Count(nil)
	if before != after {
		t.Fatalf("entries lost by meld: %d -> %d", before, after)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Meld(7); err == nil {
		t.Fatal("meld of nonexistent partition accepted")
	}
}

func TestMoveBoundaryBothDirections(t *testing.T) {
	for _, dir := range []string{"left", "right"} {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			tree := newTree(t, 2, Config{MaxSlotsPerNode: 16})
			for i := uint64(1); i <= 6000; i++ {
				if err := tree.Insert(nil, keyenc.Uint64Key(i*16), keyenc.Uint64Key(i)); err != nil {
					t.Fatal(err)
				}
			}
			before, _ := tree.Count(nil)
			target := uint64(30000)
			if dir == "right" {
				target = 70000
			}
			st, err := tree.MoveBoundary(1, keyenc.Uint64Key(target))
			if err != nil {
				t.Fatal(err)
			}
			if st.EntriesMoved == 0 {
				t.Fatal("boundary move touched no entries")
			}
			after, _ := tree.Count(nil)
			if before != after {
				t.Fatalf("entries lost: %d -> %d", before, after)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			lo, _, _ := tree.PartitionBounds(1)
			if !bytes.Equal(lo, keyenc.Uint64Key(target)) {
				t.Fatalf("boundary not moved: %x", lo)
			}
			// The tree keeps accepting inserts afterwards.
			if err := tree.Insert(nil, keyenc.Uint64Key(target+3), []byte("x")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMoveBoundaryValidation(t *testing.T) {
	tree := newTree(t, 3, Config{})
	if _, err := tree.MoveBoundary(0, keyenc.Uint64Key(5)); err == nil {
		t.Fatal("moving the first partition's boundary should fail")
	}
	if _, err := tree.MoveBoundary(1, nil); err == nil {
		t.Fatal("empty boundary accepted")
	}
	if _, err := tree.MoveBoundary(1, keyenc.Uint64Key(99999)); err == nil {
		t.Fatal("boundary beyond the next partition accepted")
	}
}

func TestRoutingPageDurability(t *testing.T) {
	bp := newPool()
	cfg := Config{MaxSlotsPerNode: 16}
	tree, err := Create(bp, 7, cfg, boundaries(100000, 4)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2000; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(i*40), keyenc.Uint64Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := tree.Slice(keyenc.Uint64Key(12345)); err != nil {
		t.Fatal(err)
	}
	// Re-open from the routing page and verify all data is reachable.
	reopened, err := Open(bp, 7, tree.RoutingPage(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.NumPartitions() != tree.NumPartitions() {
		t.Fatalf("partition count lost: %d vs %d", reopened.NumPartitions(), tree.NumPartitions())
	}
	want, _ := tree.Count(nil)
	got, _ := reopened.Count(nil)
	if want != got {
		t.Fatalf("entries lost across reopen: %d vs %d", got, want)
	}
	for i := uint64(1); i <= 2000; i += 97 {
		if _, found, _ := reopened.Search(nil, keyenc.Uint64Key(i*40)); !found {
			t.Fatalf("key %d lost", i*40)
		}
	}
}

func TestHeightShrinksWithPartitions(t *testing.T) {
	// The same data in more partitions yields shallower sub-trees — the
	// effect behind the MRBTree's faster probes (Appendix B).
	load := func(parts int) int {
		tree := newTree(t, parts, Config{MaxSlotsPerNode: 8})
		for i := uint64(1); i <= 4000; i++ {
			if err := tree.Insert(nil, keyenc.Uint64Key(i*25), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		h, err := tree.Height()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	single := load(1)
	many := load(8)
	if many >= single {
		t.Fatalf("8-partition height %d not shallower than single-rooted %d", many, single)
	}
}

func TestConcurrentDisjointPartitionAccess(t *testing.T) {
	// PLP's access pattern: each worker only touches its own partition, with
	// latching disabled.  This must be race-free by construction.
	tree := newTree(t, 4, Config{Latched: false, MaxSlotsPerNode: 32})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lo := uint64(p*25000) + 1
			for i := uint64(0); i < 2000; i++ {
				key := keyenc.Uint64Key(lo + i)
				if err := tree.Put(nil, key, key); err != nil {
					t.Errorf("partition %d: %v", p, err)
					return
				}
				if _, found, err := tree.Search(nil, key); err != nil || !found {
					t.Errorf("partition %d readback: %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	n, err := tree.Count(nil)
	if err != nil || n != 8000 {
		t.Fatalf("count=%d err=%v", n, err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySliceMeldPreservesContents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := newTree(t, 2, Config{MaxSlotsPerNode: 8})
		model := map[uint64]bool{}
		for i := 0; i < 800; i++ {
			k := uint64(rng.Intn(99998) + 1)
			if err := tree.Put(nil, keyenc.Uint64Key(k), keyenc.Uint64Key(k)); err != nil {
				return false
			}
			model[k] = true
		}
		// Random repartitioning operations.
		for i := 0; i < 4; i++ {
			switch rng.Intn(2) {
			case 0:
				cut := uint64(rng.Intn(99000) + 500)
				_, _, _ = tree.Slice(keyenc.Uint64Key(cut))
			case 1:
				if tree.NumPartitions() > 1 {
					_, _ = tree.Meld(rng.Intn(tree.NumPartitions() - 1))
				}
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			return false
		}
		count, err := tree.Count(nil)
		if err != nil || count != len(model) {
			return false
		}
		for k := range model {
			if _, found, err := tree.Search(nil, keyenc.Uint64Key(k)); err != nil || !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndBoundaries(t *testing.T) {
	tree := newTree(t, 4, Config{MaxSlotsPerNode: 8})
	for i := uint64(1); i <= 1000; i++ {
		_ = tree.Insert(nil, keyenc.Uint64Key(i*90), []byte("v"))
	}
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions != 4 || st.Entries != 1000 || st.LeafPages == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if got := len(tree.Boundaries()); got != 3 {
		t.Fatalf("boundaries: %d", got)
	}
}

// TestRoutingDuringRepartition runs Search and Insert on the first
// partition while Slice, Meld and MoveBoundary repartition the others.
// Routing reads the published partition table without a lock, so under
// -race this checks that a writer never changes a table a reader holds.
// Repartitioning quiesces only the partitions it changes, so the readers
// keep to one it never touches.
func TestRoutingDuringRepartition(t *testing.T) {
	tree := newTree(t, 4, Config{Latched: true, MaxSlotsPerNode: 16})
	for i := uint64(1); i <= 100000; i += 50 {
		if err := tree.Insert(nil, keyenc.Uint64Key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := uint64(0); g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); !stop.Load(); i++ {
				key := keyenc.Uint64Key(2 + (g*7919+i*2)%24000)
				if err := tree.Put(nil, key, []byte("w")); err != nil {
					t.Error(err)
					return
				}
				if _, found, err := tree.Search(nil, keyenc.Uint64Key(1+50*(i%400))); err != nil || !found {
					t.Errorf("search: found=%v err=%v", found, err)
					return
				}
				if p := tree.PartitionIndexFor(key); p != 0 {
					t.Errorf("key %x routed to partition %d", key, p)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		idx, _, err := tree.Slice(keyenc.Uint64Key(60000 + uint64(i%50)*100 + 7))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tree.Meld(idx - 1); err != nil {
			t.Fatal(err)
		}
		to := uint64(49001)
		if i%2 == 1 {
			to = 50001
		}
		if _, err := tree.MoveBoundary(2, keyenc.Uint64Key(to)); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := tree.NumPartitions(); n != 4 {
		t.Fatalf("%d partitions after balanced slices and melds, want 4", n)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100000; i += 50 {
		if _, found, err := tree.Search(nil, keyenc.Uint64Key(i)); err != nil || !found {
			t.Fatalf("key %d lost across repartitioning: found=%v err=%v", i, found, err)
		}
	}
}
