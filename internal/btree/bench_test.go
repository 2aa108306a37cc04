package btree

import (
	"fmt"
	"testing"

	"plp/internal/bufferpool"
	"plp/internal/cs"
	"plp/internal/keyenc"
	"plp/internal/latch"
)

func benchTree(b *testing.B, latched bool, preload int) *Tree {
	b.Helper()
	bp := bufferpool.New(bufferpool.Config{LatchStats: &latch.Stats{}, CSStats: &cs.Stats{}})
	tree := Create(bp, 1, Config{Latched: latched})
	val := make([]byte, 64)
	for i := 0; i < preload; i++ {
		if err := tree.Insert(nil, keyenc.Uint64Key(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
	return tree
}

// BenchmarkSearch measures point probes with and without the latching
// protocol — the per-access overhead PLP removes.
func BenchmarkSearch(b *testing.B) {
	for _, latched := range []bool{true, false} {
		b.Run(fmt.Sprintf("latched=%v", latched), func(b *testing.B) {
			tree := benchTree(b, latched, 100000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, found, err := tree.Search(nil, keyenc.Uint64Key(uint64(i%100000))); err != nil || !found {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInsert measures sequential-key inserts (splits included).
func BenchmarkInsert(b *testing.B) {
	for _, latched := range []bool{true, false} {
		b.Run(fmt.Sprintf("latched=%v", latched), func(b *testing.B) {
			tree := benchTree(b, latched, 0)
			val := make([]byte, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tree.Insert(nil, keyenc.Uint64Key(uint64(i)), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcurrentSearch measures probe scalability under the shared
// latch protocol.
func BenchmarkConcurrentSearch(b *testing.B) {
	tree := benchTree(b, true, 100000)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, _, err := tree.Search(nil, keyenc.Uint64Key(uint64(i%100000))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSliceAt measures the MRBTree sub-tree split primitive.
func BenchmarkSliceAt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree := benchTree(b, false, 50000)
		b.StartTimer()
		if _, _, err := tree.SliceAt(keyenc.Uint64Key(25000)); err != nil {
			b.Fatal(err)
		}
	}
}
