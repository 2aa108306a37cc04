package heap

import (
	"fmt"
	"testing"

	"plp/internal/bufferpool"
	"plp/internal/cs"
	"plp/internal/latch"
	"plp/internal/page"
)

func benchFile(mode AccessMode) *File {
	bp := bufferpool.New(bufferpool.Config{LatchStats: &latch.Stats{}, CSStats: &cs.Stats{}})
	return New(1, bp, mode, &cs.Stats{})
}

// BenchmarkInsert measures record insertion with and without heap-page
// latching (the PLP-Partition/Leaf fast path).
func BenchmarkInsert(b *testing.B) {
	for _, mode := range []AccessMode{Latched, LatchFree} {
		name := "latched"
		if mode == LatchFree {
			name = "latchfree"
		}
		b.Run(name, func(b *testing.B) {
			f := benchFile(mode)
			rec := make([]byte, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Insert(nil, 1, rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGet measures record fetch by RID.
func BenchmarkGet(b *testing.B) {
	for _, mode := range []AccessMode{Latched, LatchFree} {
		name := fmt.Sprintf("mode=%d", mode)
		b.Run(name, func(b *testing.B) {
			f := benchFile(mode)
			var rids []page.RID
			rec := make([]byte, 100)
			for i := 0; i < 10000; i++ {
				rid, err := f.Insert(nil, 1, rec)
				if err != nil {
					b.Fatal(err)
				}
				rids = append(rids, rid)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Get(nil, rids[i%len(rids)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
