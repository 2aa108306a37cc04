package engine

import (
	"fmt"
	"sync"
	"testing"

	"plp/internal/keyenc"
)

// BenchmarkSingleSiteTxn measures a two-phase, three-read
// single-partition transaction dispatched through the single-site fast
// path (one queue operation, one completion signal, pooled scratch).  Run
// with -benchmem: allocs/op is the other half of the story.
func BenchmarkSingleSiteTxn(b *testing.B) {
	e := fastpathEngine(b, PLPLeaf)
	sess := e.NewSession()
	defer sess.Close()
	out := make([][]byte, 3)
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = singleSiteReadReq(uint64(1+(i*3)%900), out)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Execute(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleSiteUpdateTxn is the write-side companion: one update plus
// one read-back on a single partition, so the fast path is measured with
// logging and undo in the picture too.
func BenchmarkSingleSiteUpdateTxn(b *testing.B) {
	e := fastpathEngine(b, PLPLeaf)
	sess := e.NewSession()
	defer sess.Close()
	val := []byte("balance=100")
	reqs := make([]*Request, 64)
	for i := range reqs {
		k := keyenc.Uint64Key(uint64(1 + (i*2)%900))
		req := NewRequest(Action{Table: "t", Key: k, Exec: func(c *Ctx) error {
			return c.Update("t", k, val)
		}})
		req.AddPhase(Action{Table: "t", Key: k, Exec: func(c *Ctx) error {
			_, err := c.Read("t", k)
			return err
		}})
		reqs[i] = req
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Execute(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiSitePhase measures grouped per-partition dispatch: one
// phase of eight reads spread over two partitions ships as two batches
// (two channel operations).
func BenchmarkMultiSitePhase(b *testing.B) {
	e := fastpathEngine(b, PLPLeaf)
	sess := e.NewSession()
	defer sess.Close()
	var mu sync.Mutex
	sink := 0
	mkReq := func(i int) *Request {
		acts := make([]Action, 0, 8)
		for j := 0; j < 4; j++ {
			for _, base := range []uint64{1, 2101} { // partitions 0 and 2
				k := keyenc.Uint64Key(base + uint64((i*4+j)%900))
				acts = append(acts, Action{Table: "t", Key: k, Exec: func(c *Ctx) error {
					v, err := c.Read("t", k)
					mu.Lock()
					sink += len(v)
					mu.Unlock()
					return err
				}})
			}
		}
		return NewRequest(acts...)
	}
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = mkReq(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Execute(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	if sink == 0 {
		b.Fatal(fmt.Sprintf("no data read in %d iterations", b.N))
	}
}
