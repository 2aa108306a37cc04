package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plp/internal/catalog"
	"plp/internal/keyenc"
	"plp/internal/latch"
	"plp/plan"
)

// TestScanChunkFixesAndAllocs is the count gate on the range-scan path: a
// chunk whose filter matches nothing must fix each heap page once per run
// of records on it, not once per record, and must allocate a bounded
// number of objects per chunk, not per record.  Both are counts, so the
// gate does not depend on the machine; the BENCH_JSON line adds the time
// per examined record for the record.
func TestScanChunkFixesAndAllocs(t *testing.T) {
	const rows = 8192
	e := New(Options{Design: PLPLeaf, Partitions: 4})
	t.Cleanup(func() { _ = e.Close() })
	boundaries := [][]byte{
		keyenc.Uint64Key(rows/4 + 1),
		keyenc.Uint64Key(rows/2 + 1),
		keyenc.Uint64Key(3*rows/4 + 1),
	}
	if _, err := e.CreateTable(catalog.TableDef{Name: "sub", Boundaries: boundaries}); err != nil {
		t.Fatal(err)
	}
	loadQueryRows(t, e, rows)
	// Balances are i%97, so no row matches.
	flt, err := plan.Int64Cmp(0, plan.CmpEq, -1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	chunk := func() ScanChunkResult {
		res, err := e.ScanChunk("sub", nil, nil, flt, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fixes0 := e.BufferPool().Stats().Fixes
	res := chunk()
	fixes := e.BufferPool().Stats().Fixes - fixes0
	if res.Scanned < 1000 || len(res.Entries) != 0 {
		t.Fatalf("chunk examined %d records and kept %d; want >= 1000 and none", res.Scanned, len(res.Entries))
	}
	if limit := uint64(res.Scanned / 8); fixes > limit {
		t.Fatalf("chunk over %d records fixed %d pages, want <= %d (one fix per heap page run, not per record)",
			res.Scanned, fixes, limit)
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() { chunk() })
	if allocs > 32 {
		t.Fatalf("chunk over %d records made %.1f allocations, want <= 32", res.Scanned, allocs)
	}
	start := time.Now()
	for i := 0; i < runs; i++ {
		chunk()
	}
	perRecord := float64(time.Since(start).Nanoseconds()) / float64(runs*res.Scanned)
	fmt.Printf("BENCH_JSON {\"benchmark\":\"scan_chunk\",\"design\":\"PLP-Leaf\",\"records_per_chunk\":%d,\"ns_per_record\":%.1f,\"fixes_per_record\":%.4f,\"allocs_per_record\":%.4f}\n",
		res.Scanned, perRecord, float64(fixes)/float64(res.Scanned), allocs/float64(res.Scanned))
	tatpScanChunkDatapoint(t)
}

// tatpScanChunkDatapoint reports the time per examined record of chunked
// scans shaped like TATP's filtered subscriber scan: 100-byte rows, eight
// partitions, and a 4-byte big-endian field compared against a threshold
// that keeps about 1% of the rows.  It gates only the result (every
// matching row, and no other, comes back); the time is reported.
func tatpScanChunkDatapoint(t *testing.T) {
	const (
		rows   = 1 << 16
		parts  = 8
		offset = 38 // where TATP's MSC location sits in a subscriber row
	)
	e := New(Options{Design: PLPLeaf, Partitions: parts})
	t.Cleanup(func() { _ = e.Close() })
	var boundaries [][]byte
	for p := uint64(1); p < parts; p++ {
		boundaries = append(boundaries, keyenc.Uint64Key(p*rows/parts+1))
	}
	if _, err := e.CreateTable(catalog.TableDef{Name: "sub", Boundaries: boundaries}); err != nil {
		t.Fatal(err)
	}
	const threshold = uint32(1<<32/100 + 1)
	l := e.NewLoader()
	rng := rand.New(rand.NewSource(1))
	matching := 0
	for i := uint64(1); i <= rows; i++ {
		row := make([]byte, 100)
		rng.Read(row)
		if binary.BigEndian.Uint32(row[offset:]) < threshold {
			matching++
		}
		if err := l.Insert("sub", keyenc.Uint64Key(i), row); err != nil {
			t.Fatal(err)
		}
	}
	var arg [4]byte
	binary.BigEndian.PutUint32(arg[:], threshold)
	flt, err := plan.FieldCmp(offset, 4, plan.CmpLt, arg[:]).Compile()
	if err != nil {
		t.Fatal(err)
	}
	scan := func() (examined, kept, chunks int) {
		var cursor []byte
		for {
			res, err := e.ScanChunk("sub", cursor, nil, flt, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			examined, kept, chunks = examined+res.Scanned, kept+len(res.Entries), chunks+1
			if res.Done {
				return examined, kept, chunks
			}
			cursor = res.Next
		}
	}
	examined, kept, chunks := scan()
	if examined != rows || kept != matching {
		t.Fatalf("TATP-shaped scan examined %d rows and kept %d; want %d and %d", examined, kept, rows, matching)
	}
	const runs = 10
	start := time.Now()
	for i := 0; i < runs; i++ {
		scan()
	}
	perRecord := float64(time.Since(start).Nanoseconds()) / float64(runs*rows)
	fmt.Printf("BENCH_JSON {\"benchmark\":\"scan_chunk\",\"shape\":\"tatp\",\"design\":\"PLP-Leaf\",\"rows\":%d,\"row_bytes\":100,\"partitions\":%d,\"chunks\":%d,\"kept_frac\":%.4f,\"ns_per_record\":%.1f}\n",
		rows, parts, chunks, float64(kept)/float64(rows), perRecord)
}

// versionedRecord is a record whose eight 8-byte words all hold the same
// version, so a record read half before and half after an update shows
// mismatched words.
func versionedRecord(version uint64) []byte {
	rec := make([]byte, 64)
	for off := 0; off < len(rec); off += 8 {
		binary.BigEndian.PutUint64(rec[off:], version)
	}
	return rec
}

// checkWholeVersion reports whether rec is one version, written whole.
func checkWholeVersion(rec []byte) error {
	if len(rec) != 64 {
		return fmt.Errorf("record of %d bytes, want 64", len(rec))
	}
	v := binary.BigEndian.Uint64(rec)
	for off := 8; off < len(rec); off += 8 {
		if w := binary.BigEndian.Uint64(rec[off:]); w != v {
			return fmt.Errorf("torn record: word 0 is version %d, word %d is version %d", v, off/8, w)
		}
	}
	return nil
}

// TestLatchedScanConcurrentUpdates runs range scans on the latched designs
// while sessions update the rows being scanned.  Scans hand out records in
// place, so this is what the heap page latch must protect: every visited
// record must be one whole version, and the run must be clean under -race.
// A scan with no writers must take exactly one heap latch per record
// visited — the per-record count the paper's Figure 3 attributes to heap
// pages.
func TestLatchedScanConcurrentUpdates(t *testing.T) {
	const rows = 2000
	for _, design := range []Design{Conventional, Logical} {
		t.Run(design.String(), func(t *testing.T) {
			e := newTestEngine(t, testOptions(design))
			l := e.NewLoader()
			for i := 1; i <= rows; i++ {
				if err := l.Insert("t", keyenc.Uint64Key(uint64(i)), versionedRecord(0)); err != nil {
					t.Fatal(err)
				}
			}

			// Quiet scan: one heap latch per record visited.
			before := e.LatchStats().Snapshot()
			st, err := e.ScanRange("t", nil, nil, 0, func(_ int, _, rec []byte) {
				if err := checkWholeVersion(rec); err != nil {
					t.Error(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			heapLatches := e.LatchStats().Snapshot().Sub(before).Acquired[latch.KindHeap]
			if st.Records != rows || heapLatches != uint64(st.Records) {
				t.Fatalf("quiet scan visited %d records (want %d) with %d heap latches, want one per record",
					st.Records, rows, heapLatches)
			}

			var stop atomic.Bool
			var updates atomic.Int64
			var wg sync.WaitGroup
			errCh := make(chan error, 8)
			t.Cleanup(func() { stop.Store(true); wg.Wait() })
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sess := e.NewSession()
					defer sess.Close()
					for v := uint64(1); !stop.Load(); v++ {
						key := keyenc.Uint64Key(uint64(1 + (int(v)*7+w*997)%rows))
						rec := versionedRecord(v)
						a := Action{Table: "t", Key: key, Exec: func(c *Ctx) error {
							return c.Update("t", key, rec)
						}}
						if _, err := sess.Execute(NewRequest(a)); err != nil {
							errCh <- fmt.Errorf("update: %w", err)
							return
						}
						updates.Add(1)
					}
				}(w)
			}
			var visited atomic.Int64
			var torn atomic.Value
			check := func(rec []byte) {
				visited.Add(1)
				if err := checkWholeVersion(rec); err != nil {
					torn.CompareAndSwap(nil, err)
				}
			}
			// Scan until the writers have made progress during the scans:
			// at least five rounds, and at least 200 updates after the
			// first round starts.
			for updates.Load() == 0 && len(errCh) == 0 {
				time.Sleep(time.Millisecond)
			}
			from := updates.Load()
			rounds := 0
			for ; rounds < 5 || (updates.Load()-from < 200 && len(errCh) == 0 && rounds < 1000); rounds++ {
				if err := l.ReadRange("t", nil, nil, func(_, rec []byte) bool {
					check(rec)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if _, err := e.ScanRange("t", nil, nil, 0, func(_ int, _, rec []byte) {
					check(rec)
				}); err != nil {
					t.Fatal(err)
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			if err, _ := torn.Load().(error); err != nil {
				t.Fatal(err)
			}
			if got, want := visited.Load(), int64(2*rounds*rows); got != want {
				t.Fatalf("%d scans under updates visited %d records, want %d", 2*rounds, got, want)
			}
			t.Logf("%d scans ran under %d concurrent updates", 2*rounds, updates.Load()-from)
		})
	}
}
