package engine

import (
	"runtime"
	"testing"

	"plp/internal/catalog"
	"plp/internal/keyenc"
)

// TestOrderedLoadAppends is the count gate on the load path: 20,000
// ascending Loader.Inserts into a 4-partition PLP-Leaf heap table take the
// append case of each sub-tree, so a row costs two buffer-pool fixes (the
// sub-tree's rightmost leaf and the heap page the record goes on) and no
// heap allocation.  A full descent per row would cost the sub-tree's
// height again, and a second fix of the heap page one more.  Splits add a
// descent every few hundred rows, and new pages allocate; both are spread
// over the rows, so the bounds are per row on average.  The counts do not
// depend on the machine.
func TestOrderedLoadAppends(t *testing.T) {
	const rows = 20000
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
	keys, recs := make([][]byte, rows), make([][]byte, rows)
	for i := range keys {
		keys[i] = keyenc.Uint64Key(uint64(i + 1))
		recs[i] = rowValue(int64(i%97), uint64(i+1))
	}
	l := e.NewLoader()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f0 := e.BufferPool().Stats().Fixes
	for i := range keys {
		if err := l.Insert("sub", keys[i], recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	fixes := float64(e.BufferPool().Stats().Fixes-f0) / rows
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / rows
	t.Logf("%d ascending rows: %.3f buffer-pool fixes and %.3f allocations per row", rows, fixes, allocs)
	if fixes > 2.05 {
		t.Errorf("an ascending load made %.3f buffer-pool fixes per row, want at most 2 plus splits (2.05)", fixes)
	}
	if !raceEnabled && allocs >= 0.5 {
		t.Errorf("an ascending load made %.3f allocations per row, want 0 (below 0.5)", allocs)
	}
	tbl, err := e.Table("sub")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tbl.Primary.Count(nil); err != nil || n != rows {
		t.Fatalf("primary index holds %d entries (%v), want %d", n, err, rows)
	}
	if err := tbl.Primary.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
