package engine

import (
	"testing"

	"plp/internal/catalog"
	"plp/internal/keyenc"
)

// TestOrderedLoadLeafPages checks that a PLP-Leaf load in key order builds
// dense leaves: each sub-tree's appends split its rightmost leaf 90/10, so
// 20,000 rows take at most 0.6 times the 128 leaf pages that splitting
// every leaf 50/50 took.  Under PLP-Leaf each leaf owns the heap pages of
// its records, so the heap shrinks with the leaves.
func TestOrderedLoadLeafPages(t *testing.T) {
	const rows, halfSplitLeaves = 20000, 128
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
	tbl, err := e.Table("sub")
	if err != nil {
		t.Fatal(err)
	}
	st, err := tbl.Primary.Stats()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rows: %d leaf pages, %d heap pages", rows, st.LeafPages, tbl.Heap.NumPages())
	if st.Entries != rows {
		t.Fatalf("%d entries, want %d", st.Entries, rows)
	}
	if limit := 6 * halfSplitLeaves / 10; st.LeafPages > limit {
		t.Fatalf("an ordered load of %d rows took %d leaf pages, want at most %d (0.6 x %d)",
			rows, st.LeafPages, limit, halfSplitLeaves)
	}
}
