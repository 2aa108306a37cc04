package engine

import (
	"testing"

	"plp/internal/catalog"
	"plp/internal/keyenc"
	"plp/plan"
)

// TestReadModifyWriteOneDescent is the count gate on the read-modify-write
// path of a heap table: a field increment locates its record once — one
// primary-index descent and one heap read, exactly what a Get of the same
// key costs — and then writes it back over the same RID, which is one more
// buffer-pool fix.  Locating the record a second time to update it would
// cost another descent and another heap read.  The counts do not depend on
// the machine.
func TestReadModifyWriteOneDescent(t *testing.T) {
	const rows = 4096
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
	sess := e.NewSession()
	defer sess.Close()
	key := keyenc.Uint64Key(rows / 3)
	fixes := func(p *plan.Plan) uint64 {
		t.Helper()
		f0 := e.BufferPool().Stats().Fixes
		res, err := sess.ExecutePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		if !res[0].Found {
			t.Fatalf("plan found no record under %x", key)
		}
		return e.BufferPool().Stats().Fixes - f0
	}
	get := plan.New().Get("sub", key).MustBuild()
	add := plan.New().AddFieldInt64("sub", key, 0, 1).MustBuild()
	fixes(get) // compile both shapes once, so the plan cache is warm
	fixes(add)

	getFixes, addFixes := fixes(get), fixes(add)
	if getFixes < 2 {
		t.Fatalf("a Get made %d fixes; want at least an index leaf and a heap page", getFixes)
	}
	if addFixes != getFixes+1 {
		t.Fatalf("AddFieldInt64 made %d buffer-pool fixes, a Get of the same key %d: want exactly one more (the heap write)",
			addFixes, getFixes)
	}
}

// TestInsertOneDescent is the count gate on PLP-Leaf's insert path: the
// primary-index insert of a fresh key hands the leaf it reached to the heap
// placement, so the insert descends the index once.  It costs what a Get
// of the neighbouring key costs (one descent and one heap read), give or
// take the heap page: the placement's room check and write, or one write
// to a page it allocates.  Descending once more to find the owning leaf
// would cost the tree's height again.  The counts do not depend on the
// machine.
func TestInsertOneDescent(t *testing.T) {
	const rows = 4096
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
	sess := e.NewSession()
	defer sess.Close()
	fixes := func(p *plan.Plan) uint64 {
		t.Helper()
		f0 := e.BufferPool().Stats().Fixes
		if _, err := sess.ExecutePlan(p); err != nil {
			t.Fatal(err)
		}
		return e.BufferPool().Stats().Fixes - f0
	}
	// Keys between two loaded ones: the loaded key with one byte appended.
	near := keyenc.Uint64Key(rows / 3)
	fresh := func(b byte) []byte { return append(append([]byte(nil), near...), b) }
	get := plan.New().Get("sub", near).MustBuild()
	fixes(get) // compile both shapes once, so the plan cache is warm
	fixes(plan.New().Insert("sub", fresh(1), rowValue(1, 1)).MustBuild())

	getFixes := fixes(get)
	insFixes := fixes(plan.New().Insert("sub", fresh(2), rowValue(2, 2)).MustBuild())
	if getFixes < 2 {
		t.Fatalf("a Get made %d fixes; want at least an index leaf and a heap page", getFixes)
	}
	if insFixes < getFixes || insFixes > getFixes+1 {
		t.Fatalf("a fresh-key Insert made %d buffer-pool fixes, a Get of the neighbouring key %d: want %d or %d (one index descent)",
			insFixes, getFixes, getFixes, getFixes+1)
	}
}
