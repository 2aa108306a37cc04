package catalog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"plp/internal/bufferpool"
	"plp/internal/cs"
	"plp/internal/heap"
	"plp/internal/keyenc"
	"plp/internal/latch"
	"plp/internal/page"
)

func testResources() Resources {
	cstats := &cs.Stats{}
	return Resources{
		BufferPool:   bufferpool.New(bufferpool.Config{LatchStats: &latch.Stats{}, CSStats: cstats}),
		CSStats:      cstats,
		IndexLatched: true,
		HeapMode:     heap.Latched,
	}
}

func TestCreateTableAndLookup(t *testing.T) {
	c := New(&cs.Stats{})
	res := testResources()
	def := TableDef{
		Name:       "accounts",
		Boundaries: [][]byte{keyenc.Uint64Key(500)},
		Secondaries: []SecondaryDef{
			{Name: "by_name", PartitionAligned: false},
			{Name: "by_region", PartitionAligned: true},
		},
	}
	tbl, err := c.CreateTable(def, res)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Primary == nil || tbl.Heap == nil {
		t.Fatal("storage objects missing")
	}
	if tbl.Primary.NumPartitions() != 2 {
		t.Fatalf("primary partitions=%d", tbl.Primary.NumPartitions())
	}
	aligned, err := tbl.Secondary("by_region")
	if err != nil {
		t.Fatal(err)
	}
	if aligned.NumPartitions() != 2 {
		t.Fatal("partition-aligned secondary should follow the table's boundaries")
	}
	unaligned, err := tbl.Secondary("by_name")
	if err != nil {
		t.Fatal(err)
	}
	if unaligned.NumPartitions() != 1 {
		t.Fatal("non-aligned secondary should stay single-rooted")
	}
	if _, err := tbl.Secondary("missing"); !errors.Is(err, ErrNoSuchIndex) {
		t.Fatalf("missing secondary: %v", err)
	}

	got, err := c.Table("accounts")
	if err != nil || got != tbl {
		t.Fatalf("lookup failed: %v", err)
	}
	if _, err := c.Table("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatal("unknown table lookup should fail")
	}
	if c.NumTables() != 1 || len(c.Tables()) != 1 {
		t.Fatal("table registry wrong")
	}
}

func TestDuplicateTableRejected(t *testing.T) {
	c := New(&cs.Stats{})
	res := testResources()
	if _, err := c.CreateTable(TableDef{Name: "t"}, res); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable(TableDef{Name: "t"}, res); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate accepted: %v", err)
	}
}

func TestClusteredTableHasNoHeap(t *testing.T) {
	c := New(&cs.Stats{})
	tbl, err := c.CreateTable(TableDef{Name: "clustered", Clustered: true}, testResources())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Heap != nil {
		t.Fatal("clustered table should not allocate a heap file")
	}
}

func TestMissingResourcesRejected(t *testing.T) {
	c := New(&cs.Stats{})
	if _, err := c.CreateTable(TableDef{Name: "x"}, Resources{}); !errors.Is(err, ErrNilResources) {
		t.Fatalf("expected ErrNilResources, got %v", err)
	}
}

func TestTableIDsAreDistinct(t *testing.T) {
	c := New(&cs.Stats{})
	res := testResources()
	a, _ := c.CreateTable(TableDef{Name: "a"}, res)
	b, _ := c.CreateTable(TableDef{Name: "b"}, res)
	if a.ID == b.ID {
		t.Fatal("table IDs collide")
	}
}

// TestAscendRecords checks that a range scan resolves primary-index values
// to records on both storage layouts: RIDs through the heap on a plain
// table, the values themselves on a clustered one.
func TestAscendRecords(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		c := New(&cs.Stats{})
		tbl, err := c.CreateTable(TableDef{
			Name:       "t",
			Boundaries: [][]byte{keyenc.Uint64Key(50)},
			Clustered:  clustered,
		}, testResources())
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 100; i++ {
			v := []byte(fmt.Sprintf("row-%d", i))
			if !clustered {
				rid, err := tbl.Heap.Insert(nil, heap.SharedOwner, v)
				if err != nil {
					t.Fatal(err)
				}
				v = page.EncodeRID(rid)
			}
			if err := tbl.Primary.Insert(nil, keyenc.Uint64Key(i), v); err != nil {
				t.Fatal(err)
			}
		}
		next := uint64(40)
		err = tbl.AscendRecords(nil, keyenc.Uint64Key(40), keyenc.Uint64Key(60), func(k, rec []byte) bool {
			id, derr := keyenc.DecodeUint64(k)
			if derr != nil || id != next {
				t.Fatalf("clustered=%v: key %d (%v), want %d", clustered, id, derr, next)
			}
			if want := fmt.Sprintf("row-%d", id); string(rec) != want {
				t.Fatalf("clustered=%v: record %q, want %q", clustered, rec, want)
			}
			next++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != 60 {
			t.Fatalf("clustered=%v: scan stopped at %d, want 60", clustered, next)
		}
	}
}

// TestTableLookupsDuringCreate looks tables up from several goroutines
// while another creates more: lookups take no lock, so every table must be
// found once CreateTable has returned it, and the run must be clean under
// -race.
func TestTableLookupsDuringCreate(t *testing.T) {
	c := New(&cs.Stats{})
	res := testResources()
	if _, err := c.CreateTable(TableDef{Name: "t0"}, res); err != nil {
		t.Fatal(err)
	}
	const tables = 20
	var created atomic.Int32
	created.Store(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for created.Load() < tables {
				n := int(created.Load())
				for i := 0; i < n; i++ {
					if _, err := c.Table(fmt.Sprintf("t%d", i)); err != nil {
						t.Errorf("table t%d after its creation: %v", i, err)
						return
					}
				}
				if len(c.Tables()) < n || c.NumTables() < n {
					t.Errorf("fewer than %d tables listed", n)
					return
				}
			}
		}()
	}
	for i := 1; i < tables; i++ {
		if _, err := c.CreateTable(TableDef{Name: fmt.Sprintf("t%d", i)}, res); err != nil {
			t.Error(err)
			break
		}
		created.Add(1)
	}
	created.Store(tables) // stops the readers on every path
	wg.Wait()
	if _, err := c.Table("missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("lookup of a missing table: %v", err)
	}
}
