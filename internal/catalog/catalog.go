// Package catalog holds table metadata and the storage objects behind each
// table: the primary MRBTree index, the heap file with the non-clustered
// records, and any secondary indexes.
//
// The catalog is deliberately design-agnostic: the same loaded database can
// be served by the conventional, logically-partitioned or PLP engines, which
// differ only in how they route work and whether accesses latch (the storage
// objects expose both behaviours).
package catalog

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"plp/internal/bufferpool"
	"plp/internal/cs"
	"plp/internal/heap"
	"plp/internal/mrbtree"
	"plp/internal/page"
	"plp/internal/txn"
)

// Errors returned by the catalog.
var (
	ErrTableExists  = errors.New("catalog: table already exists")
	ErrNoSuchTable  = errors.New("catalog: no such table")
	ErrNoSuchIndex  = errors.New("catalog: no such secondary index")
	ErrNilResources = errors.New("catalog: missing storage resources")
)

// SecondaryDef describes a secondary index.
type SecondaryDef struct {
	// Name of the index, unique within the table.
	Name string
	// PartitionAligned reports whether the index key embeds the table's
	// partitioning columns, in which case the index can itself be
	// partitioned and managed by the partition-owning threads.
	// Non-partition-aligned indexes are accessed as in a conventional
	// system (latched, single-rooted) and their leaf entries carry the
	// partitioning fields (Section 3.1 / Appendix E).
	PartitionAligned bool
}

// TableDef describes a table to be created.
type TableDef struct {
	// Name of the table.
	Name string
	// Boundaries are the partition boundaries of the primary index.  An
	// empty slice creates a single partition (conventional behaviour).
	Boundaries [][]byte
	// Clustered stores records directly in the primary index leaves; no
	// heap file is allocated.
	Clustered bool
	// Secondaries lists the table's secondary indexes.
	Secondaries []SecondaryDef
}

// Resources are the storage-manager services a table is built on.
type Resources struct {
	BufferPool *bufferpool.Pool
	CSStats    *cs.Stats
	// IndexLatched selects the latching protocol of the primary index and
	// of partition-aligned secondary indexes.
	IndexLatched bool
	// HeapMode selects heap-page latching.
	HeapMode heap.AccessMode
	// MaxSlotsPerNode artificially limits index fan-out (tests only).
	MaxSlotsPerNode int
}

// Table is a created table together with its storage objects.
type Table struct {
	ID  uint32
	Def TableDef

	// Primary is the primary index.  Non-clustered tables store RIDs in it;
	// clustered tables store the records themselves.
	Primary *mrbtree.Tree
	// Heap holds the records of non-clustered tables (nil when clustered).
	Heap *heap.File
	// Secondaries maps index name to the secondary index structure.
	Secondaries map[string]*mrbtree.Tree
}

// Secondary returns the named secondary index.
func (t *Table) Secondary(name string) (*mrbtree.Tree, error) {
	idx, ok := t.Secondaries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchIndex, t.Def.Name, name)
	}
	return idx, nil
}

// AscendRecords visits, in key order, every record with lo <= key < hi (nil
// bounds are open), resolving each primary-index value to its record: the
// value itself on a clustered table, the heap record its RID names
// otherwise.  Heap records are read through one heap.Reader, so a scan
// fixes each heap page once per run of consecutive records on it.  Per
// record the scan decodes the RID, reads the record in place (with no latch
// call in LatchFree heap mode) and calls fn once; hi is checked once per
// index leaf, not per record (see btree.Tree.AscendRange).  key and
// rec point into pinned pages and are valid only until fn returns; fn must
// not modify them and copies what it keeps.  In Latched heap mode the
// record's page latch is held while fn runs, so fn must not write to the
// table.
func (t *Table) AscendRecords(tx *txn.Txn, lo, hi []byte, fn func(key, rec []byte) bool) error {
	if t.Def.Clustered {
		return t.Primary.AscendRange(tx, lo, hi, fn)
	}
	r := t.Heap.NewReader(tx)
	defer r.Close()
	var innerErr error
	err := t.Primary.AscendRange(tx, lo, hi, func(k, v []byte) bool {
		rid, err := page.DecodeRID(v)
		if err != nil {
			innerErr = err
			return false
		}
		rec, err := r.Get(rid)
		if err != nil {
			innerErr = err
			return false
		}
		more := fn(k, rec)
		r.Release()
		return more
	})
	if err != nil {
		return err
	}
	return innerErr
}

// Catalog is the table registry.  Every data access looks its table up by
// name, and the set of tables does not change after set-up, so lookups read
// an immutable map through an atomic pointer and take no lock; CreateTable
// copies the map under mu and publishes the copy.
type Catalog struct {
	mu     sync.Mutex // serializes CreateTable and ResetStorage
	tables atomic.Pointer[map[string]*Table]
	nextID uint32
	cst    *cs.Stats
}

// New returns an empty catalog.
func New(cstats *cs.Stats) *Catalog {
	c := &Catalog{cst: cstats}
	c.tables.Store(&map[string]*Table{})
	return c
}

// CreateTable creates the storage objects for def and registers the table.
func (c *Catalog) CreateTable(def TableDef, res Resources) (*Table, error) {
	if res.BufferPool == nil {
		return nil, ErrNilResources
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cst.Record(cs.Metadata, false)
	old := *c.tables.Load()
	if _, ok := old[def.Name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, def.Name)
	}
	c.nextID++
	id := c.nextID * 16 // leave space for per-table index ids

	cfg := mrbtree.Config{
		Latched:         res.IndexLatched,
		MaxSlotsPerNode: res.MaxSlotsPerNode,
		CSStats:         res.CSStats,
	}
	primary, err := mrbtree.Create(res.BufferPool, id, cfg, def.Boundaries...)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:          id,
		Def:         def,
		Primary:     primary,
		Secondaries: make(map[string]*mrbtree.Tree),
	}
	if !def.Clustered {
		tbl.Heap = heap.New(id+1, res.BufferPool, res.HeapMode, res.CSStats)
	}
	for i, sec := range def.Secondaries {
		secCfg := cfg
		var bounds [][]byte
		if sec.PartitionAligned {
			bounds = def.Boundaries
		} else {
			// Non-partition-aligned indexes stay single-rooted and latched
			// regardless of the engine design.
			secCfg.Latched = true
		}
		idx, err := mrbtree.Create(res.BufferPool, id+2+uint32(i), secCfg, bounds...)
		if err != nil {
			return nil, err
		}
		tbl.Secondaries[sec.Name] = idx
	}
	tables := maps.Clone(old)
	tables[def.Name] = tbl
	c.tables.Store(&tables)
	return tbl, nil
}

// ResetStorage replaces every table's storage objects with freshly created,
// empty ones — same object IDs, same partition boundaries as the live trees
// carry right now (rebalancing may have moved them off the definition), so
// routing tables layered above stay valid without change.  The *Table
// pointers survive; only the structures beneath them are swapped, which
// keeps references held by engines and sessions working.  The old pages
// remain allocated in the buffer pool: one superseded copy per reset, the
// accepted cost of rebuilding in place (snapshot re-seed).  The caller must
// exclude all concurrent access for the duration.
func (c *Catalog) ResetStorage(res Resources) error {
	if res.BufferPool == nil {
		return ErrNilResources
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg := mrbtree.Config{
		Latched:         res.IndexLatched,
		MaxSlotsPerNode: res.MaxSlotsPerNode,
		CSStats:         res.CSStats,
	}
	for _, tbl := range *c.tables.Load() {
		primary, err := mrbtree.Create(res.BufferPool, tbl.ID, cfg, tbl.Primary.Boundaries()...)
		if err != nil {
			return fmt.Errorf("catalog: resetting %s primary: %w", tbl.Def.Name, err)
		}
		heapFile := tbl.Heap
		if !tbl.Def.Clustered {
			heapFile = heap.New(tbl.ID+1, res.BufferPool, res.HeapMode, res.CSStats)
		}
		secs := make(map[string]*mrbtree.Tree, len(tbl.Secondaries))
		for i, sec := range tbl.Def.Secondaries {
			secCfg := cfg
			old, ok := tbl.Secondaries[sec.Name]
			if !ok {
				return fmt.Errorf("%w: %s.%s", ErrNoSuchIndex, tbl.Def.Name, sec.Name)
			}
			if !sec.PartitionAligned {
				secCfg.Latched = true
			}
			idx, err := mrbtree.Create(res.BufferPool, tbl.ID+2+uint32(i), secCfg, old.Boundaries()...)
			if err != nil {
				return fmt.Errorf("catalog: resetting %s.%s: %w", tbl.Def.Name, sec.Name, err)
			}
			secs[sec.Name] = idx
		}
		tbl.Primary, tbl.Heap, tbl.Secondaries = primary, heapFile, secs
	}
	return nil
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := (*c.tables.Load())[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// Tables returns every registered table.
func (c *Catalog) Tables() []*Table {
	tables := *c.tables.Load()
	out := make([]*Table, 0, len(tables))
	for _, t := range tables {
		out = append(out, t)
	}
	return out
}

// NumTables returns the number of registered tables.
func (c *Catalog) NumTables() int {
	return len(*c.tables.Load())
}
