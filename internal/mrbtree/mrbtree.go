// Package mrbtree implements the multi-rooted B+Tree (MRBTree), the access
// method at the heart of physiological partitioning (Section 3.1 and
// Appendix A of the paper).
//
// An MRBTree replaces the single root of a conventional B+Tree with a
// partition table that maps disjoint, contiguous key ranges to independent
// sub-trees.  The partition table is cached in memory as a sorted ranges
// slice and persisted on a routing page; each sub-tree is an ordinary
// B+Tree (package btree) with its own root and its own SMO serialization,
// which is what allows structure modifications to proceed in parallel
// across partitions.
//
// Repartitioning uses the Slice and Meld sub-tree operations: both touch
// only the pages on one boundary path, so even large re-balancing moves
// almost no data (Table 1 of the paper).
package mrbtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"plp/internal/btree"
	"plp/internal/bufferpool"
	"plp/internal/cs"
	"plp/internal/page"
	"plp/internal/txn"
	"plp/internal/wal"
)

// Errors returned by MRBTree operations.
var (
	ErrNoPartitions  = errors.New("mrbtree: tree has no partitions")
	ErrBadBoundary   = errors.New("mrbtree: invalid partition boundary")
	ErrNoSuchPart    = errors.New("mrbtree: no such partition")
	ErrNotAdjacent   = errors.New("mrbtree: partitions are not adjacent")
	ErrBoundaryOrder = errors.New("mrbtree: boundaries must be strictly increasing")
)

// Config configures an MRBTree.
type Config struct {
	// Latched selects the conventional latching protocol for sub-tree
	// pages.  PLP partition workers use Latched == false.
	Latched bool
	// MaxSlotsPerNode artificially limits node fan-out (tests only).
	MaxSlotsPerNode int
	// CSStats receives critical-section accounting (may be nil).
	CSStats *cs.Stats
	// Log receives SMO and repartition records (may be nil).
	Log wal.Log
}

// Partition is one key range of the MRBTree together with its sub-tree.
type Partition struct {
	// Start is the inclusive lower bound of the partition's key range.  The
	// first partition has a nil Start ("minus infinity").
	Start []byte
	// Tree is the sub-tree holding the partition's entries.
	Tree *btree.Tree
}

// Tree is a multi-rooted B+Tree.
type Tree struct {
	bp  *bufferpool.Pool
	id  uint32
	cfg Config

	mu      sync.RWMutex
	parts   []Partition
	routing page.ID

	repartitions uint64
}

// Create builds an MRBTree with the given partition boundaries.  boundaries
// must be strictly increasing; len(boundaries)+1 partitions are created.
// Passing no boundaries creates a single-partition MRBTree, which behaves
// exactly like a conventional B+Tree (and is how the baseline systems are
// configured).
func Create(bp *bufferpool.Pool, id uint32, cfg Config, boundaries ...[]byte) (*Tree, error) {
	for i := 1; i < len(boundaries); i++ {
		if bytes.Compare(boundaries[i-1], boundaries[i]) >= 0 {
			return nil, ErrBoundaryOrder
		}
	}
	t := &Tree{bp: bp, id: id, cfg: cfg}

	starts := make([][]byte, 0, len(boundaries)+1)
	starts = append(starts, nil)
	starts = append(starts, boundaries...)
	for _, s := range starts {
		sub := btree.Create(bp, id, t.subConfig())
		t.parts = append(t.parts, Partition{Start: append([]byte(nil), s...), Tree: sub})
	}
	// The first partition's Start must be nil, not an empty non-nil slice.
	t.parts[0].Start = nil

	rf := bp.NewPage(page.KindRouting)
	t.routing = rf.Page().ID()
	rf.Page().SetOwner(uint64(id))
	bp.Unfix(rf)
	if err := t.writeRoutingPage(); err != nil {
		return nil, err
	}
	return t, nil
}

// subConfig returns the btree configuration shared by all sub-trees.
func (t *Tree) subConfig() btree.Config {
	return btree.Config{
		Latched:         t.cfg.Latched,
		MaxSlotsPerNode: t.cfg.MaxSlotsPerNode,
		CSStats:         t.cfg.CSStats,
		Log:             t.cfg.Log,
	}
}

// ID returns the index space id.
func (t *Tree) ID() uint32 { return t.id }

// RoutingPage returns the page ID of the durable routing page.
func (t *Tree) RoutingPage() page.ID { return t.routing }

// SetLatched switches the latching protocol of every sub-tree (used when a
// database loaded conventionally is handed to a PLP engine).
func (t *Tree) SetLatched(v bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.Latched = v
	for i := range t.parts {
		t.parts[i].Tree.SetLatched(v)
	}
}

// NumPartitions returns the number of partitions.
func (t *Tree) NumPartitions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.parts)
}

// Repartitions returns the number of Slice/Meld/MoveBoundary operations
// performed.
func (t *Tree) Repartitions() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.repartitions
}

// PartitionIndexFor returns the index of the partition that owns key.
func (t *Tree) PartitionIndexFor(key []byte) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.partitionIndexLocked(key)
}

func (t *Tree) partitionIndexLocked(key []byte) int {
	// Find the last partition whose Start <= key.
	n := len(t.parts)
	idx := sort.Search(n, func(i int) bool {
		if t.parts[i].Start == nil {
			return false // nil start orders before everything
		}
		return bytes.Compare(t.parts[i].Start, key) > 0
	})
	if idx == 0 {
		return 0
	}
	return idx - 1
}

// PartitionTree returns the sub-tree of partition i.  PLP partition workers
// use it for direct, routing-free access to the data they own.
func (t *Tree) PartitionTree(i int) (*btree.Tree, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.parts) {
		return nil, ErrNoSuchPart
	}
	return t.parts[i].Tree, nil
}

// PartitionBounds returns the [start, end) bounds of partition i; a nil
// start or end means unbounded.
func (t *Tree) PartitionBounds(i int) (lo, hi []byte, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.parts) {
		return nil, nil, ErrNoSuchPart
	}
	lo = append([]byte(nil), t.parts[i].Start...)
	if i == 0 {
		lo = nil
	}
	if i+1 < len(t.parts) {
		hi = append([]byte(nil), t.parts[i+1].Start...)
	}
	return lo, hi, nil
}

// Boundaries returns the partition start keys (excluding the implicit
// first partition).
func (t *Tree) Boundaries() [][]byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([][]byte, 0, len(t.parts)-1)
	for _, p := range t.parts[1:] {
		out = append(out, append([]byte(nil), p.Start...))
	}
	return out
}

// treeFor returns the sub-tree owning key.
func (t *Tree) treeFor(key []byte) *btree.Tree {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.parts) == 0 {
		return nil
	}
	return t.parts[t.partitionIndexLocked(key)].Tree
}

// Search returns the value stored under key.
func (t *Tree) Search(tx *txn.Txn, key []byte) ([]byte, bool, error) {
	sub := t.treeFor(key)
	if sub == nil {
		return nil, false, ErrNoPartitions
	}
	return sub.Search(tx, key)
}

// Insert adds key/value, failing on duplicates.
func (t *Tree) Insert(tx *txn.Txn, key, value []byte) error {
	sub := t.treeFor(key)
	if sub == nil {
		return ErrNoPartitions
	}
	return sub.Insert(tx, key, value)
}

// Put adds or overwrites key/value.
func (t *Tree) Put(tx *txn.Txn, key, value []byte) error {
	sub := t.treeFor(key)
	if sub == nil {
		return ErrNoPartitions
	}
	return sub.Put(tx, key, value)
}

// Update overwrites the value of an existing key.
func (t *Tree) Update(tx *txn.Txn, key, value []byte) error {
	sub := t.treeFor(key)
	if sub == nil {
		return ErrNoPartitions
	}
	return sub.Update(tx, key, value)
}

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(tx *txn.Txn, key []byte) (bool, error) {
	sub := t.treeFor(key)
	if sub == nil {
		return false, ErrNoPartitions
	}
	return sub.Delete(tx, key)
}

// AscendRange visits every entry with lo <= key < hi in key order, crossing
// partition boundaries as needed.  Entries are passed in place; see
// btree.ScanFunc for how long they stay valid.
func (t *Tree) AscendRange(tx *txn.Txn, lo, hi []byte, fn btree.ScanFunc) error {
	t.mu.RLock()
	parts := append([]Partition(nil), t.parts...)
	t.mu.RUnlock()
	for i, p := range parts {
		// Skip partitions entirely outside [lo, hi).
		var partHi []byte
		if i+1 < len(parts) {
			partHi = parts[i+1].Start
		}
		if lo != nil && partHi != nil && bytes.Compare(partHi, lo) <= 0 {
			continue
		}
		if hi != nil && p.Start != nil && bytes.Compare(p.Start, hi) >= 0 {
			break
		}
		if stopped, err := p.Tree.AscendRange(tx, lo, hi, fn); err != nil || stopped {
			return err
		}
	}
	return nil
}

// Ascend visits every entry in key order.
func (t *Tree) Ascend(tx *txn.Txn, fn btree.ScanFunc) error {
	return t.AscendRange(tx, nil, nil, fn)
}

// PartitionCounts returns the number of index entries in each partition's
// sub-tree.  The repartitioning controller reports them alongside the load
// shares so an operator can see data volume versus access volume per
// partition.
func (t *Tree) PartitionCounts(tx *txn.Txn) ([]int, error) {
	t.mu.RLock()
	parts := append([]Partition(nil), t.parts...)
	t.mu.RUnlock()
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := p.Tree.Count(tx)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// Count returns the total number of entries across all partitions.
func (t *Tree) Count(tx *txn.Txn) (int, error) {
	total := 0
	t.mu.RLock()
	parts := append([]Partition(nil), t.parts...)
	t.mu.RUnlock()
	for _, p := range parts {
		n, err := p.Tree.Count(tx)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Height returns the maximum sub-tree height.  Because hot partitions stay
// small, MRBTree probes are typically one level shallower than a
// single-rooted tree over the same data (Appendix B).
func (t *Tree) Height() (int, error) {
	t.mu.RLock()
	parts := append([]Partition(nil), t.parts...)
	t.mu.RUnlock()
	max := 0
	for _, p := range parts {
		h, err := p.Tree.Height()
		if err != nil {
			return 0, err
		}
		if h > max {
			max = h
		}
	}
	return max, nil
}

// LeafFor returns the page ID of the leaf that covers key.  PLP-Leaf uses it
// as the heap-page owner tag when placing records ("the system must identify
// the correct MRBTree entry before selecting a heap page", Section 3.3).
func (t *Tree) LeafFor(tx *txn.Txn, key []byte) (page.ID, error) {
	sub := t.treeFor(key)
	if sub == nil {
		return page.InvalidID, ErrNoPartitions
	}
	return sub.LeafPageFor(tx, key)
}

// CheckInvariants validates every sub-tree and the partition boundaries.
func (t *Tree) CheckInvariants() error {
	t.mu.RLock()
	parts := append([]Partition(nil), t.parts...)
	t.mu.RUnlock()
	for i, p := range parts {
		if err := p.Tree.CheckInvariants(); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		var hi []byte
		if i+1 < len(parts) {
			hi = parts[i+1].Start
		}
		lo := p.Start
		if i == 0 {
			lo = nil
		}
		ok, err := p.Tree.BoundaryCheck(lo, hi)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("partition %d holds keys outside [%x, %x)", i, lo, hi)
		}
	}
	return nil
}

// StructStats aggregates the shape of all sub-trees.
type StructStats struct {
	Partitions    int
	Height        int
	LeafPages     int
	InteriorPages int
	Entries       int
}

// Stats walks every sub-tree and reports the aggregate shape.
func (t *Tree) Stats() (StructStats, error) {
	t.mu.RLock()
	parts := append([]Partition(nil), t.parts...)
	t.mu.RUnlock()
	out := StructStats{Partitions: len(parts)}
	for _, p := range parts {
		st, err := p.Tree.Stats()
		if err != nil {
			return out, err
		}
		if st.Height > out.Height {
			out.Height = st.Height
		}
		out.LeafPages += st.LeafPages
		out.InteriorPages += st.InteriorPages
		out.Entries += st.Entries
	}
	return out, nil
}

// writeRoutingPage persists the partition table onto the routing page as
// key/root pairs (Appendix A.1).  The caller must hold t.mu.
func (t *Tree) writeRoutingPage() error {
	frame, err := t.bp.Fix(t.routing)
	if err != nil {
		return err
	}
	p := frame.Page()
	p.Reset(t.routing, page.KindRouting)
	p.SetOwner(uint64(t.id))
	for i, part := range t.parts {
		entry := encodeRoutingEntry(part.Start, part.Tree.RootPage())
		if err := p.InsertAt(i, entry); err != nil {
			// Several dozen mappings fit easily in 8 KiB (Appendix A.1); an
			// overflow means the configuration is unreasonable.
			t.bp.Unfix(frame)
			return fmt.Errorf("mrbtree: routing page overflow at partition %d: %w", i, err)
		}
	}
	t.bp.Unfix(frame)
	t.cfg.CSStats.Record(cs.Metadata, false)
	return nil
}

// encodeRoutingEntry encodes one partition-table entry.
func encodeRoutingEntry(start []byte, root page.ID) []byte {
	buf := make([]byte, 2+len(start)+8)
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(start)))
	copy(buf[2:], start)
	binary.LittleEndian.PutUint64(buf[2+len(start):], uint64(root))
	return buf
}

// decodeRoutingEntry decodes one partition-table entry.
func decodeRoutingEntry(buf []byte) (start []byte, root page.ID, err error) {
	if len(buf) < 10 {
		return nil, 0, fmt.Errorf("mrbtree: short routing entry")
	}
	n := int(binary.LittleEndian.Uint16(buf[0:]))
	if len(buf) < 2+n+8 {
		return nil, 0, fmt.Errorf("mrbtree: corrupt routing entry")
	}
	start = append([]byte(nil), buf[2:2+n]...)
	root = page.ID(binary.LittleEndian.Uint64(buf[2+n:]))
	return start, root, nil
}

// Open rebuilds an MRBTree from its routing page (used by tests that verify
// the durability of the partition table).
func Open(bp *bufferpool.Pool, id uint32, routing page.ID, cfg Config) (*Tree, error) {
	t := &Tree{bp: bp, id: id, cfg: cfg, routing: routing}
	frame, err := bp.Fix(routing)
	if err != nil {
		return nil, err
	}
	p := frame.Page()
	for i := 0; i < p.NumSlots(); i++ {
		buf, gerr := p.GetAt(i)
		if gerr != nil {
			bp.Unfix(frame)
			return nil, gerr
		}
		start, root, derr := decodeRoutingEntry(buf)
		if derr != nil {
			bp.Unfix(frame)
			return nil, derr
		}
		if i == 0 {
			start = nil
		}
		t.parts = append(t.parts, Partition{
			Start: start,
			Tree:  btree.Open(bp, id, root, t.subConfig()),
		})
	}
	bp.Unfix(frame)
	if len(t.parts) == 0 {
		return nil, ErrNoPartitions
	}
	return t, nil
}
