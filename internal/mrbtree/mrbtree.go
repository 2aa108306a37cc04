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
	"sync/atomic"

	"plp/internal/btree"
	"plp/internal/bufferpool"
	"plp/internal/cs"
	"plp/internal/page"
	"plp/internal/txn"
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

	// parts is the partition table, an immutable snapshot: readers load it
	// and take no lock, and the repartitioning operations publish a changed
	// copy.
	parts   atomic.Pointer[[]Partition]
	routing page.ID

	// mu serializes the writers of parts (Slice, Meld and MoveBoundary)
	// and guards repartitions.
	mu           sync.Mutex
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
	parts := make([]Partition, 0, len(starts))
	for _, s := range starts {
		sub := btree.Create(bp, id, t.subConfig())
		parts = append(parts, Partition{Start: append([]byte(nil), s...), Tree: sub})
	}
	// The first partition's Start must be nil, not an empty non-nil slice.
	parts[0].Start = nil

	rf := bp.NewPage(page.KindRouting)
	t.routing = rf.Page().ID()
	rf.Page().SetOwner(uint64(id))
	bp.Unfix(rf)
	if err := t.publish(parts); err != nil {
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
	}
}

// ID returns the index space id.
func (t *Tree) ID() uint32 { return t.id }

// RoutingPage returns the page ID of the durable routing page.
func (t *Tree) RoutingPage() page.ID { return t.routing }

// snapshot returns the current partition table.  It must not be modified.
func (t *Tree) snapshot() []Partition { return *t.parts.Load() }

// NumPartitions returns the number of partitions.
func (t *Tree) NumPartitions() int { return len(t.snapshot()) }

// Repartitions returns the number of Slice/Meld/MoveBoundary operations
// performed.
func (t *Tree) Repartitions() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.repartitions
}

// PartitionIndexFor returns the index of the partition that owns key.
func (t *Tree) PartitionIndexFor(key []byte) int {
	return partitionIndex(t.snapshot(), key)
}

// partitionIndex returns the index of the partition of parts that owns key.
func partitionIndex(parts []Partition, key []byte) int {
	// Find the last partition whose Start <= key.
	idx := sort.Search(len(parts), func(i int) bool {
		if parts[i].Start == nil {
			return false // nil start orders before everything
		}
		return bytes.Compare(parts[i].Start, key) > 0
	})
	if idx == 0 {
		return 0
	}
	return idx - 1
}

// PartitionTree returns the sub-tree of partition i.  PLP partition workers
// use it for direct, routing-free access to the data they own.
func (t *Tree) PartitionTree(i int) (*btree.Tree, error) {
	parts := t.snapshot()
	if i < 0 || i >= len(parts) {
		return nil, ErrNoSuchPart
	}
	return parts[i].Tree, nil
}

// PartitionBounds returns the [start, end) bounds of partition i; a nil
// start or end means unbounded.
func (t *Tree) PartitionBounds(i int) (lo, hi []byte, err error) {
	parts := t.snapshot()
	if i < 0 || i >= len(parts) {
		return nil, nil, ErrNoSuchPart
	}
	lo = append([]byte(nil), parts[i].Start...)
	if i == 0 {
		lo = nil
	}
	if i+1 < len(parts) {
		hi = append([]byte(nil), parts[i+1].Start...)
	}
	return lo, hi, nil
}

// Boundaries returns the partition start keys (excluding the implicit
// first partition).
func (t *Tree) Boundaries() [][]byte {
	parts := t.snapshot()
	out := make([][]byte, 0, len(parts)-1)
	for _, p := range parts[1:] {
		out = append(out, append([]byte(nil), p.Start...))
	}
	return out
}

// treeFor returns the sub-tree owning key.  It takes no lock.
func (t *Tree) treeFor(key []byte) *btree.Tree {
	parts := t.snapshot()
	if len(parts) == 0 {
		return nil
	}
	return parts[partitionIndex(parts, key)].Tree
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

// InsertPlaced adds key with the value place computes from the leaf the
// key belongs on; see btree.Tree.InsertPlaced.
func (t *Tree) InsertPlaced(tx *txn.Txn, key []byte, place btree.PlaceFunc) error {
	sub := t.treeFor(key)
	if sub == nil {
		return ErrNoPartitions
	}
	return sub.InsertPlaced(tx, key, place)
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

// UpdatePlaced overwrites the value of an existing key with the value place
// computes from the leaf the key is on; see btree.Tree.UpdatePlaced.
func (t *Tree) UpdatePlaced(tx *txn.Txn, key []byte, place btree.PlaceFunc) error {
	sub := t.treeFor(key)
	if sub == nil {
		return ErrNoPartitions
	}
	return sub.UpdatePlaced(tx, key, place)
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
	parts := t.snapshot()
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
	parts := t.snapshot()
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
	parts := t.snapshot()
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
	parts := t.snapshot()
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

// CheckInvariants validates every sub-tree and the partition boundaries.
func (t *Tree) CheckInvariants() error {
	parts := t.snapshot()
	for i, p := range parts {
		var hi []byte
		if i+1 < len(parts) {
			hi = parts[i+1].Start
		}
		lo := p.Start
		if i == 0 {
			lo = nil
		}
		if err := p.Tree.CheckInvariantsWithin(lo, hi); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
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
	parts := t.snapshot()
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

// publish makes parts the partition table and persists it onto the
// routing page.  The caller holds t.mu, or is building the tree.
func (t *Tree) publish(parts []Partition) error {
	t.parts.Store(&parts)
	return t.writeRoutingPage(parts)
}

// writeRoutingPage persists the partition table parts onto the routing
// page as key/root pairs (Appendix A.1).
func (t *Tree) writeRoutingPage(parts []Partition) error {
	frame, err := t.bp.Fix(t.routing)
	if err != nil {
		return err
	}
	p := frame.Page()
	p.Reset(t.routing, page.KindRouting)
	p.SetOwner(uint64(t.id))
	for i, part := range parts {
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
	var parts []Partition
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
		parts = append(parts, Partition{
			Start: start,
			Tree:  btree.Open(bp, id, root, t.subConfig()),
		})
	}
	bp.Unfix(frame)
	if len(parts) == 0 {
		return nil, ErrNoPartitions
	}
	t.parts.Store(&parts)
	return t, nil
}
