// Repartitioning: Slice, Meld and MoveBoundary on the partition table.
//
// All repartitioning assumes the affected partitions are quiesced (the
// partition manager stops dispatching work to their owning threads before
// calling in, as described in Section 3.1).  The partition-table mutex
// serializes the three operations; each publishes a changed copy of the
// partition table, so routing lookups never wait for them.
package mrbtree

import (
	"bytes"
	"fmt"
	"slices"

	"plp/internal/btree"
)

// RepartitionStats aggregates the cost of one repartitioning operation, in
// the units of Table 1 of the paper.
type RepartitionStats struct {
	EntriesMoved   int // index entries copied between pages
	PagesAllocated int
	PagesRead      int
	PagesFreed     int
	PointerUpdates int
	RecordsMoved   int // heap records moved (filled in by the caller for PLP-Partition/Leaf)
}

// add accumulates slice statistics.
func (r *RepartitionStats) addSlice(s btree.SliceStats) {
	r.EntriesMoved += s.EntriesMoved
	r.PagesAllocated += s.PagesAllocated
	r.PagesRead += s.PagesRead
	r.PointerUpdates += s.PointerUpdates
}

// addMeld accumulates meld statistics.
func (r *RepartitionStats) addMeld(s btree.MeldStats) {
	r.EntriesMoved += s.EntriesMoved
	r.PagesAllocated += s.PagesAllocated
	r.PagesRead += s.PagesRead
	r.PagesFreed += s.PagesFreed
	r.PointerUpdates += s.PointerUpdates
}

// Slice splits the partition containing atKey into two partitions at atKey.
// The new partition covers [atKey, end-of-old-partition).  It returns the
// index of the new partition.
func (t *Tree) Slice(atKey []byte) (int, RepartitionStats, error) {
	var stats RepartitionStats
	if len(atKey) == 0 {
		return 0, stats, ErrBadBoundary
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	parts := t.snapshot()
	idx := partitionIndex(parts, atKey)
	part := parts[idx]
	if part.Start != nil && bytes.Equal(part.Start, atKey) {
		return 0, stats, fmt.Errorf("%w: partition already starts at the slice key", ErrBadBoundary)
	}
	newTree, st, err := part.Tree.SliceAt(atKey)
	if err != nil {
		return 0, stats, err
	}
	stats.addSlice(st)

	newPart := Partition{Start: append([]byte(nil), atKey...), Tree: newTree}
	if err := t.publish(slices.Insert(slices.Clone(parts), idx+1, newPart)); err != nil {
		return 0, stats, err
	}
	stats.PointerUpdates++
	t.repartitions++
	return idx + 1, stats, nil
}

// Meld merges partition i+1 into partition i.
func (t *Tree) Meld(i int) (RepartitionStats, error) {
	var stats RepartitionStats
	t.mu.Lock()
	defer t.mu.Unlock()
	parts := t.snapshot()
	if i < 0 || i+1 >= len(parts) {
		return stats, ErrNoSuchPart
	}
	left, right := parts[i], parts[i+1]
	merged, st, err := btree.Meld(left.Tree, right.Tree, right.Start)
	if err != nil {
		return stats, err
	}
	stats.addMeld(st)

	next := slices.Delete(slices.Clone(parts), i+1, i+2)
	next[i].Tree = merged
	if err := t.publish(next); err != nil {
		return stats, err
	}
	stats.PointerUpdates++
	t.repartitions++
	return stats, nil
}

// MoveBoundary moves the lower boundary of partition i (i >= 1) to newStart,
// shifting data between partition i-1 and partition i without changing the
// number of partitions.  This is the operation the partition manager uses to
// rebalance load when the access skew changes (the Figure 8 scenario: 40 MB
// of a 50 MB table migrates from the hot partition to the cold one by moving
// a single boundary).
func (t *Tree) MoveBoundary(i int, newStart []byte) (RepartitionStats, error) {
	var stats RepartitionStats
	if len(newStart) == 0 {
		return stats, ErrBadBoundary
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	next := slices.Clone(t.snapshot())
	if i <= 0 || i >= len(next) {
		return stats, ErrNoSuchPart
	}
	oldStart := next[i].Start
	if bytes.Equal(oldStart, newStart) {
		return stats, nil
	}
	lo := next[i-1].Start
	var hi []byte
	if i+1 < len(next) {
		hi = next[i+1].Start
	}
	if (lo != nil && bytes.Compare(newStart, lo) <= 0) || (hi != nil && bytes.Compare(newStart, hi) >= 0) {
		return stats, fmt.Errorf("%w: new boundary outside the adjacent partitions", ErrBadBoundary)
	}

	switch bytes.Compare(newStart, oldStart) {
	case -1:
		// The boundary moves left: a suffix of partition i-1 joins
		// partition i.  Slice partition i-1 at newStart, then meld the
		// sliced-off piece with partition i.
		piece, st, err := next[i-1].Tree.SliceAt(newStart)
		if err != nil {
			return stats, err
		}
		stats.addSlice(st)
		merged, mst, err := btree.Meld(piece, next[i].Tree, oldStart)
		if err != nil {
			return stats, err
		}
		stats.addMeld(mst)
		next[i].Tree = merged
	case 1:
		// The boundary moves right: a prefix of partition i joins
		// partition i-1.  Slice partition i at newStart; the left piece
		// (starting at oldStart) melds into partition i-1 and the right
		// piece becomes the new partition i.
		rightPiece, st, err := next[i].Tree.SliceAt(newStart)
		if err != nil {
			return stats, err
		}
		stats.addSlice(st)
		merged, mst, err := btree.Meld(next[i-1].Tree, next[i].Tree, oldStart)
		if err != nil {
			return stats, err
		}
		stats.addMeld(mst)
		next[i-1].Tree = merged
		next[i].Tree = rightPiece
	}
	next[i].Start = append([]byte(nil), newStart...)
	if err := t.publish(next); err != nil {
		return stats, err
	}
	stats.PointerUpdates++
	t.repartitions++
	return stats, nil
}
