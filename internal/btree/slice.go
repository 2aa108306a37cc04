// Slice and Meld: the sub-tree split and merge operations that the MRBTree
// uses for repartitioning (Appendix A.3 of the paper).
//
// Both operations assume that the affected partitions are quiesced: the
// partition manager stops dispatching work to the owning threads before
// repartitioning, so no latching is needed here.  The operations return
// statistics (entries moved, pages read, pointer updates) that feed the
// repartitioning cost analysis of Table 1.
package btree

import (
	"bytes"
	"fmt"

	"plp/internal/page"
)

// SliceStats reports the cost of a Slice operation.
type SliceStats struct {
	EntriesMoved   int // index entries copied to newly created pages
	PagesAllocated int // new index pages created
	PagesRead      int // existing pages visited
	PointerUpdates int // sibling / routing pointer changes
}

// MeldStats reports the cost of a Meld operation.
type MeldStats struct {
	EntriesMoved   int
	PagesAllocated int
	PagesRead      int
	PointerUpdates int
	PagesFreed     int
}

// SliceAt splits the tree at atKey: every entry with key >= atKey moves to a
// newly created tree which is returned.  Only the entries on the boundary
// path are physically copied ("the pages to the right of the slot's page do
// not need to be moved because the entries on the new pages will have
// pointers to them"), which is what makes MRBTree repartitioning cheap.  A
// level of the path from which nothing moves gets no new page: slicing at
// a key that starts a leaf allocates no leaf, so slice/meld round trips
// leave no empty leaves behind.
//
// The caller must guarantee that no other thread is accessing the tree.
func (t *Tree) SliceAt(atKey []byte) (*Tree, SliceStats, error) {
	var st SliceStats
	if len(atKey) == 0 {
		return nil, st, fmt.Errorf("btree: slice key must not be empty")
	}
	t.dropTail()

	// Walk from the root to the boundary leaf, recording the path.
	type pathNode struct {
		pid  page.ID
		slot int // slot we descended through (interior) — unused for the leaf
	}
	var path []pathNode
	pid := t.root
	for {
		f, err := t.bp.Fix(pid)
		if err != nil {
			return nil, st, err
		}
		st.PagesRead++
		p := f.Page()
		if isLeaf(p) {
			path = append(path, pathNode{pid: pid})
			t.bp.Unfix(f)
			break
		}
		idx, err := interiorSearch(p, atKey)
		if err != nil {
			t.bp.Unfix(f)
			return nil, st, err
		}
		// An entry whose key equals atKey has a child with only keys >=
		// atKey, so it moves to the new tree whole: descend left of it, or
		// this tree would keep a separator equal to its new upper bound.
		for idx > 0 {
			sep, _, err := interiorEntryAt(p, idx)
			if err != nil {
				t.bp.Unfix(f)
				return nil, st, err
			}
			if !bytes.Equal(sep, atKey) {
				break
			}
			idx--
		}
		_, child, err := interiorEntryAt(p, idx)
		if err != nil {
			t.bp.Unfix(f)
			return nil, st, err
		}
		path = append(path, pathNode{pid: pid, slot: idx})
		t.bp.Unfix(f)
		pid = child
	}

	// Process the path bottom-up, creating one new page per level from
	// which something moves.
	var lowerNew page.ID // the new page created at the level below, if any
	var leafOwner uint64
	for i := len(path) - 1; i >= 0; i-- {
		node := path[i]
		f, err := t.bp.Fix(node.pid)
		if err != nil {
			return nil, st, err
		}
		p := f.Page()

		if isLeaf(p) {
			// Boundary leaf: move entries >= atKey to a new leaf.
			pos, _, serr := leafSearch(p, atKey)
			if serr != nil {
				t.bp.Unfix(f)
				return nil, st, serr
			}
			leafOwner = p.Owner()
			if pos == p.NumSlots() {
				// Nothing moves: the next leaf, if any, is the new tree's
				// first.  Split the leaf sibling chain between the two.
				if oldNext := p.Next(); oldNext != page.InvalidID {
					p.SetNext(page.InvalidID)
					st.PointerUpdates++
					if nf, ferr := t.bp.Fix(oldNext); ferr == nil {
						nf.Page().SetPrev(page.InvalidID)
						t.bp.Unfix(nf)
						st.PointerUpdates++
						st.PagesRead++
					}
				}
				t.bp.Unfix(f)
				continue
			}
			nl := t.bp.NewPage(page.KindIndexLeaf)
			st.PagesAllocated++
			newLeaf := nl.Page()
			newLeaf.SetOwner(p.Owner())
			setNodeLevel(newLeaf, 0)
			for j := pos; j < p.NumSlots(); j++ {
				buf, gerr := p.GetAt(j)
				if gerr != nil {
					t.bp.Unfix(nl)
					t.bp.Unfix(f)
					return nil, st, gerr
				}
				if ierr := newLeaf.InsertAt(newLeaf.NumSlots(), buf); ierr != nil {
					t.bp.Unfix(nl)
					t.bp.Unfix(f)
					return nil, st, ierr
				}
				st.EntriesMoved++
			}
			if err := p.Truncate(pos); err != nil {
				t.bp.Unfix(nl)
				t.bp.Unfix(f)
				return nil, st, err
			}
			// Split the leaf sibling chain at the boundary.
			oldNext := p.Next()
			newLeaf.SetNext(oldNext)
			newLeaf.SetPrev(page.InvalidID)
			p.SetNext(page.InvalidID)
			st.PointerUpdates += 2
			if oldNext != page.InvalidID {
				if nf, ferr := t.bp.Fix(oldNext); ferr == nil {
					nf.Page().SetPrev(newLeaf.ID())
					t.bp.Unfix(nf)
					st.PointerUpdates++
					st.PagesRead++
				}
			}
			lowerNew = newLeaf.ID()
			t.bp.Unfix(nl)
			t.bp.Unfix(f)
			continue
		}

		// Interior node on the boundary path: entries to the right of the
		// descent slot move to a new interior node whose first entry points
		// to the new page created at the level below.  When there is none,
		// the first moved entry comes first, and its child's leftmost path
		// is re-keyed (clearLeftKeys): they all start the new tree now.
		if lowerNew == page.InvalidID && node.slot+1 == p.NumSlots() {
			t.bp.Unfix(f)
			continue
		}
		ni := t.bp.NewPage(page.KindIndexInterior)
		st.PagesAllocated++
		newNode := ni.Page()
		newNode.SetOwner(p.Owner())
		setNodeLevel(newNode, nodeLevel(p))
		if lowerNew != page.InvalidID {
			if err := newNode.InsertAt(0, encodeInteriorEntry(nil, lowerNew)); err != nil {
				t.bp.Unfix(ni)
				t.bp.Unfix(f)
				return nil, st, err
			}
		}
		for j := node.slot + 1; j < p.NumSlots(); j++ {
			buf, gerr := p.GetAt(j)
			if gerr == nil && newNode.NumSlots() == 0 {
				var child page.ID
				if _, child, gerr = decodeInteriorEntry(buf); gerr == nil {
					buf = encodeInteriorEntry(nil, child)
					gerr = t.clearLeftKeys(child, &st)
				}
			}
			if gerr != nil {
				t.bp.Unfix(ni)
				t.bp.Unfix(f)
				return nil, st, gerr
			}
			if ierr := newNode.InsertAt(newNode.NumSlots(), buf); ierr != nil {
				t.bp.Unfix(ni)
				t.bp.Unfix(f)
				return nil, st, ierr
			}
			st.EntriesMoved++
		}
		if err := p.Truncate(node.slot + 1); err != nil {
			t.bp.Unfix(ni)
			t.bp.Unfix(f)
			return nil, st, err
		}
		lowerNew = newNode.ID()
		t.bp.Unfix(ni)
		t.bp.Unfix(f)
	}

	if lowerNew == page.InvalidID {
		// No entry is at or above atKey: the new tree is one empty leaf.
		nl := t.bp.NewPage(page.KindIndexLeaf)
		st.PagesAllocated++
		nl.Page().SetOwner(leafOwner)
		setNodeLevel(nl.Page(), 0)
		lowerNew = nl.Page().ID()
		t.bp.Unfix(nl)
	}
	st.PointerUpdates++ // the routing-table entry the caller will add
	newTree := Open(t.bp, t.id, lowerNew, t.cfg)
	return newTree, st, nil
}

// clearLeftKeys empties the first key of every interior node on the
// leftmost path from pid down: the first entry of a tree's leftmost node at
// each level carries the empty key, its lower bound being the tree's.
func (t *Tree) clearLeftKeys(pid page.ID, st *SliceStats) error {
	for {
		f, err := t.bp.Fix(pid)
		if err != nil {
			return err
		}
		st.PagesRead++
		p := f.Page()
		if isLeaf(p) {
			t.bp.Unfix(f)
			return nil
		}
		k, child, err := interiorEntryAt(p, 0)
		if err == nil && len(k) > 0 {
			err = p.SetAt(0, encodeInteriorEntry(nil, child))
			st.PointerUpdates++
		}
		t.bp.Unfix(f)
		if err != nil {
			return err
		}
		pid = child
	}
}

// Meld merges right into left.  rightStart is the first key of right's key
// range (the partition boundary being removed).  It returns the tree that
// now holds the union of the two key ranges; its root page is one of the two
// existing roots whenever the cheap in-place merge applies, or a freshly
// allocated root when the roots cannot absorb each other without splitting.
//
// The caller must guarantee that no other thread is accessing either tree.
func Meld(left, right *Tree, rightStart []byte) (*Tree, MeldStats, error) {
	var st MeldStats
	if left.bp != right.bp {
		return nil, st, fmt.Errorf("btree: meld across buffer pools")
	}
	left.dropTail()
	right.dropTail()
	hl, err := left.Height()
	if err != nil {
		return nil, st, err
	}
	hr, err := right.Height()
	if err != nil {
		return nil, st, err
	}
	st.PagesRead += 2

	// Re-link the leaf chain across the boundary.
	if err := linkLeafChains(left, right, &st); err != nil {
		return nil, st, err
	}

	switch {
	case hl == hr:
		return meldEqualHeight(left, right, rightStart, &st)
	case hl > hr:
		return meldIntoTaller(left, right, rightStart, hl, hr, &st)
	default:
		return meldIntoTallerRight(left, right, rightStart, hl, hr, &st)
	}
}

// linkLeafChains connects the rightmost leaf of left with the leftmost leaf
// of right.
func linkLeafChains(left, right *Tree, st *MeldStats) error {
	lr, err := rightmostLeafPID(left)
	if err != nil {
		return err
	}
	rl, err := leftmostLeafPID(right)
	if err != nil {
		return err
	}
	lf, err := left.bp.Fix(lr)
	if err != nil {
		return err
	}
	lf.Page().SetNext(rl)
	left.bp.Unfix(lf)
	rf, err := right.bp.Fix(rl)
	if err != nil {
		return err
	}
	rf.Page().SetPrev(lr)
	right.bp.Unfix(rf)
	st.PointerUpdates += 2
	st.PagesRead += 2
	return nil
}

// rightmostLeafPID returns the page ID of the rightmost leaf of the tree.
func rightmostLeafPID(t *Tree) (page.ID, error) {
	pid := t.root
	for {
		f, err := t.bp.Fix(pid)
		if err != nil {
			return page.InvalidID, err
		}
		p := f.Page()
		if isLeaf(p) {
			t.bp.Unfix(f)
			return pid, nil
		}
		if p.NumSlots() == 0 {
			t.bp.Unfix(f)
			return page.InvalidID, fmt.Errorf("btree: empty interior node %v", pid)
		}
		_, child, err := interiorEntryAt(p, p.NumSlots()-1)
		t.bp.Unfix(f)
		if err != nil {
			return page.InvalidID, err
		}
		pid = child
	}
}

// leftmostLeafPID returns the page ID of the leftmost leaf of the tree.
func leftmostLeafPID(t *Tree) (page.ID, error) {
	pid := t.root
	for {
		f, err := t.bp.Fix(pid)
		if err != nil {
			return page.InvalidID, err
		}
		p := f.Page()
		if isLeaf(p) {
			t.bp.Unfix(f)
			return pid, nil
		}
		if p.NumSlots() == 0 {
			t.bp.Unfix(f)
			return page.InvalidID, fmt.Errorf("btree: empty interior node %v", pid)
		}
		_, child, err := interiorEntryAt(p, 0)
		t.bp.Unfix(f)
		if err != nil {
			return page.InvalidID, err
		}
		pid = child
	}
}

// meldEqualHeight merges two trees of the same height by appending the right
// root's entries to the left root.  If they do not fit, a new root is
// allocated above both.
func meldEqualHeight(left, right *Tree, rightStart []byte, st *MeldStats) (*Tree, MeldStats, error) {
	lf, err := left.bp.Fix(left.root)
	if err != nil {
		return nil, *st, err
	}
	rf, err := right.bp.Fix(right.root)
	if err != nil {
		left.bp.Unfix(lf)
		return nil, *st, err
	}
	lp, rp := lf.Page(), rf.Page()
	st.PagesRead += 2

	// Compute the bytes needed to absorb rp into lp: its entries, their
	// slots, and, for interior roots, the boundary key the first entry
	// gains.  An understated need makes the copy below fail halfway and
	// leave part of right's entries in left.
	need := rp.UsedBytes() + rp.NumSlots()*4
	if !isLeaf(rp) {
		need += len(rightStart)
	}
	fits := lp.FreeSpace() >= need
	if left.cfg.MaxSlotsPerNode > 0 && lp.NumSlots()+rp.NumSlots() > left.cfg.MaxSlotsPerNode {
		fits = false
	}
	if fits {
		for i := 0; i < rp.NumSlots(); i++ {
			buf, gerr := rp.GetAt(i)
			if gerr != nil {
				left.bp.Unfix(lf)
				right.bp.Unfix(rf)
				return nil, *st, gerr
			}
			entry := buf
			if !isLeaf(rp) && i == 0 {
				// The right root's first separator carries the empty key
				// (its lower bound); it must become the partition boundary.
				_, child, derr := decodeInteriorEntry(buf)
				if derr != nil {
					left.bp.Unfix(lf)
					right.bp.Unfix(rf)
					return nil, *st, derr
				}
				entry = encodeInteriorEntry(rightStart, child)
			}
			if ierr := lp.InsertAt(lp.NumSlots(), entry); ierr != nil {
				left.bp.Unfix(lf)
				right.bp.Unfix(rf)
				return nil, *st, ierr
			}
			st.EntriesMoved++
		}
		rightRoot := rp.ID()
		if isLeaf(rp) {
			// Both roots are leaves and the right one is about to be freed:
			// splice it out of the leaf chain (linkLeafChains pointed lp at
			// it moments ago), or scans would walk into a freed page.
			rpNext := rp.Next()
			lp.SetNext(rpNext)
			st.PointerUpdates++
			if rpNext != page.InvalidID {
				if nf, ferr := left.bp.Fix(rpNext); ferr == nil {
					nf.Page().SetPrev(lp.ID())
					left.bp.Unfix(nf)
					st.PointerUpdates++
					st.PagesRead++
				}
			}
		}
		left.bp.Unfix(lf)
		right.bp.Unfix(rf)
		if err := left.bp.FreePage(rightRoot); err == nil {
			st.PagesFreed++
		}
		st.PointerUpdates++ // routing-table update by the caller
		return Open(left.bp, left.id, left.root, left.cfg), *st, nil
	}
	left.bp.Unfix(lf)
	right.bp.Unfix(rf)
	return newRootAbove(left, right, rightStart, st)
}

// newRootAbove allocates a new interior root pointing at the two existing
// roots.  It is the fallback used when the cheap in-place meld would
// overflow a page.
func newRootAbove(left, right *Tree, rightStart []byte, st *MeldStats) (*Tree, MeldStats, error) {
	hl, err := left.Height()
	if err != nil {
		return nil, *st, err
	}
	hr, err := right.Height()
	if err != nil {
		return nil, *st, err
	}
	// Pad the shorter tree with a chain of single-entry interior nodes so
	// both children of the new root sit at the same level.
	leftRoot, rightRoot := left.root, right.root
	for hl < hr {
		pid, perr := wrapInInterior(left, leftRoot, hl)
		if perr != nil {
			return nil, *st, perr
		}
		st.PagesAllocated++
		leftRoot = pid
		hl++
	}
	for hr < hl {
		pid, perr := wrapInInterior(right, rightRoot, hr)
		if perr != nil {
			return nil, *st, perr
		}
		st.PagesAllocated++
		rightRoot = pid
		hr++
	}
	nf := left.bp.NewPage(page.KindIndexInterior)
	st.PagesAllocated++
	np := nf.Page()
	np.SetOwner(uint64(left.id))
	setNodeLevel(np, hl)
	if err := np.InsertAt(0, encodeInteriorEntry(nil, leftRoot)); err != nil {
		left.bp.Unfix(nf)
		return nil, *st, err
	}
	if err := np.InsertAt(1, encodeInteriorEntry(rightStart, rightRoot)); err != nil {
		left.bp.Unfix(nf)
		return nil, *st, err
	}
	rootID := np.ID()
	left.bp.Unfix(nf)
	st.PointerUpdates++
	return Open(left.bp, left.id, rootID, left.cfg), *st, nil
}

// wrapInInterior creates an interior node one level above `child` whose only
// entry points at child.
func wrapInInterior(t *Tree, child page.ID, childHeight int) (page.ID, error) {
	nf := t.bp.NewPage(page.KindIndexInterior)
	np := nf.Page()
	np.SetOwner(uint64(t.id))
	setNodeLevel(np, childHeight) // child height == child level + 1 == this node's level
	if err := np.InsertAt(0, encodeInteriorEntry(nil, child)); err != nil {
		t.bp.Unfix(nf)
		return page.InvalidID, err
	}
	pid := np.ID()
	t.bp.Unfix(nf)
	return pid, nil
}

// meldIntoTaller merges the shorter right tree into the taller left tree by
// inserting a pointer to right's root into the rightmost node of left at the
// appropriate level.
func meldIntoTaller(left, right *Tree, rightStart []byte, hl, hr int, st *MeldStats) (*Tree, MeldStats, error) {
	// Descend left's rightmost path to the node at level hr (0-based level
	// of the node that should point at right's root, which sits at level
	// hr-1).
	pid := left.root
	for {
		f, err := left.bp.Fix(pid)
		if err != nil {
			return nil, *st, err
		}
		p := f.Page()
		st.PagesRead++
		if nodeLevel(p) == hr {
			entry := encodeInteriorEntry(rightStart, right.root)
			if nodeFull(p, len(entry), left.cfg.MaxSlotsPerNode) {
				left.bp.Unfix(f)
				return newRootAbove(left, right, rightStart, st)
			}
			err := p.InsertAt(p.NumSlots(), entry)
			left.bp.Unfix(f)
			if err != nil {
				return nil, *st, err
			}
			st.EntriesMoved++
			st.PointerUpdates++
			return Open(left.bp, left.id, left.root, left.cfg), *st, nil
		}
		if p.NumSlots() == 0 {
			left.bp.Unfix(f)
			return nil, *st, fmt.Errorf("btree: empty interior node %v during meld", pid)
		}
		_, child, err := interiorEntryAt(p, p.NumSlots()-1)
		left.bp.Unfix(f)
		if err != nil {
			return nil, *st, err
		}
		pid = child
	}
}

// meldIntoTallerRight merges the shorter left tree into the taller right
// tree by inserting a pointer to left's root at the leftmost node of right
// at the appropriate level.  The resulting tree keeps right's root.
func meldIntoTallerRight(left, right *Tree, rightStart []byte, hl, hr int, st *MeldStats) (*Tree, MeldStats, error) {
	pid := right.root
	for {
		f, err := right.bp.Fix(pid)
		if err != nil {
			return nil, *st, err
		}
		p := f.Page()
		st.PagesRead++
		if nodeLevel(p) == hl {
			entry := encodeInteriorEntry(nil, left.root)
			if nodeFull(p, len(entry)+len(rightStart), right.cfg.MaxSlotsPerNode) {
				right.bp.Unfix(f)
				return newRootAbove(left, right, rightStart, st)
			}
			// The node's current first entry carries the empty key (it was
			// the leftmost node of the right tree); it must now carry the
			// old partition boundary so the new leftmost entry can route
			// keys below it to the left tree.
			if p.NumSlots() > 0 {
				k, child, derr := interiorEntryAt(p, 0)
				if derr != nil {
					right.bp.Unfix(f)
					return nil, *st, derr
				}
				if len(k) == 0 {
					if err := p.SetAt(0, encodeInteriorEntry(rightStart, child)); err != nil {
						right.bp.Unfix(f)
						return nil, *st, err
					}
					st.PointerUpdates++
				}
			}
			err := p.InsertAt(0, entry)
			right.bp.Unfix(f)
			if err != nil {
				return nil, *st, err
			}
			st.EntriesMoved++
			st.PointerUpdates++
			return Open(right.bp, right.id, right.root, right.cfg), *st, nil
		}
		if p.NumSlots() == 0 {
			right.bp.Unfix(f)
			return nil, *st, fmt.Errorf("btree: empty interior node %v during meld", pid)
		}
		_, child, err := interiorEntryAt(p, 0)
		right.bp.Unfix(f)
		if err != nil {
			return nil, *st, err
		}
		pid = child
	}
}

// BoundaryCheck reports whether every key lies in [lo, hi).  The MRBTree
// uses it in tests to validate that slices and melds preserve partition
// boundaries.
func (t *Tree) BoundaryCheck(lo, hi []byte) (bool, error) {
	ok := true
	err := t.Ascend(nil, func(k, _ []byte) bool {
		if lo != nil && bytes.Compare(k, lo) < 0 {
			ok = false
			return false
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			ok = false
			return false
		}
		return true
	})
	return ok, err
}
