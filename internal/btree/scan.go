// Range scans, traversal utilities and structural statistics.
package btree

import (
	"bytes"
	"fmt"

	"plp/internal/bufferpool"
	"plp/internal/latch"
	"plp/internal/page"
	"plp/internal/txn"
)

// ScanFunc is called for every key/value pair visited by a scan.  The slices
// point into the pinned (and, on a latched tree, share-latched) leaf page:
// they are valid only until the callback returns, and the callback must not
// modify them.  A callback that keeps a key or value copies it.  Returning
// false stops the scan.
type ScanFunc func(key, value []byte) bool

// AscendRange visits, in key order, every entry with lo <= key < hi.  A nil
// lo starts from the smallest key; a nil hi scans to the end.  Entries are
// passed in place (see ScanFunc).  hi is checked once per leaf, against the
// leaf's last key: a leaf that ends below hi is visited whole with no
// per-entry bound check, and the first leaf that reaches hi is cut at hi's
// position and ends the scan.  stopped reports whether fn ended the scan by
// returning false.
func (t *Tree) AscendRange(tx *txn.Txn, lo, hi []byte, fn ScanFunc) (stopped bool, err error) {
	var f *bufferpool.Frame
	if lo == nil {
		f, err = t.leftmostLeaf(tx)
	} else {
		f, err = t.descendRead(tx, lo)
	}
	if err != nil {
		return false, err
	}
	for {
		p := f.Page()
		start, end := 0, p.NumSlots()
		if lo != nil {
			if start, _, err = leafSearch(p, lo); err != nil {
				t.releaseNode(f, latch.Shared)
				return false, err
			}
		}
		lastLeaf := false
		if hi != nil && end > 0 {
			last, kerr := leafKeyAt(p, end-1)
			if kerr != nil {
				t.releaseNode(f, latch.Shared)
				return false, kerr
			}
			if bytes.Compare(last, hi) >= 0 {
				lastLeaf = true
				if end, _, err = leafSearch(p, hi); err != nil {
					t.releaseNode(f, latch.Shared)
					return false, err
				}
			}
		}
		for i := start; i < end; i++ {
			k, v, eerr := leafEntryAt(p, i)
			if eerr != nil {
				t.releaseNode(f, latch.Shared)
				return false, eerr
			}
			// Cap both slices so an append by the callback cannot write
			// into the page.
			if !fn(k[:len(k):len(k)], v[:len(v):len(v)]) {
				t.releaseNode(f, latch.Shared)
				return true, nil
			}
		}
		next := p.Next()
		if lastLeaf || next == page.InvalidID {
			t.releaseNode(f, latch.Shared)
			return false, nil
		}
		nf, ferr := t.fix(next)
		if ferr != nil {
			t.releaseNode(f, latch.Shared)
			return false, ferr
		}
		t.latchNode(tx, nf, latch.Shared)
		t.releaseNode(f, latch.Shared)
		f = nf
		lo = nil // subsequent leaves start from their first entry
	}
}

// Ascend visits every entry in key order.
func (t *Tree) Ascend(tx *txn.Txn, fn ScanFunc) error {
	_, err := t.AscendRange(tx, nil, nil, fn)
	return err
}

// leftmostLeaf descends the leftmost path with shared latches and returns
// the first leaf latched in shared mode.
func (t *Tree) leftmostLeaf(tx *txn.Txn) (*bufferpool.Frame, error) {
	f, err := t.fix(t.root)
	if err != nil {
		return nil, err
	}
	t.latchNode(tx, f, latch.Shared)
	for !isLeaf(f.Page()) {
		if f.Page().NumSlots() == 0 {
			t.releaseNode(f, latch.Shared)
			return nil, fmt.Errorf("btree: interior node %v has no entries", f.Page().ID())
		}
		_, child, err := interiorEntryAt(f.Page(), 0)
		if err != nil {
			t.releaseNode(f, latch.Shared)
			return nil, err
		}
		cf, ferr := t.fix(child)
		if ferr != nil {
			t.releaseNode(f, latch.Shared)
			return nil, ferr
		}
		t.latchNode(tx, cf, latch.Shared)
		t.releaseNode(f, latch.Shared)
		f = cf
	}
	return f, nil
}

// Pages calls fn with the page ID of every node of the tree, interior and
// leaf.  It is intended for repartitioning and tests, not the hot path.
func (t *Tree) Pages(fn func(page.ID)) error {
	return t.walk(t.root, func(p *page.Page) { fn(p.ID()) })
}

// Height returns the number of levels in the tree (1 for a single leaf).
func (t *Tree) Height() (int, error) {
	f, err := t.fix(t.root)
	if err != nil {
		return 0, err
	}
	h := nodeLevel(f.Page()) + 1
	t.unfix(f)
	return h, nil
}

// Count returns the number of entries in the tree.
func (t *Tree) Count(tx *txn.Txn) (int, error) {
	n := 0
	err := t.Ascend(tx, func(_, _ []byte) bool {
		n++
		return true
	})
	return n, err
}

// StructStats describes the physical shape of the tree.
type StructStats struct {
	Height        int
	LeafPages     int
	InteriorPages int
	Entries       int
}

// Stats walks the whole tree and reports its shape.  It is intended for
// reporting and tests, not the hot path.
func (t *Tree) Stats() (StructStats, error) {
	var st StructStats
	h, err := t.Height()
	if err != nil {
		return st, err
	}
	st.Height = h
	err = t.walk(t.root, func(p *page.Page) {
		if isLeaf(p) {
			st.LeafPages++
			st.Entries += p.NumSlots()
		} else {
			st.InteriorPages++
		}
	})
	return st, err
}

// walk calls visit with every node under pid, parents before children.
func (t *Tree) walk(pid page.ID, visit func(*page.Page)) error {
	f, err := t.fix(pid)
	if err != nil {
		return err
	}
	p := f.Page()
	visit(p)
	if isLeaf(p) {
		t.unfix(f)
		return nil
	}
	children := make([]page.ID, 0, p.NumSlots())
	for i := 0; i < p.NumSlots(); i++ {
		_, child, eerr := interiorEntryAt(p, i)
		if eerr != nil {
			t.unfix(f)
			return eerr
		}
		children = append(children, child)
	}
	t.unfix(f)
	for _, c := range children {
		if err := t.walk(c, visit); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants verifies structural invariants: keys are sorted within
// and across leaves, interior entries route correctly, and levels decrease
// monotonically from root to leaves.  It returns an error describing the
// first violation found.
func (t *Tree) CheckInvariants() error { return t.CheckInvariantsWithin(nil, nil) }

// CheckInvariantsWithin is CheckInvariants for a tree whose keys all lie in
// [lo, hi), such as an MRBTree partition's sub-tree: every key and every
// interior separator must lie in the range too.  A nil bound is open.
func (t *Tree) CheckInvariantsWithin(lo, hi []byte) error {
	// Keys strictly increasing across a full scan.
	var prev []byte
	first := true
	var orderErr error
	err := t.Ascend(nil, func(k, _ []byte) bool {
		if !first && bytes.Compare(prev, k) >= 0 {
			orderErr = fmt.Errorf("btree: keys out of order: %x then %x", prev, k)
			return false
		}
		prev, first = append(prev[:0], k...), false
		return true
	})
	if err != nil {
		return err
	}
	if orderErr != nil {
		return orderErr
	}
	return t.checkNode(t.root, lo, hi, -1)
}

// checkNode verifies that every key under pid lies in [lo, hi) and that the
// node's level is parentLevel-1 (or any level when parentLevel < 0).
func (t *Tree) checkNode(pid page.ID, lo, hi []byte, parentLevel int) error {
	f, err := t.fix(pid)
	if err != nil {
		return err
	}
	p := f.Page()
	level := nodeLevel(p)
	if parentLevel >= 0 && level != parentLevel-1 {
		t.unfix(f)
		return fmt.Errorf("btree: node %v at level %d under parent level %d", pid, level, parentLevel)
	}
	inRange := func(k []byte) bool {
		if lo != nil && len(k) > 0 && bytes.Compare(k, lo) < 0 {
			return false
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			return false
		}
		return true
	}
	if isLeaf(p) {
		for i := 0; i < p.NumSlots(); i++ {
			k, kerr := leafKeyAt(p, i)
			if kerr != nil {
				t.unfix(f)
				return kerr
			}
			if !inRange(k) {
				t.unfix(f)
				return fmt.Errorf("btree: leaf %v key %x outside [%x,%x)", pid, k, lo, hi)
			}
		}
		t.unfix(f)
		return nil
	}
	type childRange struct {
		child  page.ID
		lo, hi []byte
	}
	var children []childRange
	for i := 0; i < p.NumSlots(); i++ {
		k, child, eerr := interiorEntryAt(p, i)
		if eerr != nil {
			t.unfix(f)
			return eerr
		}
		if !inRange(k) && i > 0 {
			t.unfix(f)
			return fmt.Errorf("btree: interior %v separator %x outside [%x,%x)", pid, k, lo, hi)
		}
		cr := childRange{child: child, lo: append([]byte(nil), k...)}
		if i == 0 && len(k) == 0 {
			cr.lo = lo
		}
		if len(children) > 0 {
			children[len(children)-1].hi = cr.lo
		}
		children = append(children, cr)
	}
	if len(children) > 0 {
		children[len(children)-1].hi = hi
	}
	t.unfix(f)
	for _, cr := range children {
		if err := t.checkNode(cr.child, cr.lo, cr.hi, level); err != nil {
			return err
		}
	}
	return nil
}
