// Package btree implements a B+Tree whose nodes are slotted database pages
// held by the buffer pool, with the latching protocol of a conventional
// shared-everything storage manager:
//
//   - probes latch-crab from the root with shared latches;
//   - updates latch the leaf exclusively;
//   - structure modification operations (SMOs: page splits) are serialized
//     per tree by an SMO mutex, mirroring the ARIES/KVL behaviour the paper
//     describes ("only one SMO is allowed for a B+tree index at a time");
//   - a latch-free mode skips all latching and SMO serialization, and
//     reaches its pages through the buffer pool's lock-free Lookup instead
//     of Fix, which is how PLP accesses the sub-trees owned by a single
//     partition worker.
//
// A full leaf splits in one of two places, by a fixed rule.  An insert past
// the last key of a leaf with no right sibling (the rightmost leaf of a
// tree, or of an MRBTree sub-tree, since slicing cuts the sibling chain)
// is an append: the leaf keeps 90% of its entries and the new right leaf
// takes the rest and the new key, so keys inserted in order, as a loader
// or a checkpoint image does, leave their leaves 90% full.  Every other
// split, interior nodes' included, moves the upper half.  The 10% left
// free lets a later random insert into a loaded leaf go in without an
// immediate split.  PostgreSQL's nbtree splits its rightmost pages the
// same way.
//
// A latch-free tree also takes an append case.  It remembers its rightmost
// leaf and a copy of that leaf's last key.  An insert whose key orders
// after the copy looks that leaf up once and, if the leaf still ends the
// tree (a leaf with no right sibling, not empty, ending below the key) and
// has room, appends the entry at its end: the leaf and slot a descent
// would have reached, so the tree is page for page the one a descent
// builds.  Any other insert descends as before; a miss touches no page.
// An ordered load, a checkpoint image and a re-seed insert in key order,
// so each row costs one leaf lookup instead of a descent and a binary
// search.  Latched trees always descend: their writers run concurrently,
// and reading a shared tail would need the leaf latch anyway.
//
// Page splits are not logged.  Recovery is logical (package recovery), so
// it rebuilds the trees from the logged records and reads no structural
// history.
//
// The same Tree type is used directly by the conventional design and as the
// per-partition sub-tree of the MRBTree (package mrbtree).  Slice and Meld —
// the sub-tree split/merge operations that make MRBTree repartitioning
// cheap — are implemented in slice.go.
package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"plp/internal/bufferpool"
	"plp/internal/cs"
	"plp/internal/latch"
	"plp/internal/page"
	"plp/internal/txn"
)

// Errors returned by tree operations.
var (
	ErrDuplicateKey  = errors.New("btree: duplicate key")
	ErrKeyNotFound   = errors.New("btree: key not found")
	ErrKeyTooLarge   = errors.New("btree: key exceeds MaxKeySize")
	ErrValueTooLarge = errors.New("btree: value exceeds MaxValueSize")
)

// Config configures a Tree.
type Config struct {
	// Latched selects the conventional latching protocol.  When false the
	// tree performs no latching at all (PLP sub-trees owned by a single
	// worker).
	Latched bool
	// MaxSlotsPerNode artificially limits node fan-out so tests can force
	// deep trees and frequent SMOs with little data.  Zero means "page
	// capacity only".  Values below 4 are rounded up to 4.
	MaxSlotsPerNode int
	// CSStats receives critical-section accounting (may be nil).
	CSStats *cs.Stats
}

// Tree is a B+Tree over buffer-pool pages.
type Tree struct {
	bp   *bufferpool.Pool
	cfg  Config
	id   uint32
	root page.ID

	// smoMu serializes structure modifications (page splits) within this
	// tree, as ARIES/KVL does.  MRBTrees give every sub-tree its own Tree
	// and therefore its own SMO mutex, which is what enables parallel SMOs.
	smoMu sync.Mutex

	// tail and tailKey are the append case's hint on a latch-free tree:
	// the last leaf an insert went into that had no right sibling, and a
	// copy of its last key then (see noteTail and appendTail).  The page is
	// checked before it is trusted; InvalidID means no hint.
	tail    page.ID
	tailKey []byte
}

// Create allocates an empty tree (a single empty leaf that permanently
// serves as the root page).
func Create(bp *bufferpool.Pool, id uint32, cfg Config) *Tree {
	if cfg.MaxSlotsPerNode > 0 && cfg.MaxSlotsPerNode < 4 {
		cfg.MaxSlotsPerNode = 4
	}
	frame := bp.NewPage(page.KindIndexLeaf)
	p := frame.Page()
	p.SetOwner(uint64(id))
	setNodeLevel(p, 0)
	root := p.ID()
	bp.Unfix(frame)
	return &Tree{bp: bp, cfg: cfg, id: id, root: root}
}

// Open returns a Tree over an existing root page (used when the MRBTree
// slices a sub-tree or re-opens one after a partition-table change).
func Open(bp *bufferpool.Pool, id uint32, root page.ID, cfg Config) *Tree {
	if cfg.MaxSlotsPerNode > 0 && cfg.MaxSlotsPerNode < 4 {
		cfg.MaxSlotsPerNode = 4
	}
	return &Tree{bp: bp, cfg: cfg, id: id, root: root}
}

// RootPage returns the (immutable) root page ID of the tree.
func (t *Tree) RootPage() page.ID { return t.root }

// ID returns the index space id.
func (t *Tree) ID() uint32 { return t.id }

// Latched reports whether the tree uses the conventional latching protocol.
func (t *Tree) Latched() bool { return t.cfg.Latched }

// latchNode acquires the node latch when latching is enabled, attributing
// wait time to the transaction's index-latch bucket.
func (t *Tree) latchNode(tx *txn.Txn, f *bufferpool.Frame, mode latch.Mode) {
	if !t.cfg.Latched {
		return
	}
	wait := f.Latch().Acquire(mode)
	if tx != nil {
		tx.Breakdown.AddLatch()
		tx.Breakdown.AddWait(txn.WaitIndexLatch, wait)
	}
}

// unlatchNode releases the node latch when latching is enabled.
func (t *Tree) unlatchNode(f *bufferpool.Frame, mode latch.Mode) {
	if !t.cfg.Latched {
		return
	}
	f.Latch().Release(mode)
}

// fix returns the frame of page id: through the buffer pool's Fix (pinned,
// inside its page-table critical section) on a latched tree, through the
// lock-free Lookup on a latch-free one, whose pages only the owning
// partition worker touches.
func (t *Tree) fix(id page.ID) (*bufferpool.Frame, error) {
	if t.cfg.Latched {
		return t.bp.Fix(id)
	}
	return t.bp.Lookup(id)
}

// unfix releases a frame fix returned: the pin on a latched tree, nothing
// on a latch-free one.
func (t *Tree) unfix(f *bufferpool.Frame) {
	if t.cfg.Latched {
		t.bp.Unfix(f)
	}
}

// releaseNode unlatches and unfixes a node frame.
func (t *Tree) releaseNode(f *bufferpool.Frame, mode latch.Mode) {
	t.unlatchNode(f, mode)
	t.unfix(f)
}

// validateSizes rejects oversized keys/values up front.
func validateSizes(key, value []byte) error {
	if len(key) == 0 || len(key) > MaxKeySize {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooLarge, len(key))
	}
	if len(value) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes", ErrValueTooLarge, len(value))
	}
	return nil
}

// Search returns a copy of the value stored under key.
func (t *Tree) Search(tx *txn.Txn, key []byte) ([]byte, bool, error) {
	f, err := t.descendRead(tx, key)
	if err != nil {
		return nil, false, err
	}
	pos, found, err := leafSearch(f.Page(), key)
	var out []byte
	if err == nil && found {
		_, v, verr := leafEntryAt(f.Page(), pos)
		if verr == nil {
			out = append([]byte(nil), v...)
		} else {
			err = verr
		}
	}
	t.releaseNode(f, latch.Shared)
	if err != nil {
		return nil, false, err
	}
	return out, found, nil
}

// descendRead walks from the root to the leaf covering key with shared
// latch crabbing and returns the leaf frame latched in shared mode.
func (t *Tree) descendRead(tx *txn.Txn, key []byte) (*bufferpool.Frame, error) {
	f, err := t.fix(t.root)
	if err != nil {
		return nil, err
	}
	t.latchNode(tx, f, latch.Shared)
	for !isLeaf(f.Page()) {
		idx, serr := interiorSearch(f.Page(), key)
		if serr != nil {
			t.releaseNode(f, latch.Shared)
			return nil, serr
		}
		_, child, eerr := interiorEntryAt(f.Page(), idx)
		if eerr != nil {
			t.releaseNode(f, latch.Shared)
			return nil, eerr
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

// descendWriteLeaf walks to the leaf covering key, holding shared latches on
// interior nodes and an exclusive latch on the leaf.  This is the optimistic
// path used when no split is expected.
func (t *Tree) descendWriteLeaf(tx *txn.Txn, key []byte) (*bufferpool.Frame, error) {
	f, err := t.descendWriteRoot(tx)
	if err != nil || f == nil {
		return f, err
	}
	if isLeaf(f.Page()) {
		// descendWriteRoot returned the root exclusively latched because it
		// is (still) a leaf.
		return f, nil
	}
	for {
		idx, serr := interiorSearch(f.Page(), key)
		if serr != nil {
			t.releaseNode(f, latch.Shared)
			return nil, serr
		}
		_, child, eerr := interiorEntryAt(f.Page(), idx)
		if eerr != nil {
			t.releaseNode(f, latch.Shared)
			return nil, eerr
		}
		cf, ferr := t.fix(child)
		if ferr != nil {
			t.releaseNode(f, latch.Shared)
			return nil, ferr
		}
		if isLeaf(cf.Page()) {
			t.latchNode(tx, cf, latch.Exclusive)
			t.releaseNode(f, latch.Shared)
			return cf, nil
		}
		t.latchNode(tx, cf, latch.Shared)
		t.releaseNode(f, latch.Shared)
		f = cf
	}
}

// descendWriteRoot latches the root for an optimistic write descent.  The
// root's kind can change underneath us (raiseRoot turns a leaf root into an
// interior root in place), so the kind must be re-checked after the latch is
// held: the root is returned exclusively latched if it is a leaf and
// share-latched if it is an interior node.
func (t *Tree) descendWriteRoot(tx *txn.Txn) (*bufferpool.Frame, error) {
	for {
		f, err := t.fix(t.root)
		if err != nil {
			return nil, err
		}
		t.latchNode(tx, f, latch.Shared)
		if !isLeaf(f.Page()) {
			return f, nil
		}
		// The root looks like a leaf: we need it exclusively.  RWMutex has
		// no upgrade, so release and re-acquire, then re-check.
		t.unlatchNode(f, latch.Shared)
		t.latchNode(tx, f, latch.Exclusive)
		if isLeaf(f.Page()) {
			return f, nil
		}
		// Lost the race with a root raise; retry as an interior descent.
		t.releaseNode(f, latch.Exclusive)
	}
}

// Insert adds key/value.  It returns ErrDuplicateKey if the key is already
// present.
func (t *Tree) Insert(tx *txn.Txn, key, value []byte) error {
	return t.insert(tx, key, value, nil, false)
}

// Put adds key/value, overwriting the existing value if the key is present.
func (t *Tree) Put(tx *txn.Txn, key, value []byte) error {
	return t.insert(tx, key, value, nil, true)
}

// PlaceFunc places a new entry's record once its insert knows the leaf the
// key belongs on, and returns where the record went.
type PlaceFunc func(leaf page.ID) (page.RID, error)

// InsertPlaced adds key with the encoded RID place returns as its value,
// failing with ErrDuplicateKey, without calling place, if the key is
// already present.  place is called once, with the ID of the leaf that
// ends up holding the key, while that leaf is held (exclusively latched on
// a latched tree): when the insert splits a leaf, after the split has
// decided which half covers the key.  PLP-Leaf uses it to put a new heap
// record on a page the leaf owns in the same descent that inserts the
// record's index entry.  If InsertPlaced fails after place returned, the
// caller undoes whatever place did.
func (t *Tree) InsertPlaced(tx *txn.Txn, key []byte, place PlaceFunc) error {
	return t.insert(tx, key, nil, place, false)
}

func (t *Tree) insert(tx *txn.Txn, key, value []byte, place PlaceFunc, upsert bool) error {
	if err := validateSizes(key, value); err != nil {
		return err
	}
	if done, err := t.appendTail(key, value, place); done {
		return err
	}

	// Optimistic attempt: leaf-only exclusive latch.
	f, err := t.descendWriteLeaf(tx, key)
	if err != nil {
		return err
	}
	p := f.Page()
	pos, found, err := leafSearch(p, key)
	if err != nil {
		t.releaseNode(f, latch.Exclusive)
		return err
	}
	if found {
		if !upsert {
			t.releaseNode(f, latch.Exclusive)
			return fmt.Errorf("%w: %x", ErrDuplicateKey, key)
		}
		err = t.updateLeafEntry(tx, f, pos, key, value)
		if err == nil {
			t.releaseNode(f, latch.Exclusive)
			return nil
		}
		if !errors.Is(err, page.ErrPageFull) {
			t.releaseNode(f, latch.Exclusive)
			return err
		}
		// Fall through to the pessimistic path: replacing needs a split.
		t.releaseNode(f, latch.Exclusive)
		return t.insertPessimistic(tx, key, value, nil, upsert)
	}
	if !nodeFull(p, leafEntrySize(key, value, place), t.cfg.MaxSlotsPerNode) {
		err := t.insertLeafEntry(p, pos, key, value, place)
		t.releaseNode(f, latch.Exclusive)
		return err
	}
	t.releaseNode(f, latch.Exclusive)
	return t.insertPessimistic(tx, key, value, place, upsert)
}

// appendTail is the append case of a latch-free tree's insert: when key
// orders after the hint's last key, and the hinted leaf still ends the
// tree below key and has room, it appends key's entry to that leaf and
// reports done.  Otherwise it touches nothing (beyond looking the leaf up)
// and the insert descends.  The leaf is the one a descent would reach: a
// leaf with no right sibling is the tree's rightmost (slicing cuts the
// chain, and SliceAt and Meld drop the hint), and key orders after every
// key in it, so after every separator on the way down too.
func (t *Tree) appendTail(key, value []byte, place PlaceFunc) (bool, error) {
	if t.cfg.Latched || t.tail == page.InvalidID || bytes.Compare(key, t.tailKey) <= 0 {
		return false, nil
	}
	f, err := t.bp.Lookup(t.tail)
	if err != nil {
		return false, nil
	}
	p := f.Page()
	n := p.NumSlots()
	if !isLeaf(p) || p.Next() != page.InvalidID || n == 0 ||
		nodeFull(p, leafEntrySize(key, value, place), t.cfg.MaxSlotsPerNode) {
		return false, nil
	}
	last, err := leafKeyAt(p, n-1)
	if err != nil || bytes.Compare(last, key) >= 0 {
		return false, nil
	}
	return true, t.insertLeafEntry(p, n, key, value, place)
}

// noteTail makes leaf p the append case's hint if it has no right sibling,
// with a copy of its last key.  Every insert into a leaf calls it, once
// the entry is in.
func (t *Tree) noteTail(p *page.Page) {
	if t.cfg.Latched || p.Next() != page.InvalidID {
		return
	}
	last, err := leafKeyAt(p, p.NumSlots()-1)
	if err != nil {
		return
	}
	t.tail = p.ID()
	t.tailKey = append(t.tailKey[:0], last...)
}

// dropTail forgets the append case's hint.  SliceAt and Meld call it: they
// move leaves between trees, so the hinted leaf may end another tree.
func (t *Tree) dropTail() { t.tail = page.InvalidID }

// leafEntrySize is the encoded size of the leaf entry key gets: with
// value, or with the RID place returns.
func leafEntrySize(key, value []byte, place PlaceFunc) int {
	if place != nil {
		return 4 + len(key) + page.RIDSize
	}
	return 4 + len(key) + len(value)
}

// insertLeafEntry inserts key's entry at position pos of leaf p, which has
// room for it: with value, or with the RID place returns for p.  The entry
// is written straight into the page.
func (t *Tree) insertLeafEntry(p *page.Page, pos int, key, value []byte, place PlaceFunc) error {
	var rid page.RID
	if place != nil {
		var err error
		if rid, err = place(p.ID()); err != nil {
			return err
		}
	}
	buf, err := p.InsertSpace(pos, leafEntrySize(key, value, place))
	if err != nil {
		return err
	}
	if place != nil {
		page.PutRID(putLeafKey(buf, key, page.RIDSize), rid)
	} else {
		copy(putLeafKey(buf, key, len(value)), value)
	}
	t.noteTail(p)
	return nil
}

// updateLeafEntry overwrites the value of an existing leaf entry in place.
func (t *Tree) updateLeafEntry(tx *txn.Txn, f *bufferpool.Frame, pos int, key, value []byte) error {
	return f.Page().SetAt(pos, encodeLeafEntry(key, value))
}

// Update overwrites the value of an existing key.  It returns
// ErrKeyNotFound if the key is absent.
func (t *Tree) Update(tx *txn.Txn, key, value []byte) error {
	return t.update(tx, key, value, nil)
}

// UpdatePlaced overwrites the value of an existing key with the encoded RID
// place returns, failing with ErrKeyNotFound, without calling place, if the
// key is absent.  As in InsertPlaced, place is called once, with the ID of
// the leaf the descent reached, while that leaf is held.  PLP-Leaf uses it
// to move a record onto a page of the leaf that covers its key and repoint
// the entry in one descent.  If UpdatePlaced fails after place returned,
// the caller undoes whatever place did.
func (t *Tree) UpdatePlaced(tx *txn.Txn, key []byte, place PlaceFunc) error {
	return t.update(tx, key, nil, place)
}

func (t *Tree) update(tx *txn.Txn, key, value []byte, place PlaceFunc) error {
	if err := validateSizes(key, value); err != nil {
		return err
	}
	f, err := t.descendWriteLeaf(tx, key)
	if err != nil {
		return err
	}
	p := f.Page()
	pos, found, err := leafSearch(p, key)
	if err != nil || !found {
		t.releaseNode(f, latch.Exclusive)
		if err != nil {
			return err
		}
		return fmt.Errorf("%w: %x", ErrKeyNotFound, key)
	}
	if place != nil {
		rid, err := place(p.ID())
		if err != nil {
			t.releaseNode(f, latch.Exclusive)
			return err
		}
		value = page.EncodeRID(rid)
	}
	err = t.updateLeafEntry(tx, f, pos, key, value)
	if err == nil {
		t.releaseNode(f, latch.Exclusive)
		return nil
	}
	t.releaseNode(f, latch.Exclusive)
	if errors.Is(err, page.ErrPageFull) {
		return t.insertPessimistic(tx, key, value, nil, true)
	}
	return err
}

// Delete removes key.  It reports whether the key was present.  Underflowed
// nodes are not merged (deletes are rare in the paper's workloads and
// ARIES/KVL-style merges would not change which critical sections are
// measured); empty leaves simply remain in place until their sibling splits
// reuse the space.
func (t *Tree) Delete(tx *txn.Txn, key []byte) (bool, error) {
	if len(key) == 0 || len(key) > MaxKeySize {
		return false, ErrKeyTooLarge
	}
	f, err := t.descendWriteLeaf(tx, key)
	if err != nil {
		return false, err
	}
	p := f.Page()
	pos, found, err := leafSearch(p, key)
	if err != nil || !found {
		t.releaseNode(f, latch.Exclusive)
		return false, err
	}
	err = p.RemoveAt(pos)
	t.releaseNode(f, latch.Exclusive)
	if err != nil {
		return false, err
	}
	return true, nil
}

// insertPessimistic performs the insert while holding the SMO mutex and
// exclusive latches on every node that may be modified by the split chain.
func (t *Tree) insertPessimistic(tx *txn.Txn, key, value []byte, place PlaceFunc, upsert bool) error {
	if t.cfg.Latched {
		if !t.smoMu.TryLock() {
			start := time.Now()
			t.smoMu.Lock()
			if tx != nil {
				tx.Breakdown.AddWait(txn.WaitSMO, time.Since(start))
			}
			t.cfg.CSStats.Record(cs.Latching, true)
		} else {
			t.cfg.CSStats.Record(cs.Latching, false)
		}
		defer t.smoMu.Unlock()
	}

	path, err := t.descendPessimistic(tx, key, leafEntrySize(key, value, place))
	if err != nil {
		return err
	}
	leafFrame := path[len(path)-1]
	p := leafFrame.Page()
	pos, found, err := leafSearch(p, key)
	if err != nil {
		t.releasePath(path)
		return err
	}
	if found {
		if !upsert {
			t.releasePath(path)
			return fmt.Errorf("%w: %x", ErrDuplicateKey, key)
		}
		// Remove the old entry, then insert the new one (possibly splitting).
		if err := p.RemoveAt(pos); err != nil {
			t.releasePath(path)
			return err
		}
	}
	err = t.insertIntoLeafWithSplit(tx, path, key, value, place)
	t.releasePath(path)
	return err
}

// descendPessimistic walks to the leaf covering key holding exclusive
// latches, releasing ancestors as soon as a child is "safe" (cannot be
// affected by a split below it).  The returned path runs from the shallowest
// retained node to the leaf; every frame is fixed and exclusively latched.
func (t *Tree) descendPessimistic(tx *txn.Txn, key []byte, leafEntrySize int) ([]*bufferpool.Frame, error) {
	var path []*bufferpool.Frame
	f, err := t.fix(t.root)
	if err != nil {
		return nil, err
	}
	t.latchNode(tx, f, latch.Exclusive)
	path = append(path, f)
	for {
		p := f.Page()
		if isLeaf(p) {
			return path, nil
		}
		idx, serr := interiorSearch(p, key)
		if serr != nil {
			t.releasePath(path)
			return nil, serr
		}
		_, child, eerr := interiorEntryAt(p, idx)
		if eerr != nil {
			t.releasePath(path)
			return nil, eerr
		}
		cf, ferr := t.fix(child)
		if ferr != nil {
			t.releasePath(path)
			return nil, ferr
		}
		t.latchNode(tx, cf, latch.Exclusive)
		var safe bool
		if isLeaf(cf.Page()) {
			safe = !nodeFull(cf.Page(), leafEntrySize, t.cfg.MaxSlotsPerNode)
		} else {
			safe = interiorSafe(cf.Page(), t.cfg.MaxSlotsPerNode)
		}
		if safe {
			t.releasePath(path)
			path = path[:0]
		}
		path = append(path, cf)
		f = cf
	}
}

// releasePath unlatches and unfixes every frame in the path.
func (t *Tree) releasePath(path []*bufferpool.Frame) {
	for i := len(path) - 1; i >= 0; i-- {
		t.releaseNode(path[i], latch.Exclusive)
	}
}

// insertIntoLeafWithSplit inserts key/value into the leaf at the end of
// path, splitting the leaf (and cascading splits upward along path) as
// needed.  All frames in path are exclusively latched.  When the leaf
// splits, the split completes before the entry goes into the half that
// covers key, so place sees that half, and a failing place leaves a
// consistent tree without the key.
func (t *Tree) insertIntoLeafWithSplit(tx *txn.Txn, path []*bufferpool.Frame, key, value []byte, place PlaceFunc) error {
	leafFrame := path[len(path)-1]
	p := leafFrame.Page()

	if !nodeFull(p, leafEntrySize(key, value, place), t.cfg.MaxSlotsPerNode) {
		pos, _, err := leafSearch(p, key)
		if err != nil {
			return err
		}
		return t.insertLeafEntry(p, pos, key, value, place)
	}

	// The leaf must split.
	mid, err := leafSplitPoint(p, key)
	if err != nil {
		return err
	}
	if p.ID() == t.root {
		return t.splitRoot(tx, leafFrame, mid, key, value, place)
	}
	if len(path) < 2 {
		return fmt.Errorf("btree: split of non-root leaf %v without latched parent", p.ID())
	}
	rightFrame, sepKey, err := t.splitLeaf(tx, leafFrame, mid)
	if err != nil {
		return err
	}
	defer t.bp.Unfix(rightFrame)
	if err := t.insertSeparator(tx, path, len(path)-2, sepKey, rightFrame.Page().ID()); err != nil {
		return err
	}
	target := p
	if bytes.Compare(key, sepKey) >= 0 {
		target = rightFrame.Page()
	}
	pos, _, err := leafSearch(target, key)
	if err != nil {
		return err
	}
	return t.insertLeafEntry(target, pos, key, value, place)
}

// appendSplitPercent is the share of a full leaf's entries, in percent, an
// append split keeps on the leaf.
const appendSplitPercent = 90

// leafSplitPoint returns how many of full leaf p's entries stay on p when
// inserting key splits it.  An insert past the last key of a leaf with no
// right sibling, the rightmost leaf of its tree, is an append: the split
// keeps appendSplitPercent of the entries, so keys that arrive in order
// leave their leaves 90% full rather than half full.  Every other split
// keeps half.
func leafSplitPoint(p *page.Page, key []byte) (int, error) {
	n := p.NumSlots()
	if n > 1 && p.Next() == page.InvalidID {
		last, err := leafKeyAt(p, n-1)
		if err != nil {
			return 0, err
		}
		if bytes.Compare(key, last) > 0 {
			return n * appendSplitPercent / 100, nil
		}
	}
	return halfSplit(p), nil
}

// halfSplit returns how many of full node p's entries stay on p when it
// splits in the middle.
func halfSplit(p *page.Page) int { return max(p.NumSlots()/2, 1) }

// splitLeaf splits the full leaf in leafFrame, moving its entries from
// position mid on to a new right sibling.  It returns the right sibling's
// frame, still fixed, and the separator key (the first key of the right
// sibling); the caller posts the separator and then inserts its pending
// entry into whichever half covers it.
func (t *Tree) splitLeaf(tx *txn.Txn, leafFrame *bufferpool.Frame, mid int) (*bufferpool.Frame, []byte, error) {
	p := leafFrame.Page()
	rightFrame := t.bp.NewPage(page.KindIndexLeaf)
	right := rightFrame.Page()
	right.SetOwner(p.Owner())
	setNodeLevel(right, 0)

	// Copy entries [mid, n) to the right node.
	for i := mid; i < p.NumSlots(); i++ {
		buf, gerr := p.GetAt(i)
		if gerr != nil {
			t.bp.Unfix(rightFrame)
			return nil, nil, gerr
		}
		if ierr := right.InsertAt(right.NumSlots(), buf); ierr != nil {
			t.bp.Unfix(rightFrame)
			return nil, nil, ierr
		}
	}
	if err := p.Truncate(mid); err != nil {
		t.bp.Unfix(rightFrame)
		return nil, nil, err
	}

	// Fix the leaf sibling chain: p <-> right <-> oldNext.
	oldNext := p.Next()
	right.SetNext(oldNext)
	right.SetPrev(p.ID())
	p.SetNext(right.ID())
	if oldNext != page.InvalidID {
		if nf, ferr := t.fix(oldNext); ferr == nil {
			t.latchNode(tx, nf, latch.Exclusive)
			nf.Page().SetPrev(right.ID())
			t.releaseNode(nf, latch.Exclusive)
		}
	}

	sepKey, err := leafKeyAt(right, 0)
	if err != nil {
		t.bp.Unfix(rightFrame)
		return nil, nil, err
	}
	return rightFrame, append([]byte(nil), sepKey...), nil
}

// insertSeparator inserts (sepKey -> child) into the interior node at
// path[idx], splitting it (and recursing upward) if necessary.
func (t *Tree) insertSeparator(tx *txn.Txn, path []*bufferpool.Frame, idx int, sepKey []byte, child page.ID) error {
	f := path[idx]
	p := f.Page()
	entry := encodeInteriorEntry(sepKey, child)
	if !nodeFull(p, len(entry), t.cfg.MaxSlotsPerNode) {
		pos, err := interiorInsertPos(p, sepKey)
		if err != nil {
			return err
		}
		return p.InsertAt(pos, entry)
	}
	// The interior node must split.
	if p.ID() == t.root {
		return t.splitRootWithSeparator(tx, f, sepKey, child)
	}
	if idx == 0 {
		return fmt.Errorf("btree: interior split of %v without latched parent", p.ID())
	}
	newSep, rightPID, err := t.splitInterior(tx, f, sepKey, child)
	if err != nil {
		return err
	}
	return t.insertSeparator(tx, path, idx-1, newSep, rightPID)
}

// splitInterior splits the full interior node in frame f, moving the upper
// half of its entries to a new right sibling, then inserts the pending
// separator into the correct half.  It returns the separator to push up and
// the new right node's page ID.
func (t *Tree) splitInterior(tx *txn.Txn, f *bufferpool.Frame, sepKey []byte, child page.ID) ([]byte, page.ID, error) {
	p := f.Page()
	rightFrame := t.bp.NewPage(page.KindIndexInterior)
	right := rightFrame.Page()
	right.SetOwner(p.Owner())
	setNodeLevel(right, nodeLevel(p))

	mid := halfSplit(p)
	for i := mid; i < p.NumSlots(); i++ {
		buf, gerr := p.GetAt(i)
		if gerr != nil {
			t.bp.Unfix(rightFrame)
			return nil, 0, gerr
		}
		if ierr := right.InsertAt(right.NumSlots(), buf); ierr != nil {
			t.bp.Unfix(rightFrame)
			return nil, 0, ierr
		}
	}
	if err := p.Truncate(mid); err != nil {
		t.bp.Unfix(rightFrame)
		return nil, 0, err
	}

	// The separator to push up is the first key of the right node (lower
	// bound convention).
	pushKey, _, err := interiorEntryAt(right, 0)
	if err != nil {
		t.bp.Unfix(rightFrame)
		return nil, 0, err
	}
	pushKey = append([]byte(nil), pushKey...)

	// Insert the pending separator into the correct half.
	target := p
	if bytes.Compare(sepKey, pushKey) >= 0 {
		target = right
	}
	pos, err := interiorInsertPos(target, sepKey)
	if err == nil {
		err = target.InsertAt(pos, encodeInteriorEntry(sepKey, child))
	}
	rightPID := right.ID()
	t.bp.Unfix(rightFrame)
	if err != nil {
		return nil, 0, err
	}
	return pushKey, rightPID, nil
}

// splitRoot handles the split of a leaf root that is the target of a
// pending leaf entry insert, keeping mid of its entries on the left child.
// The root page ID never changes: the root's contents move into two
// freshly allocated children and the root becomes an interior node one
// level higher.
func (t *Tree) splitRoot(tx *txn.Txn, rootFrame *bufferpool.Frame, mid int, key, value []byte, place PlaceFunc) error {
	if err := t.raiseRoot(tx, rootFrame, mid); err != nil {
		return err
	}
	// After raising, the root is an interior node with exactly two leaf
	// children, each with room to spare; descend one level and insert.
	p := rootFrame.Page()
	idx, err := interiorSearch(p, key)
	if err != nil {
		return err
	}
	_, child, err := interiorEntryAt(p, idx)
	if err != nil {
		return err
	}
	cf, err := t.fix(child)
	if err != nil {
		return err
	}
	t.latchNode(tx, cf, latch.Exclusive)
	defer t.releaseNode(cf, latch.Exclusive)
	if !isLeaf(cf.Page()) {
		return fmt.Errorf("btree: unexpected interior child right after root raise")
	}
	pos, _, err := leafSearch(cf.Page(), key)
	if err != nil {
		return err
	}
	return t.insertLeafEntry(cf.Page(), pos, key, value, place)
}

// splitRootWithSeparator handles the split of an interior root when a
// separator must be inserted into it.
func (t *Tree) splitRootWithSeparator(tx *txn.Txn, rootFrame *bufferpool.Frame, sepKey []byte, child page.ID) error {
	if err := t.raiseRoot(tx, rootFrame, halfSplit(rootFrame.Page())); err != nil {
		return err
	}
	p := rootFrame.Page()
	idx, err := interiorSearch(p, sepKey)
	if err != nil {
		return err
	}
	_, target, err := interiorEntryAt(p, idx)
	if err != nil {
		return err
	}
	cf, err := t.fix(target)
	if err != nil {
		return err
	}
	t.latchNode(tx, cf, latch.Exclusive)
	defer t.releaseNode(cf, latch.Exclusive)
	pos, err := interiorInsertPos(cf.Page(), sepKey)
	if err != nil {
		return err
	}
	return cf.Page().InsertAt(pos, encodeInteriorEntry(sepKey, child))
}

// raiseRoot moves the contents of the (full) root into two new children,
// the first mid entries into the left one, and turns the root into an
// interior node pointing at them.  The root page ID is preserved so that
// concurrent descents through a stale root pointer stay correct.
func (t *Tree) raiseRoot(tx *txn.Txn, rootFrame *bufferpool.Frame, mid int) error {
	p := rootFrame.Page()
	level := nodeLevel(p)
	childKind := page.KindIndexInterior
	if isLeaf(p) {
		childKind = page.KindIndexLeaf
	}

	leftFrame := t.bp.NewPage(childKind)
	rightFrame := t.bp.NewPage(childKind)
	left, right := leftFrame.Page(), rightFrame.Page()
	left.SetOwner(p.Owner())
	right.SetOwner(p.Owner())
	setNodeLevel(left, level)
	setNodeLevel(right, level)

	n := p.NumSlots()
	copyRange := func(dst *page.Page, from, to int) error {
		for i := from; i < to; i++ {
			buf, gerr := p.GetAt(i)
			if gerr != nil {
				return gerr
			}
			if ierr := dst.InsertAt(dst.NumSlots(), buf); ierr != nil {
				return ierr
			}
		}
		return nil
	}
	if err := copyRange(left, 0, mid); err != nil {
		t.bp.Unfix(leftFrame)
		t.bp.Unfix(rightFrame)
		return err
	}
	if err := copyRange(right, mid, n); err != nil {
		t.bp.Unfix(leftFrame)
		t.bp.Unfix(rightFrame)
		return err
	}

	// Separator between the two halves.
	var sepKey []byte
	if childKind == page.KindIndexLeaf {
		k, kerr := leafKeyAt(right, 0)
		if kerr != nil {
			t.bp.Unfix(leftFrame)
			t.bp.Unfix(rightFrame)
			return kerr
		}
		sepKey = append([]byte(nil), k...)
		left.SetNext(right.ID())
		right.SetPrev(left.ID())
	} else {
		k, _, kerr := interiorEntryAt(right, 0)
		if kerr != nil {
			t.bp.Unfix(leftFrame)
			t.bp.Unfix(rightFrame)
			return kerr
		}
		sepKey = append([]byte(nil), k...)
	}

	// Rebuild the root as an interior node one level higher.
	owner := p.Owner()
	rootID := p.ID()
	p.Reset(rootID, page.KindIndexInterior)
	p.SetOwner(owner)
	setNodeLevel(p, level+1)
	if err := p.InsertAt(0, encodeInteriorEntry(nil, left.ID())); err != nil {
		t.bp.Unfix(leftFrame)
		t.bp.Unfix(rightFrame)
		return err
	}
	if err := p.InsertAt(1, encodeInteriorEntry(sepKey, right.ID())); err != nil {
		t.bp.Unfix(leftFrame)
		t.bp.Unfix(rightFrame)
		return err
	}
	t.bp.Unfix(leftFrame)
	t.bp.Unfix(rightFrame)
	return nil
}
