// Ctx: the design-aware data access layer handed to action bodies.
package engine

import (
	"errors"
	"fmt"
	"time"

	"plp/internal/btree"
	"plp/internal/catalog"
	"plp/internal/dora"
	"plp/internal/heap"
	"plp/internal/lock"
	"plp/internal/logrec"
	"plp/internal/mrbtree"
	"plp/internal/page"
	"plp/internal/recovery"
	"plp/internal/txn"
	"plp/internal/wal"
)

// Errors returned by Ctx operations.  ErrNotFound wraps
// recovery.ErrNotFound, so replay recognises a missing key.
var (
	ErrNotFound  = fmt.Errorf("engine: %w", recovery.ErrNotFound)
	ErrDuplicate = errors.New("engine: duplicate key")
)

// Ctx carries one action's execution context: the transaction, the worker
// executing it (nil in the Conventional design), and the engine whose
// storage it accesses.  All data access goes through Ctx so that locking,
// latching, heap placement and logging follow the engine's design.
type Ctx struct {
	eng       *Engine
	tx        *txn.Txn
	sess      *Session
	worker    *dora.Worker
	partition int
	loading   bool

	// tableLocks are the table-level locks acquired through the central
	// lock manager during this transaction (Conventional design); at commit
	// they are inherited by the session's SLI cache instead of being
	// released.
	tableLocks map[lock.Name]lock.Mode
}

// Txn returns the transaction this context belongs to.
func (c *Ctx) Txn() *txn.Txn { return c.tx }

// Partition returns the logical partition executing the action, or -1 in
// the Conventional design.
func (c *Ctx) Partition() int { return c.partition }

// Engine returns the engine.
func (c *Ctx) Engine() *Engine { return c.eng }

// keyHash hashes a key for key-level lock names.  It is FNV-1a inlined by
// hand: hash/fnv returns its state behind an interface, which escapes and
// costs one heap allocation per lock acquisition on the hot path.
func keyHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	v := uint64(offset64)
	for _, b := range key {
		v ^= uint64(b)
		v *= prime64
	}
	if v == 0 {
		v = 1
	}
	return v
}

// lockTable acquires the table-level intention lock in the Conventional
// design, going through the SLI cache when available.
func (c *Ctx) lockTable(tbl *catalog.Table, mode lock.Mode) error {
	if c.loading || c.eng.opts.Design != Conventional || c.eng.locks == nil {
		return nil
	}
	name := lock.TableName(tbl.ID)
	if held, ok := c.tableLocks[name]; ok && lock.Supremum(held, mode) == held {
		return nil
	}
	var wait time.Duration
	var err error
	if c.sess != nil && c.sess.sli != nil {
		var hit bool
		wait, hit, err = c.sess.sli.Acquire(c.tx.ID(), name, mode)
		if err == nil && hit {
			// Inherited: no lock-manager interaction happened.
			return nil
		}
	} else {
		wait, err = c.eng.locks.Acquire(c.tx.ID(), name, mode)
	}
	c.tx.Breakdown.AddWait(txn.WaitLock, wait)
	if err != nil {
		return err
	}
	if c.tableLocks == nil {
		c.tableLocks = make(map[lock.Name]lock.Mode)
	}
	c.tableLocks[name] = lock.Supremum(c.tableLocks[name], mode)
	return nil
}

// lockKey acquires a record-level lock: via the centralized manager in the
// Conventional design, via the worker-local lock table in the partitioned
// designs.
func (c *Ctx) lockKey(tbl *catalog.Table, key []byte, mode lock.Mode) error {
	if c.loading {
		return nil
	}
	name := lock.KeyName(tbl.ID, keyHash(key))
	if c.eng.opts.Design == Conventional {
		tableMode := lock.IS
		if mode == lock.X {
			tableMode = lock.IX
		}
		if err := c.lockTable(tbl, tableMode); err != nil {
			return err
		}
		wait, err := c.eng.locks.Acquire(c.tx.ID(), name, mode)
		c.tx.Breakdown.AddWait(txn.WaitLock, wait)
		if err != nil {
			return err
		}
		c.tx.RecordLock(name)
		return nil
	}
	if c.worker != nil {
		// Thread-local locking: the owning worker executes actions
		// serially, so a conflicting holder can only be another in-flight
		// transaction on this worker; actions are short, so we spin via
		// re-check (in practice conflicts are resolved by the serial
		// execution order).
		c.worker.Locks().TryAcquire(c.tx.ID(), name, mode)
	}
	return nil
}

// logModification appends a redo log record for a data modification of
// the record under key: the table, the key and after, the whole record
// image after the change (nil for a delete).  That is all logical restart
// recovery (package recovery) needs to rebuild the database from the log.
// No before-image is logged because nothing would read it: the no-steal,
// memory-resident buffer pool never exposes an uncommitted change to
// stable storage, an abort undoes through the closures the transaction
// keeps, and replay skips the records of transactions that did not commit.
func (c *Ctx) logModification(t wal.RecordType, tbl *catalog.Table, key, after []byte) {
	c.appendLog(t, logrec.Modification{Table: tbl.Def.Name, Key: key, After: after})
}

// logSecondary appends a redo log record for a secondary-index
// modification so that recovery can rebuild secondary indexes as well.
func (c *Ctx) logSecondary(t wal.RecordType, table, index string, secKey, after []byte) {
	c.appendLog(t, logrec.Modification{Table: table, Index: index, Key: secKey, After: after})
}

// appendLog encodes m and appends it to the log on behalf of the
// transaction, unless the context is a loader or the engine has no log.
func (c *Ctx) appendLog(t wal.RecordType, m logrec.Modification) {
	if c.loading || c.eng.log == nil {
		return
	}
	rec := &wal.Record{
		Txn:     c.tx.ID(),
		Type:    t,
		Payload: logrec.EncodeModification(m),
	}
	start := time.Now()
	lsn := c.eng.log.Append(rec)
	c.tx.Breakdown.AddWait(txn.WaitLog, time.Since(start))
	c.tx.SetLastLSN(lsn)
}

// heapOwner computes the owner tag of the heap page a new record under key
// goes on, implementing the three heap policies of Section 3.3: the
// shared pool, the owning partition, or leaf, the primary-index leaf the
// key's entry is inserted into (PLP-Leaf).
func (e *Engine) heapOwner(table string, key []byte, leaf page.ID) uint64 {
	switch e.opts.Design {
	case PLPPartition:
		return uint64(e.partitionFor(table, key)) + 1
	case PLPLeaf:
		return uint64(leaf)
	default:
		return heap.SharedOwner
	}
}

// insertRecord places rec on a heap page of tbl and indexes it under key,
// with one primary-index descent: the index insert hands the leaf it
// reached to the heap placement ("the system must identify the correct
// MRBTree entry before selecting a heap page", Section 3.3).  A duplicate
// key places nothing, and a failed insert leaves no heap record behind.
func (e *Engine) insertRecord(tx *txn.Txn, tbl *catalog.Table, key, rec []byte) (page.RID, error) {
	return e.placeRecord(tx, tbl, key, rec, false)
}

// moveRecord places a new copy rec of key's record on a heap page of tbl
// and repoints key's primary entry at it, in one descent, so that under
// PLP-Leaf the copy lands on a page of the leaf that covers key now.  The
// caller deletes the old copy.
func (e *Engine) moveRecord(tx *txn.Txn, tbl *catalog.Table, key, rec []byte) (page.RID, error) {
	return e.placeRecord(tx, tbl, key, rec, true)
}

func (e *Engine) placeRecord(tx *txn.Txn, tbl *catalog.Table, key, rec []byte, existing bool) (page.RID, error) {
	var rid page.RID
	place := func(leaf page.ID) (page.RID, error) {
		var herr error
		rid, herr = tbl.Heap.Insert(tx, e.heapOwner(tbl.Def.Name, key, leaf), rec)
		return rid, herr
	}
	var err error
	if existing {
		err = tbl.Primary.UpdatePlaced(tx, key, place)
	} else {
		err = tbl.Primary.InsertPlaced(tx, key, place)
	}
	if err != nil && rid.Valid() {
		_ = tbl.Heap.Delete(tx, rid)
	}
	return rid, err
}

// Read returns the record stored under key in table.
func (c *Ctx) Read(table string, key []byte) ([]byte, error) {
	tbl, err := c.eng.Table(table)
	if err != nil {
		return nil, err
	}
	if err := c.lockKey(tbl, key, lock.S); err != nil {
		return nil, err
	}
	val, found, err := tbl.Primary.Search(c.tx, key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %s/%x", ErrNotFound, table, key)
	}
	if tbl.Def.Clustered {
		return val, nil
	}
	rid, err := page.DecodeRID(val)
	if err != nil {
		return nil, err
	}
	return tbl.Heap.Get(c.tx, rid)
}

// ReadForUpdate returns the record stored under key, acquiring the
// exclusive lock up front (the SELECT ... FOR UPDATE pattern).  Read-then-
// update sequences on hot records (the TPC-B branch row, the TPC-C district
// counter) must use it in the Conventional design: acquiring S first and
// upgrading to X later deadlocks as soon as two transactions hold the S
// lock simultaneously.
func (c *Ctx) ReadForUpdate(table string, key []byte) ([]byte, error) {
	r, err := c.locate(table, key)
	if err != nil {
		return nil, err
	}
	if !r.found {
		return nil, fmt.Errorf("%w: %s/%x", ErrNotFound, table, key)
	}
	return r.cur, nil
}

// rowRef is a record located once for a read-modify-write: a copy of its
// current image and, on heap tables, the RID it lives at.
type rowRef struct {
	tbl   *catalog.Table
	key   []byte
	rid   page.RID
	found bool
	cur   []byte
}

// locate takes the exclusive lock on key and finds its record with one
// primary-index descent, plus one heap read on heap tables.  A missing key
// is not an error: the result has found == false.
func (c *Ctx) locate(table string, key []byte) (rowRef, error) {
	tbl, err := c.eng.Table(table)
	if err != nil {
		return rowRef{}, err
	}
	if err := c.lockKey(tbl, key, lock.X); err != nil {
		return rowRef{}, err
	}
	r := rowRef{tbl: tbl, key: key}
	val, found, err := tbl.Primary.Search(c.tx, key)
	if err != nil || !found {
		return r, err
	}
	if tbl.Def.Clustered {
		r.found, r.cur = true, val
		return r, nil
	}
	if r.rid, err = page.DecodeRID(val); err != nil {
		return r, err
	}
	if r.cur, err = tbl.Heap.Get(c.tx, r.rid); err != nil {
		return r, err
	}
	r.found = true
	return r, nil
}

// rewrite replaces the record r located with next.  On heap tables it
// writes over the same RID, and moves the record to another page only when
// it has outgrown its own.  With n == 0 the log record carries next whole;
// with n > 0 it carries only next[off:off+n], the bytes the caller changed.
func (c *Ctx) rewrite(r rowRef, next []byte, off, n int) error {
	tbl, key, old := r.tbl, r.key, r.cur
	if tbl.Def.Clustered {
		if err := tbl.Primary.Update(c.tx, key, next); err != nil {
			return mapBtreeErr(err)
		}
		if c.undoing() {
			c.tx.PushUndo(func() error { return tbl.Primary.Update(nil, key, old) })
		}
	} else if err := tbl.Heap.Update(c.tx, r.rid, next); err == nil {
		rid := r.rid
		if c.undoing() {
			c.tx.PushUndo(func() error { return tbl.Heap.Update(nil, rid, old) })
		}
	} else if !errors.Is(err, page.ErrPageFull) {
		return err
	} else if err := c.relocate(r, next); err != nil {
		return err
	}
	m := logrec.Modification{Table: tbl.Def.Name, Key: key, After: next}
	if n > 0 {
		m.At, m.After = logrec.PatchAt(off), next[off:off+n]
	}
	c.appendLog(wal.RecUpdate, m)
	return nil
}

// relocate moves a heap record that grew beyond the room on its page to a
// page of the owner its key's placement picks now (under PLP-Leaf, the leaf
// that covers the key) and repoints the primary index entry.
func (c *Ctx) relocate(r rowRef, next []byte) error {
	tbl, key, old, oldRID := r.tbl, r.key, r.cur, r.rid
	newRID, err := c.eng.moveRecord(c.tx, tbl, key, next)
	if err != nil {
		return err
	}
	if err := tbl.Heap.Delete(c.tx, oldRID); err != nil {
		return err
	}
	if c.undoing() {
		c.tx.PushUndo(func() error {
			if derr := tbl.Heap.Delete(nil, newRID); derr != nil {
				return derr
			}
			_, merr := c.eng.moveRecord(nil, tbl, key, old)
			return merr
		})
	}
	return nil
}

// Exists reports whether key is present in table.
func (c *Ctx) Exists(table string, key []byte) (bool, error) {
	tbl, err := c.eng.Table(table)
	if err != nil {
		return false, err
	}
	if err := c.lockKey(tbl, key, lock.S); err != nil {
		return false, err
	}
	_, found, err := tbl.Primary.Search(c.tx, key)
	return found, err
}

// Insert adds a record under key.
func (c *Ctx) Insert(table string, key, rec []byte) error {
	tbl, err := c.eng.Table(table)
	if err != nil {
		return err
	}
	if err := c.lockKey(tbl, key, lock.X); err != nil {
		return err
	}
	if tbl.Def.Clustered {
		if err := tbl.Primary.Insert(c.tx, key, rec); err != nil {
			return mapBtreeErr(err)
		}
		c.logModification(wal.RecInsert, tbl, key, rec)
		if c.undoing() {
			c.tx.PushUndo(func() error {
				_, derr := tbl.Primary.Delete(nil, key)
				return derr
			})
		}
		return nil
	}
	rid, err := c.eng.insertRecord(c.tx, tbl, key, rec)
	if err != nil {
		return mapBtreeErr(err)
	}
	c.logModification(wal.RecInsert, tbl, key, rec)
	if c.undoing() {
		c.tx.PushUndo(func() error {
			if _, derr := tbl.Primary.Delete(nil, key); derr != nil {
				return derr
			}
			return tbl.Heap.Delete(nil, rid)
		})
	}
	return nil
}

// Upsert inserts the record under key, or replaces the existing one.  It
// attempts the insert first, so the common new-key case costs a single
// index descent, and a duplicate falls back to the update path: a
// duplicate insert changes nothing, not even the heap, because its record
// is placed only once the index insert finds no entry for the key.
func (c *Ctx) Upsert(table string, key, rec []byte) error {
	err := c.Insert(table, key, rec)
	if errors.Is(err, ErrDuplicate) {
		return c.Update(table, key, rec)
	}
	return err
}

// Update replaces the record stored under key.
func (c *Ctx) Update(table string, key, rec []byte) error {
	r, err := c.locate(table, key)
	if err != nil {
		return err
	}
	if !r.found {
		return fmt.Errorf("%w: %s/%x", ErrNotFound, table, key)
	}
	return c.rewrite(r, rec, 0, 0)
}

// Delete removes the record stored under key.
func (c *Ctx) Delete(table string, key []byte) error {
	tbl, err := c.eng.Table(table)
	if err != nil {
		return err
	}
	if err := c.lockKey(tbl, key, lock.X); err != nil {
		return err
	}
	if tbl.Def.Clustered {
		old, found, serr := tbl.Primary.Search(c.tx, key)
		if serr != nil {
			return serr
		}
		if !found {
			return fmt.Errorf("%w: %s/%x", ErrNotFound, table, key)
		}
		if _, err := tbl.Primary.Delete(c.tx, key); err != nil {
			return err
		}
		c.logModification(wal.RecDelete, tbl, key, nil)
		if c.undoing() {
			c.tx.PushUndo(func() error { return tbl.Primary.Insert(nil, key, old) })
		}
		return nil
	}
	val, found, err := tbl.Primary.Search(c.tx, key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %s/%x", ErrNotFound, table, key)
	}
	rid, err := page.DecodeRID(val)
	if err != nil {
		return err
	}
	old, err := tbl.Heap.Get(c.tx, rid)
	if err != nil {
		return err
	}
	if _, err := tbl.Primary.Delete(c.tx, key); err != nil {
		return err
	}
	if err := tbl.Heap.Delete(c.tx, rid); err != nil {
		return err
	}
	c.logModification(wal.RecDelete, tbl, key, nil)
	if c.undoing() {
		c.tx.PushUndo(func() error {
			_, ierr := c.eng.insertRecord(nil, tbl, key, old)
			return ierr
		})
	}
	return nil
}

// ReadRange visits every record with lo <= key < hi in key order.  key and
// rec point into pinned pages and are valid only until fn returns; fn must
// not modify them and copies what it keeps (see catalog.AscendRecords).
func (c *Ctx) ReadRange(table string, lo, hi []byte, fn func(key, rec []byte) bool) error {
	tbl, err := c.eng.Table(table)
	if err != nil {
		return err
	}
	// Range reads take the table-level intention-shared lock only: key-range
	// (phantom) protection is not needed by the workloads reproduced here,
	// and a full table S lock would conflict with the intention locks other
	// transactions keep parked in their SLI caches.
	if err := c.lockTable(tbl, lock.IS); err != nil {
		return err
	}
	return tbl.AscendRecords(c.tx, lo, hi, fn)
}

// secondary returns the named secondary index of table.
func (c *Ctx) secondary(table, index string) (*catalog.Table, *mrbtree.Tree, error) {
	tbl, err := c.eng.Table(table)
	if err != nil {
		return nil, nil, err
	}
	idx, err := tbl.Secondary(index)
	if err != nil {
		return nil, nil, err
	}
	return tbl, idx, nil
}

// InsertSecondary adds an entry mapping secKey to the primary key in the
// named secondary index.  For non-partition-aligned indexes the stored value
// is exactly the paper's scheme: the leaf entry carries the fields needed to
// identify the partition-owning thread (here, the full primary key).
func (c *Ctx) InsertSecondary(table, index string, secKey, primaryKey []byte) error {
	_, idx, err := c.secondary(table, index)
	if err != nil {
		return err
	}
	if err := idx.Put(c.tx, secKey, primaryKey); err != nil {
		return mapBtreeErr(err)
	}
	c.logSecondary(wal.RecInsert, table, index, secKey, primaryKey)
	if c.undoing() {
		c.tx.PushUndo(func() error {
			_, derr := idx.Delete(nil, secKey)
			return derr
		})
	}
	return nil
}

// DeleteSecondary removes an entry from the named secondary index.
func (c *Ctx) DeleteSecondary(table, index string, secKey []byte) error {
	_, idx, err := c.secondary(table, index)
	if err != nil {
		return err
	}
	old, found, err := idx.Search(c.tx, secKey)
	if err != nil {
		return err
	}
	if !found {
		return nil
	}
	if _, err := idx.Delete(c.tx, secKey); err != nil {
		return err
	}
	c.logSecondary(wal.RecDelete, table, index, secKey, nil)
	if c.undoing() {
		c.tx.PushUndo(func() error { return idx.Put(nil, secKey, old) })
	}
	return nil
}

// LookupSecondary returns the primary key stored under secKey in the named
// secondary index.
func (c *Ctx) LookupSecondary(table, index string, secKey []byte) ([]byte, error) {
	_, idx, err := c.secondary(table, index)
	if err != nil {
		return nil, err
	}
	pk, found, err := idx.Search(c.tx, secKey)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %s.%s/%x", ErrNotFound, table, index, secKey)
	}
	return pk, nil
}

// ReadBySecondary resolves secKey through the named secondary index and
// returns the referenced primary record.
func (c *Ctx) ReadBySecondary(table, index string, secKey []byte) ([]byte, error) {
	pk, err := c.LookupSecondary(table, index, secKey)
	if err != nil {
		return nil, err
	}
	return c.Read(table, pk)
}

// undoing reports whether the context keeps undo actions: a transaction's
// contexts do, a loader's do not.  Callers check it before building the
// undo closure, so a load builds none.
func (c *Ctx) undoing() bool { return !c.loading && c.tx != nil }

// mapBtreeErr converts btree sentinel errors to engine sentinel errors.
func mapBtreeErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, btree.ErrDuplicateKey) {
		return fmt.Errorf("%w: %v", ErrDuplicate, err)
	}
	return err
}
