package repl

import (
	"fmt"
	"sync"

	"plp/internal/logrec"
	"plp/internal/recovery"
	"plp/internal/wal"
)

// Applier is the follower's streaming form of restart recovery: it buffers
// each transaction's modification records as they arrive on the stream and
// applies the whole transaction — through the same idempotent
// recovery.ApplyOps path a restart uses — the moment its commit record
// arrives.  Uncommitted transactions are never applied, so follower reads
// only ever see transaction-consistent state.
//
// Checkpoint chunk records apply as idempotent upserts at their log
// position: a no-op for an in-sync follower (its state already equals the
// quiesced snapshot) and the snapshot itself for a follower being
// re-seeded from the retained log prefix.  Other non-modification records
// (SMO, repartition markers, coordinator decide records) are skipped: they
// describe the primary's physical organization, and the follower rebuilds
// its own from the logical operations.  A prepared branch (2PC participant
// on the primary) stays buffered until its own commit or abort record
// arrives — the participant's decide outcome always reaches the log as one
// of the two.
type Applier struct {
	apply func(ops []recovery.Op) error

	mu       sync.Mutex
	pending  map[uint64][]recovery.Op // txn → buffered ops, arrival order
	prepared map[uint64]string        // txn → gid, for status only
	applied  wal.LSN                  // horizon: every record below is processed

	appliedTxns uint64
	appliedOps  uint64
	skipped     uint64
}

// NewApplier builds an applier that commits transactions through apply
// (normally engine.ApplyReplicated).
func NewApplier(apply func(ops []recovery.Op) error) *Applier {
	return &Applier{
		apply:    apply,
		pending:  make(map[uint64][]recovery.Op),
		prepared: make(map[uint64]string),
	}
}

// Bootstrap seeds the pending buffers from a restart-recovery analysis of
// the local log: transactions that were still in flight at the follower's
// durable horizon have their ops buffered so a commit record arriving on
// the resumed stream finds them.  (Restart recovery itself never applied
// them — they had no outcome.)
func (a *Applier) Bootstrap(an *recovery.Analysis) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, op := range an.Ops {
		if an.Outcomes[op.Txn] != recovery.OutcomeInFlight {
			continue
		}
		if an.Snapshot != nil && op.LSN <= an.Snapshot.EndLSN {
			continue
		}
		a.pending[op.Txn] = append(a.pending[op.Txn], op)
	}
	for id, gid := range an.Prepared {
		if an.Outcomes[id] == recovery.OutcomeInFlight {
			a.prepared[id] = gid
		}
	}
}

// Feed processes one shipped batch in stream order.  The records must
// already be durable locally (AppendShipped + flush) so an acked applied
// LSN can never run ahead of an acked durable LSN.
//
// Every transaction whose commit record lands in this batch is applied in
// ONE engine pass (commit order preserved inside it): the quiesce that
// makes each apply atomic for concurrent readers is paid per shipped batch,
// not per transaction, which is what lets a lagging follower chew through a
// backlog at streaming speed.  Readers see the batch's transactions appear
// together — still transaction-consistent, never a torn transaction.
func (a *Applier) Feed(recs []wal.Record) error {
	var (
		batch []recovery.Op
		txns  uint64
	)
	for i := range recs {
		r := &recs[i]
		switch r.Type {
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
			mod, err := logrec.DecodeModification(r.Payload)
			if err != nil {
				return fmt.Errorf("repl: record %d (txn %d): %w", r.LSN, r.Txn, err)
			}
			a.mu.Lock()
			a.pending[r.Txn] = append(a.pending[r.Txn], recovery.Op{LSN: r.LSN, Txn: r.Txn, Type: r.Type, Mod: mod})
			a.mu.Unlock()
		case wal.RecCommit:
			a.mu.Lock()
			ops := a.pending[r.Txn]
			delete(a.pending, r.Txn)
			delete(a.prepared, r.Txn)
			a.mu.Unlock()
			batch = append(batch, ops...)
			txns++
		case wal.RecAbort:
			a.mu.Lock()
			delete(a.pending, r.Txn)
			delete(a.prepared, r.Txn)
			a.mu.Unlock()
		case wal.RecPrepare:
			a.mu.Lock()
			a.prepared[r.Txn] = string(r.Payload)
			a.mu.Unlock()
		case wal.RecCheckpoint:
			// A checkpoint chunk is a snapshot of committed rows captured
			// under quiesce at this log position — on an in-sync follower the
			// follower's state already equals it, so the upserts are no-ops;
			// on a (re-)seeding follower the chunks ARE the snapshot it is
			// rebuilding from.  Applying them unconditionally at their log
			// position keeps both cases on one code path and makes a
			// restart in the middle of a re-seed resume correctly from the
			// local durable horizon.  Meta/end markers carry no row data.
			chunk, ok, err := logrec.DecodeCheckpointChunk(r.Payload)
			if err != nil {
				return fmt.Errorf("repl: checkpoint chunk at %d: %w", r.LSN, err)
			}
			if !ok {
				a.mu.Lock()
				a.skipped++
				a.mu.Unlock()
				continue
			}
			for i := range chunk.Keys {
				batch = append(batch, recovery.Op{
					LSN:  r.LSN,
					Type: wal.RecInsert,
					Mod: logrec.Modification{
						Table: chunk.Table,
						Index: chunk.Index,
						Key:   chunk.Keys[i],
						After: chunk.Values[i],
					},
				})
			}
		default:
			// SMO, repartition, decide: physical or coordinator-side
			// records; nothing to apply.
			a.mu.Lock()
			a.skipped++
			a.mu.Unlock()
		}
	}
	if len(batch) > 0 {
		if err := a.apply(batch); err != nil {
			return fmt.Errorf("repl: applying batch of %d txns: %w", txns, err)
		}
	}
	if len(recs) > 0 {
		last := &recs[len(recs)-1]
		a.mu.Lock()
		a.appliedTxns += txns
		a.appliedOps += uint64(len(batch))
		a.applied = last.LSN + wal.LSN(last.EncodedSize())
		a.mu.Unlock()
	}
	return nil
}

// AppliedLSN returns the applied horizon: every record below it has been
// processed (its transaction applied, buffered, or skipped).
func (a *Applier) AppliedLSN() wal.LSN {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

// SetAppliedLSN initializes the applied horizon (follower bootstrap: the
// local durable LSN, which restart recovery has fully processed).
func (a *Applier) SetAppliedLSN(lsn wal.LSN) {
	a.mu.Lock()
	a.applied = lsn
	a.mu.Unlock()
}

// Discard drops every pending (uncommitted) transaction buffer.  Promotion
// calls it: an uncommitted transaction's fate now belongs to ordinary
// restart recovery semantics — its records are in the log, it has no
// commit record, it never happened.
func (a *Applier) Discard() {
	a.mu.Lock()
	a.pending = make(map[uint64][]recovery.Op)
	a.prepared = make(map[uint64]string)
	a.mu.Unlock()
}

// ApplierStatus is the applier's progress snapshot.
type ApplierStatus struct {
	AppliedLSN  uint64
	AppliedTxns uint64
	AppliedOps  uint64
	PendingTxns int
	Skipped     uint64
}

// Status returns a snapshot of applier progress.
func (a *Applier) Status() ApplierStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ApplierStatus{
		AppliedLSN:  uint64(a.applied),
		AppliedTxns: a.appliedTxns,
		AppliedOps:  a.appliedOps,
		PendingTxns: len(a.pending),
		Skipped:     a.skipped,
	}
}
