// Package recovery implements logical restart recovery on top of the
// write-ahead log.
//
// The engine logs every data modification logically and redo-only (table,
// key and the after-image, or a patch of the bytes an update changed — see
// package logrec), and the paper's storage manager keeps
// a single shared log for all partitions (Section 2.3 argues this is one of
// the advantages of shared-everything designs over shared-nothing ones).
// This package turns that log into a restart story:
//
//   - Analyze scans the log and classifies every transaction as committed,
//     aborted or in-flight at the time of the crash, collects the logical
//     modification operations in LSN order, and locates the most recent
//     complete checkpoint.
//   - Replay rebuilds the database contents on a Target (normally an
//     engine.Loader over a freshly created engine with the same schema):
//     it loads the checkpoint snapshot, then re-applies the operations of
//     committed transactions that follow the checkpoint.  Operations of
//     aborted or in-flight transactions are never applied, which subsumes
//     the undo pass of a physical ARIES restart.
//   - Checkpoint captures a transactionally consistent snapshot of every
//     table (and secondary index) into the log while the partition workers
//     are quiesced, bounding the length of the log tail Replay has to scan.
//
// Page splits and MRBTree repartitions write no log records: replay
// rebuilds the trees from the logical records, so nothing would read them.
// Logs of earlier builds hold such structural records (RecSMO,
// RecRepartition); Analyze counts and skips them, so those logs still
// recover.
//
// The scheme is deliberately logical rather than page-oriented: the paper's
// experiments run memory-resident databases, and the partitioned designs
// rebuild their MRBTrees on restart anyway (partition boundaries are part of
// the durable metadata and are re-created from the schema).  What matters
// for fidelity is that every design writes the same log records on the same
// shared log — recovery works identically for the Conventional, Logical and
// PLP engines.
package recovery

import (
	"errors"
	"fmt"

	"plp/internal/logrec"
	"plp/internal/wal"
)

// Errors returned by recovery operations.
var (
	// ErrActiveTxns is returned by Checkpoint when transactions are still in
	// flight; checkpoints must capture a transactionally consistent state.
	ErrActiveTxns = errors.New("recovery: active transactions prevent checkpoint")
	// ErrNoLog is returned when the log handle is nil.
	ErrNoLog = errors.New("recovery: nil log")
)

// Outcome is the fate of a transaction as determined by log analysis.
type Outcome int

// Transaction outcomes.
const (
	// OutcomeInFlight means the transaction has modification records but
	// neither a commit nor an abort record: it was active at the crash.
	OutcomeInFlight Outcome = iota
	// OutcomeCommitted means a commit record was found.
	OutcomeCommitted
	// OutcomeAborted means an abort record was found.
	OutcomeAborted
)

// String returns the outcome label.
func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	case OutcomeInFlight:
		return "in-flight"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Op is one logical modification recovered from the log.
type Op struct {
	// LSN is the log sequence number of the record.
	LSN wal.LSN
	// Txn is the transaction that performed the modification.
	Txn uint64
	// Type is the record type (insert, update or delete).
	Type wal.RecordType
	// Mod is the decoded logical payload.
	Mod logrec.Modification
}

// Snapshot is the contents of the most recent complete checkpoint.
type Snapshot struct {
	// BeginLSN is the LSN of the checkpoint's first chunk record.
	BeginLSN wal.LSN
	// EndLSN is the LSN of the checkpoint's end marker.  Operations with
	// LSN <= EndLSN are already reflected in the snapshot.
	EndLSN wal.LSN
	// Chunks are the snapshot chunks in log order.
	Chunks []logrec.CheckpointChunk
}

// Entries returns the total number of key/value entries in the snapshot.
func (s *Snapshot) Entries() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, c := range s.Chunks {
		n += len(c.Keys)
	}
	return n
}

// Analysis is the result of scanning the log.
type Analysis struct {
	// Outcomes maps every transaction that appears in the log to its fate.
	Outcomes map[uint64]Outcome
	// Ops lists the logical modification operations in LSN order.  Each
	// carries what redo needs, an after-image or a patch, and no
	// before-image.
	Ops []Op
	// Snapshot is the most recent complete checkpoint, or nil.
	Snapshot *Snapshot
	// Meta is the most recent complete checkpoint's meta record (routing
	// boundaries per table plus the opaque controller-state blob), or nil.
	Meta *logrec.CheckpointMeta
	// TotalRecords is the number of log records scanned.
	TotalRecords int
	// StructuralRecords counts SMO/repartition records, which only logs of
	// earlier builds hold (not replayed: the physical tree shape is rebuilt
	// by the logical re-inserts).
	StructuralRecords int
	// UnparsedRecords counts modification records whose payload could not be
	// decoded (foreign records, or versions this build does not know); they
	// are skipped.  Both payload versions the engine has written decode.
	UnparsedRecords int
	// Prepared maps transactions with a prepare record to their cross-shard
	// gid.  A prepared transaction whose outcome is still OutcomeInFlight
	// after the scan is in doubt: its fate belongs to the coordinator.
	Prepared map[uint64]string
	// Decisions holds the gids this node durably decided to commit as a
	// coordinator (decide records).  Under presumed abort only commit
	// decisions are logged, so presence means commit.
	Decisions map[string]bool
}

// Winners returns the IDs of committed transactions.
func (a *Analysis) Winners() []uint64 {
	var out []uint64
	for id, o := range a.Outcomes {
		if o == OutcomeCommitted {
			out = append(out, id)
		}
	}
	return out
}

// Losers returns the IDs of aborted or in-flight transactions.
func (a *Analysis) Losers() []uint64 {
	var out []uint64
	for id, o := range a.Outcomes {
		if o != OutcomeCommitted {
			out = append(out, id)
		}
	}
	return out
}

// InDoubt returns the transactions that were prepared but neither committed
// nor aborted by the time of the crash, keyed by gid.  Their fate rests with
// the coordinator: commit if it durably decided commit, abort otherwise
// (presumed abort).
func (a *Analysis) InDoubt() map[string]uint64 {
	out := make(map[string]uint64)
	for id, gid := range a.Prepared {
		if a.Outcomes[id] == OutcomeInFlight {
			out[gid] = id
		}
	}
	return out
}

// Analyze scans the log and builds the recovery analysis.  It streams the
// log one record at a time (wal.Scan) and never materializes it.
func Analyze(log wal.Log) (*Analysis, error) {
	if log == nil {
		return nil, ErrNoLog
	}
	an := analyzer{a: &Analysis{
		Outcomes:  make(map[uint64]Outcome),
		Prepared:  make(map[uint64]string),
		Decisions: make(map[string]bool),
	}}
	if err := wal.Scan(log, func(r *wal.Record) error {
		an.add(r)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("recovery: reading the log: %w", err)
	}
	a := an.a
	// A prepared branch whose gid this node also durably decided to commit
	// (the coordinator's own local branch, crashed between logging the
	// decision and writing the branch's commit record) is promoted to a
	// winner: the decision record is the commit point of the global
	// transaction.
	for id, gid := range a.Prepared {
		if a.Outcomes[id] == OutcomeInFlight && a.Decisions[gid] {
			a.Outcomes[id] = OutcomeCommitted
		}
	}
	return a, nil
}

// analyzer folds log records into an Analysis one at a time, carrying the
// checkpoint being accumulated: chunks and meta since the last end marker.
type analyzer struct {
	a             *Analysis
	pendingChunks []logrec.CheckpointChunk
	pendingBegin  wal.LSN
	pendingMeta   *logrec.CheckpointMeta
}

// add classifies one record.
func (an *analyzer) add(r *wal.Record) {
	a := an.a
	a.TotalRecords++
	switch r.Type {
	case wal.RecCommit:
		a.Outcomes[r.Txn] = OutcomeCommitted
	case wal.RecAbort:
		a.Outcomes[r.Txn] = OutcomeAborted
	case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
		mod, err := logrec.DecodeModification(r.Payload)
		if err != nil {
			a.UnparsedRecords++
			return
		}
		if _, seen := a.Outcomes[r.Txn]; !seen {
			a.Outcomes[r.Txn] = OutcomeInFlight
		}
		a.Ops = append(a.Ops, Op{LSN: r.LSN, Txn: r.Txn, Type: r.Type, Mod: mod})
	case wal.RecSMO, wal.RecRepartition:
		a.StructuralRecords++
	case wal.RecPrepare:
		if _, seen := a.Outcomes[r.Txn]; !seen {
			a.Outcomes[r.Txn] = OutcomeInFlight
		}
		a.Prepared[r.Txn] = string(r.Payload)
	case wal.RecDecide:
		a.Decisions[string(r.Payload)] = true
	case wal.RecCheckpoint:
		if chunk, ok, err := logrec.DecodeCheckpointChunk(r.Payload); err == nil && ok {
			if len(an.pendingChunks) == 0 {
				an.pendingBegin = r.LSN
			}
			an.pendingChunks = append(an.pendingChunks, chunk)
			return
		}
		if meta, ok, err := logrec.DecodeCheckpointMeta(r.Payload); err == nil && ok {
			if len(an.pendingChunks) == 0 && an.pendingBegin == 0 {
				an.pendingBegin = r.LSN
			}
			an.pendingMeta = &meta
			return
		}
		if end, ok, err := logrec.DecodeCheckpointEnd(r.Payload); err == nil && ok {
			a.Snapshot = &Snapshot{
				BeginLSN: an.pendingBegin,
				EndLSN:   r.LSN,
				Chunks:   an.pendingChunks,
			}
			if end.BeginLSN != 0 {
				a.Snapshot.BeginLSN = wal.LSN(end.BeginLSN)
			}
			a.Meta = an.pendingMeta
			an.pendingChunks = nil
			an.pendingBegin = 0
			an.pendingMeta = nil
			return
		}
		a.UnparsedRecords++
	default:
		a.UnparsedRecords++
	}
}
