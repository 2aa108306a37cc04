// Replay: re-applying the analyzed log to a target database.
package recovery

import (
	"errors"
	"fmt"

	"plp/internal/wal"
)

// ErrNotFound is the error, possibly wrapped, a Target returns for an
// operation on an absent key.  engine.ErrNotFound wraps it.
var ErrNotFound = errors.New("key not found")

// Target is the interface replay applies recovered operations to.  It is
// satisfied by *engine.Loader (the unlocked, unlogged bulk-load path of a
// freshly created engine with the same schema as the crashed one).
type Target interface {
	// Upsert adds the record under key, or overwrites the one there.
	Upsert(table string, key, rec []byte) error
	// Update overwrites the record under key.
	Update(table string, key, rec []byte) error
	// Delete removes the record under key; an absent key fails with
	// ErrNotFound.
	Delete(table string, key []byte) error
	// Read returns the record under key; a missing key is an error.
	Read(table string, key []byte) ([]byte, error)
	// InsertSecondary adds a secondary-index entry.
	InsertSecondary(table, index string, secKey, primaryKey []byte) error
	// DeleteSecondary removes a secondary-index entry.
	DeleteSecondary(table, index string, secKey []byte) error
}

// ReplayStats reports what Replay did.
type ReplayStats struct {
	// SnapshotEntries is the number of entries loaded from the checkpoint.
	SnapshotEntries int
	// Applied is the number of logical operations re-applied.
	Applied int
	// SkippedLoser counts operations of aborted or in-flight transactions.
	SkippedLoser int
	// SkippedPreCheckpoint counts operations already covered by the snapshot.
	SkippedPreCheckpoint int
}

// applyOp applies a single committed operation using upsert/idempotent
// semantics so that replaying a log twice (or on top of a partially
// recovered database) converges to the same state.  A patch rewrites bytes
// of the record it names, which must therefore exist and be long enough:
// a patch that does not apply is an error, never skipped, because
// skipping it would silently lose a committed update.
func applyOp(t Target, op Op) error {
	m := op.Mod
	if m.Index != "" {
		if m.IsPatch() {
			return fmt.Errorf("recovery: patch record for secondary index %s.%s", m.Table, m.Index)
		}
		switch op.Type {
		case wal.RecInsert, wal.RecUpdate:
			return t.InsertSecondary(m.Table, m.Index, m.Key, m.After)
		case wal.RecDelete:
			return t.DeleteSecondary(m.Table, m.Index, m.Key)
		default:
			return fmt.Errorf("recovery: unexpected secondary op type %v", op.Type)
		}
	}
	if m.IsPatch() {
		if op.Type != wal.RecUpdate {
			return fmt.Errorf("recovery: patch record of type %v", op.Type)
		}
		cur, err := t.Read(m.Table, m.Key)
		if err != nil {
			return fmt.Errorf("recovery: patching %s/%x: %w", m.Table, m.Key, err)
		}
		rec, err := m.Apply(cur)
		if err != nil {
			return fmt.Errorf("recovery: patching %s/%x: %w", m.Table, m.Key, err)
		}
		return t.Update(m.Table, m.Key, rec)
	}
	switch op.Type {
	case wal.RecInsert, wal.RecUpdate:
		return t.Upsert(m.Table, m.Key, m.After)
	case wal.RecDelete:
		if err := t.Delete(m.Table, m.Key); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		return nil
	default:
		return fmt.Errorf("recovery: unexpected op type %v", op.Type)
	}
}

// loadSnapshot applies the checkpoint snapshot to the target, one upsert
// per row: a restart loads into an empty target, so each row costs the
// target a single insert.
func loadSnapshot(t Target, s *Snapshot) (int, error) {
	if s == nil {
		return 0, nil
	}
	n := 0
	for _, chunk := range s.Chunks {
		for i := range chunk.Keys {
			var err error
			if chunk.Index != "" {
				err = t.InsertSecondary(chunk.Table, chunk.Index, chunk.Keys[i], chunk.Values[i])
			} else {
				err = t.Upsert(chunk.Table, chunk.Keys[i], chunk.Values[i])
			}
			if err != nil {
				return n, fmt.Errorf("recovery: loading snapshot entry %s/%x: %w", chunk.Table, chunk.Keys[i], err)
			}
			n++
		}
	}
	return n, nil
}

// Replay rebuilds the database contents described by the analysis onto the
// target: the most recent checkpoint snapshot first, then every operation of
// a committed transaction that is not already covered by the snapshot, in
// LSN order.  The log is redo-only — it holds after-images and patches,
// never before-images — and that is enough: operations of aborted and
// in-flight transactions are skipped (their effects were either rolled back
// in memory before the crash or never reached stable storage, which the
// no-steal memory-resident buffer pool guarantees), so nothing is ever
// undone.  Skipping the losers plays the role of ARIES undo for this
// logical scheme.  Patches apply to the record as the snapshot and the
// earlier operations left it.
func Replay(a *Analysis, t Target) (ReplayStats, error) {
	var st ReplayStats
	if a == nil {
		return st, fmt.Errorf("recovery: nil analysis")
	}
	n, err := loadSnapshot(t, a.Snapshot)
	st.SnapshotEntries = n
	if err != nil {
		return st, err
	}
	var cutoff wal.LSN
	if a.Snapshot != nil {
		cutoff = a.Snapshot.EndLSN
	}
	for _, op := range a.Ops {
		if op.LSN <= cutoff {
			st.SkippedPreCheckpoint++
			continue
		}
		if a.Outcomes[op.Txn] != OutcomeCommitted {
			st.SkippedLoser++
			continue
		}
		if err := applyOp(t, op); err != nil {
			return st, fmt.Errorf("recovery: applying op at LSN %d: %w", op.LSN, err)
		}
		st.Applied++
	}
	return st, nil
}

// ApplyOps applies a slice of recovered operations to the target with the
// same idempotent semantics as Replay.  A follower applies each replicated
// transaction through it (engine.ApplyReplicated), and recovery uses it to
// resolve in-doubt cross-shard branches: the branch's operations were held
// back by Replay (its outcome was still in-flight), and are applied here
// once the coordinator's commit decision is known.
func ApplyOps(t Target, ops []Op) error {
	for _, op := range ops {
		if err := applyOp(t, op); err != nil {
			return fmt.Errorf("recovery: applying op at LSN %d: %w", op.LSN, err)
		}
	}
	return nil
}

// Recover is the convenience entry point: Analyze followed by Replay.
func Recover(log wal.Log, t Target) (*Analysis, ReplayStats, error) {
	a, err := Analyze(log)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	st, err := Replay(a, t)
	return a, st, err
}
