package txn

import (
	"errors"
	"fmt"
	"time"

	"plp/internal/wal"
)

// Errors returned by the two-phase commit hooks.
var (
	// ErrUnknownGID is returned by Decide for a gid with no prepared branch.
	ErrUnknownGID = errors.New("txn: no prepared transaction for gid")
)

// PrepareThen votes yes on a cross-shard transaction: it appends a prepare
// record naming the global transaction ID and, once the record is durable,
// parks the local branch in the prepared table to await the coordinator's
// decision and calls done with nil.
//
// Unlike a commit, a prepare always waits for durability — lazy commit
// cannot apply, because the vote is a promise to the coordinator that the
// branch can survive a crash.  The transaction stays Active: its locks are
// held, its undo chain is retained, and it remains counted as active, so
// every conflicting request keeps blocking (or aborting) until Decide runs.
// On a durability failure the branch is aborted locally and done gets
// ErrNotDurable, which the caller must translate into a no vote.  done runs
// on the log's flush daemon unless the record is durable at once, and must
// not block.
func (m *Manager) PrepareThen(t *Txn, gid string, done func(error)) {
	if t.State() != Active {
		done(ErrNotActive)
		return
	}
	if gid == "" {
		done(fmt.Errorf("txn: empty gid"))
		return
	}
	rec := &wal.Record{Txn: t.id, Type: wal.RecPrepare, Payload: []byte(gid)}
	lsn := m.log.Append(rec)
	t.SetLastLSN(lsn)
	m.log.OnDurable(lsn, func(err error) {
		if err != nil {
			m.Abort(t)
			done(ErrNotDurable)
			return
		}
		m.mu.Lock()
		if m.prepared == nil {
			m.prepared = make(map[string]*preparedTxn)
		}
		m.prepared[gid] = &preparedTxn{txn: t, since: time.Now()}
		m.mu.Unlock()
		done(nil)
	})
}

// Prepare is PrepareThen plus a wait.
func (m *Manager) Prepare(t *Txn, gid string) error {
	ch := make(chan error, 1)
	m.PrepareThen(t, gid, func(err error) { ch <- err })
	return <-ch
}

// Decide resolves a prepared branch: commit=true commits it (appending the
// usual commit record, which also closes the in-doubt window for recovery),
// commit=false aborts it through the normal undo path.  Decide is
// idempotent in the sense that deciding an unknown gid returns
// ErrUnknownGID rather than touching anything — the caller uses that to
// tolerate duplicate decide frames.
func (m *Manager) Decide(gid string, commit bool) error {
	m.mu.Lock()
	p := m.prepared[gid]
	if p != nil {
		delete(m.prepared, gid)
	}
	m.mu.Unlock()
	if p == nil {
		return ErrUnknownGID
	}
	if commit {
		return m.Commit(p.txn)
	}
	return m.Abort(p.txn)
}

// PreparedGIDs returns the gids of branches that have been in doubt longer
// than olderThan, for the janitor that chases lost decisions.
func (m *Manager) PreparedGIDs(olderThan time.Duration) []string {
	cutoff := time.Now().Add(-olderThan)
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for gid, p := range m.prepared {
		if p.since.Before(cutoff) {
			out = append(out, gid)
		}
	}
	return out
}

// NumPrepared returns the number of in-doubt branches.
func (m *Manager) NumPrepared() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.prepared)
}
