// Replication glue: the engine-level hooks the repl subsystem builds on.
// The engine neither dials nor listens — internal/repl owns the stream and
// internal/server owns the connections; the engine only offers "apply this
// committed transaction into the live store" and "gate commit acks on an
// external waiter".
package engine

import (
	"errors"
	"fmt"
	"time"

	"plp/internal/recovery"
	"plp/internal/wal"
)

// ApplyReplicated applies one replicated transaction's operations into the
// live engine through the same idempotent loader path restart recovery
// uses.  The engine is quiesced for the duration: every partition worker
// parks, so concurrently executing read-only sessions can never observe a
// half-applied transaction (follower reads are transaction-consistent).
// The loader path takes no locks and writes no log — the shipped log IS
// this transaction's log, and the follower's log stays a byte-identical
// prefix of the primary's.
func (e *Engine) ApplyReplicated(ops []recovery.Op) error {
	var applyErr error
	if err := e.Quiesce(func() {
		applyErr = recovery.ApplyOps(e.NewLoader(), ops)
	}); err != nil {
		return err
	}
	return applyErr
}

// ResetForSeed empties the engine for a snapshot re-seed: every table's
// storage is recreated blank (same IDs, same live partition boundaries, so
// routing tables stay valid), in-doubt 2PC state is dropped, and the durable
// log restarts at start — the primary's oldest retained LSN.  The stream
// that follows replays a complete checkpoint image plus the log tail, which
// the ordinary applier path turns back into a faithful replica.
//
// The reset runs under quiesce and refuses while transactions are active
// (a follower being re-seeded serves no writes, so only read-only sessions
// can race; they drain within the retry window).
func (e *Engine) ResetForSeed(start wal.LSN) error {
	d := e.DurableLog()
	if d == nil {
		return errors.New("engine: re-seed requires a durable log")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var busy bool
		var resetErr error
		err := e.Quiesce(func() {
			if e.tm.NumActive() > 0 {
				busy = true
				return
			}
			resetErr = e.cat.ResetStorage(e.storage())
			if resetErr != nil {
				return
			}
			e.twopcMu.Lock()
			e.inDoubt = nil
			e.decided = nil
			e.twopcMu.Unlock()
		})
		if err != nil {
			return err
		}
		if resetErr != nil {
			return resetErr
		}
		if !busy {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine: re-seed timed out waiting for %d active txns", e.tm.NumActive())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return d.ResetForSeed(start)
}

// SetCommitAckWaiter installs (or clears) the extended commit
// acknowledgement gate on the transaction manager — the replica-acked
// commit mode hook (see txn.Manager.SetCommitAckWaiter).
func (e *Engine) SetCommitAckWaiter(gate func(lsn wal.LSN, done func(error))) {
	e.tm.SetCommitAckWaiter(gate)
}

// DurableLog returns the disk-backed log device, or nil when the engine
// runs on an in-memory log (no DataDir).  Replication requires a durable
// log: the segment files are the stream.
func (e *Engine) DurableLog() *wal.Durable {
	d, _ := e.log.(*wal.Durable)
	return d
}
