// Durability: checkpointing and restart recovery at the engine level.
//
// The recovery machinery itself lives in internal/recovery (log analysis,
// checkpoint snapshots, logical replay); this file is the engine-side
// orchestration that makes a kill -9 survivable end to end:
//
//	e, _ := engine.Open(engine.Options{Design: engine.PLPLeaf, DataDir: dir, ...})
//	e.CreateTable(...)            // same schema as before the crash
//	info, _ := e.Recover()        // boundaries, contents, controller state
//	...serve...
//	e.Checkpoint()                // bound the log tail; Truncate reclaims it
//
// Recover's analysis streams the log one record at a time (wal.Scan): on a
// disk-backed engine it reads the segment files, because the log keeps no
// durable records in memory.
//
// Recover restores, in order: the partition boundaries the last checkpoint
// recorded (online repartitioning moves them away from the schema's initial
// values, and the MRBTree sub-trees must be re-sliced the same way before
// data is loaded), then the table contents (checkpoint snapshot + committed
// log tail), and finally it stashes the repartitioning controller's opaque
// state blob for the controller to reclaim when it re-attaches.
package engine

import (
	"bytes"
	"fmt"

	"plp/internal/recovery"
)

// RecoverInfo reports what a Recover call rebuilt.
type RecoverInfo struct {
	// Replay is the logical replay's work: snapshot entries loaded,
	// operations re-applied, loser operations skipped.
	Replay recovery.ReplayStats
	// Winners and Losers count the committed and the aborted/in-flight
	// transactions found in the log.
	Winners, Losers int
	// BoundariesRestored counts the partition-boundary moves applied to
	// match the checkpointed routing state.
	BoundariesRestored int
	// ControllerState reports whether a repartitioning-controller state
	// blob was recovered (reclaimed by AttachRepartitioner).
	ControllerState bool
	// InDoubt counts cross-shard branches that were prepared but not
	// decided at the crash; they await their coordinator's verdict (see
	// Engine.DecidePrepared).
	InDoubt int
}

// Checkpoint captures a transactionally consistent snapshot of every table,
// the routing boundaries and the registered controller state into the
// engine's log (see recovery.Checkpoint).  The partition workers are
// quiesced for the duration; the call fails if transactions are in flight.
func (e *Engine) Checkpoint() (recovery.CheckpointStats, error) {
	return recovery.Checkpoint(e, 0)
}

// Recover rebuilds the engine's logical state from its log.  The engine
// must hold the same schema as the crashed instance (tables created, no
// data loaded, no traffic yet); boundaries recorded by the most recent
// checkpoint are re-applied before the contents are replayed so MRBTree
// sub-tree ownership and heap placement match the pre-crash state.
func (e *Engine) Recover() (RecoverInfo, error) {
	var info RecoverInfo
	a, err := recovery.Analyze(e.log)
	if err != nil {
		return info, err
	}
	if a.Meta != nil {
		for _, tb := range a.Meta.Tables {
			n, berr := e.restoreBoundaries(tb.Table, tb.Boundaries)
			info.BoundariesRestored += n
			if berr != nil {
				return info, fmt.Errorf("engine: restoring %s boundaries: %w", tb.Table, berr)
			}
		}
		if len(a.Meta.Controller) > 0 {
			e.recoveredMu.Lock()
			e.recoveredState = append([]byte(nil), a.Meta.Controller...)
			e.recoveredMu.Unlock()
			info.ControllerState = true
		}
	}
	info.Replay, err = recovery.Replay(a, e.NewLoader())
	if err != nil {
		return info, err
	}
	// Cross-shard branches that were prepared but not decided locally stay
	// withheld from replay; stash them (plus any recovered coordinator
	// decisions) for the server layer to resolve against the coordinator.
	e.stashInDoubt(a)
	info.Winners = len(a.Winners())
	info.Losers = len(a.Losers())
	info.InDoubt = len(a.InDoubt())
	return info, nil
}

// restoreBoundaries moves the table's routing boundaries to want.  A
// single left-to-right sweep can be blocked when a target boundary lies
// beyond the *current* position of its right neighbour (MoveBoundary only
// moves between adjacent partitions), so the sweep repeats until it makes
// no further progress.  Tables whose partition count changed across the
// restart are left on their schema-initial boundaries.
func (e *Engine) restoreBoundaries(table string, want [][]byte) (int, error) {
	cur, err := e.Boundaries(table)
	if err != nil {
		// The table exists in the checkpoint but not in the new schema;
		// replay will fail loudly on its data, so just skip here.
		return 0, nil
	}
	if len(cur) != len(want) {
		return 0, nil
	}
	moved := 0
	for pass := 0; pass <= len(want); pass++ {
		progress := false
		for i := range want {
			cur, err = e.Boundaries(table)
			if err != nil {
				return moved, err
			}
			if bytes.Equal(cur[i], want[i]) {
				continue
			}
			if _, rerr := e.Rebalance(table, i+1, want[i]); rerr == nil {
				moved++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	cur, err = e.Boundaries(table)
	if err != nil {
		return moved, err
	}
	for i := range want {
		if !bytes.Equal(cur[i], want[i]) {
			return moved, fmt.Errorf("boundary %d stuck at %x, want %x", i, cur[i], want[i])
		}
	}
	return moved, nil
}

// SetCheckpointStateProvider installs (or, with nil, removes) the function
// checkpoints call to capture the opaque controller-state blob.  The online
// repartitioning controller registers itself here when it attaches.
func (e *Engine) SetCheckpointStateProvider(fn func() []byte) {
	if fn == nil {
		e.stateProvider.Store(nil)
		return
	}
	e.stateProvider.Store(&fn)
}

// CheckpointState implements recovery.StateSource: it returns the
// registered provider's blob, or nil when none is registered.
func (e *Engine) CheckpointState() []byte {
	if p := e.stateProvider.Load(); p != nil {
		return (*p)()
	}
	return nil
}

// RecoveredControllerState returns the controller-state blob the most
// recent Recover call found in the checkpoint meta record (nil if none).
// AttachRepartitioner consumes it to warm-start the controller's
// histograms.
func (e *Engine) RecoveredControllerState() []byte {
	e.recoveredMu.Lock()
	defer e.recoveredMu.Unlock()
	return e.recoveredState
}
