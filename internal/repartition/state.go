// Controller state persistence: the histogram snapshots that survive a
// restart.
//
// The ROADMAP's "persistence of controller state across restart" gap:
// without it, a restarted controller starts cold and re-learns the hot set
// from scratch, re-triggering boundary moves the previous incarnation had
// already converged past.  The controller therefore exports its per-table
// aged histograms as an opaque blob that engine checkpoints embed in their
// meta record (recovery.StateSource); after a crash, engine.Recover hands
// the blob back and Attach warm-starts the histograms from it.  Partition
// boundaries themselves are restored by engine.Recover directly — the blob
// carries only the learned access statistics.

package repartition

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// stateVersion is bumped whenever the blob encoding changes incompatibly;
// importState ignores blobs from other versions (a cold start is always a
// safe fallback).
const stateVersion = 1

// appendUint32 appends v little-endian.
func appendUint32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

// appendFloat64 appends v's IEEE-754 bits little-endian.
func appendFloat64(dst []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(dst, b[:]...)
}

// exportState serializes every managed table's histogram snapshot.  It is
// the engine's checkpoint-state provider, so it runs inside the quiesced
// checkpoint section and must not block on controller work (Snapshot takes
// only the histogram's own short mutex).
func (c *Controller) exportState() []byte {
	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for name := range c.tables {
		names = append(names, name)
	}
	c.mu.RUnlock()
	sort.Strings(names)

	out := []byte{stateVersion}
	out = appendUint32(out, uint32(len(names)))
	for _, name := range names {
		h := c.histogram(name, false)
		if h == nil {
			out = appendUint32(out, 0) // name skipped: zero-length marker
			continue
		}
		snap := h.Snapshot()
		out = appendUint32(out, uint32(len(name)))
		out = append(out, name...)
		out = appendUint32(out, uint32(len(snap.PartitionLoads)))
		for _, l := range snap.PartitionLoads {
			out = appendFloat64(out, l)
		}
		out = appendUint32(out, uint32(len(snap.Keys)))
		for _, kw := range snap.Keys {
			out = appendUint32(out, uint32(len(kw.Key)))
			out = append(out, kw.Key...)
			out = appendFloat64(out, kw.Weight)
		}
	}
	return out
}

// importState warm-starts the controller's histograms from a blob produced
// by exportState.  Unknown versions and truncated blobs are rejected
// whole; per-table state is applied even when the current partition count
// differs (excess loads are dropped by Restore).
func (c *Controller) importState(blob []byte) error {
	if len(blob) < 5 {
		return fmt.Errorf("repartition: state blob too short")
	}
	if blob[0] != stateVersion {
		return fmt.Errorf("repartition: unknown state version %d", blob[0])
	}
	rest := blob[1:]
	nt := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]

	u32 := func() (uint32, bool) {
		if len(rest) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		return v, true
	}
	f64 := func() (float64, bool) {
		if len(rest) < 8 {
			return 0, false
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
		return v, true
	}
	short := fmt.Errorf("repartition: truncated state blob")

	for t := uint32(0); t < nt; t++ {
		nameLen, ok := u32()
		if !ok {
			return short
		}
		if nameLen == 0 {
			continue // table had no histogram at export time
		}
		if uint32(len(rest)) < nameLen {
			return short
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]

		nLoads, ok := u32()
		if !ok {
			return short
		}
		loads := make([]float64, 0, nLoads)
		for i := uint32(0); i < nLoads; i++ {
			l, ok := f64()
			if !ok {
				return short
			}
			loads = append(loads, l)
		}
		nKeys, ok := u32()
		if !ok {
			return short
		}
		keys := make([]KeyWeight, 0, nKeys)
		for i := uint32(0); i < nKeys; i++ {
			kl, ok := u32()
			if !ok {
				return short
			}
			if uint32(len(rest)) < kl {
				return short
			}
			key := append([]byte(nil), rest[:kl]...)
			rest = rest[kl:]
			w, ok := f64()
			if !ok {
				return short
			}
			keys = append(keys, KeyWeight{Key: key, Weight: w})
		}
		if h := c.histogram(name, true); h != nil {
			h.Restore(loads, keys)
		}
	}
	return nil
}
