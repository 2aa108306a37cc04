// Replication support on the durable log device: reading the stream a
// primary ships to followers, appending a shipped stream on a follower, and
// the retention machinery that keeps truncation from deleting a slow
// reader's segments out from under it.
//
// The log IS the replication stream: the primary ships its frames as they
// lie on disk (ReadFrames), and a follower checks each frame's CRC at its
// own append LSN and appends the bytes unchanged (AppendShipped).  Since a
// frame's CRC covers the LSN it was written at, a frame that lands at any
// other LSN is refused, so a follower's log is a byte-identical prefix of
// its primary's by construction: LSNs agree on both sides, resubscription
// is "start from my durable LSN", and a promoted follower recovers with
// the exact same torn-tail truncation code path as a restarted primary.
package wal

import (
	"errors"
	"fmt"
	"os"
)

// ErrLogTruncated is returned by ReadFrames when the requested start LSN
// precedes the oldest retained record, or a truncation overtook the read:
// the prefix a subscriber needs has been truncated away, so it must be
// re-seeded (fresh copy) instead of streamed to.
var ErrLogTruncated = errors.New("wal: requested LSN already truncated")

// OldestLSN returns the truncation horizon: the LSN of the oldest record
// still retained (equal to CurrentLSN when the log is empty or fully
// truncated).  A subscriber whose start LSN precedes this cannot be served
// by streaming.
func (d *Durable) OldestLSN() LSN {
	d.segMu.RLock()
	defer d.segMu.RUnlock()
	return d.oldest
}

// Reader reads a Durable's history from the segment files.  It remembers
// where its last read stopped, so a sequential reader such as a
// replication streamer resumes there instead of rescanning its segment.
// A Reader is not safe for concurrent use.
type Reader struct {
	d   *Durable
	pos cursor
}

// NewReader returns a reader of the log's durable history.
func (d *Durable) NewReader() *Reader { return &Reader{d: d} }

// ReadFrames reads durable frames from the segment files, as they lie
// there, starting exactly at from and bounded by maxBytes of encoded
// record size (always at least one record).  It returns a copy of the
// frames, which the caller owns, and the LSN after the last of them.  A
// nil result with a nil error means the reader is caught up: from is the
// durable horizon.  from must be a record boundary — a follower's durable
// LSN always is, because durability only ever advances whole records.
// The read resumes from where this reader's previous read stopped when
// from lies at or past it in the same segment, and walks from's segment
// from its start otherwise.
func (r *Reader) ReadFrames(from LSN, maxBytes int) ([]byte, LSN, error) {
	durable := LSN(r.d.durable.Load())
	if from >= durable {
		return nil, from, nil
	}
	var out []byte
	end := from
	err := r.d.walk(&r.pos, from, durable, func(rec *Record, frame []byte) error {
		if end > from && int(end-from)+rec.encodedSize() > maxBytes {
			return errBatchFull
		}
		out = append(out, frame...)
		end += LSN(rec.encodedSize())
		return nil
	})
	if err != nil && err != errBatchFull {
		return nil, from, err
	}
	return out, end, nil
}

// errBatchFull stops a ReadFrames walk at its byte budget.
var errBatchFull = errors.New("wal: batch full")

// AppendShipped appends frames shipped from a primary, the first written
// there at LSN first.  first must be the local append horizon, and every
// frame must pass its CRC check at the LSN it lands at here, so the
// follower's log is a prefix of its primary's, byte for byte, or nothing
// is appended.  The bytes are appended as they are and become durable
// through the same group-commit flush as local appends; the caller flushes
// (or waits) before acknowledging its durable LSN upstream.
func (d *Durable) AppendShipped(first LSN, frames []byte) error {
	end, n := first, 0
	for off := 0; off < len(frames); n++ {
		_, m := decodeFrame(frames[off:], end)
		if m == 0 {
			return fmt.Errorf("wal: shipped frame %d fails its check at LSN %d", n, end)
		}
		off, end = off+m, end+LSN(m-crcSize)
	}
	if n == 0 {
		return nil
	}
	d.mu.Lock()
	if d.closed.Load() {
		d.mu.Unlock()
		return errors.New("wal: log closed")
	}
	if first != d.next {
		next := d.next
		d.mu.Unlock()
		return fmt.Errorf("wal: shipped frames start at LSN %d, want %d (stream not contiguous)", first, next)
	}
	d.tail = append(d.tail, frames...)
	d.next = end
	d.mu.Unlock()

	d.appends.Add(uint64(n))
	d.bytes.Add(uint64(end - first))
	d.kick()
	return nil
}

// ResetForSeed discards the entire local log — unflushed tail and every
// on-disk segment — and restarts the append horizon at start, the first
// LSN of an incoming seed stream.  A follower too far behind (or on a
// diverged lineage) calls this before applying SEED frames: its history is
// being replaced wholesale, so nothing local is worth keeping.  The caller
// must have quiesced its own appenders and hold no durability callbacks
// above start (the repl follower flushes synchronously before acking, so
// its durable horizon equals its append horizon whenever a re-seed begins).
func (d *Durable) ResetForSeed(start LSN) error {
	defer d.fireDurable() // callbacks the new horizon covers, outside ioMu
	d.truncMu.Lock()      // no truncation may unlink the segment it creates
	defer d.truncMu.Unlock()
	d.ioMu.Lock()
	defer d.ioMu.Unlock()

	d.mu.Lock()
	if d.closed.Load() {
		d.mu.Unlock()
		return errors.New("wal: log closed")
	}
	d.tail, d.next = d.tail[:0], start
	d.mu.Unlock()

	if d.seg != nil {
		_ = d.seg.Close()
	}
	d.segMu.Lock()
	doomed := d.segs
	d.segs, d.oldest = nil, start
	d.gen++
	d.segMu.Unlock()
	for _, first := range doomed {
		_ = os.Remove(d.segPath(first))
	}
	if err := d.openSegment(start); err != nil {
		return err
	}
	d.durable.Store(uint64(start))
	return nil
}

// Pin registers a retention safe point at lsn: Truncate will not discard
// any record at or above the lowest pinned LSN.  Returns a pin id for
// UpdatePin/Unpin.  The replication streamer pins each subscriber's
// position so a checkpoint-driven truncation cannot unlink a segment a
// slow follower still needs.
func (d *Durable) Pin(lsn LSN) int {
	d.pinMu.Lock()
	defer d.pinMu.Unlock()
	d.pinSeq++
	id := d.pinSeq
	d.pins[id] = lsn
	return id
}

// UpdatePin advances (or moves) an existing pin to lsn.
func (d *Durable) UpdatePin(id int, lsn LSN) {
	d.pinMu.Lock()
	if _, ok := d.pins[id]; ok {
		d.pins[id] = lsn
	}
	d.pinMu.Unlock()
}

// Unpin releases a retention pin.
func (d *Durable) Unpin(id int) {
	d.pinMu.Lock()
	delete(d.pins, id)
	d.pinMu.Unlock()
}

// retentionFloor returns the lowest pinned LSN, or max if nothing is
// pinned.
func (d *Durable) retentionFloor(max LSN) LSN {
	d.pinMu.Lock()
	defer d.pinMu.Unlock()
	floor := max
	for _, lsn := range d.pins {
		if lsn < floor {
			floor = lsn
		}
	}
	return floor
}

// SetRotateHook installs a hook called whenever the active segment rotates:
// the closed segment's path and its [first, last) LSN range.  The hook runs
// on the flush path with the log's I/O lock held, so it must be quick and
// must not call back into the log — copy the path elsewhere (log archival,
// PITR) and return.  Pass nil to clear.
func (d *Durable) SetRotateHook(fn func(path string, first, last LSN)) {
	if fn == nil {
		d.rotateHook.Store(nil)
		return
	}
	d.rotateHook.Store(&fn)
}
