// Replication support on the durable log device: reading the stream a
// primary ships to followers, appending a shipped stream on a follower, and
// the retention machinery that keeps truncation from deleting a slow
// reader's segments out from under it.
//
// The log IS the replication stream: a follower's log is a byte-identical
// prefix of its primary's, so LSNs agree on both sides, resubscription is
// "start from my durable LSN", and a promoted follower recovers with the
// exact same torn-tail truncation code path as a restarted primary.
package wal

import (
	"errors"
	"fmt"
	"os"
)

// ErrLogTruncated is returned by ReadDurable when the requested start LSN
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

// ReadDurable reads durable records from the segment files, starting
// exactly at from, bounded by maxBytes of encoded record size (always at
// least one record).  A nil result with a nil error means the reader is
// caught up: from is the durable horizon.  from must be a record boundary
// — a follower's durable LSN always is, because durability only ever
// advances whole records.  Each call finds from by walking its segment
// from the start; a sequential reader uses a Reader instead.
func (d *Durable) ReadDurable(from LSN, maxBytes int) ([]Record, error) {
	return d.NewReader().ReadDurable(from, maxBytes)
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

// ReadDurable is Durable.ReadDurable, resuming from where this reader's
// previous read stopped when from lies at or past it in the same segment.
func (r *Reader) ReadDurable(from LSN, maxBytes int) ([]Record, error) {
	durable := LSN(r.d.durable.Load())
	if from >= durable {
		return nil, nil
	}
	var out []Record
	bytes := 0
	err := r.d.walk(&r.pos, from, durable, func(body []byte) error {
		if len(out) > 0 && bytes+len(body) > maxBytes {
			return errBatchFull
		}
		rec, _ := UnmarshalRecord(body)
		out = append(out, rec)
		bytes += len(body)
		return nil
	})
	if err != nil && err != errBatchFull {
		return nil, err
	}
	return out, nil
}

// errBatchFull stops a ReadDurable walk at its byte budget.
var errBatchFull = errors.New("wal: batch full")

// AppendShipped appends records shipped from a primary, keeping their
// pre-assigned LSNs.  The batch must start exactly at the local append
// horizon and be internally contiguous — a follower's log is a prefix of
// its primary's, byte for byte, or it is corrupt.  The records become
// durable through the same group-commit flush as local appends; the caller
// flushes (or waits) before acknowledging its durable LSN upstream.
func (d *Durable) AppendShipped(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	d.mu.Lock()
	if d.closed.Load() {
		d.mu.Unlock()
		return errors.New("wal: log closed")
	}
	mark, want := len(d.tail), d.next
	for i := range recs {
		if recs[i].LSN != want {
			d.tail = d.tail[:mark]
			d.mu.Unlock()
			return fmt.Errorf("wal: shipped record %d has LSN %d, want %d (stream not contiguous)", i, recs[i].LSN, want)
		}
		want += LSN(recs[i].encodedSize())
		d.tail = appendFrame(d.tail, &recs[i])
	}
	total := uint64(want - d.next)
	d.next = want
	d.mu.Unlock()

	d.appends.Add(uint64(len(recs)))
	d.bytes.Add(total)
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
