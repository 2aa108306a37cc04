// Streaming scans: the client side of the SCAN / SCAN-CHUNK / SCAN-ACK
// exchange.  A ScanStream pulls entries chunk by chunk instead of buffering
// the whole result in one Response, so arbitrarily large ranges move in
// bounded memory on both ends.  Flow control is credit-based: the server
// holds at most Window unacknowledged chunks, and the stream returns one
// credit per chunk as it is consumed, so a slow consumer stalls only its
// own stream, never the connection.
package client

import (
	"context"
	"fmt"

	"plp/keys"
	"plp/plan"
	"plp/shard"
	"plp/wire"
)

// ScanStreamOptions tunes a streaming scan.  The zero value is usable:
// server-default limit, no filter, default chunk size and window.
type ScanStreamOptions struct {
	// Limit caps the total number of entries across all chunks; 0 selects
	// the server's streaming default (far larger than the one-reply scan's).
	Limit int
	// Filter is an optional predicate pushed down to the server, evaluated
	// inside partition workers; only matching entries cross the wire.
	Filter *plan.Predicate
	// ChunkEntries bounds entries per chunk; 0 selects the server default.
	ChunkEntries int
	// Window is how many unacknowledged chunks the server may hold in
	// flight; 0 selects the default.
	Window int
}

// ScanStream iterates a streaming scan's entries in key order:
//
//	st, err := c.ScanStream(ctx, "sub", lo, hi, nil)
//	...
//	defer st.Close()
//	for st.Next() {
//	    use(st.Entry())
//	}
//	err = st.Err()
//
// A ScanStream is not safe for concurrent use.
type ScanStream struct {
	c   *Client
	ctx context.Context
	id  uint64
	ch  chan *wire.ScanChunk

	cur    []wire.ScanEntry
	idx    int
	err    error
	done   bool // final chunk received; the server is finished
	closed bool
}

// ScanStream starts a streaming scan of [lo, hi) on table.  A nil hi scans
// to the end; a nil opts uses defaults.
func (c *Client) ScanStream(ctx context.Context, table string, lo, hi []byte, opts *ScanStreamOptions) (*ScanStream, error) {
	var o ScanStreamOptions
	if opts != nil {
		o = *opts
	}
	if o.Filter != nil {
		if err := o.Filter.Validate(); err != nil {
			return nil, fmt.Errorf("client: scan filter: %w", err)
		}
	}
	window := o.Window
	if window <= 0 {
		window = wire.DefaultScanWindow
	} else if window > wire.MaxScanWindow {
		window = wire.MaxScanWindow
	}
	sc := &wire.ScanRequest{Table: table, Lo: lo, Hi: hi, Window: uint32(window), Filter: o.Filter}
	if o.Limit > 0 {
		sc.Limit = uint32(o.Limit)
	}
	if o.ChunkEntries > 0 {
		sc.ChunkEntries = uint32(o.ChunkEntries)
	}
	st := &ScanStream{c: c, ctx: ctx, idx: -1}
	// The channel must absorb the worst case without blocking the reader:
	// Window unacknowledged data chunks, plus a final chunk (which consumes
	// a credit but can land before we consume the others), plus an error
	// final emitted outside the credit loop.
	st.ch = make(chan *wire.ScanChunk, window+2)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	st.id = c.nextID
	c.streams[st.id] = st.ch
	c.countLocked()
	c.mu.Unlock()
	c.enqueue(wire.EncodeScanRequest(st.id, sc))
	return st, nil
}

// Next advances to the next entry, blocking for the next chunk when the
// current one is exhausted.  It returns false at the end of the scan or on
// error; check Err to distinguish.
func (st *ScanStream) Next() bool {
	if st.err != nil || st.closed {
		return false
	}
	st.idx++
	for st.idx >= len(st.cur) {
		if st.done {
			return false
		}
		var chunk *wire.ScanChunk
		select {
		case chunk = <-st.ch:
		case <-st.ctx.Done():
			st.err = st.ctx.Err()
			st.abort()
			return false
		}
		if chunk == nil {
			// fail() closed the channel: the connection died mid-stream.
			st.c.mu.Lock()
			st.err = st.c.broken
			st.c.mu.Unlock()
			if st.err == nil {
				st.err = ErrClosed
			}
			st.done = true
			return false
		}
		if chunk.Err != "" {
			st.err = fmt.Errorf("client: scan: %s", chunk.Err)
			st.done = true
			st.unregister()
			return false
		}
		if chunk.Final {
			st.done = true
			st.unregister()
		} else {
			// Return the chunk's credit as it is consumed, keeping the
			// server's production window full.
			st.c.enqueue(wire.EncodeScanAck(st.id, 1))
		}
		st.cur, st.idx = chunk.Entries, 0
	}
	return true
}

// Entry returns the current entry; valid only after Next returned true and
// until the following Next call.
func (st *ScanStream) Entry() wire.ScanEntry { return st.cur[st.idx] }

// Err returns the first error the stream hit, or nil after a clean end.  A
// parent-context cancellation surfaces as the context's error.
func (st *ScanStream) Err() error { return st.err }

// Close releases the stream.  If the scan is still running on the server it
// is cancelled — the server stops producing chunks.  Close is idempotent
// and safe after the stream is exhausted.
func (st *ScanStream) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	if !st.done {
		st.abort()
	}
	return nil
}

// abort unregisters the stream and tells the server to stop producing.
// The cancel frame is intercepted by the server's connection reader, which
// flips the stream's cancel flag and wakes it even if it is stalled waiting
// for credits.
func (st *ScanStream) abort() {
	st.done = true
	st.unregister()
	st.c.enqueue(wire.EncodeCancelRequest(st.id))
}

func (st *ScanStream) unregister() {
	st.c.mu.Lock()
	delete(st.c.streams, st.id)
	st.c.countLocked()
	st.c.mu.Unlock()
}

// ShardedScanStream iterates a cross-shard streaming scan.  Shards are
// visited lazily in key order — a shard's stream opens only when the
// previous shard is exhausted — so a scan that meets its limit early never
// contacts the remaining shards.
type ShardedScanStream struct {
	s      *Sharded
	ctx    context.Context
	table  string
	lo, hi []byte
	opts   ScanStreamOptions

	shards []shard.Shard
	si     int
	cur    *ScanStream
	sent   int
	err    error
	closed bool
}

// ScanStream starts a streaming scan of [lo, hi) across every shard whose
// range intersects it.  Entries arrive in global key order and the limit in
// opts applies across all shards.  Same iterator contract as
// Client.ScanStream.
func (s *Sharded) ScanStream(ctx context.Context, table string, lo, hi []byte, opts *ScanStreamOptions) (*ShardedScanStream, error) {
	m := s.Map()
	st := &ShardedScanStream{s: s, ctx: ctx, table: table, lo: lo, hi: hi, shards: m.Shards}
	if opts != nil {
		st.opts = *opts
	}
	return st, nil
}

// Next advances to the next entry, opening the next shard's stream as
// needed.  It returns false at the end of the scan or on error.
func (st *ShardedScanStream) Next() bool {
	if st.err != nil || st.closed {
		return false
	}
	for {
		if st.cur != nil {
			if st.cur.Next() {
				st.sent++
				return true
			}
			if err := st.cur.Err(); err != nil {
				st.err = fmt.Errorf("client: scan shard %d: %w", st.shards[st.si].ID, err)
				return false
			}
			_ = st.cur.Close()
			st.cur = nil
			st.si++
		}
		if st.opts.Limit > 0 && st.sent >= st.opts.Limit {
			return false
		}
		if !st.skipToIntersecting() {
			return false
		}
		sh := st.shards[st.si]
		c, err := st.s.clientFor(st.ctx, sh.Addr)
		if err != nil {
			st.err = fmt.Errorf("client: scan shard %d: %w", sh.ID, err)
			return false
		}
		opts := st.opts
		if opts.Limit > 0 {
			opts.Limit -= st.sent // each shard asks only for what remains
		}
		cur, err := c.ScanStream(st.ctx, st.table, st.lo, st.hi, &opts)
		if err != nil {
			st.err = fmt.Errorf("client: scan shard %d: %w", sh.ID, err)
			return false
		}
		st.cur = cur
	}
}

// skipToIntersecting advances si past shards whose range cannot intersect
// [lo, hi); it returns false when no shard remains.
func (st *ShardedScanStream) skipToIntersecting() bool {
	for st.si < len(st.shards) {
		sh := st.shards[st.si]
		var shardLo []byte
		if st.si > 0 {
			shardLo = st.shards[st.si-1].End
		}
		if len(st.hi) > 0 && shardLo != nil && keys.Compare(st.hi, shardLo) <= 0 {
			return false // this and all later shards lie past the range
		}
		if sh.End != nil && keys.Compare(st.lo, sh.End) >= 0 {
			st.si++ // shard lies wholly before the range
			continue
		}
		return true
	}
	return false
}

// Entry returns the current entry; valid only after Next returned true.
func (st *ShardedScanStream) Entry() wire.ScanEntry { return st.cur.Entry() }

// Err returns the first error the scan hit, or nil after a clean end.
func (st *ShardedScanStream) Err() error { return st.err }

// Close releases the scan, cancelling the open shard stream, if any.
func (st *ShardedScanStream) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	if st.cur != nil {
		_ = st.cur.Close()
		st.cur = nil
	}
	return nil
}
