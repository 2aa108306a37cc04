// Durable: the disk-backed, segmented log device with group commit.
//
// The in-memory devices (Consolidated, Naive) simulate durability by
// advancing an atomic — right for the paper's memory-resident experiments,
// disqualifying for a system that must survive kill -9.  Durable puts a real
// log file behind the same Log interface, and keeps the log as bytes:
//
//   - Append assigns the LSN and encodes the record's frame (wal.go: type
//     byte, uvarint transaction ID and payload length, payload, CRC32 over
//     the LSN and those bytes) once, onto a pointer-free tail buffer, under
//     a short mutex.
//   - A background flush daemon swaps the tail out, writes its bytes to the
//     active segment file in ONE write, fsyncs ONCE, and then advances the
//     durable LSN and runs, in LSN order, every callback registered at or
//     below it.  That is group commit in the Aether style: the fsync cost
//     is amortized over every transaction that joined the batch while the
//     previous fsync was in flight.  A record leaves memory once it is
//     durable; readers of durable history (recovery, replication streamers)
//     read the segment files.
//   - OnDurable(lsn, fn) is the commit-side half: kick the daemon and
//     register fn, which the daemon runs once the durable horizon passes
//     lsn.  N concurrent committers pay ~1 fsync, not N, and none of them
//     parks a goroutine: Aether's flush pipelining, where the thread that
//     commits does not wait for the flush.  WaitDurable is OnDurable plus
//     a wait, for callers that have a goroutine to park.
//   - SyncEveryCommit mode disables the daemon and makes every WaitDurable
//     and OnDurable perform its own write+fsync — the naive
//     per-transaction-fsync baseline the group-commit benchmark pair
//     compares against.
//
// The log is segmented: the active segment rotates at SegmentBytes, and
// Truncate (driven by checkpointing) raises the truncation horizon and
// unlinks whole segments whose records all precede it.  A segment file is
// named after the LSN of its first record and holds a 7-byte header (the
// magic "PLPWAL" and the format version, 2) followed by frames back to
// back.  No frame stores its LSN: the first frame's is the name's, and each
// later one's is the previous one's plus its size less the CRC.  On open,
// segments are scanned sequentially, each frame's CRC checked at the LSN
// so derived; a torn tail record (the crash hit mid-write) is cut off at
// the last valid prefix, which is exactly the prefix the flusher had
// acknowledged.  A segment whose header is not this format's — one written
// by a build that stored a 37-byte header in every record, say — fails the
// open with ErrFormat: it is never read, and never replaced by an empty
// log.
package wal

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"plp/internal/cs"
)

// Durable device defaults.
const (
	// DefaultSegmentBytes is the rotation threshold for log segments.
	DefaultSegmentBytes = 16 << 20
	// segmentSuffix names log segment files; the prefix is the first LSN in
	// the segment, in fixed-width hex so lexical order is LSN order.
	segmentSuffix = ".seg"
	// segmentMagic and segmentFormat open every segment file; together
	// they are the segment header, segHeaderSize bytes.
	segmentMagic  = "PLPWAL"
	segmentFormat = 2
	segHeaderSize = len(segmentMagic) + 1
	// maxSpareBytes caps the batch buffer a flush keeps for reuse.
	maxSpareBytes = 1 << 20
)

// DurableOptions tunes the disk-backed device.
type DurableOptions struct {
	// SegmentBytes is the segment rotation threshold (default 16 MiB).
	SegmentBytes int64
	// SyncEveryCommit disables the group-commit daemon: every WaitDurable
	// performs its own write+fsync.  This is the ablation baseline for the
	// group-commit benchmark; production configurations leave it false.
	SyncEveryCommit bool
	// CSStats, when set, receives log-manager critical-section reports.
	CSStats *cs.Stats
}

// ErrFormat is returned by OpenDurable when a segment in the directory is
// not in this build's log format.
var ErrFormat = errors.New("wal: segment is not in log format 2")

// segmentHeader is the header every segment file starts with.
var segmentHeader = append([]byte(segmentMagic), segmentFormat)

// Durable is the disk-backed segmented log device.
type Durable struct {
	dir  string
	opts DurableOptions

	// mu guards the append state: LSN assignment and the unflushed tail.
	// It is never held across disk I/O.
	mu     sync.Mutex
	next   LSN    // next LSN to assign
	tail   []byte // frames appended but not yet handed to a flush
	closed atomic.Bool

	// cbMu guards the durability callbacks (OnDurable), a separate mutex
	// so a group flush's callback sweep does not contend with appenders.
	// cbDone is set once Close has swept them for the last time.
	cbMu    sync.Mutex
	pending []durableCallback
	cbDone  bool

	// ioMu serializes batch writes, fsyncs, segment rotation, re-seeding
	// and Truncate's swap of the segment list, so a truncation never
	// interleaves with an in-flight group flush.
	ioMu    sync.Mutex
	seg     *os.File
	segSize int64
	spare   []byte // the last written batch, reused as the next tail

	// segMu guards what readers of durable history look up.  Its writers
	// also hold ioMu, so ioMu holders may read these without it.
	segMu  sync.RWMutex
	segs   []LSN  // each segment's first LSN, in order; the last is active
	oldest LSN    // truncation horizon: the oldest retained record
	gen    uint64 // bumped when ResetForSeed replaces the log

	// truncMu serializes truncations, which walk and unlink segments
	// without ioMu, with each other and with ResetForSeed: only its
	// holders move oldest or gen.
	truncMu sync.Mutex

	durable atomic.Uint64

	// pinMu guards the retention pins (see Pin in repl.go).  A separate
	// mutex so ack-driven pin updates never contend with the append path.
	pinMu  sync.Mutex
	pins   map[int]LSN
	pinSeq int

	// rotateHook, when set, is called with each closed segment (see
	// SetRotateHook in repl.go).
	rotateHook atomic.Pointer[func(path string, first, last LSN)]
	// syncHook, when set, runs between a batch's write and its fsync (see
	// SetSyncHook).
	syncHook atomic.Pointer[func()]

	flushReq chan struct{}
	stop     chan struct{}
	done     chan struct{}

	appends   atomic.Uint64
	flushes   atomic.Uint64
	bytes     atomic.Uint64
	truncated atomic.Uint64
}

// NewDurable opens (or creates) a disk-backed log in dir with default
// options and starts its group-commit flush daemon.
func NewDurable(dir string) (*Durable, error) {
	return OpenDurable(dir, DurableOptions{})
}

// OpenDurable opens (or creates) a disk-backed log in dir.  Existing
// segments are scanned sequentially: every CRC-valid record counts as
// durable, and a torn tail (a crash in the middle of a batch write) is
// truncated away.  A segment in another format fails the open with
// ErrFormat.  Unless SyncEveryCommit is set, the group-commit flush
// daemon is started.
func OpenDurable(dir string, opts DurableOptions) (*Durable, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create log dir: %w", err)
	}
	d := &Durable{
		dir:      dir,
		opts:     opts,
		next:     1, // LSN 0 is InvalidLSN
		pins:     make(map[int]LSN),
		flushReq: make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if err := d.load(); err != nil {
		return nil, err
	}
	if !opts.SyncEveryCommit {
		go d.flushLoop()
	} else {
		close(d.done) // no daemon to wait for on Close
	}
	return d, nil
}

// segmentName returns the file name of the segment starting at lsn.
func segmentName(lsn LSN) string {
	return fmt.Sprintf("%016x%s", uint64(lsn), segmentSuffix)
}

// segPath returns the path of the segment starting at first.
func (d *Durable) segPath(first LSN) string { return filepath.Join(d.dir, segmentName(first)) }

// load scans the existing segments without keeping their records,
// truncates a torn tail and opens the active segment for appending.
func (d *Durable) load() error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("wal: read log dir: %w", err)
	}
	torn := false
	for _, e := range entries { // sorted by name, and so by LSN
		name, path := e.Name(), filepath.Join(d.dir, e.Name())
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		if torn {
			// LSN continuity is already broken at an earlier torn tail; a
			// later segment can only hold records the system never
			// acknowledged.  Drop it.
			_ = os.Remove(path)
			continue
		}
		var first uint64
		if _, err := fmt.Sscanf(name, "%016x", &first); err != nil || segmentName(LSN(first)) != name {
			return fmt.Errorf("wal: malformed segment name %q", name)
		}
		empty, err := checkSegmentHeader(path)
		if err != nil {
			return err
		}
		if empty {
			// The crash hit before the header was whole: no record was
			// ever written here.
			_ = os.Remove(path)
			continue
		}
		r, err := openFrames(path, startOf(LSN(first)))
		if err != nil {
			return fmt.Errorf("wal: read segment: %w", err)
		}
		for r.next() {
		}
		_ = r.f.Close()
		if r.off < r.size {
			// Torn tail: cut the file back to its valid prefix.
			if err := os.Truncate(path, r.off); err != nil {
				return fmt.Errorf("wal: truncate torn segment %s: %w", name, err)
			}
			torn = true
		}
		if r.off == int64(segHeaderSize) {
			_ = os.Remove(path)
			continue
		}
		d.segs = append(d.segs, LSN(first))
		d.next, d.segSize = r.lsn, r.off
	}
	d.durable.Store(uint64(d.next)) // everything on disk is durable
	if len(d.segs) == 0 {
		d.oldest = d.next
		return d.openSegment(d.next)
	}
	d.oldest = d.segs[0]
	d.seg, err = os.OpenFile(d.segPath(d.segs[len(d.segs)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen segment: %w", err)
	}
	return nil
}

// checkSegmentHeader reads the header of the segment file at path.  It
// reports a file shorter than the header that holds a prefix of it as
// empty: one a crash caught while it was being created.  Any other header
// fails with ErrFormat.
func checkSegmentHeader(path string) (empty bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("wal: read segment: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, segHeaderSize)
	n, err := io.ReadFull(f, hdr)
	switch {
	case err != nil && err != io.ErrUnexpectedEOF && err != io.EOF:
		return false, fmt.Errorf("wal: read segment: %w", err)
	case bytes.Equal(hdr[:n], segmentHeader[:n]):
		return n < segHeaderSize, nil
	case n == segHeaderSize && bytes.Equal(hdr[:len(segmentMagic)], []byte(segmentMagic)):
		return false, fmt.Errorf("%w: %s is in format %d", ErrFormat, path, hdr[len(segmentMagic)])
	default:
		return false, fmt.Errorf("%w: %s has no segment header (a log written before format 2, whose records each carry a 37-byte header?)", ErrFormat, path)
	}
}

// openSegment creates a fresh segment whose first record will be at lsn and
// makes it the active segment.  Caller must hold ioMu (or be single-threaded
// during open).
func (d *Durable) openSegment(lsn LSN) error {
	f, err := os.OpenFile(d.segPath(lsn), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(segmentHeader); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: create segment: %w", err)
	}
	// fsync the directory so the new segment's name survives a crash.
	if dirf, derr := os.Open(d.dir); derr == nil {
		_ = dirf.Sync()
		_ = dirf.Close()
	}
	d.seg, d.segSize = f, int64(segHeaderSize)
	d.segMu.Lock()
	d.segs = append(d.segs, lsn)
	d.segMu.Unlock()
	return nil
}

// Append implements Log.  The record is assigned its LSN and its frame is
// encoded onto the in-memory tail.  Every record but a data record kicks
// the flush daemon, so durability proceeds in the background even for
// committers that never wait (LazyCommit).  A data record is not worth a
// flush of its own: nothing needs it durable before its transaction's
// commit or abort record, which kicks, and anyone who waits on it directly
// (WaitDurable, Flush) kicks too.  One flush so takes a whole transaction.
func (d *Durable) Append(r *Record) LSN {
	size := LSN(r.encodedSize())
	contended := !d.mu.TryLock()
	if contended {
		d.mu.Lock()
	}
	r.LSN = d.next
	d.next += size
	d.tail = appendFrame(d.tail, r)
	d.mu.Unlock()

	d.opts.CSStats.RecordClass(cs.LogMgr, cs.Fixed, contended)
	d.appends.Add(1)
	d.bytes.Add(uint64(size))
	if !r.Type.isData() {
		d.kick()
	}
	return r.LSN
}

// kick wakes the flush daemon without blocking.
func (d *Durable) kick() {
	if d.opts.SyncEveryCommit {
		return
	}
	select {
	case d.flushReq <- struct{}{}:
	default:
	}
}

// flushLoop is the group-commit daemon: each iteration drains everything
// appended so far into one write+fsync, then runs the callbacks the new
// durable horizon covers.  While an fsync is in flight new appends pile up
// on the tail, so the next iteration flushes them as one batch — the batch
// size adapts to the fsync latency by construction.
func (d *Durable) flushLoop() {
	defer close(d.done)
	for {
		select {
		case <-d.stop:
			d.flushOnce(false) // final drain so Close loses nothing
			d.fireDurable()
			return
		case <-d.flushReq:
			d.flushOnce(false)
			d.fireDurable()
		}
	}
}

// flushOnce writes the outstanding tail to the active segment, fsyncs and
// advances the durable horizon; its caller then runs the callbacks the
// horizon covers (fireDurable), outside ioMu.  It is called by the daemon
// (group mode) or inline by WaitDurable/OnDurable/Flush (SyncEveryCommit
// mode), always serialized on ioMu.
//
// forceSync makes an empty-batch call fsync anyway: the SyncEveryCommit
// baseline must pay one fsync per commit even when a racing committer's
// flush already wrote this commit's bytes — otherwise the "per-transaction
// fsync" ablation would itself batch, and the group-commit comparison
// would measure nothing.
func (d *Durable) flushOnce(forceSync bool) {
	d.ioMu.Lock()
	defer d.ioMu.Unlock()

	if d.seg == nil {
		return // closed: appends past the final drain are not durable
	}

	// The tail and the spare buffer alternate: a steady flush allocates nothing.
	d.mu.Lock()
	batch := d.tail
	d.tail = d.spare[:0]
	target := d.next // tail covered [durable, next): target is exact
	d.mu.Unlock()
	d.spare = nil
	if cap(batch) <= maxSpareBytes {
		d.spare = batch[:0]
	}

	if len(batch) == 0 {
		if forceSync {
			if err := d.seg.Sync(); err != nil {
				d.fail(err)
			}
			d.flushes.Add(1)
		}
		return
	}

	// Write the batch as is, split at the record boundaries where segments
	// rotate.  The batch starts at the durable horizon: every flush before
	// this one, which ioMu orders, wrote the tail up to it.
	start, lsn := 0, LSN(d.durable.Load())
	for off, n := 0, 0; off < len(batch); off, lsn = off+n, lsn+LSN(n-crcSize) {
		n = frameLen(batch[off:])
		// A segment rotates before the first frame that finds it holding
		// SegmentBytes, whatever batches the bytes came in, so a follower
		// rotates where its primary did.
		if size := d.segSize + int64(off-start); size > int64(segHeaderSize) && size >= d.opts.SegmentBytes {
			// Rotate: flush what we have into the old segment first.
			if err := d.writeAndSync(batch[start:off]); err != nil {
				d.fail(err)
			}
			start = off
			first := d.segs[len(d.segs)-1]
			_ = d.seg.Close()
			if hook := d.rotateHook.Load(); hook != nil {
				(*hook)(d.segPath(first), first, lsn)
			}
			if err := d.openSegment(lsn); err != nil {
				d.fail(err)
			}
		}
	}
	if err := d.writeAndSync(batch[start:]); err != nil {
		d.fail(err)
	}
	d.flushes.Add(1)

	d.durable.Store(uint64(target)) // flushes are serialized: it only grows
}

// writeAndSync appends buf to the active segment and fsyncs it.
func (d *Durable) writeAndSync(buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	if _, err := d.seg.Write(buf); err != nil {
		return err
	}
	if hook := d.syncHook.Load(); hook != nil {
		(*hook)()
	}
	if err := d.seg.Sync(); err != nil {
		return err
	}
	d.segSize += int64(len(buf))
	return nil
}

// SetSyncHook installs (or, with nil, clears) a function the flush path
// calls after writing a batch and before fsyncing it, with the log's I/O
// lock held.  Tests use it to hold the flusher between append and fsync;
// nothing else should.
func (d *Durable) SetSyncHook(fn func()) {
	if fn == nil {
		d.syncHook.Store(nil)
		return
	}
	d.syncHook.Store(&fn)
}

// durableCallback is one OnDurable registration.
type durableCallback struct {
	lsn LSN
	fn  func(error)
}

// OnDurable implements Log: fn runs once the record appended at lsn is
// durable (the durable horizon has passed lsn), with a nil error — at once
// on the calling goroutine when it already is, otherwise on the flush
// daemon, in LSN order with the other callbacks the same flush covers.  If
// the log closes first, fn runs with ErrNotDurable.  fn must not block:
// the daemon runs the next flush only after it returns.  In
// SyncEveryCommit mode the caller pays its own write+fsync and fn runs
// before OnDurable returns.
func (d *Durable) OnDurable(lsn LSN, fn func(error)) {
	if d.opts.SyncEveryCommit && !d.closed.Load() {
		d.flushOnce(true)
	}
	d.cbMu.Lock()
	if LSN(d.durable.Load()) > lsn {
		d.cbMu.Unlock()
		fn(nil)
		return
	}
	if d.cbDone || d.opts.SyncEveryCommit {
		d.cbMu.Unlock()
		fn(ErrNotDurable)
		return
	}
	d.pending = append(d.pending, durableCallback{lsn: lsn, fn: fn})
	d.cbMu.Unlock()
	d.kick()
}

// fireDurable runs, in LSN order, every registered callback the durable
// horizon covers.  The daemon calls it after each flush; a re-seed, which
// moves the horizon, calls it too.
func (d *Durable) fireDurable() {
	durable := LSN(d.durable.Load())
	d.cbMu.Lock()
	var ready []durableCallback
	kept := d.pending[:0]
	for _, cb := range d.pending {
		if cb.lsn < durable {
			ready = append(ready, cb)
		} else {
			kept = append(kept, cb)
		}
	}
	clear(d.pending[len(kept):])
	d.pending = kept
	d.cbMu.Unlock()
	slices.SortFunc(ready, func(a, b durableCallback) int { return cmp.Compare(a.lsn, b.lsn) })
	for _, cb := range ready {
		cb.fn(nil)
	}
}

// fail marks a disk failure.  There is no good recovery from a log device
// that cannot write: the invariant "acknowledged means durable" can no
// longer be kept, so the device panics rather than acknowledge silently
// lost commits.
func (d *Durable) fail(err error) {
	panic(fmt.Sprintf("wal: durable log write failed: %v", err))
}

// WaitDurable implements Log: block until the record appended at lsn is
// durable, or the log closes.  It is OnDurable plus a wait.  In
// SyncEveryCommit mode each caller performs its own write+fsync (the
// ablation baseline) — no fast path, covered or not.
func (d *Durable) WaitDurable(lsn LSN) LSN {
	if d.opts.SyncEveryCommit {
		d.flushOnce(true)
		return LSN(d.durable.Load())
	}
	if LSN(d.durable.Load()) > lsn {
		return LSN(d.durable.Load())
	}
	done := make(chan struct{})
	d.OnDurable(lsn, func(error) { close(done) })
	<-done
	return LSN(d.durable.Load())
}

// Flush implements Log: make everything appended so far durable.  upto is a
// lower bound; the disk device always flushes the full tail, which covers
// it.
func (d *Durable) Flush(upto LSN) LSN {
	d.mu.Lock()
	target := d.next
	d.mu.Unlock()
	if d.closed.Load() || LSN(d.durable.Load()) >= target {
		return LSN(d.durable.Load())
	}
	if d.opts.SyncEveryCommit {
		d.flushOnce(false)
		return LSN(d.durable.Load())
	}
	return d.WaitDurable(target - 1)
}

// DurableLSN implements Log.
func (d *Durable) DurableLSN() LSN { return LSN(d.durable.Load()) }

// CurrentLSN implements Log.
func (d *Durable) CurrentLSN() LSN {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next
}

// Records implements Log: it flushes, then reads the segment files back.
func (d *Durable) Records() []Record {
	d.Flush(0)
	for {
		var out []Record
		err := Scan(d, func(r *Record) error { out = append(out, *r); return nil })
		if err == nil {
			return out
		}
		if !errors.Is(err, ErrLogTruncated) {
			panic(fmt.Sprintf("wal: durable log read failed: %v", err))
		}
		// A truncation or re-seed overtook the read: read what is retained now.
	}
}

// Truncate implements Log.  The truncation horizon rises to the first
// record boundary at or above upto (clamped to the durable LSN and the
// retention pins), and whole closed segments below it are unlinked.
// Finding that boundary means walking the frames below it, which can be
// hundreds of megabytes; durable bytes never change, so the walk holds
// neither ioMu nor mu and group flushes go on meanwhile.  Only the swap of
// the segment list holds ioMu, so it never interleaves with a flush's
// rotation; the unlinks hold truncMu alone, which ResetForSeed takes too.
// A pin registered below upto during the walk cancels the truncation,
// which then drops nothing.
func (d *Durable) Truncate(upto LSN) int {
	d.truncMu.Lock()
	defer d.truncMu.Unlock()

	upto = d.retentionFloor(min(upto, LSN(d.durable.Load()))) // durable, unpinned only
	horizon, dropped := d.OldestLSN(), 0
	if err := d.walk(&cursor{}, horizon, upto, func(r *Record, _ []byte) error {
		horizon += LSN(r.encodedSize())
		dropped++
		return nil
	}); err != nil {
		// truncMu keeps the horizon and the segment list in place, so only
		// a failing device gets here.
		panic(fmt.Sprintf("wal: durable log read failed: %v", err))
	}

	d.ioMu.Lock()
	d.segMu.Lock()
	if d.retentionFloor(upto) < upto {
		d.segMu.Unlock()
		d.ioMu.Unlock()
		return 0
	}
	n := 0
	for n < len(d.segs)-1 && d.segs[n+1] <= horizon {
		n++ // segment n ends where n+1 begins, at or below the horizon
	}
	doomed := d.segs[:n]
	d.segs, d.oldest = d.segs[n:], horizon
	d.segMu.Unlock()
	d.ioMu.Unlock()
	for _, first := range doomed {
		_ = os.Remove(d.segPath(first))
	}
	d.truncated.Add(uint64(dropped))
	return dropped
}

// Stats implements Log.
func (d *Durable) Stats() Stats {
	return Stats{
		Appends:     d.appends.Load(),
		Flushes:     d.flushes.Load(),
		BytesLogged: d.bytes.Load(),
		Truncated:   d.truncated.Load(),
	}
}

// Close flushes the outstanding tail, stops the daemon and closes the
// active segment.  The engine calls it on graceful shutdown so the final
// batch of lazy commits reaches the disk.
func (d *Durable) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	if d.opts.SyncEveryCommit {
		d.flushOnce(false)
	} else {
		close(d.stop)
		<-d.done // daemon does the final drain
	}
	// Whatever the final drain did not cover never becomes durable.
	d.cbMu.Lock()
	d.cbDone = true
	rest := d.pending
	d.pending = nil
	d.cbMu.Unlock()
	for _, cb := range rest {
		if LSN(d.durable.Load()) > cb.lsn {
			cb.fn(nil)
		} else {
			cb.fn(ErrNotDurable)
		}
	}

	d.ioMu.Lock()
	defer d.ioMu.Unlock()
	if d.seg != nil {
		err := d.seg.Close()
		d.seg = nil
		return err
	}
	return nil
}

// Reading durable history.  An LSN advances by a record's encoded size
// without its CRC trailer, so an LSN's file offset is found by walking the
// frame headers from the first frame of its segment.  Each walk starts
// from, and leaves behind, a caller-held cursor, so a sequential reader (a Reader)
// resumes where it stopped without a rescan.  Readers open segments
// read-only and take only segMu.  A read that starts below the truncation
// horizon, or that a truncation or re-seed overtakes, fails with
// ErrLogTruncated.

// cursor is a record boundary: the record at lsn starts at byte off of the
// segment beginning at first, in segment-list generation gen.  The zero
// cursor names no position.
type cursor struct {
	gen        uint64
	first, lsn LSN
	off        int64
}

// startOf returns the cursor at the first frame of the segment starting
// at first.
func startOf(first LSN) cursor { return cursor{first: first, lsn: first, off: int64(segHeaderSize)} }

// frameReader walks the frames of one segment file from a record boundary.
type frameReader struct {
	f         *os.File
	br        *bufio.Reader
	frame     []byte // the last frame read
	rec       Record // its record; the payload aliases frame
	off, size int64  // offset of the next frame; file length when opened
	lsn       LSN    // LSN the next frame is checked at
}

// openFrames opens the segment at path for reading at the boundary c.
func openFrames(path string, c cursor) (*frameReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	rest := st.Size() - c.off
	br := bufio.NewReaderSize(io.NewSectionReader(f, c.off, rest), int(min(rest, 64<<10)))
	return &frameReader{f: f, br: br, off: c.off, size: st.Size(), lsn: c.lsn}, nil
}

// next reads the next frame into frame and rec, which stay valid until
// the following call.  It returns false at the end of the file and at the
// first torn or corrupt frame, or one that was not written at this LSN;
// off and lsn then still name that frame, and the reader is spent.
func (r *frameReader) next() bool {
	hdr, _ := r.br.Peek(int(min(int64(maxHeaderSize), r.size-r.off)))
	n := frameLen(hdr)
	if n == 0 || int64(n) > r.size-r.off {
		return false
	}
	r.frame = slices.Grow(r.frame[:0], n)[:n]
	if _, err := io.ReadFull(r.br, r.frame); err != nil {
		return false
	}
	var m int
	if r.rec, m = decodeFrame(r.frame, r.lsn); m == 0 {
		return false
	}
	r.off += int64(n)
	r.lsn += LSN(n - crcSize)
	return true
}

// walk calls fn with every record in [from, limit), which must be
// durable, and its frame, until fn returns an error; walk returns it,
// unless the read was overtaken (ErrLogTruncated).  The record's payload
// and the frame are valid only during the call.
// c is where the caller's previous walk stopped; walk resumes from it when
// it can and leaves it at the record it stops at.
func (d *Durable) walk(c *cursor, from, limit LSN, fn func(r *Record, frame []byte) error) error {
	d.segMu.RLock()
	gen := d.gen
	d.segMu.RUnlock()
	var err error
	for lsn := from; lsn < limit && err == nil; {
		var first LSN
		if first, err = d.segmentFor(lsn, from, gen); err == nil {
			lsn, err = d.walkSegment(c, first, gen, lsn, limit, fn)
		}
	}
	// A truncation or re-seed that overtook the read, perhaps unlinking a
	// segment under it, voids it.
	if _, terr := d.segmentFor(from, from, gen); terr != nil {
		return terr
	}
	return err
}

// walkSegment positions a reader at lsn in the segment starting at first,
// from c when it lies in that segment at or before lsn, then passes fn the
// records below limit.  It returns the LSN it stopped at: limit, the
// segment's end, or the record fn refused.
func (d *Durable) walkSegment(c *cursor, first LSN, gen uint64, lsn, limit LSN, fn func(*Record, []byte) error) (LSN, error) {
	if c.gen != gen || c.first != first || c.lsn > lsn {
		*c = startOf(first)
		c.gen = gen
	}
	r, err := openFrames(d.segPath(first), *c)
	if err != nil {
		return lsn, err
	}
	defer r.f.Close()
	for r.lsn < lsn && r.next() {
	}
	if r.lsn != lsn {
		return lsn, fmt.Errorf("wal: LSN %d is not a record boundary in %s", lsn, d.segPath(first))
	}
	for err == nil && r.lsn < limit {
		c.lsn, c.off = r.lsn, r.off
		if !r.next() {
			break // the end of this segment
		}
		if err = fn(&r.rec, r.frame); err == nil {
			c.lsn, c.off = r.lsn, r.off
		}
	}
	if c.lsn == lsn && err == nil {
		return lsn, fmt.Errorf("wal: segment %s holds no record at LSN %d", d.segPath(first), lsn)
	}
	return c.lsn, err
}

// segmentFor returns the first LSN of the segment holding lsn, or
// ErrLogTruncated once from lies below the truncation horizon or the log
// was re-seeded after generation gen.
func (d *Durable) segmentFor(lsn, from LSN, gen uint64) (LSN, error) {
	d.segMu.RLock()
	defer d.segMu.RUnlock()
	i := sort.Search(len(d.segs), func(i int) bool { return d.segs[i] > lsn }) - 1
	if from < d.oldest || gen != d.gen || i < 0 {
		return 0, fmt.Errorf("%w: want %d, oldest retained %d", ErrLogTruncated, from, d.oldest)
	}
	return d.segs[i], nil
}
