// Package wal implements the write-ahead log.
//
// Two log-buffer implementations are provided behind the Log interface:
//
//   - Consolidated: an Aether-style consolidated log buffer [Johnson et al.,
//     PVLDB 2010].  Threads reserve log space with a single atomic
//     fetch-and-add and copy their records into independent buffer slots, so
//     the append path is a composable critical section: adding threads does
//     not add contention.  This is the configuration used by all systems in
//     the paper (Section 4.1 notes every prototype incorporates the logging
//     optimizations of Aether).
//   - Naive: a single mutex around the buffer, provided for the ablation
//     benchmark that shows why a scalable log buffer matters.
//
// Both keep the log in memory, as the paper's experiments do; Durable
// (durable.go) is the disk-backed device a server runs on.
//
// All three give a record the same compact encoding (see "Frame layout"
// below): a type byte, the transaction ID and the payload length as
// uvarints, the payload, and a CRC32 trailer.  A record's LSN advances by
// the frame less its CRC, so a TPC-B balance update, whose payload is
// about 35 bytes, costs about 40 bytes of log.  The LSN itself is not
// stored but covered by the CRC, which is how a frame read at the wrong
// position is caught.  Durable writes the frames to disk as they are, and
// replication ships them as they lie on disk.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"plp/internal/cs"
)

// LSN is a log sequence number: a byte offset into the conceptual log file.
type LSN uint64

// InvalidLSN is the zero LSN, used for "no LSN".
const InvalidLSN LSN = 0

// RecordType identifies the kind of a log record.
type RecordType uint8

// Log record types.
const (
	RecInsert RecordType = iota + 1
	RecDelete
	RecUpdate
	RecCommit
	RecAbort
	RecSMO         // B+Tree page split; no longer written, skipped by analysis
	RecRepartition // MRBTree slice/meld; no longer written, skipped by analysis
	RecCheckpoint
	RecPrepare // txn prepared for a cross-shard commit; payload = gid
	RecDecide  // coordinator's durable commit decision; payload = gid
)

// String returns a short label for the record type.
func (t RecordType) String() string {
	switch t {
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	case RecUpdate:
		return "update"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecSMO:
		return "smo"
	case RecRepartition:
		return "repartition"
	case RecCheckpoint:
		return "checkpoint"
	case RecPrepare:
		return "prepare"
	case RecDecide:
		return "decide"
	default:
		return fmt.Sprintf("rectype(%d)", uint8(t))
	}
}

// isData reports whether t is a data record (insert, delete or update):
// one that changes a tuple on behalf of a transaction.
func (t RecordType) isData() bool {
	return t == RecInsert || t == RecDelete || t == RecUpdate
}

// Record is a single log record.
type Record struct {
	LSN     LSN
	Txn     uint64
	Type    RecordType
	Payload []byte
}

// Frame layout.  Every log encodes a record the same way:
//
//	type     1 byte
//	txn      uvarint
//	length   uvarint, the payload's byte count
//	payload  length bytes
//	crc      4 bytes, little-endian CRC32 (IEEE) over the record's LSN
//	         (8 bytes, little-endian) followed by the bytes above
//
// The LSN is not stored: it advances by each record's encoded size (every
// field but the CRC), so a reader derives it from where the frame lies.
// The CRC covers it all the same, so a frame read at any LSN other than
// the one it was written at fails its check.  Both uvarints must be
// canonical (shortest form), so a frame's length is a function of its
// record.
const (
	// crcSize is the CRC32 trailer closing each frame.
	crcSize = 4
	// maxHeaderSize bounds the header: the type byte and two uvarints.
	maxHeaderSize = 1 + 2*binary.MaxVarintLen64
	// maxPayload bounds a frame's payload length.
	maxPayload = math.MaxInt32
)

// uvarintLen returns the length of the canonical uvarint encoding of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// encodedSize returns the number of log bytes the record occupies: its
// LSN advance, the frame without its CRC.
func (r *Record) encodedSize() int {
	return 1 + uvarintLen(r.Txn) + uvarintLen(uint64(len(r.Payload))) + len(r.Payload)
}

// EncodedSize returns the number of log bytes the record occupies; a
// record's exclusive end LSN is r.LSN + EncodedSize().
func (r *Record) EncodedSize() int { return r.encodedSize() }

// appendFrame appends the frame of r, which carries its LSN, to buf.
func appendFrame(buf []byte, r *Record) []byte {
	n := len(buf)
	buf = slices.Grow(buf, r.encodedSize()+crcSize)
	buf = append(buf, byte(r.Type))
	buf = binary.AppendUvarint(buf, r.Txn)
	buf = binary.AppendUvarint(buf, uint64(len(r.Payload)))
	buf = append(buf, r.Payload...)
	return binary.LittleEndian.AppendUint32(buf, frameCRC(r.LSN, buf[n:]))
}

// frameCRC returns the CRC of a frame body written at lsn: the CRC32 of
// the LSN's 8 little-endian bytes followed by the body.  The LSN's bytes
// go through the table a byte at a time rather than through a slice,
// which would escape to the heap on every frame.
func frameCRC(lsn LSN, body []byte) uint32 {
	crc := ^uint32(0)
	for i := 0; i < 8; i++ {
		crc = crc32.IEEETable[byte(crc)^byte(lsn>>(8*i))] ^ crc>>8
	}
	return crc32.Update(^crc, crc32.IEEETable, body)
}

// header parses the frame header at the start of b: the transaction ID,
// the payload length and the header's own length, which is 0 when b holds
// no whole, canonical header.
func header(b []byte) (txn uint64, size, n int) {
	if len(b) < 3 {
		return 0, 0, 0
	}
	txn, n1 := binary.Uvarint(b[1:])
	if n1 <= 0 || n1 != uvarintLen(txn) {
		return 0, 0, 0
	}
	sz, n2 := binary.Uvarint(b[1+n1:])
	if n2 <= 0 || n2 != uvarintLen(sz) || sz > maxPayload {
		return 0, 0, 0
	}
	return txn, int(sz), 1 + n1 + n2
}

// frameLen returns the length, CRC included, of the frame whose header
// starts b, or 0 when b holds no whole, canonical header.
func frameLen(b []byte) int {
	_, size, n := header(b)
	if n == 0 {
		return 0
	}
	return n + size + crcSize
}

// decodeFrame decodes the frame at the start of b as the record at lsn.
// It returns the record, whose payload aliases b, and the frame's length;
// the length is 0 when b does not start with a whole frame that was
// written at lsn: a torn or corrupt frame, or one moved from elsewhere.
func decodeFrame(b []byte, lsn LSN) (Record, int) {
	txn, size, n := header(b)
	end := n + size // the CRC's offset
	if n == 0 || end+crcSize > len(b) ||
		frameCRC(lsn, b[:end]) != binary.LittleEndian.Uint32(b[end:]) {
		return Record{}, 0
	}
	return Record{LSN: lsn, Txn: txn, Type: RecordType(b[0]), Payload: b[n:end:end]}, end + crcSize
}

// DecodeFrames decodes a run of frames whose first was written at first,
// checking each frame's CRC at the LSN it lies at.  The records' payloads
// alias frames.
func DecodeFrames(first LSN, frames []byte) ([]Record, error) {
	var out []Record
	for lsn := first; len(frames) > 0; {
		r, n := decodeFrame(frames, lsn)
		if n == 0 {
			return nil, fmt.Errorf("wal: no valid frame at LSN %d", lsn)
		}
		out = append(out, r)
		frames, lsn = frames[n:], lsn+LSN(n-crcSize)
	}
	return out, nil
}

// ErrNotDurable is passed to an OnDurable callback whose record the log
// closed before making durable.
var ErrNotDurable = errors.New("wal: log closed before the record became durable")

// Log is the interface every log-device implementation satisfies: the two
// in-memory buffers in this file and the disk-backed segmented device in
// durable.go.
type Log interface {
	// Append adds the record to the log and returns its LSN.
	Append(r *Record) LSN
	// Flush makes every record with LSN <= upto durable and returns the new
	// durable LSN.
	Flush(upto LSN) LSN
	// OnDurable calls fn once the record appended at lsn is durable (the
	// durable horizon has advanced past lsn), or with ErrNotDurable if the
	// log closes first.  On the in-memory devices fn runs at once; on the
	// disk-backed device concurrent registrations ride the same group
	// fsync, which is what makes group commit group, and fn runs on the
	// flush daemon, so it must not block.
	OnDurable(lsn LSN, fn func(error))
	// WaitDurable blocks until the record appended at lsn is durable and
	// returns the durable LSN: OnDurable plus a wait.  A durable LSN at or
	// below lsn means the log closed first.
	WaitDurable(lsn LSN) LSN
	// DurableLSN returns the highest durable LSN.
	DurableLSN() LSN
	// CurrentLSN returns the LSN that the next appended record will receive.
	CurrentLSN() LSN
	// Records returns a copy of every retained record in LSN order, for
	// consistency checks and tests.  It materializes the whole log, so
	// recovery streams it with Scan instead.
	Records() []Record
	// Truncate discards every record with LSN < upto and returns the number
	// of records dropped.  Checkpointing uses it to reclaim the log prefix
	// that restart recovery no longer needs; upto must not exceed the
	// durable LSN.
	Truncate(upto LSN) int
	// Stats returns append/flush counters.
	Stats() Stats
}

// Scan calls fn with every retained record in LSN order, stopping at the
// first error fn returns.  Durable decodes its durable records one at a
// time from the segment files; the in-memory devices walk Records.
func Scan(l Log, fn func(*Record) error) error {
	if d, ok := l.(*Durable); ok {
		return d.walk(&cursor{}, d.OldestLSN(), d.DurableLSN(), func(r *Record, _ []byte) error {
			rec := *r
			rec.Payload = append([]byte(nil), r.Payload...)
			return fn(&rec)
		})
	}
	rs := l.Records()
	for i := range rs {
		if err := fn(&rs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports log activity.
type Stats struct {
	Appends     uint64
	Flushes     uint64
	BytesLogged uint64
	// Truncated counts records discarded by Truncate.
	Truncated uint64
}

// shardCount is the number of independent slots in the consolidated buffer.
const shardCount = 64

// shardChunk is the number of records per shard storage chunk.  Chunked
// storage keeps Append O(1): a growing flat slice would re-zero and copy
// the whole shard on every doubling, which dominates CPU once the log holds
// millions of records.
const shardChunk = 1024

// Consolidated is the Aether-style consolidated log buffer.
type Consolidated struct {
	next    atomic.Uint64 // next LSN to hand out (byte offset)
	durable atomic.Uint64

	shards [shardCount]struct {
		mu     sync.Mutex
		chunks [][]Record
	}

	appends   atomic.Uint64
	flushes   atomic.Uint64
	bytes     atomic.Uint64
	truncated atomic.Uint64

	cstats *cs.Stats
}

// NewConsolidated returns a consolidated log buffer reporting critical
// sections into cstats (may be nil).
func NewConsolidated(cstats *cs.Stats) *Consolidated {
	l := &Consolidated{cstats: cstats}
	l.next.Store(1) // LSN 0 is InvalidLSN
	return l
}

// Append implements Log.  Space is reserved with one atomic add (the
// composable part); the copy into the shard is protected by a short mutex
// that only threads hashing to the same shard can contend on.
func (l *Consolidated) Append(r *Record) LSN {
	size := uint64(r.encodedSize())
	off := l.next.Add(size) - size
	r.LSN = LSN(off)

	shard := &l.shards[off%shardCount]
	contended := !shard.mu.TryLock()
	if contended {
		shard.mu.Lock()
	}
	n := len(shard.chunks)
	if n == 0 || len(shard.chunks[n-1]) == shardChunk {
		shard.chunks = append(shard.chunks, make([]Record, 0, shardChunk))
		n++
	}
	shard.chunks[n-1] = append(shard.chunks[n-1], *r)
	shard.mu.Unlock()

	l.cstats.RecordClass(cs.LogMgr, cs.Composable, contended)
	l.appends.Add(1)
	l.bytes.Add(size)
	return r.LSN
}

// Flush implements Log.
func (l *Consolidated) Flush(upto LSN) LSN {
	// In-memory log: flushing is advancing the durable horizon.
	for {
		cur := l.durable.Load()
		target := uint64(upto)
		if next := l.next.Load(); target > next {
			target = next
		}
		if target <= cur {
			break
		}
		if l.durable.CompareAndSwap(cur, target) {
			break
		}
	}
	l.flushes.Add(1)
	return LSN(l.durable.Load())
}

// WaitDurable implements Log.  The in-memory device "flushes" instantly, so
// waiting degenerates to advancing the durable horizon past lsn.
func (l *Consolidated) WaitDurable(lsn LSN) LSN { return l.Flush(LSN(l.next.Load())) }

// OnDurable implements Log: the in-memory device is durable at once.
func (l *Consolidated) OnDurable(lsn LSN, fn func(error)) {
	l.WaitDurable(lsn)
	fn(nil)
}

// DurableLSN implements Log.
func (l *Consolidated) DurableLSN() LSN { return LSN(l.durable.Load()) }

// CurrentLSN implements Log.
func (l *Consolidated) CurrentLSN() LSN { return LSN(l.next.Load()) }

// Records implements Log.
func (l *Consolidated) Records() []Record {
	var all []Record
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		for _, c := range s.chunks {
			all = append(all, c...)
		}
		s.mu.Unlock()
	}
	sortRecords(all)
	return all
}

// Truncate implements Log.  Records beyond the durable horizon are never
// dropped.
func (l *Consolidated) Truncate(upto LSN) int {
	if d := LSN(l.durable.Load()); upto > d {
		upto = d
	}
	dropped := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		var kept [][]Record
		for _, c := range s.chunks {
			for _, r := range c {
				if r.LSN < upto {
					dropped++
					continue
				}
				n := len(kept)
				if n == 0 || len(kept[n-1]) == shardChunk {
					kept = append(kept, make([]Record, 0, shardChunk))
					n++
				}
				kept[n-1] = append(kept[n-1], r)
			}
		}
		s.chunks = kept
		s.mu.Unlock()
	}
	l.truncated.Add(uint64(dropped))
	return dropped
}

// Stats implements Log.
func (l *Consolidated) Stats() Stats {
	return Stats{
		Appends:     l.appends.Load(),
		Flushes:     l.flushes.Load(),
		BytesLogged: l.bytes.Load(),
		Truncated:   l.truncated.Load(),
	}
}

// Naive is a single-mutex log buffer, used only for the ablation benchmark
// that quantifies the benefit of the consolidated buffer.
type Naive struct {
	mu      sync.Mutex
	records []Record
	next    LSN
	durable LSN

	appends   atomic.Uint64
	flushes   atomic.Uint64
	bytes     atomic.Uint64
	truncated atomic.Uint64

	cstats *cs.Stats
}

// NewNaive returns a naive single-mutex log buffer.
func NewNaive(cstats *cs.Stats) *Naive {
	return &Naive{next: 1, cstats: cstats}
}

// Append implements Log.
func (l *Naive) Append(r *Record) LSN {
	size := LSN(r.encodedSize())
	contended := !l.mu.TryLock()
	if contended {
		l.mu.Lock()
	}
	r.LSN = l.next
	l.next += size
	l.records = append(l.records, *r)
	l.mu.Unlock()

	l.cstats.RecordClass(cs.LogMgr, cs.Unscalable, contended)
	l.appends.Add(1)
	l.bytes.Add(uint64(size))
	return r.LSN
}

// Flush implements Log.
func (l *Naive) Flush(upto LSN) LSN {
	l.mu.Lock()
	if upto > l.next {
		upto = l.next
	}
	if upto > l.durable {
		l.durable = upto
	}
	d := l.durable
	l.mu.Unlock()
	l.flushes.Add(1)
	return d
}

// WaitDurable implements Log.
func (l *Naive) WaitDurable(lsn LSN) LSN { return l.Flush(l.CurrentLSN()) }

// OnDurable implements Log: the in-memory device is durable at once.
func (l *Naive) OnDurable(lsn LSN, fn func(error)) {
	l.WaitDurable(lsn)
	fn(nil)
}

// DurableLSN implements Log.
func (l *Naive) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// CurrentLSN implements Log.
func (l *Naive) CurrentLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Records implements Log.
func (l *Naive) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]Record(nil), l.records...)
	sortRecords(out)
	return out
}

// Truncate implements Log.
func (l *Naive) Truncate(upto LSN) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if upto > l.durable {
		upto = l.durable
	}
	kept := l.records[:0]
	dropped := 0
	for _, r := range l.records {
		if r.LSN < upto {
			dropped++
			continue
		}
		kept = append(kept, r)
	}
	l.records = kept
	l.truncated.Add(uint64(dropped))
	return dropped
}

// Stats implements Log.
func (l *Naive) Stats() Stats {
	return Stats{
		Appends:     l.appends.Load(),
		Flushes:     l.flushes.Load(),
		BytesLogged: l.bytes.Load(),
		Truncated:   l.truncated.Load(),
	}
}

// sortRecords orders records by LSN.
func sortRecords(rs []Record) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].LSN < rs[j].LSN })
}
