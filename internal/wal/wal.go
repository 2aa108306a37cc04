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
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"plp/internal/cs"
	"plp/internal/page"
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
	RecSMO         // B+Tree structure modification (split/merge)
	RecRepartition // MRBTree slice/meld
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
	PrevLSN LSN // previous record of the same transaction
	Txn     uint64
	Type    RecordType
	Page    page.ID
	Payload []byte
}

// encodedSize returns the number of log bytes the record occupies.
func (r *Record) encodedSize() int {
	return 8 + 8 + 8 + 1 + 8 + 4 + len(r.Payload)
}

// EncodedSize returns the number of log bytes the record occupies; a
// record's exclusive end LSN is r.LSN + EncodedSize().  Replication uses
// it to advance stream cursors.
func (r *Record) EncodedSize() int { return r.encodedSize() }

// Marshal encodes the record: its header (LSN included) and payload.
func (r *Record) Marshal() []byte {
	buf := make([]byte, r.encodedSize())
	r.put(buf)
	return buf
}

// appendFrame appends the record's on-disk frame to buf: its encoding
// followed by a CRC32 trailer over that encoding.
func appendFrame(buf []byte, r *Record) []byte {
	n := len(buf)
	buf = slices.Grow(buf, r.encodedSize()+recordTrailerSize)[:n+r.encodedSize()]
	r.put(buf[n:])
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[n:]))
}

// put writes the record's encoding into buf[:r.encodedSize()].
func (r *Record) put(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.LSN))
	binary.LittleEndian.PutUint64(buf[8:], uint64(r.PrevLSN))
	binary.LittleEndian.PutUint64(buf[16:], r.Txn)
	buf[24] = byte(r.Type)
	binary.LittleEndian.PutUint64(buf[25:], uint64(r.Page))
	binary.LittleEndian.PutUint32(buf[33:], uint32(len(r.Payload)))
	copy(buf[37:], r.Payload)
}

// UnmarshalRecord decodes a record previously produced by Marshal.
func UnmarshalRecord(buf []byte) (Record, error) {
	if len(buf) < 37 {
		return Record{}, errors.New("wal: short record")
	}
	r := Record{
		LSN:     LSN(binary.LittleEndian.Uint64(buf[0:])),
		PrevLSN: LSN(binary.LittleEndian.Uint64(buf[8:])),
		Txn:     binary.LittleEndian.Uint64(buf[16:]),
		Type:    RecordType(buf[24]),
		Page:    page.ID(binary.LittleEndian.Uint64(buf[25:])),
	}
	n := binary.LittleEndian.Uint32(buf[33:])
	if len(buf) < 37+int(n) {
		return Record{}, errors.New("wal: truncated payload")
	}
	r.Payload = append([]byte(nil), buf[37:37+int(n)]...)
	return r, nil
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
		return d.walk(&cursor{}, d.OldestLSN(), d.DurableLSN(), func(body []byte) error {
			r, _ := UnmarshalRecord(body)
			return fn(&r)
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
