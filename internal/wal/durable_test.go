package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// appendCommitted appends one update+commit pair for txn id and waits for
// durability, returning the commit record's LSN.
func appendCommitted(l Log, id uint64, payload []byte) LSN {
	l.Append(&Record{Txn: id, Type: RecUpdate, Payload: payload})
	lsn := l.Append(&Record{Txn: id, Type: RecCommit})
	l.WaitDurable(lsn)
	return lsn
}

func TestDurableAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := NewDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		appendCommitted(l, i, []byte(fmt.Sprintf("payload-%03d", i)))
	}
	recs := l.Records()
	next := l.CurrentLSN()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Records()
	if len(got) != len(recs) {
		t.Fatalf("reopened log has %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].LSN != recs[i].LSN || got[i].Txn != recs[i].Txn ||
			got[i].Type != recs[i].Type || !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Fatalf("record %d differs after reopen: %+v vs %+v", i, got[i], recs[i])
		}
	}
	if re.CurrentLSN() != next {
		t.Fatalf("next LSN %d after reopen, want %d", re.CurrentLSN(), next)
	}
	if re.DurableLSN() != next {
		t.Fatalf("durable LSN %d after reopen, want %d (disk contents are durable)", re.DurableLSN(), next)
	}
	// Appending keeps working with monotonic LSNs.
	lsn := re.Append(&Record{Txn: 99, Type: RecCommit})
	if lsn != next {
		t.Fatalf("first post-reopen LSN %d, want %d", lsn, next)
	}
}

func TestDurableCrashLosesNothingAcknowledged(t *testing.T) {
	dir := t.TempDir()
	l, err := NewDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	var acked []LSN
	for i := uint64(1); i <= 20; i++ {
		acked = append(acked, appendCommitted(l, i, []byte("v")))
	}
	// Crash: the device is abandoned without Close — nothing beyond what
	// WaitDurable acknowledged is guaranteed, but everything acknowledged
	// must be on disk already.
	re, err := NewDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs := re.Records()
	byLSN := make(map[LSN]Record, len(recs))
	for _, r := range recs {
		byLSN[r.LSN] = r
	}
	for _, lsn := range acked {
		r, ok := byLSN[lsn]
		if !ok || r.Type != RecCommit {
			t.Fatalf("acknowledged commit at LSN %d missing after crash", lsn)
		}
	}
}

func TestDurableTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := NewDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		appendCommitted(l, i, []byte("intact"))
	}
	intact := len(l.Records())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-batch-write: garbage bytes at the segment tail.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments on disk: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	re, err := NewDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(re.Records()); got != intact {
		t.Fatalf("%d records after torn-tail reopen, want %d", got, intact)
	}
	// The torn bytes must be gone from disk so new appends don't interleave
	// with garbage.
	appendCommitted(re, 999, []byte("after-torn"))
	next := re.CurrentLSN()
	_ = re.Close()
	re2, err := NewDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := len(re2.Records()); got != intact+2 {
		t.Fatalf("%d records after second reopen, want %d", got, intact+2)
	}
	if re2.CurrentLSN() != next {
		t.Fatalf("next LSN %d, want %d", re2.CurrentLSN(), next)
	}
}

// TestTornHeaderInsideUvarintTruncated: a crash that cuts a frame inside
// one of its header's uvarints leaves a tail the open cuts cleanly, at
// every cut point, back to the frames before it.
func TestTornHeaderInsideUvarintTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := NewDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(l, 1, []byte("intact"))
	next := l.CurrentLSN()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A transaction ID and a payload length that each take three bytes.
	torn := appendFrame(nil, &Record{LSN: next, Txn: 1 << 20, Type: RecUpdate, Payload: make([]byte, 1<<15)})
	for _, cut := range []int{2, 3, 5, 6} { // inside the txn, then the length
		if err := os.WriteFile(path, append(append([]byte(nil), intact...), torn[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := NewDurable(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got := len(re.Records()); got != 2 || re.CurrentLSN() != next {
			t.Fatalf("cut at %d: %d records, next LSN %d; want 2 and %d", cut, got, re.CurrentLSN(), next)
		}
		_ = re.Close()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, intact) {
			t.Fatalf("cut at %d: torn bytes left on disk (%v)", cut, err)
		}
	}
}

// oldFormatSegment encodes records the way a log before format 2 held
// them: no segment header, and per record a 37-byte header (LSN, previous
// LSN, transaction, type, page, payload length), the payload and a CRC32
// over both.
func oldFormatSegment(first LSN, n int) []byte {
	var out []byte
	lsn := first
	for i := 0; i < n; i++ {
		rec := binary.LittleEndian.AppendUint64(nil, uint64(lsn))
		rec = binary.LittleEndian.AppendUint64(rec, 0)
		rec = binary.LittleEndian.AppendUint64(rec, uint64(i+1))
		rec = append(rec, byte(RecCommit))
		rec = binary.LittleEndian.AppendUint64(rec, 0)
		rec = binary.LittleEndian.AppendUint32(rec, 0)
		out = append(out, rec...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(rec))
		lsn += LSN(len(rec))
	}
	return out
}

// TestOpenRefusesOldFormat: a directory holding segments of the format
// before the compact frames is refused with an error naming the format,
// and left as it was — in particular no empty log is started over it.
func TestOpenRefusesOldFormat(t *testing.T) {
	for name, contents := range map[string][]byte{
		"old format":    oldFormatSegment(1, 3),
		"torn old tail": oldFormatSegment(1, 1)[:3],
		"newer version": append([]byte(segmentMagic), segmentFormat+1, 0, 0),
	} {
		t.Run(name, func(t *testing.T) { requireRefused(t, contents) })
	}
	// A later segment in the old format is refused too, after a valid one.
	dir := t.TempDir()
	l, err := NewDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(l, 1, nil)
	next := l.CurrentLSN()
	_ = l.Close()
	if err := os.WriteFile(filepath.Join(dir, segmentName(next)), oldFormatSegment(next, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err := NewDurable(dir); !errors.Is(err, ErrFormat) {
		if err == nil {
			_ = d.Close()
		}
		t.Fatalf("an old-format second segment: err = %v, want ErrFormat", err)
	}
}

func TestDurableSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDurable(dir, DurableOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 64)
	var mid LSN
	for i := uint64(1); i <= 60; i++ {
		lsn := appendCommitted(l, i, payload)
		if i == 30 {
			mid = lsn
		}
	}
	segsBefore, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segsBefore) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segsBefore))
	}

	dropped := l.Truncate(mid)
	if dropped == 0 {
		t.Fatal("truncation dropped no records")
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("truncation unlinked no segments (%d before, %d after)", len(segsBefore), len(segsAfter))
	}
	for _, r := range l.Records() {
		if r.LSN < mid {
			t.Fatalf("record below the truncation horizon survived: %d < %d", r.LSN, mid)
		}
	}

	// The truncated log must still reopen: the surviving segments cover
	// exactly the records the interface reports.
	want := len(l.Records())
	_ = l.Close()
	re, err := OpenDurable(dir, DurableOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Reopen may see more records than the in-memory view: a partially
	// truncatable segment keeps its early records on disk.  It must never
	// see fewer.
	if got := len(re.Records()); got < want {
		t.Fatalf("%d records after truncated reopen, want >= %d", got, want)
	}
}

func TestDurableSyncEveryCommitMode(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDurable(dir, DurableOptions{SyncEveryCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		lsn := appendCommitted(l, i, []byte("sync"))
		if l.DurableLSN() <= lsn {
			t.Fatalf("sync-every-commit did not make LSN %d durable", lsn)
		}
	}
	st := l.Stats()
	if st.Flushes < 10 {
		t.Fatalf("sync-every-commit performed %d flushes for 10 commits", st.Flushes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Records()); got != 20 {
		t.Fatalf("%d records after reopen, want 20", got)
	}
}

func TestDurableGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	l, err := NewDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const committers = 8
	const per = 50
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				appendCommitted(l, uint64(g*1000+i), []byte("grp"))
			}
		}(g)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != committers*per*2 {
		t.Fatalf("appends %d, want %d", st.Appends, committers*per*2)
	}
	// The whole point of group commit: far fewer fsync batches than
	// commits.  With 8 concurrent committers the daemon batches several
	// commits per flush even on a fast disk; a strict bound would be
	// timing-dependent, so just require *some* sharing.
	if st.Flushes >= committers*per {
		t.Fatalf("group commit shared nothing: %d flushes for %d commits", st.Flushes, committers*per)
	}
}

// TestTruncateDuringGroupFlushNeverRegressesDurable is the regression test
// for the Truncate/Append interleaving: checkpoint-driven truncation racing
// a group flush (and racing committers) must never move the durable horizon
// backwards — a committer that saw WaitDurable return relies on it.
func TestTruncateDuringGroupFlushNeverRegressesDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDurable(dir, DurableOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	stop := make(chan struct{})
	var fail atomic.Value // first violation message

	// Monitor: the durable LSN must be monotone under all interleavings.
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		var max LSN
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := l.DurableLSN()
			if d < max {
				fail.CompareAndSwap(nil, fmt.Sprintf("durable LSN regressed: %d after %d", d, max))
				return
			}
			max = d
		}
	}()

	// Committers: append + ride the group flush.
	const committers = 4
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lsn := appendCommitted(l, uint64(g*10_000+i), []byte("race-payload"))
				if l.DurableLSN() <= lsn {
					fail.CompareAndSwap(nil, fmt.Sprintf("WaitDurable returned before LSN %d was durable", lsn))
					return
				}
			}
		}(g)
	}

	// Truncator: aggressively truncate at the durable horizon, mid-flush.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			l.Truncate(l.DurableLSN())
			time.Sleep(time.Millisecond / 4)
		}
	}()

	wg.Wait()
	close(stop)
	monWG.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	// The log must still be coherent after the storm: reopenable, with the
	// surviving records in LSN order.
	recs := l.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("records out of order after truncate storm")
		}
	}
}

// TestOnDurableFiresInLSNOrderAfterFsync holds the flusher between its
// write and its fsync: no callback may run before the fsync, then every
// callback the flush covers runs, in LSN order, whatever order they were
// registered in.  A callback registered on an already durable record runs
// at once, and Close fails the ones no flush will cover.
func TestOnDurableFiresInLSNOrderAfterFsync(t *testing.T) {
	l, err := NewDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	l.SetSyncHook(func() {
		once.Do(func() { close(held) })
		<-release
	})
	var lsns []LSN
	for i := 0; i < 8; i++ {
		lsns = append(lsns, l.Append(&Record{Txn: uint64(i + 1), Type: RecCommit}))
	}
	var mu sync.Mutex
	var fired []LSN
	for _, i := range []int{5, 1, 7, 0, 3, 6, 2, 4} {
		lsn := lsns[i]
		l.OnDurable(lsn, func(err error) {
			if err != nil {
				t.Errorf("callback for %d: %v", lsn, err)
			}
			mu.Lock()
			fired = append(fired, lsn)
			mu.Unlock()
		})
	}
	<-held
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	if len(fired) != 0 {
		t.Fatalf("%d callbacks ran before the fsync", len(fired))
	}
	mu.Unlock()
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(fired)
		mu.Unlock()
		if n == len(lsns) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callbacks ran", n, len(lsns))
		}
		time.Sleep(time.Millisecond)
	}
	for i := range fired {
		if fired[i] != lsns[i] {
			t.Fatalf("callbacks ran in order %v, want %v", fired, lsns)
		}
	}
	l.SetSyncHook(nil)

	ran := false
	l.OnDurable(lsns[0], func(err error) { ran = err == nil })
	if !ran {
		t.Fatal("a callback on a durable record did not run at once")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var closedErr error
	l.OnDurable(l.CurrentLSN(), func(err error) { closedErr = err })
	if !errors.Is(closedErr, ErrNotDurable) {
		t.Fatalf("callback past a closed log's horizon got %v, want ErrNotDurable", closedErr)
	}
}
