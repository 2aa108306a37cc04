package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// readSegment decodes every valid record of one segment file, named after
// its first LSN, through the header check and the frame walk load() and
// the readers use.  It returns the records, the length of the valid prefix
// (0 for a segment whose header is torn) and the file length.
func readSegment(path string) (recs []Record, validLen, fileLen int64, err error) {
	var first uint64
	if _, err := fmt.Sscanf(filepath.Base(path), "%016x", &first); err != nil {
		return nil, 0, 0, err
	}
	empty, err := checkSegmentHeader(path)
	if err != nil {
		return nil, 0, 0, err
	}
	r, err := openFrames(path, startOf(LSN(first)))
	if err != nil {
		return nil, 0, 0, err
	}
	defer r.f.Close()
	if empty {
		return nil, 0, r.size, nil
	}
	for r.next() {
		rec := r.rec
		rec.Payload = append([]byte(nil), rec.Payload...)
		recs = append(recs, rec)
	}
	return recs, r.off, r.size, nil
}

// ReadDurable reads durable records starting exactly at from, bounded by
// maxBytes of encoded record size (always at least one record), through a
// fresh Reader: it walks from's segment from the start.
func (d *Durable) ReadDurable(from LSN, maxBytes int) ([]Record, error) {
	return d.NewReader().ReadDurable(from, maxBytes)
}

// ReadDurable is ReadFrames returning the frames decoded.
func (r *Reader) ReadDurable(from LSN, maxBytes int) ([]Record, error) {
	frames, _, err := r.ReadFrames(from, maxBytes)
	if frames == nil {
		return nil, err
	}
	return DecodeFrames(from, frames)
}

// appendVaried appends n records whose fields and payload sizes vary with
// i, flushes, and returns copies of the records as appended.
func appendVaried(t testing.TB, d *Durable, n int) []Record {
	t.Helper()
	var out []Record
	for i := 0; i < n; i++ {
		r := Record{Txn: uint64(i+1) << (7 * (i % 9)), Type: RecordType(1 + i%10),
			Payload: bytes.Repeat([]byte{byte(i)}, 8+i%150)}
		if i%7 == 0 {
			r.Payload = nil
		}
		d.Append(&r)
		out = append(out, r)
	}
	d.Flush(d.CurrentLSN())
	return out
}

// sameRecord reports whether got equals want field for field.
func sameRecord(got, want Record) bool {
	return got.LSN == want.LSN && got.Txn == want.Txn && got.Type == want.Type &&
		bytes.Equal(got.Payload, want.Payload)
}

// readAll streams the log from from to the durable horizon in batches of
// maxBytes through one Reader, the way a replication subscription does.
func readAll(t *testing.T, d *Durable, from LSN, maxBytes int) []Record {
	t.Helper()
	var out []Record
	rd := d.NewReader()
	for {
		recs, err := rd.ReadDurable(from, maxBytes)
		if err != nil {
			t.Fatalf("ReadDurable(%d): %v", from, err)
		}
		if recs == nil {
			return out
		}
		out = append(out, recs...)
		last := recs[len(recs)-1]
		from = last.LSN + LSN(last.EncodedSize())
	}
}

func TestReadDurableFromClosedSegments(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 20; i++ { // many flushes, so the segments rotate
		want = append(want, appendVaried(t, d, 15)...)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if len(segs) < 5 {
		t.Fatalf("%d segments; the test needs several closed ones", len(segs))
	}
	check := func(d *Durable, stage string) {
		t.Helper()
		// Every start point: the first record, ones deep inside closed
		// segments, and ones whose batch crosses a rotation.
		for _, i := range []int{0, 1, 17, 40, 99, 150, len(want) - 1} {
			for _, maxBytes := range []int{1, 300, 1 << 20} {
				got := readAll(t, d, want[i].LSN, maxBytes)
				if len(got) != len(want)-i {
					t.Fatalf("%s: from record %d (cap %d): %d records, want %d", stage, i, maxBytes, len(got), len(want)-i)
				}
				for j := range got {
					if !sameRecord(got[j], want[i+j]) {
						t.Fatalf("%s: record %d differs: %+v, want %+v", stage, i+j, got[j], want[i+j])
					}
				}
			}
		}
		// Random access after a sequential read must not trust the cursor
		// the sequential read left behind.
		recs, err := d.ReadDurable(want[3].LSN, 1)
		if err != nil || len(recs) != 1 || !sameRecord(recs[0], want[3]) {
			t.Fatalf("%s: backward read: %v %v", stage, recs, err)
		}
		if _, err := d.ReadDurable(want[40].LSN+1, 1<<20); err == nil || errors.Is(err, ErrLogTruncated) {
			t.Fatalf("%s: mid-record LSN: err=%v, want a boundary error", stage, err)
		}
	}
	check(d, "live")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, DurableOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "reopened")
}

// TestTruncateRacingReaderReportsTruncated: a read that a truncation
// overtakes fails with ErrLogTruncated, never with an I/O error.
func TestTruncateRacingReaderReportsTruncated(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 10; i++ {
		appendVaried(t, d, 10)
	}

	// Deterministic: the truncation runs while the scan is positioned in
	// the first segment.
	seen := 0
	err = Scan(d, func(r *Record) error {
		if seen++; seen == 2 {
			if d.Truncate(d.DurableLSN()) == 0 {
				t.Error("truncation dropped nothing")
			}
		}
		return nil
	})
	if !errors.Is(err, ErrLogTruncated) {
		t.Fatalf("scan overtaken by a truncation: err=%v, want ErrLogTruncated", err)
	}

	// Concurrent: streamers racing truncations at the durable horizon see
	// records or ErrLogTruncated, nothing else.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				from := d.OldestLSN()
				for i := 0; i < 20; i++ {
					recs, err := d.ReadDurable(from, 200)
					if errors.Is(err, ErrLogTruncated) || recs == nil {
						break
					}
					if err != nil {
						t.Errorf("read racing truncation: %v", err)
						return
					}
					last := recs[len(recs)-1]
					from = last.LSN + LSN(last.EncodedSize())
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		appendVaried(t, d, 5)
		d.Truncate(d.DurableLSN())
	}
	close(stop)
	wg.Wait()
}

// TestReadersKeepTheirOwnPosition: however many readers interleave, each
// resumes from where its own previous read stopped instead of rescanning
// its segment from the start.
func TestReadersKeepTheirOwnPosition(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	want := appendVaried(t, d, 300)
	readers := make([]*Reader, 16)
	next := make([]int, len(readers))
	for i := range readers {
		readers[i] = d.NewReader()
		next[i] = 7 * i // staggered starts
	}
	for round := 0; ; round++ {
		busy := false
		for i, rd := range readers {
			if next[i] >= len(want) {
				continue
			}
			busy = true
			recs, err := rd.ReadDurable(want[next[i]].LSN, 1)
			if err != nil || len(recs) != 1 || !sameRecord(recs[0], want[next[i]]) {
				t.Fatalf("reader %d at record %d: got %v, %v", i, next[i], recs, err)
			}
			next[i]++
			if next[i] < len(want) && rd.pos.lsn != want[next[i]].LSN {
				t.Fatalf("reader %d stopped at LSN %d, want %d: its position was lost", i, rd.pos.lsn, want[next[i]].LSN)
			}
		}
		if !busy {
			break
		}
	}
}

// TestTruncateDoesNotStallCommits: the walk that counts a truncated prefix
// holds no lock a group flush needs, so commits proceed while it runs.  The
// walk is held at its first segment lookup by taking the segment-list lock.
func TestTruncateDoesNotStallCommits(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	appendVaried(t, d, 200)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with large segments so the commits below never rotate (a
	// rotation takes the segment-list lock).
	d, err = OpenDurable(dir, DurableOptions{SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	want := len(d.Records())

	d.segMu.Lock()
	dropped := make(chan int)
	go func() { dropped <- d.Truncate(d.DurableLSN()) }()
	time.Sleep(20 * time.Millisecond) // let the truncation reach its walk
	committed := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			d.WaitDurable(d.Append(&Record{Txn: uint64(i + 1), Type: RecCommit}))
		}
		close(committed)
	}()
	select {
	case <-committed:
	case <-time.After(10 * time.Second):
		d.segMu.Unlock()
		t.Fatal("commits stalled behind a truncation's walk")
	}
	d.segMu.Unlock()
	if got := <-dropped; got != want {
		t.Fatalf("Truncate dropped %d records, want %d", got, want)
	}
}

// TestPinDuringTruncateWalkIsHonored: a pin taken while a truncation
// walks its prefix keeps the pinned record readable.
func TestPinDuringTruncateWalkIsHonored(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	want := appendVaried(t, d, 200)

	d.segMu.Lock() // hold the truncation before its walk
	dropped := make(chan int)
	go func() { dropped <- d.Truncate(d.DurableLSN()) }()
	time.Sleep(20 * time.Millisecond)
	d.Pin(want[50].LSN)
	d.segMu.Unlock()
	if got := <-dropped; got > 50 {
		t.Fatalf("Truncate dropped %d records past a pin at record 50", got)
	}
	recs, err := d.ReadDurable(want[50].LSN, 1)
	if err != nil || len(recs) != 1 || !sameRecord(recs[0], want[50]) {
		t.Fatalf("pinned record: got %v, %v", recs, err)
	}
}

// TestDurableMemoryBounded: a record leaves RAM once it is durable, so
// logging ~64 MiB holds only the unflushed tail.
func TestDurableMemoryBounded(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const records, perFlush = 64 << 10, 1 << 10 // 64 Ki records of 1 KiB
	for i := 0; i < records; i++ {
		d.Append(&Record{Txn: uint64(i + 1), Type: RecUpdate, Payload: make([]byte, 1024)})
		if i%perFlush == perFlush-1 {
			d.Flush(d.CurrentLSN())
		}
	}
	d.Flush(d.CurrentLSN())
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 8<<20 {
		t.Fatalf("heap grew %.1f MiB after logging 64 MiB; the log keeps durable records in RAM", float64(grew)/(1<<20))
	}
	if got := d.Stats().Appends; got != records {
		t.Fatalf("%d appends, want %d", got, records)
	}
}

// FuzzReadDurableFrom reads a multi-segment log at arbitrary LSNs with
// arbitrary byte caps, after an arbitrary earlier read has left its cursor
// behind.  A read at a record boundary returns exactly the records from
// there, one at any other LSN is refused, and none panics.
func FuzzReadDurableFrom(f *testing.F) {
	d, err := OpenDurable(f.TempDir(), DurableOptions{SegmentBytes: 700})
	if err != nil {
		f.Fatal(err)
	}
	defer d.Close()
	var want []Record
	for i := 0; i < 8; i++ {
		want = append(want, appendVaried(f, d, 12)...)
	}
	index := make(map[LSN]int, len(want))
	for i, r := range want {
		index[r.LSN] = i
	}
	durable := d.DurableLSN()
	f.Add(uint64(1), uint16(100), uint64(0))
	f.Add(uint64(want[50].LSN), uint16(1), uint64(want[60].LSN))
	f.Add(uint64(want[30].LSN)+3, uint16(4000), uint64(want[29].LSN))
	f.Fuzz(func(t *testing.T, from uint64, maxBytes uint16, prior uint64) {
		_, _ = d.ReadDurable(LSN(prior%uint64(durable+10)), int(maxBytes))
		at := LSN(from % uint64(durable+10))
		recs, err := d.ReadDurable(at, int(maxBytes))
		i, boundary := index[at]
		switch {
		case at >= durable:
			if recs != nil || err != nil {
				t.Fatalf("read at the durable horizon: %d records, err %v", len(recs), err)
			}
		case boundary:
			if err != nil || len(recs) == 0 {
				t.Fatalf("read at boundary %d: %d records, err %v", at, len(recs), err)
			}
			size := 0
			for j, r := range recs {
				if !sameRecord(r, want[i+j]) {
					t.Fatalf("read at %d: record %d differs", at, j)
				}
				size += r.EncodedSize()
			}
			if len(recs) > 1 && size > int(maxBytes) {
				t.Fatalf("read at %d: %d bytes over a cap of %d", at, size, maxBytes)
			}
		case at < d.OldestLSN():
			if !errors.Is(err, ErrLogTruncated) {
				t.Fatalf("read below the horizon at %d: err %v", at, err)
			}
		default:
			if err == nil || errors.Is(err, ErrLogTruncated) {
				t.Fatalf("read at non-boundary %d: %d records, err %v", at, len(recs), err)
			}
		}
	})
}
