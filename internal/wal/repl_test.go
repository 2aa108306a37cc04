package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func appendN(t *testing.T, d *Durable, n int, payload int) []LSN {
	t.Helper()
	lsns := make([]LSN, 0, n)
	for i := 0; i < n; i++ {
		r := &Record{Txn: uint64(i), Type: RecInsert, Payload: make([]byte, payload)}
		lsns = append(lsns, d.Append(r))
	}
	d.Flush(d.CurrentLSN())
	return lsns
}

func TestReadDurableFromBoundary(t *testing.T) {
	d, err := NewDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lsns := appendN(t, d, 10, 8)

	// From the beginning: everything durable comes back in order.
	recs, err := d.ReadDurable(lsns[0], 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.LSN != lsns[i] {
			t.Fatalf("record %d: LSN %d, want %d", i, r.LSN, lsns[i])
		}
	}

	// From a mid-stream boundary.
	recs, err = d.ReadDurable(lsns[4], 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || recs[0].LSN != lsns[4] {
		t.Fatalf("mid-stream read: got %d records starting %d", len(recs), recs[0].LSN)
	}

	// Caught up: durable horizon returns nil, nil.
	recs, err = d.ReadDurable(d.DurableLSN(), 1<<20)
	if err != nil || recs != nil {
		t.Fatalf("caught-up read: recs=%v err=%v", recs, err)
	}

	// Not a boundary.
	if _, err := d.ReadDurable(lsns[4]+1, 1<<20); err == nil {
		t.Fatal("mid-record LSN accepted")
	}
}

func TestReadDurableRespectsMaxBytes(t *testing.T) {
	d, err := NewDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lsns := appendN(t, d, 10, 100)

	one := (&Record{Payload: make([]byte, 100)}).encodedSize()
	recs, err := d.ReadDurable(lsns[0], 2*one+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records under a 2-record byte cap", len(recs))
	}
	// A cap below one record still returns one record (progress guarantee).
	recs, err = d.ReadDurable(lsns[0], 1)
	if err != nil || len(recs) != 1 {
		t.Fatalf("tiny cap: recs=%d err=%v", len(recs), err)
	}
}

func TestReadDurableAfterTruncation(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lsns := appendN(t, d, 50, 64)
	d.Truncate(lsns[30])

	if _, err := d.ReadDurable(lsns[0], 1<<20); !errors.Is(err, ErrLogTruncated) {
		t.Fatalf("read below truncation horizon: err=%v, want ErrLogTruncated", err)
	}
	if oldest := d.OldestLSN(); oldest < lsns[30] {
		t.Fatalf("OldestLSN %d below truncation point %d", oldest, lsns[30])
	}
	if _, err := d.ReadDurable(d.OldestLSN(), 1<<20); err != nil {
		t.Fatalf("read from oldest retained: %v", err)
	}
}

func TestPinBlocksTruncation(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lsns := appendN(t, d, 50, 64)

	pin := d.Pin(lsns[10])
	d.Truncate(lsns[40])
	if oldest := d.OldestLSN(); oldest > lsns[10] {
		t.Fatalf("pinned records truncated: oldest %d > pin %d", oldest, lsns[10])
	}
	// The pinned reader must still be able to stream from its pin.
	if _, err := d.ReadDurable(lsns[10], 1<<20); err != nil {
		t.Fatalf("read from pin after truncate: %v", err)
	}

	// Advancing the pin lets a later truncation reclaim the prefix.
	d.UpdatePin(pin, lsns[40])
	d.Truncate(lsns[40])
	if _, err := d.ReadDurable(lsns[10], 1<<20); !errors.Is(err, ErrLogTruncated) {
		t.Fatalf("truncation after pin advance: err=%v", err)
	}

	d.Unpin(pin)
	d.Truncate(d.DurableLSN())
	if oldest, dur := d.OldestLSN(), d.DurableLSN(); oldest != dur {
		t.Fatalf("unpinned truncate kept records: oldest %d durable %d", oldest, dur)
	}
}

func TestAppendShippedRoundTrip(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, err := NewDurable(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	appendN(t, src, 20, 32)

	dst, err := NewDurable(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	frames, end, err := src.NewReader().ReadFrames(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if end != src.DurableLSN() {
		t.Fatalf("read ended at %d, want the durable horizon %d", end, src.DurableLSN())
	}
	if err := dst.AppendShipped(1, frames); err != nil {
		t.Fatal(err)
	}
	dst.Flush(dst.CurrentLSN())
	if dst.DurableLSN() != src.DurableLSN() {
		t.Fatalf("durable mismatch: dst %d src %d", dst.DurableLSN(), src.DurableLSN())
	}

	// A gap is refused, whether the frames were written at the LSN they
	// claim to start at or not.
	gap := appendFrame(nil, &Record{LSN: dst.CurrentLSN() + 100, Type: RecInsert})
	if err := dst.AppendShipped(dst.CurrentLSN()+100, gap); err == nil {
		t.Fatal("non-contiguous shipped batch accepted")
	}
	if err := dst.AppendShipped(dst.CurrentLSN(), gap); err == nil {
		t.Fatal("a frame written at another LSN accepted")
	}
	if got := dst.CurrentLSN(); got != src.CurrentLSN() {
		t.Fatalf("refused batches moved the append horizon to %d", got)
	}

	// Reopen: the shipped copy survives restart byte for byte.
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewDurable(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Records()
	want := src.Records()
	if len(got) != len(want) {
		t.Fatalf("reopened follower has %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].LSN != want[i].LSN || got[i].Txn != want[i].Txn || string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("record %d differs after reopen", i)
		}
	}
	if re.CurrentLSN() != src.CurrentLSN() {
		t.Fatalf("append horizon mismatch: follower %d primary %d", re.CurrentLSN(), src.CurrentLSN())
	}
}

func TestRotateHookFires(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var mu sync.Mutex
	type rot struct {
		path        string
		first, last LSN
	}
	var rotations []rot
	d.SetRotateHook(func(path string, first, last LSN) {
		mu.Lock()
		rotations = append(rotations, rot{path, first, last})
		mu.Unlock()
	})

	// Flush per append so the segment grows across flush batches (rotation
	// points are only checked against the already-written segment size).
	for i := 0; i < 50; i++ {
		d.Append(&Record{Txn: uint64(i), Type: RecInsert, Payload: make([]byte, 64)})
		d.Flush(d.CurrentLSN())
	}

	mu.Lock()
	defer mu.Unlock()
	if len(rotations) == 0 {
		t.Fatal("no rotations observed with a 256-byte segment threshold")
	}
	for _, r := range rotations {
		if !strings.HasSuffix(r.path, segmentSuffix) {
			t.Fatalf("rotation path %q is not a segment", r.path)
		}
		if r.last <= r.first {
			t.Fatalf("rotation range [%d, %d) is empty", r.first, r.last)
		}
		// The closed segment is on disk at hook time (archival contract).
		if _, err := os.Stat(filepath.Join(r.path)); err != nil {
			t.Fatalf("closed segment missing at hook time: %v", err)
		}
	}
}
