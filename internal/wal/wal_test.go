package wal

import (
	"bytes"
	"sync"
	"testing"

	"plp/internal/cs"
)

func testLogs(cstats *cs.Stats) map[string]Log {
	return map[string]Log{
		"consolidated": NewConsolidated(cstats),
		"naive":        NewNaive(cstats),
	}
}

func TestAppendAssignsIncreasingLSNs(t *testing.T) {
	for name, l := range testLogs(&cs.Stats{}) {
		t.Run(name, func(t *testing.T) {
			var prev LSN
			for i := 0; i < 100; i++ {
				rec := &Record{Txn: uint64(i), Type: RecUpdate, Payload: []byte("p")}
				lsn := l.Append(rec)
				if lsn <= prev {
					t.Fatalf("LSN not increasing: %d after %d", lsn, prev)
				}
				prev = lsn
			}
			if l.CurrentLSN() <= prev {
				t.Fatal("current LSN should exceed the last appended record")
			}
		})
	}
}

func TestFlushAdvancesDurableLSN(t *testing.T) {
	for name, l := range testLogs(&cs.Stats{}) {
		t.Run(name, func(t *testing.T) {
			lsn := l.Append(&Record{Txn: 1, Type: RecCommit})
			if l.DurableLSN() >= lsn+LSN(1) {
				t.Fatal("durable LSN ahead of appends")
			}
			d := l.Flush(lsn + 1)
			if d < lsn {
				t.Fatalf("flush did not reach %d: %d", lsn, d)
			}
			if l.DurableLSN() != d {
				t.Fatal("durable LSN inconsistent")
			}
			// Flushing backwards must not regress.
			if l.Flush(1) < d {
				t.Fatal("durable LSN regressed")
			}
		})
	}
}

func TestRecordsReturnedInOrder(t *testing.T) {
	for name, l := range testLogs(&cs.Stats{}) {
		t.Run(name, func(t *testing.T) {
			const n = 200
			for i := 0; i < n; i++ {
				l.Append(&Record{Txn: uint64(i), Type: RecInsert})
			}
			recs := l.Records()
			if len(recs) != n {
				t.Fatalf("got %d records", len(recs))
			}
			for i := 1; i < len(recs); i++ {
				if recs[i].LSN <= recs[i-1].LSN {
					t.Fatal("records not sorted by LSN")
				}
			}
		})
	}
}

func TestConcurrentAppendsNoLostRecords(t *testing.T) {
	for name, l := range testLogs(&cs.Stats{}) {
		t.Run(name, func(t *testing.T) {
			const goroutines = 8
			const per = 500
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						l.Append(&Record{Txn: uint64(g), Type: RecUpdate, Payload: []byte{byte(i)}})
					}
				}(g)
			}
			wg.Wait()
			if got := l.Stats().Appends; got != goroutines*per {
				t.Fatalf("lost appends: %d", got)
			}
			recs := l.Records()
			if len(recs) != goroutines*per {
				t.Fatalf("records lost: %d", len(recs))
			}
			seen := make(map[LSN]bool, len(recs))
			for _, r := range recs {
				if seen[r.LSN] {
					t.Fatalf("duplicate LSN %d", r.LSN)
				}
				seen[r.LSN] = true
			}
		})
	}
}

// TestMarshalRoundTrip: a frame decodes, at the LSN it was written at, to
// the record it encodes; its size is the 1-byte type, the two uvarints,
// the payload and the CRC; and every strict prefix of it is refused.
func TestMarshalRoundTrip(t *testing.T) {
	for _, r := range []Record{
		{LSN: 100, Txn: 7, Type: RecDelete, Payload: []byte("payload")},
		{LSN: 1, Type: RecCommit},
		{LSN: 1 << 40, Txn: 1<<63 + 5, Type: RecCheckpoint, Payload: make([]byte, 300)},
		{LSN: 9, Txn: 200, Type: RecSMO, Payload: []byte{77}},
	} {
		frame := appendFrame([]byte("prefix"), &r)[len("prefix"):]
		want := 1 + uvarintLen(r.Txn) + uvarintLen(uint64(len(r.Payload))) + len(r.Payload)
		if r.EncodedSize() != want || len(frame) != want+crcSize {
			t.Fatalf("%+v: encoded size %d, frame %d bytes, want %d and %d", r, r.EncodedSize(), len(frame), want, want+crcSize)
		}
		got, n := decodeFrame(frame, r.LSN)
		if n != len(frame) || got.LSN != r.LSN || got.Txn != r.Txn || got.Type != r.Type || !bytes.Equal(got.Payload, r.Payload) {
			t.Fatalf("round trip of %+v gave %+v (%d bytes)", r, got, n)
		}
		for i := 0; i < len(frame); i++ {
			if _, n := decodeFrame(frame[:i], r.LSN); n != 0 {
				t.Fatalf("%+v: a %d-byte prefix of the frame decoded", r, i)
			}
		}
	}
	// A commit of transaction 1000: one type byte, a 2-byte transaction ID
	// and an empty payload's 1-byte length.
	if n := (&Record{Txn: 1000, Type: RecCommit}).EncodedSize(); n != 4 {
		t.Fatalf("a commit record takes %d log bytes, want 4", n)
	}
}

// TestFrameAtAnotherLSNRejected: a frame's CRC covers the LSN it was
// written at, so the same bytes found at any other LSN fail their check —
// read from a segment, decoded from a shipment, or appended by a
// follower.
func TestFrameAtAnotherLSNRejected(t *testing.T) {
	r := Record{LSN: 4096, Txn: 3, Type: RecUpdate, Payload: []byte("balance")}
	frame := appendFrame(nil, &r)
	for _, at := range []LSN{0, 1, 4095, 4097, 4096 + LSN(len(frame)), 1<<32 + 4096} {
		if _, n := decodeFrame(frame, at); n != 0 {
			t.Fatalf("frame written at 4096 decoded at %d", at)
		}
		if _, err := DecodeFrames(at, frame); err == nil {
			t.Fatalf("DecodeFrames accepted the frame at %d", at)
		}
	}
	if recs, err := DecodeFrames(4096, frame); err != nil || len(recs) != 1 {
		t.Fatalf("DecodeFrames at the right LSN: %d records, %v", len(recs), err)
	}

	d, err := NewDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	moved := appendFrame(nil, &Record{LSN: d.CurrentLSN() + 1, Txn: 3, Type: RecCommit})
	if err := d.AppendShipped(d.CurrentLSN(), moved); err == nil {
		t.Fatal("a follower appended a frame written at another LSN")
	}
	if d.CurrentLSN() != 1 || d.Stats().Appends != 0 {
		t.Fatalf("a refused shipment moved the log: next %d, %d appends", d.CurrentLSN(), d.Stats().Appends)
	}
}

func TestLogManagerCriticalSectionClassification(t *testing.T) {
	cstats := &cs.Stats{}
	l := NewConsolidated(cstats)
	for i := 0; i < 50; i++ {
		l.Append(&Record{Txn: 1, Type: RecUpdate})
	}
	snap := cstats.Snapshot()
	if snap.Entered[cs.LogMgr] != 50 {
		t.Fatalf("log manager CS not recorded: %d", snap.Entered[cs.LogMgr])
	}
	if snap.ByClass[cs.Composable] != 50 {
		t.Fatalf("consolidated appends should be composable: %+v", snap.ByClass)
	}

	cstats2 := &cs.Stats{}
	n := NewNaive(cstats2)
	for i := 0; i < 50; i++ {
		n.Append(&Record{Txn: 1, Type: RecUpdate})
	}
	if cstats2.Snapshot().ByClass[cs.Unscalable] != 50 {
		t.Fatal("naive appends should be unscalable")
	}
}

func TestRecordTypeLabels(t *testing.T) {
	for _, ty := range []RecordType{RecInsert, RecDelete, RecUpdate, RecCommit, RecAbort, RecSMO, RecRepartition, RecCheckpoint} {
		if ty.String() == "" {
			t.Fatalf("missing label for %d", ty)
		}
	}
}
