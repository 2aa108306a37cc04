package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildSegmentBytes encodes a segment exactly as the device writes one:
// the segment header, then one frame per payload, at contiguous LSNs
// starting at first.
func buildSegmentBytes(first LSN, payloads [][]byte) []byte {
	out := append([]byte(nil), segmentHeader...)
	lsn := first
	for i, p := range payloads {
		r := Record{LSN: lsn, Txn: uint64(i + 1), Type: RecUpdate, Payload: p}
		out = appendFrame(out, &r)
		lsn += LSN(r.encodedSize())
	}
	return out
}

// requireRefused checks that OpenDurable refuses a directory holding a
// segment with the given contents with an error naming the format it
// reads, and leaves the directory as it was: an unreadable log is never
// replaced by an empty one.
func requireRefused(t *testing.T, contents []byte) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(path, contents, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(dir, DurableOptions{})
	if err == nil {
		_ = d.Close()
	}
	if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "log format 2") {
		t.Fatalf("OpenDurable over a segment in another format: err=%v, want ErrFormat naming the format", err)
	}
	entries, _ := os.ReadDir(dir)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, contents) || len(entries) != 1 {
		t.Fatalf("the refused directory changed: %d entries, %v", len(entries), err)
	}
}

// fuzzPayloads is the fixed record set the corruption fuzzer mutates.
func fuzzPayloads() [][]byte {
	return [][]byte{
		[]byte("alpha"),
		bytes.Repeat([]byte{0xAB}, 100),
		nil,
		[]byte("delta-record-with-a-longer-payload"),
		[]byte{0, 1, 2, 3, 4, 5, 6, 7},
	}
}

// FuzzSegmentReaderCorruption attacks the durable WAL segment reader with
// arbitrary mid-file corruption: any byte of a valid segment is overwritten
// with any value, and arbitrary junk may be appended.  The reader must
// never panic, must never regress past the framing invariants
// (validLen <= fileLen, prefix re-reads identically), and whatever it
// salvages must be a strict prefix of the original records — bit rot after
// the corruption point must not resurrect later records (the CRC, which
// covers each frame's LSN, catches both tearing and resurrection).
// OpenDurable on the same file must also survive, truncate the damage away
// and accept new appends.  Damage to the segment header instead makes the
// open refuse the directory, leaving the file as it is.
func FuzzSegmentReaderCorruption(f *testing.F) {
	f.Add(uint32(0), byte(0xFF), []byte{})        // segment header
	f.Add(uint32(8), byte(0x01), []byte{})        // header of record 0
	f.Add(uint32(20), byte(0x80), []byte("junk")) // payload of record 1
	f.Add(uint32(1<<31), byte(0), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, pos uint32, bite byte, tail []byte) {
		valid := buildSegmentBytes(1, fuzzPayloads())
		origRecs, origLen, origFile, err := readSegmentFromBytes(t, valid)
		if err != nil || origLen != origFile || len(origRecs) != len(fuzzPayloads()) {
			t.Fatalf("pristine segment misread: %d recs, %d/%d bytes, %v", len(origRecs), origLen, origFile, err)
		}

		corrupt := append([]byte(nil), valid...)
		idx := int(pos) % len(corrupt)
		corrupt[idx] ^= bite
		corrupt = append(corrupt, tail...)
		if idx < segHeaderSize && bite != 0 {
			if _, _, _, err := readSegmentFromBytes(t, corrupt); !errors.Is(err, ErrFormat) {
				t.Fatalf("damaged segment header: err=%v, want ErrFormat", err)
			}
			requireRefused(t, corrupt)
			return
		}

		recs, validLen, fileLen, err := readSegmentFromBytes(t, corrupt)
		if err != nil {
			t.Fatalf("readSegment must not fail on corrupt contents: %v", err)
		}
		if fileLen != int64(len(corrupt)) || validLen > fileLen {
			t.Fatalf("lengths: valid %d, file %d, want file %d", validLen, fileLen, len(corrupt))
		}
		if len(recs) > len(origRecs) {
			t.Fatalf("corruption grew the log: %d recs from %d", len(recs), len(origRecs))
		}
		for i, rec := range recs {
			// Everything before the corrupted byte must survive intact; a
			// record overlapping or following it either fails its CRC or —
			// if the flip happens to keep the CRC valid (it cannot, for a
			// single-byte flip) — must equal the original anyway.
			want := origRecs[i]
			if rec.LSN != want.LSN || rec.Txn != want.Txn || !bytes.Equal(rec.Payload, want.Payload) {
				t.Fatalf("record %d mutated silently: %+v != %+v", i, rec, want)
			}
		}
		if bite != 0 {
			frameEnd := int64(segHeaderSize)
			for i, rec := range origRecs {
				next := frameEnd + int64(rec.encodedSize()) + crcSize
				if int64(idx) < next {
					if len(recs) > i {
						t.Fatalf("record %d survived a flipped byte inside its frame", i)
					}
					break
				}
				frameEnd = next
			}
		}

		// The full device must open over the damaged file, truncate the
		// tail and keep accepting appends.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(dir, DurableOptions{})
		if err != nil {
			t.Fatalf("OpenDurable on corrupt segment: %v", err)
		}
		if got := len(d.Records()); got != len(recs) {
			t.Fatalf("device salvaged %d records, reader salvaged %d", got, len(recs))
		}
		lsn := d.Append(&Record{Txn: 99, Type: RecCommit})
		if d.WaitDurable(lsn) <= lsn {
			t.Fatal("append after corruption recovery did not become durable")
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		// And reopen once more: the post-corruption append must be there.
		d2, err := OpenDurable(dir, DurableOptions{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer d2.Close()
		all := d2.Records()
		if len(all) != len(recs)+1 || all[len(all)-1].Txn != 99 {
			t.Fatalf("post-corruption append lost: %d records", len(all))
		}
	})
}

// readSegmentFromBytes writes contents to a scratch segment file and runs
// the segment reader over it.
func readSegmentFromBytes(t *testing.T, contents []byte) ([]Record, int64, int64, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), segmentName(1))
	if err := os.WriteFile(path, contents, 0o644); err != nil {
		t.Fatal(err)
	}
	return readSegment(path)
}

// FuzzSegmentReaderArbitrary feeds arbitrary bytes as a segment file,
// both as they are and behind a valid segment header: the reader must
// never panic and must uphold validLen <= fileLen, whatever it accepts
// must re-read identically, and the device must either open and stay
// usable or refuse the directory as not in its format.
func FuzzSegmentReaderArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildSegmentBytes(1, fuzzPayloads())[segHeaderSize:])
	f.Add(bytes.Repeat([]byte{0xFF}, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, contents := range [][]byte{data, append(append([]byte(nil), segmentHeader...), data...)} {
			recs, validLen, fileLen, err := readSegmentFromBytes(t, contents)
			if errors.Is(err, ErrFormat) {
				requireRefused(t, contents)
				continue
			}
			if err != nil {
				t.Fatalf("readSegment errored on arbitrary bytes: %v", err)
			}
			if validLen > fileLen || fileLen != int64(len(contents)) {
				t.Fatalf("lengths: valid %d, file %d, data %d", validLen, fileLen, len(contents))
			}
			// Whatever was accepted must re-read identically from its own
			// valid prefix (the reader is its own oracle).
			again, againLen, _, err := readSegmentFromBytes(t, contents[:validLen])
			if err != nil || againLen != validLen || len(again) != len(recs) {
				t.Fatalf("valid prefix unstable: %d/%d recs, %d/%d bytes, %v",
					len(again), len(recs), againLen, validLen, err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), contents, 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatalf("OpenDurable over a segment the reader accepted: %v", err)
			}
			if got := len(d.Records()); got != len(recs) {
				t.Fatalf("device salvaged %d records, reader salvaged %d", got, len(recs))
			}
			if lsn := d.Append(&Record{Txn: 1, Type: RecCommit}); d.WaitDurable(lsn) <= lsn {
				t.Fatal("append after opening did not become durable")
			}
			_ = d.Close()
		}
	})
}

// FuzzDecodeFrames feeds arbitrary bytes to the decoder a follower runs on
// a shipment: it must never panic, whatever it accepts must be exactly the
// frames of the records it returns, written at the LSNs it gives them, and
// AppendShipped must accept a shipment exactly when it decodes.
func FuzzDecodeFrames(f *testing.F) {
	f.Add(uint64(1), buildSegmentBytes(1, fuzzPayloads())[segHeaderSize:])
	f.Add(uint64(2), buildSegmentBytes(1, fuzzPayloads())[segHeaderSize:])
	f.Add(uint64(1), []byte{byte(RecCommit), 0x80, 0x80})
	f.Fuzz(func(t *testing.T, first uint64, frames []byte) {
		first = first%(1<<40) + 1
		recs, err := DecodeFrames(LSN(first), frames)
		if err == nil {
			var again []byte
			lsn := LSN(first)
			for i := range recs {
				if recs[i].LSN != lsn {
					t.Fatalf("record %d at LSN %d, want %d", i, recs[i].LSN, lsn)
				}
				again = appendFrame(again, &recs[i])
				lsn += LSN(recs[i].EncodedSize())
			}
			if !bytes.Equal(again, frames) {
				t.Fatal("accepted frames do not re-encode to themselves")
			}
		}
		d, derr := OpenDurable(t.TempDir(), DurableOptions{SyncEveryCommit: true})
		if derr != nil {
			t.Fatal(derr)
		}
		defer d.Close()
		if err := d.ResetForSeed(LSN(first)); err != nil {
			t.Fatal(err)
		}
		if serr := d.AppendShipped(LSN(first), frames); (serr == nil) != (err == nil) {
			t.Fatalf("AppendShipped: %v, DecodeFrames: %v", serr, err)
		}
	})
}
