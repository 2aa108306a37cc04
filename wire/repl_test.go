package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

func TestReplSubscribeRoundTrip(t *testing.T) {
	payload := EncodeReplSubscribe(7, 12345, 3, "node-a")
	f, err := DecodeFrameV3(payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 7 || f.Kind != FrameReplSubscribe || f.StartLSN != 12345 || f.ReplEpoch != 3 || f.ReplNode != "node-a" {
		t.Fatalf("decoded %+v", f)
	}
	// Pre-node subscribe frames (no trailing node field) still decode.
	legacy := payload[:8+1+8+8]
	f, err = DecodeFrameV3(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if f.StartLSN != 12345 || f.ReplEpoch != 3 || f.ReplNode != "" {
		t.Fatalf("legacy decode %+v", f)
	}
}

func TestReplRecordsRoundTrip(t *testing.T) {
	frames := []byte("frame-one|frame-two")
	payload := EncodeReplRecords(9, 4242, frames)
	if len(payload) != 8+1+8+4+len(frames) {
		t.Fatalf("a REPL-RECORDS payload of %d frame bytes is %d bytes", len(frames), len(payload))
	}
	f, err := DecodeFrameV3(payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 9 || f.Kind != FrameReplRecords || f.StartLSN != 4242 || !bytes.Equal(f.ReplFrames, frames) {
		t.Fatalf("decoded %+v", f)
	}
	for i := 8 + 1; i < len(payload); i++ {
		if _, err := DecodeFrameV3(payload[:i]); err == nil {
			t.Fatalf("a REPL-RECORDS payload cut to %d bytes decoded", i)
		}
	}
}

func TestReplAckRoundTrip(t *testing.T) {
	payload := EncodeReplAck(2, 100, 200)
	f, err := DecodeFrameV3(payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 2 || f.Kind != FrameReplAck || f.AppliedLSN != 100 || f.DurableLSN != 200 {
		t.Fatalf("decoded %+v", f)
	}
}

func TestReplSubscribeAckRoundTrip(t *testing.T) {
	blob := EncodeReplSubscribeAck(5, 9876)
	epoch, durable, err := DecodeReplSubscribeAck(blob)
	if err != nil || epoch != 5 || durable != 9876 {
		t.Fatalf("epoch=%d durable=%d err=%v", epoch, durable, err)
	}
	if _, _, err := DecodeReplSubscribeAck(blob[:7]); err == nil {
		t.Fatal("short subscribe ack accepted")
	}
}

func TestReplRecordsHostileCount(t *testing.T) {
	// Frame header (id + kind), first LSN, then a frame length of ~4
	// billion bytes.
	payload := append(EncodeReplRecords(1, 1, nil)[:17], 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := DecodeFrameV3(payload); err == nil {
		t.Fatal("hostile frame length accepted")
	}
}

func TestReplRefusalPrefixes(t *testing.T) {
	if !IsReplRefused(ReplRefusedPrefix+": stale epoch") || IsReplRefused("nope") {
		t.Fatal("IsReplRefused misclassifies")
	}
	if !IsFollowerRefusal(FollowerPrefix+": writes refused") || IsFollowerRefusal("wrong shard") {
		t.Fatal("IsFollowerRefusal misclassifies")
	}
}

// walFrame encodes one WAL frame as package wal lays it out: type byte,
// uvarint transaction ID and payload length, payload, and a CRC32 over the
// LSN the frame is written at followed by those bytes.
func walFrame(lsn uint64, typ byte, txn uint64, payload []byte) []byte {
	body := binary.AppendUvarint([]byte{typ}, txn)
	body = binary.AppendUvarint(body, uint64(len(payload)))
	body = append(body, payload...)
	crc := crc32.Update(crc32.ChecksumIEEE(binary.LittleEndian.AppendUint64(nil, lsn)), crc32.IEEETable, body)
	return binary.LittleEndian.AppendUint32(body, crc)
}

// FuzzDecodeReplFrame feeds hostile replication frames through the V3
// decoder: it must never panic, never over-allocate on hostile lengths,
// and whatever it accepts must survive a re-encode/re-decode round trip.
func FuzzDecodeReplFrame(f *testing.F) {
	f.Add(EncodeReplSubscribe(1, 42, 0, ""))
	f.Add(EncodeReplSubscribe(2, 0, 7, "node-2"))
	update := walFrame(77, 3, 1000, []byte("patch"))
	f.Add(EncodeReplRecords(3, 77, append(update, walFrame(77+uint64(len(update))-4, 4, 1000, nil)...)))
	f.Add(EncodeReplAck(4, 10, 20))
	// Hostile frame length.
	f.Add(append(EncodeReplRecords(5, 1, nil)[:17], 0xFF, 0xFF, 0xFF, 0xFF))
	// Truncated subscribe.
	f.Add(EncodeReplSubscribe(6, 1, 1, "n")[:12])
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := DecodeFrameV3(payload)
		if err != nil {
			return
		}
		var back *Frame
		switch fr.Kind {
		case FrameReplSubscribe:
			back, err = DecodeFrameV3(EncodeReplSubscribe(fr.ID, fr.StartLSN, fr.ReplEpoch, fr.ReplNode))
		case FrameReplRecords:
			back, err = DecodeFrameV3(EncodeReplRecords(fr.ID, fr.StartLSN, fr.ReplFrames))
		case FrameReplAck:
			back, err = DecodeFrameV3(EncodeReplAck(fr.ID, fr.AppliedLSN, fr.DurableLSN))
		default:
			return // other frame kinds have their own fuzzers
		}
		if err != nil {
			t.Fatalf("re-decode of accepted repl frame failed: %v", err)
		}
		if back.ID != fr.ID || back.Kind != fr.Kind ||
			back.StartLSN != fr.StartLSN || back.ReplEpoch != fr.ReplEpoch ||
			back.ReplNode != fr.ReplNode ||
			back.AppliedLSN != fr.AppliedLSN || back.DurableLSN != fr.DurableLSN ||
			!bytes.Equal(back.ReplFrames, fr.ReplFrames) {
			t.Fatalf("round trip changed the frame: %+v != %+v", back, fr)
		}
	})
}
