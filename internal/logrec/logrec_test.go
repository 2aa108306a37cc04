package logrec

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sameModification(a, b Modification) bool {
	return a.Table == b.Table && a.Index == b.Index && bytes.Equal(a.Key, b.Key) &&
		a.At == b.At && bytes.Equal(a.After, b.After)
}

func TestModificationRoundTrip(t *testing.T) {
	cases := []Modification{
		{Table: "accounts", Key: []byte("k1"), After: []byte("v1")},
		{Table: "accounts", Key: []byte("k1"), At: PatchAt(8), After: []byte{0, 0, 0, 0, 0, 0, 0x30, 0x39}},
		{Table: "t", Key: []byte{0}, After: nil},
		{Table: "t", Index: "by_x", Key: []byte("x1"), After: []byte("pk")},
		{Table: "", Key: nil, After: nil},
		{Table: "subscriber", Key: bytes.Repeat([]byte{0xff}, 64), After: bytes.Repeat([]byte{2}, 1000)},
		{Table: "subscriber", Key: []byte("k"), At: PatchAt(1 << 20), After: []byte("far")},
	}
	for i, m := range cases {
		payload := EncodeModification(m)
		if payload[0] != modificationVersion {
			t.Fatalf("case %d: version byte %d, want %d", i, payload[0], modificationVersion)
		}
		got, err := DecodeModification(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !sameModification(got, m) {
			t.Fatalf("case %d: round trip mismatch: %+v != %+v", i, got, m)
		}
	}
}

// TestModificationSizes pins the redo-only layout: one version byte, then
// a uvarint length per field and for the offset.  A TPC-B balance patch
// (12-byte table name, 8-byte key, 8-byte field) costs 34 bytes, where the
// version 1 layout with both images of the 100-byte row cost 241.
func TestModificationSizes(t *testing.T) {
	const table = "tpcb_account"
	key := bytes.Repeat([]byte{1}, 8)
	patch := EncodeModification(Modification{Table: table, Key: key, At: PatchAt(8), After: make([]byte, 8)})
	if want := 1 + 1 + 12 + 1 + 1 + 8 + 1 + 1 + 8; len(patch) != want {
		t.Fatalf("patch payload is %d bytes, want %d", len(patch), want)
	}
	whole := EncodeModification(Modification{Table: table, Key: key, After: make([]byte, 100)})
	if want := 1 + 1 + 12 + 1 + 1 + 8 + 1 + 1 + 100; len(whole) != want {
		t.Fatalf("after-image payload is %d bytes, want %d", len(whole), want)
	}
}

func TestModificationRoundTripProperty(t *testing.T) {
	f := func(table, index string, key []byte, at uint64, after []byte) bool {
		m := Modification{Table: table, Index: index, Key: key, At: at, After: after}
		got, err := DecodeModification(EncodeModification(m))
		// Encoding normalizes empty slices to nil; bytes.Equal treats them alike.
		return err == nil && sameModification(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeModificationErrors(t *testing.T) {
	if _, err := DecodeModification(nil); err == nil {
		t.Fatal("decoding an empty payload should fail")
	}
	if _, err := DecodeModification([]byte{99}); !errors.Is(err, ErrVersion) {
		t.Fatalf("decoding an unknown version: err = %v, want ErrVersion", err)
	}
	// Version 1, which carried a before-image, is no longer read.
	v1 := []byte{payloadVersion, 1, 0, 0, 0, 't', 0, 0, 0, 0, 1, 0, 0, 0, 'k', 0, 0, 0, 0, 1, 0, 0, 0, 'a'}
	if _, err := DecodeModification(v1); !errors.Is(err, ErrVersion) {
		t.Fatalf("decoding a version 1 payload: err = %v, want ErrVersion", err)
	}
	// Truncate valid payloads at every length: decoding must never panic
	// and must fail for every strict prefix.
	for _, full := range [][]byte{
		EncodeModification(Modification{Table: "t", Key: []byte("key"), After: []byte("a")}),
		EncodeModification(Modification{Table: "t", Key: []byte("key"), At: PatchAt(300), After: []byte("field")}),
		EncodeModification(Modification{Table: "t", Index: "by_v", Key: []byte("one"), After: bytes.Repeat([]byte("pk"), 100)}),
	} {
		for i := 0; i < len(full); i++ {
			if _, err := DecodeModification(full[:i]); err == nil {
				t.Fatalf("payload %x truncated to %d bytes decoded successfully", full, i)
			}
		}
	}
	trailing := append(EncodeModification(Modification{Table: "t", Key: []byte("k")}), 0)
	if _, err := DecodeModification(trailing); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing byte: err = %v, want ErrTrailing", err)
	}
}

func TestModificationApply(t *testing.T) {
	cur := []byte("0123456789")
	whole := Modification{After: []byte("new")}
	if got, err := whole.Apply(cur); err != nil || string(got) != "new" {
		t.Fatalf("whole image: %q, %v", got, err)
	}
	patch := Modification{At: PatchAt(2), After: []byte("ab")}
	got, err := patch.Apply(cur)
	if err != nil || string(got) != "01ab456789" {
		t.Fatalf("patch: %q, %v", got, err)
	}
	if string(cur) != "0123456789" {
		t.Fatalf("Apply modified its input: %q", cur)
	}
	end := Modification{At: PatchAt(8), After: []byte("XY")}
	if got, err := end.Apply(cur); err != nil || string(got) != "01234567XY" {
		t.Fatalf("patch at the end: %q, %v", got, err)
	}
	for _, bad := range []Modification{
		{At: PatchAt(9), After: []byte("XY")},
		{At: PatchAt(11), After: []byte("X")},
		{At: ^uint64(0), After: []byte("X")},
	} {
		if _, err := bad.Apply(cur); !errors.Is(err, ErrPatch) {
			t.Fatalf("patch of %d bytes at At=%d onto %d bytes: err = %v, want ErrPatch", len(bad.After), bad.At, len(cur), err)
		}
	}
}

func TestIsModificationPayload(t *testing.T) {
	m := EncodeModification(Modification{Table: "t", Key: []byte("k")})
	if !IsModificationPayload(m) {
		t.Fatal("encoded modification not recognized")
	}
	if IsModificationPayload([]byte("just-a-key")) {
		t.Fatal("bare key payload should not be recognized as a modification")
	}
	if IsModificationPayload(nil) {
		t.Fatal("nil payload should not be recognized")
	}
}

func TestCheckpointChunkRoundTrip(t *testing.T) {
	c := CheckpointChunk{
		Table:  "accounts",
		Keys:   [][]byte{[]byte("a"), []byte("b"), nil},
		Values: [][]byte{[]byte("1"), nil, []byte("3")},
	}
	payload := EncodeCheckpointChunk(c)
	got, ok, err := DecodeCheckpointChunk(payload)
	if err != nil || !ok {
		t.Fatalf("decode chunk: ok=%v err=%v", ok, err)
	}
	if got.Table != c.Table || len(got.Keys) != 3 || len(got.Values) != 3 {
		t.Fatalf("chunk mismatch: %+v", got)
	}
	for i := range c.Keys {
		if !bytes.Equal(got.Keys[i], c.Keys[i]) || !bytes.Equal(got.Values[i], c.Values[i]) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestCheckpointEndRoundTrip(t *testing.T) {
	e := CheckpointEnd{BeginLSN: 123456, Chunks: 7, Tables: 3}
	payload := EncodeCheckpointEnd(e)
	got, ok, err := DecodeCheckpointEnd(payload)
	if err != nil || !ok {
		t.Fatalf("decode end: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("end mismatch: %+v != %+v", got, e)
	}
}

func TestCheckpointTagDiscrimination(t *testing.T) {
	chunk := EncodeCheckpointChunk(CheckpointChunk{Table: "t"})
	end := EncodeCheckpointEnd(CheckpointEnd{BeginLSN: 1})

	if _, ok, _ := DecodeCheckpointEnd(chunk); ok {
		t.Fatal("chunk payload decoded as end marker")
	}
	if _, ok, _ := DecodeCheckpointChunk(end); ok {
		t.Fatal("end payload decoded as chunk")
	}
	// A modification payload is neither.
	mod := EncodeModification(Modification{Table: "t", Key: []byte("k")})
	if _, ok, _ := DecodeCheckpointChunk(mod); ok {
		t.Fatal("modification decoded as chunk")
	}
	if _, ok, _ := DecodeCheckpointEnd(mod); ok {
		t.Fatal("modification decoded as end")
	}
}

func TestCheckpointChunkRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(20)
		c := CheckpointChunk{Table: "tbl"}
		for i := 0; i < n; i++ {
			k := make([]byte, rng.Intn(32))
			v := make([]byte, rng.Intn(128))
			rng.Read(k)
			rng.Read(v)
			c.Keys = append(c.Keys, k)
			c.Values = append(c.Values, v)
		}
		got, ok, err := DecodeCheckpointChunk(EncodeCheckpointChunk(c))
		if err != nil || !ok {
			t.Fatalf("iter %d: decode failed: ok=%v err=%v", iter, ok, err)
		}
		if len(got.Keys) != n {
			t.Fatalf("iter %d: %d entries, want %d", iter, len(got.Keys), n)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(got.Keys[i], c.Keys[i]) || !bytes.Equal(got.Values[i], c.Values[i]) {
				t.Fatalf("iter %d entry %d mismatch", iter, i)
			}
		}
	}
}

// TestChunkEncoderMatchesEncodeCheckpointChunk checks that a chunk built
// entry by entry is byte for byte the chunk EncodeCheckpointChunk encodes,
// whatever the size guess, including empty keys, values and index names.
func TestChunkEncoderMatchesEncodeCheckpointChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		c := CheckpointChunk{Table: "tbl"}
		if iter%3 == 0 {
			c.Index = "idx_sub_nbr"
		}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			k := make([]byte, rng.Intn(32))
			v := make([]byte, rng.Intn(128))
			rng.Read(k)
			rng.Read(v)
			c.Keys = append(c.Keys, k)
			c.Values = append(c.Values, v)
		}
		enc := NewChunkEncoder(c.Table, c.Index, rng.Intn(4096))
		for i := range c.Keys {
			enc.Add(c.Keys[i], c.Values[i])
		}
		if enc.Entries() != len(c.Keys) {
			t.Fatalf("iter %d: %d entries counted, %d added", iter, enc.Entries(), len(c.Keys))
		}
		if got, want := enc.Payload(), EncodeCheckpointChunk(c); !bytes.Equal(got, want) {
			t.Fatalf("iter %d: encoder wrote %x, EncodeCheckpointChunk %x", iter, got, want)
		}
	}
}

func TestDecodeCheckpointErrors(t *testing.T) {
	if _, _, err := DecodeCheckpointChunk(nil); err == nil {
		t.Fatal("empty chunk payload should fail")
	}
	if _, _, err := DecodeCheckpointEnd([]byte{payloadVersion, checkpointEndTag, 1}); err == nil {
		t.Fatal("short end payload should fail")
	}
	if _, _, err := DecodeCheckpointChunk([]byte{42, checkpointChunkTag}); err == nil {
		t.Fatal("unknown version should fail")
	}
}

func TestCheckpointMetaRoundTrip(t *testing.T) {
	m := CheckpointMeta{
		Tables: []TableBoundaries{
			{Table: "acct", Boundaries: [][]byte{{0x01, 0x02}, {0x03}, {0x04, 0x05, 0x06}}},
			{Table: "meta", Boundaries: nil},
			{Table: "orders", Boundaries: [][]byte{{0xff}}},
		},
		Controller: []byte("opaque-controller-state"),
	}
	got, ok, err := DecodeCheckpointMeta(EncodeCheckpointMeta(m))
	if err != nil || !ok {
		t.Fatalf("decode failed: ok=%v err=%v", ok, err)
	}
	if len(got.Tables) != len(m.Tables) {
		t.Fatalf("%d tables, want %d", len(got.Tables), len(m.Tables))
	}
	for i, tb := range m.Tables {
		if got.Tables[i].Table != tb.Table || len(got.Tables[i].Boundaries) != len(tb.Boundaries) {
			t.Fatalf("table %d mismatch: %+v vs %+v", i, got.Tables[i], tb)
		}
		for j := range tb.Boundaries {
			if !bytes.Equal(got.Tables[i].Boundaries[j], tb.Boundaries[j]) {
				t.Fatalf("table %d boundary %d mismatch", i, j)
			}
		}
	}
	if !bytes.Equal(got.Controller, m.Controller) {
		t.Fatalf("controller blob %q, want %q", got.Controller, m.Controller)
	}

	// Meta payloads must not be mistaken for chunks or end markers, and
	// vice versa.
	if _, ok, _ := DecodeCheckpointChunk(EncodeCheckpointMeta(m)); ok {
		t.Fatal("meta payload decoded as chunk")
	}
	if _, ok, _ := DecodeCheckpointMeta(EncodeCheckpointEnd(CheckpointEnd{})); ok {
		t.Fatal("end payload decoded as meta")
	}
	if _, _, err := DecodeCheckpointMeta([]byte{payloadVersion, checkpointMetaTag, 1}); err == nil {
		t.Fatal("short meta payload should fail")
	}
}

// FuzzDecodeModification feeds arbitrary bytes to the decoder, which must
// never panic, and checks that whatever decodes re-encodes to a payload
// that decodes to the same modification.  The fuzzer's own values also
// build a modification that must survive a version 2 round trip.
func FuzzDecodeModification(f *testing.F) {
	f.Add(EncodeModification(Modification{Table: "acct", Key: []byte("k"), At: PatchAt(8), After: make([]byte, 8)}), "t", []byte("k"), uint64(0), []byte("v"))
	f.Add(EncodeModification(Modification{Table: "t", Index: "i", Key: []byte("s"), After: []byte("pk")}), "", []byte(nil), uint64(9), []byte(nil))
	f.Add(EncodeModification(Modification{Table: "t", Key: []byte("k"), At: PatchAt(300), After: []byte("a")}), "x", []byte{0}, uint64(1), []byte{1, 2})
	f.Add([]byte{modificationVersion, 0x80}, "", []byte(nil), uint64(0), []byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte, table string, key []byte, at uint64, after []byte) {
		if m, err := DecodeModification(payload); err == nil {
			again, err := DecodeModification(EncodeModification(m))
			if err != nil || !sameModification(again, m) {
				t.Fatalf("re-encoded %+v decoded to %+v, %v", m, again, err)
			}
		}
		m := Modification{Table: table, Key: key, At: at, After: after}
		got, err := DecodeModification(EncodeModification(m))
		if err != nil || !sameModification(got, m) {
			t.Fatalf("round trip of %+v gave %+v, %v", m, got, err)
		}
	})
}
