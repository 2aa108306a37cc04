package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"plp/plan"
)

// TestRequestRoundTrip round-trips the three request kinds a client sends:
// a plan, a ping and a control verb.
func TestRequestRoundTrip(t *testing.T) {
	f, err := DecodeFrameV3(EncodePingRequest(42, []byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FramePing || f.ID != 42 || string(f.Ping) != "hello" {
		t.Fatalf("ping frame %+v", f)
	}
	f, err = DecodeFrameV3(EncodeControlRequest(43, "shares", "acct"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameControl || f.ID != 43 || f.Command != "shares" || f.Table != "acct" {
		t.Fatalf("control frame %+v", f)
	}
	p := plan.New().
		Get("acct", []byte("k1")).
		Insert("acct", []byte("k2"), []byte("v2")).
		LookupSecondary("acct", "by_name", []byte("alice")).
		Delete("acct", nil).
		MustBuild()
	f, err = DecodeFrameV3(EncodePlanRequest(44, p))
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FramePlan || f.ID != 44 || len(f.Plan.Phases) != 1 || len(f.Plan.Phases[0]) != 4 {
		t.Fatalf("plan frame %+v", f)
	}
	for i, w := range p.Phases[0] {
		g := f.Plan.Phases[0][i]
		if w.Kind != g.Kind || w.Table != g.Table || w.Index != g.Index ||
			!bytes.Equal(w.Key, g.Key) || !bytes.Equal(w.Value, g.Value) {
			t.Fatalf("op %d mismatch: %+v != %+v", i, g, w)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		ID:        7,
		Committed: true,
		Results: []StatementResult{
			{Found: true, Value: []byte("v")},
			{Found: false},
			{Err: "boom"},
		},
	}
	got, err := DecodeResponse(AppendResponse(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, resp)
	}

	aborted := &Response{ID: 8, Committed: false, Err: "duplicate key"}
	got, err = DecodeResponse(AppendResponse(nil, aborted))
	if err != nil {
		t.Fatal(err)
	}
	if got.Committed || got.Err != "duplicate key" {
		t.Fatalf("aborted response mismatch: %+v", got)
	}
}

// TestAppendResponseReusesBuffer proves the append form the server's
// per-connection encode buffer relies on: successive responses encoded into
// the same buffer round-trip correctly, reuse its capacity once grown, and
// match a fresh encoding byte for byte.
func TestAppendResponseReusesBuffer(t *testing.T) {
	responses := []*Response{
		{ID: 1, Committed: true, Results: []StatementResult{
			{Found: true, Value: []byte("a-long-first-value-to-grow-the-buffer")},
			{Found: true, Entries: []ScanEntry{{Key: []byte("k1"), Value: []byte("v1")}}},
		}},
		{ID: 2, Err: "aborted", Retry: RetryPermanent},
		{ID: 3, Committed: true, Results: []StatementResult{{Found: false}}},
	}
	var buf []byte
	for _, resp := range responses {
		buf = AppendResponse(buf[:0], resp)
		if want := AppendResponse(nil, resp); !bytes.Equal(buf, want) {
			t.Fatalf("reused-buffer encoding differs from a fresh encoding for id %d", resp.ID)
		}
		got, err := DecodeResponse(append([]byte(nil), buf...))
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != resp.ID || got.Committed != resp.Committed || got.Err != resp.Err || got.Retry != resp.Retry {
			t.Fatalf("round trip mismatch: %+v != %+v", got, resp)
		}
	}
	grown := cap(buf)
	buf = AppendResponse(buf[:0], responses[2])
	if cap(buf) != grown {
		t.Fatalf("small response reallocated the buffer: cap %d -> %d", grown, cap(buf))
	}
	// Appending to a non-empty prefix must preserve it.
	prefix := []byte{0xde, 0xad}
	out := AppendResponse(append([]byte(nil), prefix...), responses[1])
	if !bytes.Equal(out[:2], prefix) {
		t.Fatal("append clobbered the existing prefix")
	}
	if want := AppendResponse(nil, responses[1]); !bytes.Equal(out[2:], want) {
		t.Fatal("appended payload differs from a fresh encoding")
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(id uint64, table, index string, key, value []byte, kindSeed uint8) bool {
		kind := plan.Kind(kindSeed%uint8(plan.ReadModifyWrite)) + 1
		p := &plan.Plan{Phases: [][]plan.Op{{{Kind: kind, Table: table, Index: index, Key: key, Value: value}}}}
		got, err := DecodeFrameV3(EncodePlanRequest(id, p))
		if err != nil {
			return false
		}
		g := got.Plan.Phases[0][0]
		return got.ID == id && g.Kind == kind && g.Table == table && g.Index == index &&
			bytes.Equal(g.Key, key) && bytes.Equal(g.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeFrameV3([]byte{1, 2, 3}); err == nil {
		t.Fatal("short request accepted")
	}
	if _, err := DecodeResponse([]byte{1}); err == nil {
		t.Fatal("short response accepted")
	}
	// Kind 0 carried flat statements before protocol v4; it is refused.
	if _, err := DecodeFrameV3(append(appendUint64(nil, 1), 0, 1, 0, 0, 0)); !errors.Is(err, ErrBadOp) {
		t.Fatalf("kind-0 frame: %v, want ErrBadOp", err)
	}
	// A control frame carrying more than its command and table is refused.
	if _, err := DecodeFrameV3(append(EncodeControlRequest(1, "status", ""), 0)); err == nil {
		t.Fatal("control frame with trailing bytes accepted")
	}
	// Truncating a valid request at any point must fail cleanly, not panic.
	p := plan.New().Insert("t", []byte("k"), []byte("v")).MustBuild()
	for _, full := range [][]byte{EncodePlanRequest(9, p), EncodePingRequest(9, []byte("x")), EncodeControlRequest(9, "status", "t")} {
		for i := 0; i < len(full); i++ {
			if _, err := DecodeFrameV3(full[:i]); err == nil {
				t.Fatalf("truncated request of %d bytes accepted", i)
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{0xAB}, 10000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %d bytes, want %d", len(got), len(want))
		}
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrameSize+1)); err == nil {
		t.Fatal("oversized frame accepted by writer")
	}
	// A corrupt header claiming a huge frame must be rejected by the reader.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted by reader")
	}
	// A frame cut short mid-payload must fail.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 1, 2, 3})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestV2RequestRoundTrip round-trips the scan and secondary-delete ops (the
// ones protocol v2 introduced) with their scan bounds and limit.
func TestV2RequestRoundTrip(t *testing.T) {
	p := plan.New().
		Scan("acct", []byte("a"), []byte("m"), 17).
		DeleteSecondary("acct", "by_name", []byte("alice")).
		MustBuild()
	got, err := DecodeFrameV3(EncodePlanRequest(99, p))
	if err != nil {
		t.Fatal(err)
	}
	s := got.Plan.Phases[0][0]
	if s.Kind != plan.Scan || !bytes.Equal(s.Key, []byte("a")) || !bytes.Equal(s.KeyEnd, []byte("m")) || s.Limit != 17 {
		t.Fatalf("scan op mismatch: %+v", s)
	}
	if d := got.Plan.Phases[0][1]; d.Kind != plan.DeleteSecondary || d.Index != "by_name" {
		t.Fatalf("delsec op mismatch: %+v", d)
	}
}

// TestV2ResponseRoundTrip round-trips scan entries and the retry hint, and
// rejects every truncation.
func TestV2ResponseRoundTrip(t *testing.T) {
	resp := &Response{
		ID: 5, Committed: true, Retry: RetryTransient,
		Results: []StatementResult{{
			Found: true,
			Entries: []ScanEntry{
				{Key: []byte("k1"), Value: []byte("v1")},
				{Key: []byte("k2"), Value: nil},
			},
		}},
	}
	full := AppendResponse(nil, resp)
	got, err := DecodeResponse(full)
	if err != nil {
		t.Fatal(err)
	}
	if got.Retry != RetryTransient {
		t.Fatalf("retry hint %d, want %d", got.Retry, RetryTransient)
	}
	if len(got.Results[0].Entries) != 2 ||
		!bytes.Equal(got.Results[0].Entries[0].Key, []byte("k1")) ||
		!bytes.Equal(got.Results[0].Entries[0].Value, []byte("v1")) {
		t.Fatalf("entries mismatch: %+v", got.Results[0].Entries)
	}
	// Truncating the payload anywhere must fail cleanly.
	for i := 0; i < len(full); i++ {
		if _, err := DecodeResponse(full[:i]); err == nil {
			t.Fatalf("truncated response of %d bytes accepted", i)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := &Hello{MaxVersion: Version, Token: []byte("sekrit")}
	payload := EncodeHello(h)
	if !IsHello(payload) {
		t.Fatal("hello payload not recognized")
	}
	if IsHelloAck(payload) {
		t.Fatal("hello payload mistaken for an ack")
	}
	got, err := DecodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxVersion != Version || string(got.Token) != "sekrit" {
		t.Fatalf("hello mismatch: %+v", got)
	}
	// A plain request payload must never look like a hello.
	req := EncodePingRequest(1, nil)
	if IsHello(req) {
		t.Fatal("request payload recognized as hello")
	}
	// Truncated hellos fail cleanly.
	for i := 8; i < len(payload); i++ {
		if _, err := DecodeHello(payload[:i]); err == nil {
			t.Fatalf("truncated hello of %d bytes accepted", i)
		}
	}
	if _, err := DecodeHello([]byte("short")); err == nil {
		t.Fatal("non-hello accepted")
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	for _, a := range []*HelloAck{
		{Version: Version, Authenticated: true},
		{Version: Version, Authenticated: false},
		{Version: Version, Err: "authentication failed"},
	} {
		payload := EncodeHelloAck(a)
		if !IsHelloAck(payload) || IsHello(payload) {
			t.Fatal("ack payload misclassified")
		}
		got, err := DecodeHelloAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("ack mismatch: %+v != %+v", got, a)
		}
	}
}

func TestRequestIDPeek(t *testing.T) {
	payload := EncodePingRequest(0xDEADBEEF, []byte("ping"))
	// Corrupt everything after the ID prefix: the peek must still work.
	for i := 8; i < len(payload); i++ {
		payload[i] ^= 0xA5
	}
	id, ok := RequestID(payload)
	if !ok || id != 0xDEADBEEF {
		t.Fatalf("peeked id %#x ok=%v", id, ok)
	}
	if _, ok := RequestID([]byte{1, 2, 3}); ok {
		t.Fatal("short payload yielded an id")
	}
}

func TestManyStatementsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := plan.New()
	for i := 0; i < 500; i++ {
		key := make([]byte, rng.Intn(40))
		val := make([]byte, rng.Intn(200))
		rng.Read(key)
		rng.Read(val)
		b.Upsert("bulk", key, val).Then()
	}
	got, err := DecodeFrameV3(EncodePlanRequest(1, b.MustBuild()))
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Plan.NumOps(); n != 500 {
		t.Fatalf("got %d ops, want 500", n)
	}
}

// TestDecoderInternsOnlyShortNames checks that the Decoder, which lives as
// long as its connection, keeps no name longer than maxInternedLen: a plan
// naming an oversized table decodes (the name copied, not aliasing the
// reused payload) and adds that name to no table, while a short name is
// interned.
func TestDecoderInternsOnlyShortNames(t *testing.T) {
	var d Decoder
	var f Frame
	long := strings.Repeat("x", 1<<20)
	buf := EncodePlanRequest(1, &plan.Plan{Phases: [][]plan.Op{{{Kind: plan.Get, Table: long, Key: []byte("k")}}}})
	if err := d.Decode(&f, buf); err != nil {
		t.Fatal(err)
	}
	clear(buf) // the caller reuses its payload buffer
	if got := f.Plan.Phases[0][0].Table; got != long {
		t.Fatalf("decoded table name is %d bytes, not the %d sent", len(got), len(long))
	}
	before := len(d.names)
	for name := range d.names {
		if len(name) > maxInternedLen {
			t.Fatalf("a %d-byte name was interned", len(name))
		}
	}

	buf = EncodePlanRequest(2, &plan.Plan{Phases: [][]plan.Op{{{Kind: plan.Get, Table: "subscriber", Key: []byte("k")}}}})
	if err := d.Decode(&f, buf); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.names["subscriber"]; !ok || len(d.names) != before+1 {
		t.Fatalf("short name not interned: %v", d.names)
	}
}
