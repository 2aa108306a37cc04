package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		ID: 42,
		Statements: []Statement{
			{Op: OpGet, Table: "acct", Key: []byte("k1")},
			{Op: OpInsert, Table: "acct", Key: []byte("k2"), Value: []byte("v2")},
			{Op: OpGetBySecondary, Table: "acct", Index: "by_name", Key: []byte("alice")},
			{Op: OpPing, Value: []byte("hello")},
			{Op: OpControl, Table: "acct", Key: []byte("shares")},
			{Op: OpDelete, Table: "acct", Key: nil},
		},
	}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != req.ID || len(got.Statements) != len(req.Statements) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range req.Statements {
		w, g := req.Statements[i], got.Statements[i]
		if w.Op != g.Op || w.Table != g.Table || w.Index != g.Index ||
			!bytes.Equal(w.Key, g.Key) || !bytes.Equal(w.Value, g.Value) {
			t.Fatalf("statement %d mismatch: %+v != %+v", i, g, w)
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
	f := func(id uint64, table, index string, key, value []byte, opSeed uint8) bool {
		op := OpType(opSeed%uint8(OpPing)) + 1
		req := &Request{ID: id, Statements: []Statement{{Op: op, Table: table, Index: index, Key: key, Value: value}}}
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			return false
		}
		g := got.Statements[0]
		return got.ID == id && g.Op == op && g.Table == table && g.Index == index &&
			bytes.Equal(g.Key, key) && bytes.Equal(g.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("short request accepted")
	}
	if _, err := DecodeResponse([]byte{1}); err == nil {
		t.Fatal("short response accepted")
	}
	// An out-of-range op must be rejected.
	bad := EncodeRequest(&Request{ID: 1, Statements: []Statement{{Op: OpType(200), Table: "t"}}})
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("invalid op accepted")
	}
	// Truncating a valid request at any point must fail cleanly, not panic.
	full := EncodeRequest(&Request{ID: 9, Statements: []Statement{{Op: OpInsert, Table: "t", Key: []byte("k"), Value: []byte("v")}}})
	for i := 0; i < len(full); i++ {
		if _, err := DecodeRequest(full[:i]); err == nil {
			t.Fatalf("truncated request of %d bytes accepted", i)
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

func TestOpTypeStrings(t *testing.T) {
	ops := []OpType{OpGet, OpInsert, OpUpdate, OpUpsert, OpDelete, OpGetBySecondary,
		OpInsertSecondary, OpPing, OpControl, OpScan, OpDeleteSecondary}
	seen := make(map[string]bool)
	for _, op := range ops {
		s := op.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate op label %q", s)
		}
		seen[s] = true
		if !op.valid() {
			t.Fatalf("op %v reported invalid", op)
		}
	}
	if OpType(0).valid() || OpType(99).valid() {
		t.Fatal("invalid ops reported valid")
	}
	if OpType(99).String() == "" {
		t.Fatal("unknown op should still render")
	}
}

// TestV2RequestRoundTrip round-trips the scan and secondary-delete ops (the
// ones protocol v2 introduced) with their scan bounds and limit.
func TestV2RequestRoundTrip(t *testing.T) {
	req := &Request{
		ID: 99,
		Statements: []Statement{
			{Op: OpScan, Table: "acct", Key: []byte("a"), KeyEnd: []byte("m"), Limit: 17},
			{Op: OpDeleteSecondary, Table: "acct", Index: "by_name", Key: []byte("alice")},
		},
	}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	s := got.Statements[0]
	if s.Op != OpScan || !bytes.Equal(s.Key, []byte("a")) || !bytes.Equal(s.KeyEnd, []byte("m")) || s.Limit != 17 {
		t.Fatalf("scan statement mismatch: %+v", s)
	}
	if got.Statements[1].Op != OpDeleteSecondary || got.Statements[1].Index != "by_name" {
		t.Fatalf("delsec statement mismatch: %+v", got.Statements[1])
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
	req := EncodeRequest(&Request{ID: 1, Statements: []Statement{{Op: OpPing}}})
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
	payload := EncodeRequest(&Request{ID: 0xDEADBEEF, Statements: []Statement{{Op: OpPing}}})
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
	req := &Request{ID: 1}
	for i := 0; i < 500; i++ {
		key := make([]byte, rng.Intn(40))
		val := make([]byte, rng.Intn(200))
		rng.Read(key)
		rng.Read(val)
		req.Statements = append(req.Statements, Statement{Op: OpUpsert, Table: "bulk", Key: key, Value: val})
	}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Statements) != 500 {
		t.Fatalf("got %d statements, want 500", len(got.Statements))
	}
}
