package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest feeds hostile statement request payloads (truncated
// frames, bad ops, corrupt length prefixes) through the decoder.  The
// decoder must never panic, and whatever it accepts must re-encode/decode
// to the same request (the codec is its own oracle).
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRequest(&Request{ID: 1, Statements: []Statement{{Op: OpPing, Value: []byte("x")}}}))
	f.Add(EncodeRequest(&Request{ID: 2, Statements: []Statement{
		{Op: OpUpsert, Table: "t", Key: []byte("k"), Value: []byte("v")},
		{Op: OpScan, Table: "t", Key: []byte("a"), KeyEnd: []byte("z"), Limit: 10},
	}}))
	// Hostile length prefix: a statement count of ~4 billion.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, byte(FrameStatements), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		back, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("re-decode of accepted request failed: %v", err)
		}
		if back.ID != req.ID || len(back.Statements) != len(req.Statements) {
			t.Fatalf("round trip changed the request: %+v != %+v", back, req)
		}
		for i := range req.Statements {
			a, b := req.Statements[i], back.Statements[i]
			if a.Op != b.Op || a.Table != b.Table || a.Index != b.Index ||
				!bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Value, b.Value) ||
				!bytes.Equal(a.KeyEnd, b.KeyEnd) || a.Limit != b.Limit {
				t.Fatalf("statement %d changed: %+v != %+v", i, b, a)
			}
		}
	})
}

// FuzzDecodeResponse does the same for response payloads.
func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendResponse(nil, &Response{ID: 1, Committed: true, Results: []StatementResult{{Found: true, Value: []byte("v")}}}))
	f.Add(AppendResponse(nil, &Response{ID: 2, Retry: RetryTransient, Results: []StatementResult{
		{Found: true, Entries: []ScanEntry{{Key: []byte("k"), Value: []byte("v")}}},
	}}))
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := DecodeResponse(payload)
		if err != nil {
			return
		}
		back, err := DecodeResponse(AppendResponse(nil, resp))
		if err != nil {
			t.Fatalf("re-decode of accepted response failed: %v", err)
		}
		if back.ID != resp.ID || back.Committed != resp.Committed || back.Err != resp.Err ||
			back.Retry != resp.Retry || len(back.Results) != len(resp.Results) {
			t.Fatalf("round trip changed the response: %+v != %+v", back, resp)
		}
		for i := range resp.Results {
			a, b := resp.Results[i], back.Results[i]
			if a.Found != b.Found || a.Err != b.Err || !bytes.Equal(a.Value, b.Value) ||
				len(a.Entries) != len(b.Entries) {
				t.Fatalf("result %d changed: %+v != %+v", i, b, a)
			}
		}
	})
}

// FuzzDecodeFrameV3 feeds hostile request frames (plans, cancels, tagged
// statement requests) through the kind dispatcher.  It must never panic,
// and any accepted plan frame must re-encode/decode identically.
func FuzzDecodeFrameV3(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeCancelRequest(42))
	f.Add(EncodeRequest(&Request{ID: 1, Statements: []Statement{
		{Op: OpUpsert, Table: "t", Key: []byte("k"), Value: []byte("v")},
	}}))
	{
		b := []byte{}
		b = append(b, 9, 0, 0, 0, 0, 0, 0, 0, 1) // ID, FramePlan
		b = append(b, 0xFF, 0xFF, 0xFF, 0xFF)    // hostile phase count
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := DecodeFrameV3(payload)
		if err != nil {
			return
		}
		switch fr.Kind {
		case FramePlan:
			back, err := DecodeFrameV3(EncodePlanRequest(fr.ID, fr.Plan))
			if err != nil {
				t.Fatalf("re-decode of accepted plan failed: %v", err)
			}
			if back.ID != fr.ID || len(back.Plan.Phases) != len(fr.Plan.Phases) {
				t.Fatalf("plan round trip changed the frame: %+v != %+v", back, fr)
			}
			for pi := range fr.Plan.Phases {
				if len(back.Plan.Phases[pi]) != len(fr.Plan.Phases[pi]) {
					t.Fatalf("phase %d changed size", pi)
				}
				for oi := range fr.Plan.Phases[pi] {
					a, b := fr.Plan.Phases[pi][oi], back.Plan.Phases[pi][oi]
					if a.Kind != b.Kind || a.Table != b.Table || a.Index != b.Index ||
						!bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Value, b.Value) ||
						!bytes.Equal(a.KeyEnd, b.KeyEnd) || a.Limit != b.Limit ||
						a.Cond != b.Cond || a.Mut != b.Mut ||
						!bytes.Equal(a.CondValue, b.CondValue) || !bytes.Equal(a.MutArg, b.MutArg) ||
						a.KeyFrom != b.KeyFrom || a.ValueFrom != b.ValueFrom {
						t.Fatalf("phase %d op %d changed: %+v != %+v", pi, oi, b, a)
					}
				}
			}
		case FrameCancel:
			back, err := DecodeFrameV3(EncodeCancelRequest(fr.ID))
			if err != nil || back.ID != fr.ID || back.Kind != FrameCancel {
				t.Fatalf("cancel round trip changed: %+v (%v)", back, err)
			}
		}
	})
}

// FuzzDecodeHello covers the handshake frames.
func FuzzDecodeHello(f *testing.F) {
	f.Add(EncodeHello(&Hello{MaxVersion: Version, Token: []byte("tok")}))
	f.Add(EncodeHelloAck(&HelloAck{Version: Version, Authenticated: true}))
	f.Add([]byte("PLP\xf7HELO"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if h, err := DecodeHello(payload); err == nil {
			back, err := DecodeHello(EncodeHello(h))
			if err != nil || back.MaxVersion != h.MaxVersion || !bytes.Equal(back.Token, h.Token) {
				t.Fatalf("hello round trip changed: %+v -> %+v (%v)", h, back, err)
			}
		}
		if a, err := DecodeHelloAck(payload); err == nil {
			back, err := DecodeHelloAck(EncodeHelloAck(a))
			if err != nil || *back != *a {
				t.Fatalf("ack round trip changed: %+v -> %+v (%v)", a, back, err)
			}
		}
	})
}
