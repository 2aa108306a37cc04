package wire

import (
	"bytes"
	"errors"
	"testing"

	"plp/plan"
)

// FuzzDecodeResponse feeds hostile response payloads (truncated frames,
// corrupt length prefixes) through the decoder.  The decoder must never
// panic, and whatever it accepts must re-encode/decode to the same response
// (the codec is its own oracle).
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

// FuzzDecodeFrameV3 feeds hostile request frames (plans, plan-bodied
// prepares, pings, controls, cancels; truncated bodies, bad op and kind
// bytes, huge counts) through the kind dispatcher.  It must never panic,
// and any accepted plan, prepare, ping or control frame must
// re-encode/decode identically.
func FuzzDecodeFrameV3(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeCancelRequest(42))
	onePlan := plan.New().Upsert("t", []byte("k"), []byte("v")).Then().
		Scan("t", []byte("a"), []byte("z"), 10).MustBuild()
	f.Add(EncodePlanRequest(1, onePlan))
	{
		b := []byte{}
		b = append(b, 9, 0, 0, 0, 0, 0, 0, 0, 1) // ID, FramePlan
		b = append(b, 0xFF, 0xFF, 0xFF, 0xFF)    // hostile phase count
		f.Add(b)
	}
	f.Add(EncodePingRequest(3, []byte("x")))
	f.Add(EncodeControlRequest(4, "status", "t"))
	f.Add(EncodePrepareRequest(5, "s0-1-1", 2, onePlan))
	// Hostile seeds: a kind-0 frame (the statement encoding protocol v4
	// retired) with a huge count, a truncated plan body, an undefined op
	// byte, and a prepare whose plan claims ~4 billion phases.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	full := EncodePlanRequest(6, onePlan)
	f.Add(full[:len(full)/2])
	badOp := append([]byte(nil), full...)
	badOp[8+1+4+4] = 200
	f.Add(badOp)
	prep := EncodePrepareRequest(7, "g", 1, onePlan)
	f.Add(append(prep[:8+1+4+1+8:8+1+4+1+8], 0xFF, 0xFF, 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := DecodeFrameV3(payload)
		if len(payload) > 8 && payload[8] == 0 && !errors.Is(err, ErrBadOp) {
			t.Fatalf("kind-0 frame: %v, want ErrBadOp", err)
		}
		if err != nil {
			return
		}
		switch fr.Kind {
		case FramePlan, FramePrepare:
			reenc := EncodePlanRequest(fr.ID, fr.Plan)
			if fr.Kind == FramePrepare {
				reenc = EncodePrepareRequest(fr.ID, fr.GID, fr.MapVersion, fr.Plan)
			}
			back, err := DecodeFrameV3(reenc)
			if err != nil {
				t.Fatalf("re-decode of accepted frame failed: %v", err)
			}
			if back.ID != fr.ID || back.GID != fr.GID || back.MapVersion != fr.MapVersion ||
				len(back.Plan.Phases) != len(fr.Plan.Phases) {
				t.Fatalf("round trip changed the frame: %+v != %+v", back, fr)
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
						a.KeyFrom != b.KeyFrom || a.ValueFrom != b.ValueFrom || a.EachFrom != b.EachFrom {
						t.Fatalf("phase %d op %d changed: %+v != %+v", pi, oi, b, a)
					}
				}
			}
		case FramePing:
			back, err := DecodeFrameV3(EncodePingRequest(fr.ID, fr.Ping))
			if err != nil || back.ID != fr.ID || !bytes.Equal(back.Ping, fr.Ping) {
				t.Fatalf("ping round trip changed: %+v (%v)", back, err)
			}
		case FrameControl:
			back, err := DecodeFrameV3(EncodeControlRequest(fr.ID, fr.Command, fr.Table))
			if err != nil || back.ID != fr.ID || back.Command != fr.Command || back.Table != fr.Table {
				t.Fatalf("control round trip changed: %+v (%v)", back, err)
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
