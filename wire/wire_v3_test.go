package wire

import (
	"bytes"
	"errors"
	"testing"

	"plp/plan"
)

// samplePlan builds a representative plan exercising every field of the op
// encoding.
func samplePlan(t *testing.T) *plan.Plan {
	t.Helper()
	b := plan.New()
	probe := b.LookupSecondary("sub", "nbr", []byte("n-42")).Ref()
	b.Scan("sub", []byte("a"), []byte("z"), 17)
	b.Then().Update("sub", nil, []byte("loc")).KeyFrom(probe)
	b.AddExisting("acct", []byte("k1"), -3)
	b.CompareAndSet("cfg", []byte("k2"), []byte("old"), []byte("new"))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanRequestRoundTrip checks the plan frame codec reproduces every op
// field.
func TestPlanRequestRoundTrip(t *testing.T) {
	p := samplePlan(t)
	payload := EncodePlanRequest(99, p)
	f, err := DecodeFrameV3(payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FramePlan || f.ID != 99 {
		t.Fatalf("frame %+v, want plan id=99", f)
	}
	if len(f.Plan.Phases) != len(p.Phases) {
		t.Fatalf("%d phases, want %d", len(f.Plan.Phases), len(p.Phases))
	}
	for pi, ph := range p.Phases {
		for oi, want := range ph {
			got := f.Plan.Phases[pi][oi]
			if got.Kind != want.Kind || got.Table != want.Table || got.Index != want.Index ||
				!bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) ||
				!bytes.Equal(got.KeyEnd, want.KeyEnd) || got.Limit != want.Limit ||
				got.Cond != want.Cond || got.Mut != want.Mut ||
				!bytes.Equal(got.CondValue, want.CondValue) || !bytes.Equal(got.MutArg, want.MutArg) ||
				got.KeyFrom != want.KeyFrom || got.ValueFrom != want.ValueFrom {
				t.Fatalf("phase %d op %d: %+v != %+v", pi, oi, got, want)
			}
		}
	}
	if err := f.Plan.Validate(); err != nil {
		t.Fatalf("decoded plan fails validation: %v", err)
	}
}

// TestV3StatementFrame checks the frame kind that carried flat statement
// requests before protocol v4 is refused with ErrBadOp, not misread as
// another kind.
func TestV3StatementFrame(t *testing.T) {
	payload := appendUint64(nil, 7)
	payload = append(payload, 0)         // the retired statement kind
	payload = appendUint32(payload, 1)   // one statement
	payload = append(payload, 4)         // its op byte (upsert)
	payload = appendString(payload, "t") // table
	if _, err := DecodeFrameV3(payload); !errors.Is(err, ErrBadOp) {
		t.Fatalf("kind-0 frame: %v, want ErrBadOp", err)
	}
	if id, ok := RequestID(payload); !ok || id != 7 {
		t.Fatalf("refused frame's ID %d (ok=%v), want 7 so the refusal can echo it", id, ok)
	}
}

// TestCancelFrame checks the cancel frame encoding.
func TestCancelFrame(t *testing.T) {
	f, err := DecodeFrameV3(EncodeCancelRequest(1234))
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameCancel || f.ID != 1234 {
		t.Fatalf("frame %+v, want cancel of 1234", f)
	}
}

// TestHelloAckScopeByte checks the read-only scope survives a round trip
// and that an ack without the scope byte is rejected.
func TestHelloAckScopeByte(t *testing.T) {
	for _, ro := range []bool{false, true} {
		a, err := DecodeHelloAck(EncodeHelloAck(&HelloAck{Version: Version, Authenticated: !ro, ReadOnly: ro}))
		if err != nil {
			t.Fatal(err)
		}
		if a.ReadOnly != ro {
			t.Fatalf("ReadOnly %v, want %v", a.ReadOnly, ro)
		}
	}
	full := EncodeHelloAck(&HelloAck{Version: Version, Authenticated: true})
	if a, err := DecodeHelloAck(full[:len(full)-1]); err == nil {
		t.Fatalf("ack without a scope byte accepted: %+v", a)
	}
}

// TestDecodeFrameV3Hostile checks hostile phase/op counts and empty phases
// are rejected rather than allocated.
func TestDecodeFrameV3Hostile(t *testing.T) {
	payload := appendUint64(nil, 1)
	payload = append(payload, byte(FramePlan))
	payload = appendUint32(payload, 0xFFFFFFFF) // 4 billion phases
	if _, err := DecodeFrameV3(payload); err == nil {
		t.Fatal("hostile phase count accepted")
	}
	payload = appendUint64(nil, 1)
	payload = append(payload, byte(FramePlan))
	payload = appendUint32(payload, 1)
	payload = appendUint32(payload, 0xFFFFFFFF) // 4 billion ops
	if _, err := DecodeFrameV3(payload); err == nil {
		t.Fatal("hostile op count accepted")
	}
	payload = appendUint64(nil, 1)
	payload = append(payload, byte(FramePlan))
	payload = appendUint32(payload, 2)
	payload = appendUint32(payload, 0) // two empty phases
	payload = appendUint32(payload, 0)
	payload = append(payload, make([]byte, 100)...)
	if _, err := DecodeFrameV3(payload); err == nil {
		t.Fatal("empty phases accepted")
	}
	if _, err := DecodeFrameV3([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated frame accepted")
	}
	payload = appendUint64(nil, 1)
	payload = append(payload, 77) // unknown kind
	if _, err := DecodeFrameV3(payload); err == nil {
		t.Fatal("unknown frame kind accepted")
	}
}

// TestDecodeRefusesTrailingBytes appends two bytes to a valid frame of
// every request kind: each must be refused, not half-read, while the frame
// as encoded decodes — a REPL-SUBSCRIBE without its optional node-id tail
// included.
func TestDecodeRefusesTrailingBytes(t *testing.T) {
	p := samplePlan(t)
	filtered := &ScanRequest{Table: "sub", Lo: []byte("a"), Limit: 10, Filter: plan.Int64Cmp(0, plan.CmpEq, 7)}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"cancel", EncodeCancelRequest(1)},
		{"plan", EncodePlanRequest(2, p)},
		{"ping", EncodePingRequest(3, []byte("x"))},
		{"control", EncodeControlRequest(4, "status", "t")},
		{"shard-map", EncodeShardMapRequest(5)},
		{"prepare", EncodePrepareRequest(6, "s0-1-1", 2, p)},
		{"decide", EncodeDecideRequest(7, "s0-1-1", DecideCommit)},
		{"repl-subscribe", EncodeReplSubscribe(8, 100, 3, "n2")},
		{"repl-subscribe-without-node", EncodeReplSubscribe(9, 100, 3, "")[:8+1+8+8]},
		{"repl-records", EncodeReplRecords(10, 1, []byte("r1r2"))},
		{"repl-ack", EncodeReplAck(11, 7, 6)},
		{"repl-seed-begin", EncodeReplSeedBegin(12, 1, 9)},
		{"repl-seed-end", EncodeReplSeedEnd(13)},
		{"repl-heartbeat", EncodeReplHeartbeat(14)},
		{"scan", EncodeScanRequest(15, filtered)},
		{"scan-ack", EncodeScanAck(16, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d Decoder
			if err := d.Decode(&Frame{}, tc.frame); err != nil {
				t.Fatalf("the frame as encoded: %v", err)
			}
			long := append(append([]byte(nil), tc.frame...), 0, 0)
			if err := d.Decode(&Frame{}, long); err == nil {
				t.Fatal("a frame with two trailing bytes decoded")
			}
		})
	}
}
