package wire

import (
	"bytes"
	"testing"

	"plp/plan"
)

func TestShardMapFrameRoundTrip(t *testing.T) {
	f, err := DecodeFrameV3(EncodeShardMapRequest(77))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.ID != 77 || f.Kind != FrameShardMap {
		t.Fatalf("got %+v", f)
	}
}

func TestPrepareFrameRoundTrip(t *testing.T) {
	p := plan.New().
		Upsert("kv", []byte{1, 2}, []byte("v")).
		Delete("kv", []byte{9}).
		MustBuild()
	payload := EncodePrepareRequest(5, "s0-42", 3, p)
	f, err := DecodeFrameV3(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Kind != FramePrepare || f.ID != 5 || f.GID != "s0-42" || f.MapVersion != 3 {
		t.Fatalf("header: %+v", f)
	}
	if f.Plan == nil || f.Plan.NumOps() != 2 {
		t.Fatalf("branch plan: %+v", f.Plan)
	}
	s := f.Plan.Phases[0][0]
	if s.Kind != plan.Upsert || s.Table != "kv" || !bytes.Equal(s.Key, []byte{1, 2}) || !bytes.Equal(s.Value, []byte("v")) {
		t.Errorf("op 0: %+v", s)
	}
	if f.Plan.Phases[0][1].Kind != plan.Delete {
		t.Errorf("op 1: %+v", f.Plan.Phases[0][1])
	}
}

func TestPrepareFrameRejectsEmptyGID(t *testing.T) {
	if _, err := DecodeFrameV3(EncodePrepareRequest(1, "", 1, &plan.Plan{})); err == nil {
		t.Fatal("decoded a prepare without a gid")
	}
}

func TestDecideFrameRoundTrip(t *testing.T) {
	for _, mode := range []DecideMode{DecideAbort, DecideCommit, DecideQuery} {
		f, err := DecodeFrameV3(EncodeDecideRequest(9, "s1-7", mode))
		if err != nil {
			t.Fatalf("decode mode %d: %v", mode, err)
		}
		if f.Kind != FrameDecide || f.GID != "s1-7" || f.DecideMode != mode {
			t.Fatalf("mode %d: %+v", mode, f)
		}
	}
	if _, err := DecodeFrameV3(EncodeDecideRequest(9, "s1-7", DecideMode(9))); err == nil {
		t.Fatal("decoded an unknown decide mode")
	}
}

func TestIsWrongShard(t *testing.T) {
	if !IsWrongShard(WrongShardPrefix + ": key moved") {
		t.Error("prefix not recognized")
	}
	if IsWrongShard("aborted: whatever") {
		t.Error("false positive")
	}
}

func TestShardFramesTruncated(t *testing.T) {
	payload := EncodePrepareRequest(5, "g", 3, plan.New().Get("kv", []byte{1}).MustBuild())
	for i := 10; i < len(payload); i += 7 {
		if _, err := DecodeFrameV3(payload[:i]); err == nil {
			t.Fatalf("decoded truncated prepare at %d bytes", i)
		}
	}
}
