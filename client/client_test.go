package client

import (
	"bytes"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"plp/internal/keyenc"
	"plp/keys"
	"plp/plan"
	"plp/wire"
)

func TestUint64KeyMatchesEngineEncoding(t *testing.T) {
	for _, v := range []uint64{0, 1, 42, 1 << 32, ^uint64(0)} {
		if !bytes.Equal(Uint64Key(v), keyenc.Uint64Key(v)) {
			t.Fatalf("client key encoding for %d diverges from the engine's", v)
		}
		if !bytes.Equal(Uint64Key(v), keys.Uint64(v)) {
			t.Fatalf("client key encoding for %d diverges from package keys", v)
		}
	}
	// Order preservation.
	if bytes.Compare(Uint64Key(5), Uint64Key(6)) >= 0 {
		t.Fatal("key encoding is not order preserving")
	}
}

// flatOps returns a transaction's plan ops in flat phase order.
func flatOps(t *Txn) []plan.Op {
	var ops []plan.Op
	for _, ph := range t.p.Phases {
		ops = append(ops, ph...)
	}
	return ops
}

func TestTxnBuilder(t *testing.T) {
	txn := NewTxn().
		Get("t", []byte("a")).
		Insert("t", []byte("b"), []byte("1")).
		Update("t", []byte("c"), []byte("2")).
		Upsert("t", []byte("d"), []byte("3")).
		Delete("t", []byte("e")).
		GetBySecondary("t", "idx", []byte("f")).
		InsertSecondary("t", "idx", []byte("g"), []byte("pk"))

	if txn.Len() != 7 {
		t.Fatalf("len %d, want 7", txn.Len())
	}
	// Independent statements share a phase; a GetBySecondary is a probe
	// phase plus a phase reading the probed key.
	if err := txn.p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(txn.p.Phases) != 4 || len(txn.p.Phases[0]) != 5 {
		t.Fatalf("phases %+v, want 5 ops, probe, bound get, secondary insert", txn.p.Phases)
	}
	wantKinds := []plan.Kind{
		plan.Get, plan.Insert, plan.Update, plan.Upsert, plan.Delete,
		plan.LookupSecondary, plan.Get, plan.InsertSecondary,
	}
	ops := flatOps(txn)
	for i, want := range wantKinds {
		if ops[i].Kind != want {
			t.Fatalf("op %d kind %v, want %v", i, ops[i].Kind, want)
		}
	}
	if ops[5].Index != "idx" || ops[7].Index != "idx" {
		t.Fatal("secondary ops lost their index name")
	}
	if ops[6].KeyFrom != 6 {
		t.Fatalf("bound get reads op %d, want the probe (ref 6)", ops[6].KeyFrom)
	}

	// A statement touching a table+key already in the open phase starts a
	// new one, so it observes the earlier statement.
	rw := NewTxn().Upsert("t", []byte("k"), []byte("v")).Get("t", []byte("j")).Get("t", []byte("k"))
	if len(rw.p.Phases) != 2 || len(rw.p.Phases[0]) != 2 {
		t.Fatalf("same-key phases %+v, want the second read of k in a phase of its own", rw.p.Phases)
	}

	// One result per statement: a probe hit yields the bound read's result,
	// a probe miss its own.
	two := NewTxn().GetBySecondary("t", "idx", []byte("hit")).GetBySecondary("t", "idx", []byte("miss"))
	got := two.collapse([]wire.StatementResult{
		{Found: true, Value: []byte("pk")}, {Found: true, Value: []byte("row")},
		{Found: false}, {Found: false},
	})
	if len(got) != 2 || string(got[0].Value) != "row" || got[1].Found {
		t.Fatalf("collapsed results %+v, want [row, miss]", got)
	}
}

func TestTxnBuilderV2Ops(t *testing.T) {
	txn := NewTxn().
		Scan("t", []byte("a"), []byte("z"), 25).
		DeleteSecondary("t", "idx", []byte("sk"))
	if txn.Len() != 2 {
		t.Fatalf("len %d, want 2", txn.Len())
	}
	ops := flatOps(txn)
	s := ops[0]
	if s.Kind != plan.Scan || !bytes.Equal(s.Key, []byte("a")) ||
		!bytes.Equal(s.KeyEnd, []byte("z")) || s.Limit != 25 {
		t.Fatalf("scan op %+v", s)
	}
	if ops[1].Kind != plan.DeleteSecondary || ops[1].Index != "idx" {
		t.Fatalf("delsec op %+v", ops[1])
	}
	// A negative limit is clamped, not wrapped into a huge uint32.
	if flatOps(NewTxn().Scan("t", nil, nil, -1))[0].Limit != 0 {
		t.Fatal("negative limit not clamped to 0")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialTimeout("127.0.0.1:1", 50_000_000); err == nil {
		t.Fatal("dialing a closed port should fail")
	}
}

// TestSubmitBlocksWhenServerStopsReading checks the pending write buffer's
// bound: against a server that completes the handshake and then reads
// nothing, a caller pipelining DoPlanAsync without waiting must block once
// the socket buffers and maxPendingWrite are full, not keep growing client
// memory; and closing the client must release it.
func TestSubmitBlocksWhenServerStopsReading(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadFrame(conn); err != nil {
			return
		}
		_ = wire.WriteFrame(conn, wire.EncodeHelloAck(&wire.HelloAck{Version: wire.Version}))
		<-stop // read nothing more
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	// 32 KiB frames: an unbounded client would queue all 2048 (64 MiB);
	// the bound plus the loopback socket buffers hold a few hundred.
	const frames = 2048
	value := make([]byte, 32<<10)
	p := &plan.Plan{Phases: [][]plan.Op{{{Kind: plan.Upsert, Table: "t", Key: []byte("k"), Value: value}}}}
	var submitted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			c.DoPlanAsync(context.Background(), p)
			submitted.Add(1)
		}
	}()
	last, still := int64(-1), 0
	for still < 6 { // unchanged for 6 polls: the submitter is blocked
		select {
		case <-done:
			t.Fatalf("all %d frames (%d MiB) were accepted with the server not reading", frames, frames*len(value)>>20)
		case <-time.After(50 * time.Millisecond):
		}
		if n := submitted.Load(); n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	t.Logf("submitter blocked after %d frames", last)
	_ = c.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not release the blocked submitter")
	}
}
