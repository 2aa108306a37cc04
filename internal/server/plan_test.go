package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plp/client"
	"plp/internal/engine"
	"plp/plan"
	"plp/wire"
)

// TestPlanOverWire drives the full declarative surface over the network:
// seeding, a dependent two-phase probe-update, RMW, and a mixed
// scan-plus-get phase — each a single transaction in a single frame.
func TestPlanOverWire(t *testing.T) {
	for _, design := range []engine.Design{engine.Conventional, engine.PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			_, _, addr := startServer(t, design)
			c := dial(t, addr)

			seed := client.NewPlan().
				Insert("accounts", client.Uint64Key(42), []byte("balance")).
				InsertSecondary("accounts", "by_name", []byte("alice"), client.Uint64Key(42)).
				Add("accounts", client.Uint64Key(7), 10).
				MustBuild()
			if _, err := c.DoPlan(seed); err != nil {
				t.Fatalf("seed plan: %v", err)
			}

			b := client.NewPlan()
			probe := b.LookupSecondary("accounts", "by_name", []byte("alice")).Ref()
			b.Scan("accounts", client.Uint64Key(1), nil, 10)
			b.Then().Update("accounts", nil, []byte("routed")).KeyFrom(probe)
			b.AddExisting("accounts", client.Uint64Key(7), 5)
			res, err := c.DoPlan(b.MustBuild())
			if err != nil {
				t.Fatalf("probe-update plan: %v", err)
			}
			if !res[0].Found || !bytes.Equal(res[0].Value, client.Uint64Key(42)) {
				t.Fatalf("probe result %+v", res[0])
			}
			if len(res[1].Entries) != 2 { // keys 7 and 42
				t.Fatalf("scan returned %d entries, want 2", len(res[1].Entries))
			}
			if !res[2].Found {
				t.Fatalf("bound update skipped: %+v", res[2])
			}
			if v, _ := plan.DecodeInt64(res[3].Value); v != 15 {
				t.Fatalf("rmw result %d, want 15", v)
			}

			got, err := c.Get("accounts", client.Uint64Key(42))
			if err != nil || string(got) != "routed" {
				t.Fatalf("record %q (%v), want routed", got, err)
			}

			// An aborting plan reports the failing op and commits nothing.
			bad := client.NewPlan().
				Upsert("accounts", client.Uint64Key(100), []byte("x")).
				AddExisting("accounts", client.Uint64Key(101), 1).
				MustBuild()
			res, err = c.DoPlan(bad)
			if !errors.Is(err, client.ErrAborted) {
				t.Fatalf("err %v, want ErrAborted", err)
			}
			if res[1].Err == "" {
				t.Fatalf("failing op carries no error: %+v", res)
			}
			if _, err := c.Get("accounts", client.Uint64Key(100)); !errors.Is(err, client.ErrNotFound) {
				t.Fatalf("aborted plan leaked a write: %v", err)
			}
		})
	}
}

// countingProxy forwards bytes between a client and the server, counting
// whole frames (and their payload bytes) in each direction.
type countingProxy struct {
	addr          string
	toServer      atomic.Int64
	toClient      atomic.Int64
	toServerBytes atomic.Int64
	toClientBytes atomic.Int64
	ln            net.Listener
	serverAddr    string
}

func newCountingProxy(t *testing.T, serverAddr string) *countingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &countingProxy{addr: ln.Addr().String(), ln: ln, serverAddr: serverAddr}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", serverAddr)
			if err != nil {
				_ = conn.Close()
				return
			}
			go p.pump(conn, up, &p.toServer, &p.toServerBytes)
			go p.pump(up, conn, &p.toClient, &p.toClientBytes)
		}
	}()
	return p
}

// pump copies frames from src to dst, counting each one.
func (p *countingProxy) pump(src, dst net.Conn, counter, byteCounter *atomic.Int64) {
	defer func() { _ = src.Close(); _ = dst.Close() }()
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		payload := make([]byte, n)
		if _, err := io.ReadFull(src, payload); err != nil {
			return
		}
		counter.Add(1)
		byteCounter.Add(int64(4 + len(payload)))
		if _, err := dst.Write(hdr[:]); err != nil {
			return
		}
		if _, err := dst.Write(payload); err != nil {
			return
		}
	}
}

// TestPlanSingleRoundTrip counts frames on the wire: a dependent two-phase
// transaction (secondary probe feeding a routed update) must cost exactly
// one request frame and one response frame beyond the handshake, where the
// per-statement equivalent costs one pair per step.
func TestPlanSingleRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	proxy := newCountingProxy(t, addr)

	c := dial(t, proxy.addr)
	// Records hold their own primary key so the per-statement flow below
	// can derive the routing key of its second round trip from the probe's
	// result, as a networked client without plans must.
	seed := client.NewPlan().
		Insert("accounts", client.Uint64Key(42), client.Uint64Key(42)).
		InsertSecondary("accounts", "by_name", []byte("alice"), client.Uint64Key(42)).
		Insert("accounts", client.Uint64Key(43), client.Uint64Key(43)).
		InsertSecondary("accounts", "by_name", []byte("bob"), client.Uint64Key(43)).
		MustBuild()
	if _, err := c.DoPlan(seed); err != nil {
		t.Fatal(err)
	}

	beforeUp, beforeDown := proxy.toServer.Load(), proxy.toClient.Load()
	b := client.NewPlan()
	probe := b.LookupSecondary("accounts", "by_name", []byte("alice")).Ref()
	b.Then().Update("accounts", nil, []byte("moved")).KeyFrom(probe)
	if _, err := c.DoPlan(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if up := proxy.toServer.Load() - beforeUp; up != 1 {
		t.Errorf("dependent two-phase plan sent %d request frames, want 1", up)
	}
	if down := proxy.toClient.Load() - beforeDown; down != 1 {
		t.Errorf("dependent two-phase plan received %d response frames, want 1", down)
	}

	// The per-statement equivalent pays one round trip per dependent step.
	beforeUp = proxy.toServer.Load()
	rec, err := c.GetBySecondary("accounts", "by_name", []byte("bob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Update("accounts", rec[:8], []byte("moved2")); err != nil {
		t.Fatal(err)
	}
	if up := proxy.toServer.Load() - beforeUp; up != 2 {
		t.Errorf("per-statement equivalent sent %d request frames, want 2", up)
	}
}

// TestReadOnlyToken checks the per-session authorization scope: a session
// authenticated with the read-only token may read but is refused writes
// and control verbs, while full-token sessions are unaffected.
func TestReadOnlyToken(t *testing.T) {
	_, srv, addr := startServer(t, engine.PLPLeaf)
	srv.SetAuthToken("hunter2")
	srv.SetReadOnlyToken("lookdonttouch")

	full, err := client.DialContext(context.Background(), addr, &client.DialOptions{Token: "hunter2"})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if full.ReadOnly() || !full.Authenticated() {
		t.Fatalf("full token session: ro=%v authed=%v", full.ReadOnly(), full.Authenticated())
	}
	if err := full.Insert("accounts", client.Uint64Key(1), []byte("v")); err != nil {
		t.Fatal(err)
	}

	ro, err := client.DialContext(context.Background(), addr, &client.DialOptions{Token: "lookdonttouch"})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if !ro.ReadOnly() || ro.Authenticated() {
		t.Fatalf("ro token session: ro=%v authed=%v", ro.ReadOnly(), ro.Authenticated())
	}
	// Reads work: flat get, scan, and a read-only plan.
	if v, err := ro.Get("accounts", client.Uint64Key(1)); err != nil || string(v) != "v" {
		t.Fatalf("ro get: %q, %v", v, err)
	}
	if _, err := ro.Scan("accounts", nil, nil, 10); err != nil {
		t.Fatalf("ro scan: %v", err)
	}
	if _, err := ro.DoPlan(client.NewPlan().Get("accounts", client.Uint64Key(1)).MustBuild()); err != nil {
		t.Fatalf("ro read plan: %v", err)
	}
	// Writes are refused: flat statement, write plan, control verb.
	if err := ro.Upsert("accounts", client.Uint64Key(2), []byte("w")); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("ro upsert not refused: %v", err)
	}
	if _, err := ro.DoPlan(client.NewPlan().Add("accounts", client.Uint64Key(2), 1).MustBuild()); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("ro write plan not refused: %v", err)
	}
	if _, err := ro.Control("status", ""); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("ro control not refused: %v", err)
	}
	// A wrong token is still refused outright.
	if _, err := client.DialContext(context.Background(), addr, &client.DialOptions{Token: "wrong"}); !errors.Is(err, client.ErrAuth) {
		t.Fatalf("wrong token: %v, want ErrAuth", err)
	}
}

// TestCancelFrameSentOnContextCancellation runs the client against a fake
// server that acknowledges the handshake but never answers requests, then
// cancels the in-flight plan: the client must emit a cancel frame naming
// the abandoned request's ID.
func TestCancelFrameSentOnContextCancellation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	gotCancel := make(chan uint64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			payload, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			if wire.IsHello(payload) {
				_ = wire.WriteFrame(conn, wire.EncodeHelloAck(&wire.HelloAck{
					Version: wire.Version, Authenticated: true}))
				continue
			}
			f, err := wire.DecodeFrameV3(payload)
			if err != nil {
				continue
			}
			if f.Kind == wire.FrameCancel {
				gotCancel <- f.ID
				return
			}
			// Swallow the request: the client's context will expire.
		}
	}()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = c.DoPlanContext(ctx, client.NewPlan().Get("accounts", client.Uint64Key(1)).MustBuild())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", err)
	}
	select {
	case id := <-gotCancel:
		if id == 0 {
			t.Fatal("cancel frame carried request ID 0")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client never sent a cancel frame")
	}
}

// runCanceled runs one plan frame through the request path as a request
// whose cancel flag is already set, and returns its response as the writer
// would encode it.
func runCanceled(srv *Server, payload []byte, cs session) wire.Response {
	p := &pipeline{s: srv, cs: cs, out: newOutbox(1), inflight: make(map[uint64]*request), sess: srv.e.NewSession()}
	defer p.sess.Close()
	r := p.request()
	r.payload = append(r.payload[:0], payload...)
	r.canceled.Store(true)
	p.out.admit()
	r.admit()
	srv.start(r)
	m := p.out.next(nil)[0]
	resp := m.req.resp
	m.req.recycle()
	return resp
}

// TestCancelAbortsServerSideTransaction covers the server half
// deterministically: a request whose cancel flag is already set when the
// server starts it is aborted without executing, and a flag flipped
// mid-transaction aborts at the next statement with every prior write
// undone.
func TestCancelAbortsServerSideTransaction(t *testing.T) {
	e, srv, _ := startServer(t, engine.PLPLeaf)
	cs := session{authed: true}
	sess := e.NewSession()
	defer sess.Close()

	// Pre-set flag: refused before execution.
	payload := wire.EncodePlanRequest(5, plan.New().Upsert("accounts", client.Uint64Key(1), []byte("x")).MustBuild())
	resp := runCanceled(srv, payload, cs)
	if resp.Committed || !strings.Contains(resp.Err, "cancel") {
		t.Fatalf("queued-canceled request: %+v", resp)
	}

	// Mid-transaction cancel: first statement runs, flips the flag, the
	// second statement aborts the transaction — including the first write.
	p := plan.New().
		Insert("accounts", client.Uint64Key(10), []byte("a")).
		Then().
		Insert("accounts", client.Uint64Key(11), []byte("b")).
		MustBuild()
	calls := 0
	hook := func() bool {
		calls++
		return calls > 1
	}
	if _, err := sess.ExecutePlanCanceled(p, hook); !errors.Is(err, engine.ErrPlanCanceled) {
		t.Fatalf("err %v, want ErrPlanCanceled", err)
	}
	for _, k := range []uint64{10, 11} {
		if ok, _ := e.NewLoader().Exists("accounts", client.Uint64Key(k)); ok {
			t.Fatalf("canceled transaction leaked key %d", k)
		}
	}
}

// TestV2ScanStillAlone pins that transactions built statement by statement
// keep the scans-alone restriction, while plans mix them freely
// (TestPlanOverWire).
func TestV2ScanStillAlone(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	txn := client.NewTxn().
		Scan("accounts", nil, nil, 5).
		Get("accounts", client.Uint64Key(1))
	_, err := c.Do(txn)
	if !errors.Is(err, client.ErrAborted) || !strings.Contains(err.Error(), "alone") {
		t.Fatalf("mixed flat scan: %v, want scans-must-be-alone abort", err)
	}
}
