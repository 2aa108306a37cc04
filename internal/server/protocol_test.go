package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plp/client"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/wire"
)

// TestHandshakeNegotiation checks a default client completes the handshake
// on an open server and may issue control commands.
func TestHandshakeNegotiation(t *testing.T) {
	_, srv, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	if !c.Authenticated() {
		t.Fatal("open server should authenticate every session")
	}
	if srv.Stats().Handshakes == 0 {
		t.Fatal("server did not count the handshake")
	}
}

// TestHandshakeNegotiatesDownFromFutureVersion checks a client offering a
// version the server does not speak yet is served at the server's version.
func TestHandshakeNegotiatesDownFromFutureVersion(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.EncodeHello(&wire.Hello{MaxVersion: 7})); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := wire.DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version != wire.Version || ack.Err != "" {
		t.Fatalf("ack %+v, want version %d", ack, wire.Version)
	}
}

// TestHandshakeRequired checks the server speaks one protocol: a
// connection whose first frame is a request rather than a HELLO, and one
// whose HELLO offers an older version, are both refused with an erroring
// HELLO-ACK and closed, and neither counts as a session.  A v3 client, which
// would send flat statement frames this server no longer reads, is refused
// at the handshake, as is a v4 follower, which would read WAL frames as
// the record blobs it shipped.
func TestHandshakeRequired(t *testing.T) {
	_, srv, addr := startServer(t, engine.PLPLeaf)
	for _, tc := range []struct {
		name  string
		first []byte
		want  string
	}{
		{"no hello", wire.EncodePingRequest(1, nil), "handshake required"},
		{"hello offering v2", wire.EncodeHello(&wire.Hello{MaxVersion: 2}), "offers protocol v2"},
		{"hello offering v3", wire.EncodeHello(&wire.Hello{MaxVersion: 3}), "offers protocol v3, server requires v5"},
		{"hello offering v4", wire.EncodeHello(&wire.Hello{MaxVersion: 4}), "offers protocol v4, server requires v5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := wire.WriteFrame(conn, tc.first); err != nil {
				t.Fatal(err)
			}
			payload, err := wire.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			ack, err := wire.DecodeHelloAck(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(ack.Err, tc.want) {
				t.Fatalf("ack %+v, want a refusal mentioning %q", ack, tc.want)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := wire.ReadFrame(conn); !errors.Is(err, io.EOF) {
				t.Fatalf("refused connection stayed open: %v", err)
			}
		})
	}
	if n := srv.Stats().Handshakes; n != 0 {
		t.Fatalf("%d refused connections counted as sessions", n)
	}
}

// TestAuthToken covers the three token outcomes: matching token
// authenticated, wrong token refused, no token unauthenticated (data ops
// only).
func TestAuthToken(t *testing.T) {
	_, srv, addr := startServer(t, engine.PLPLeaf)
	srv.SetAuthToken("s3cret")
	srv.SetControlHandler(stubControl{})

	// Wrong token: the session is refused outright.
	_, err := client.DialContext(context.Background(), addr, &client.DialOptions{Token: "wrong"})
	if !errors.Is(err, client.ErrAuth) {
		t.Fatalf("wrong token: %v, want ErrAuth", err)
	}
	if srv.Stats().AuthFailures == 0 {
		t.Fatal("server did not count the auth failure")
	}

	// No token: data transactions work, control is refused.
	anon, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = anon.Close() })
	if anon.Authenticated() {
		t.Fatal("tokenless session reported authenticated")
	}
	if err := anon.Upsert("accounts", client.Uint64Key(10), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := anon.Control("status", ""); err == nil || !strings.Contains(err.Error(), "authenticated") {
		t.Fatalf("unauthenticated control: %v, want refusal", err)
	}

	// The right token authenticates and control works.
	authed, err := client.DialContext(context.Background(), addr, &client.DialOptions{Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = authed.Close() })
	if !authed.Authenticated() {
		t.Fatal("matching token did not authenticate")
	}
	out, err := authed.Control("status", "")
	if err != nil || out != "stub-ok" {
		t.Fatalf("authed control: %q, %v", out, err)
	}
}

// stubControl is a trivial control handler for auth tests.
type stubControl struct{}

func (stubControl) Control(cmd, table string) (string, error) { return "stub-ok", nil }

// blockingControl parks "block" commands on a gate so tests can hold one
// request in flight while others complete.
type blockingControl struct {
	entered chan struct{}
	gate    chan struct{}
}

func (b *blockingControl) Control(cmd, table string) (string, error) {
	if cmd == "block" {
		b.entered <- struct{}{}
		<-b.gate
		return "unblocked", nil
	}
	return "", fmt.Errorf("unknown command %q", cmd)
}

// TestPipelinedOutOfOrderCompletion holds one request of a connection
// blocked inside the server while a later request of the same connection
// completes — the out-of-order property a serial loop cannot provide.
func TestPipelinedOutOfOrderCompletion(t *testing.T) {
	_, srv, addr := startServer(t, engine.PLPLeaf)
	bc := &blockingControl{entered: make(chan struct{}), gate: make(chan struct{})}
	srv.SetControlHandler(bc)
	c := dial(t, addr)

	type ctl struct {
		out string
		err error
	}
	first := make(chan ctl, 1)
	go func() {
		out, err := c.Control("block", "")
		first <- ctl{out, err}
	}()
	select {
	case <-bc.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked control never reached the handler")
	}

	// A later request on the same connection completes while the first is
	// still parked inside the server.
	if err := c.Upsert("accounts", client.Uint64Key(500), []byte("overtakes")); err != nil {
		t.Fatal(err)
	}
	val, err := c.Get("accounts", client.Uint64Key(500))
	if err != nil || string(val) != "overtakes" {
		t.Fatalf("overtaking get: %q, %v", val, err)
	}
	select {
	case r := <-first:
		t.Fatalf("blocked request completed early: %+v", r)
	default:
	}

	close(bc.gate)
	r := <-first
	if r.err != nil || r.out != "unblocked" {
		t.Fatalf("unblocked control: %q, %v", r.out, r.err)
	}
}

// TestContextCancellationMidFlight cancels a request while the server is
// still executing it: the call returns the context error, the eventual
// response is discarded, and the connection stays usable.
func TestContextCancellationMidFlight(t *testing.T) {
	_, srv, addr := startServer(t, engine.PLPLeaf)
	bc := &blockingControl{entered: make(chan struct{}), gate: make(chan struct{})}
	srv.SetControlHandler(bc)
	c := dial(t, addr)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-bc.entered
		cancel()
	}()
	_, err := c.ControlContext(ctx, "block", "")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled control: %v, want context.Canceled", err)
	}

	close(bc.gate) // the server finishes; the client discards the response
	if err := c.Ping([]byte("still alive")); err != nil {
		t.Fatalf("connection unusable after cancellation: %v", err)
	}
	if err := c.Upsert("accounts", client.Uint64Key(600), []byte("v")); err != nil {
		t.Fatalf("write after cancellation: %v", err)
	}
	st := srv.Stats()
	if st.Requests == 0 {
		t.Fatal("no requests counted")
	}
}

// TestScanOverWire loads a keyspace and drives scan round trips through
// every scan shape: bounded, limited, open-ended and empty.
func TestScanOverWire(t *testing.T) {
	for _, design := range []engine.Design{engine.Conventional, engine.PLPLeaf} {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			_, _, addr := startServer(t, design)
			c := dial(t, addr)
			for k := uint64(1); k <= 200; k++ {
				if err := c.Upsert("accounts", client.Uint64Key(k), []byte(fmt.Sprintf("v%d", k))); err != nil {
					t.Fatal(err)
				}
			}

			// Bounded scan spanning partition boundaries (they sit at 2500,
			// 5000, 7500 — all keys are in partition 0 here, so also scan
			// wide to cross them below).
			entries, err := c.Scan("accounts", client.Uint64Key(50), client.Uint64Key(150), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 100 {
				t.Fatalf("bounded scan returned %d entries, want 100", len(entries))
			}
			for i, e := range entries {
				wantKey := client.Uint64Key(uint64(50 + i))
				if !bytes.Equal(e.Key, wantKey) {
					t.Fatalf("entry %d key %x, want %x (results not in key order)", i, e.Key, wantKey)
				}
				if string(e.Value) != fmt.Sprintf("v%d", 50+i) {
					t.Fatalf("entry %d value %q", i, e.Value)
				}
			}

			// Limit returns the smallest keys of the range.
			entries, err = c.Scan("accounts", client.Uint64Key(50), client.Uint64Key(150), 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 10 || !bytes.Equal(entries[9].Key, client.Uint64Key(59)) {
				t.Fatalf("limited scan: %d entries, last %x", len(entries), entries[len(entries)-1].Key)
			}

			// Open upper bound scans to the end of the table.
			entries, err = c.Scan("accounts", client.Uint64Key(190), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 11 {
				t.Fatalf("open scan returned %d entries, want 11", len(entries))
			}

			// An empty range is not an error.
			entries, err = c.Scan("accounts", client.Uint64Key(5_000_000), nil, 0)
			if err != nil || len(entries) != 0 {
				t.Fatalf("empty scan: %d entries, %v", len(entries), err)
			}
		})
	}
}

// TestScanCrossesPartitions spreads keys over all four partitions and
// checks one scan stitches their results back together in key order.
func TestScanCrossesPartitions(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	// Partition boundaries are 2500/5000/7500: one key in each partition.
	want := []uint64{100, 3000, 6000, 9000}
	for _, k := range want {
		if err := c.Upsert("accounts", client.Uint64Key(k), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := c.Scan("accounts", nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("scan returned %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if !bytes.Equal(e.Key, client.Uint64Key(want[i])) {
			t.Fatalf("entry %d key %x, want key %d", i, e.Key, want[i])
		}
	}
	// A limit smaller than the partition count must still return the
	// globally smallest keys, not whichever partitions finished first.
	limited, err := c.Scan("accounts", nil, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 2 || !bytes.Equal(limited[0].Key, client.Uint64Key(100)) ||
		!bytes.Equal(limited[1].Key, client.Uint64Key(3000)) {
		t.Fatalf("limited cross-partition scan returned wrong keys: %+v", limited)
	}
}

// TestScanMustBeAlone checks a scan bundled with other statements aborts.
func TestScanMustBeAlone(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	txn := client.NewTxn().
		Scan("accounts", nil, nil, 10).
		Upsert("accounts", client.Uint64Key(1), []byte("v"))
	if _, err := c.Do(txn); !errors.Is(err, client.ErrAborted) {
		t.Fatalf("scan inside a transaction: %v, want ErrAborted", err)
	}
}

// TestDeleteSecondaryOverWire closes the wire's secondary-index symmetry
// gap: entries inserted over the wire can be removed over the wire.
func TestDeleteSecondaryOverWire(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	key := client.Uint64Key(77)
	if _, err := c.Do(client.NewTxn().
		Insert("accounts", key, []byte("rec")).
		InsertSecondary("accounts", "by_name", []byte("alice"), key)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBySecondary("accounts", "by_name", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSecondary("accounts", "by_name", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBySecondary("accounts", "by_name", []byte("alice")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("after delete: %v, want ErrNotFound", err)
	}
	// Deleting a missing entry is idempotent.
	if err := c.DeleteSecondary("accounts", "by_name", []byte("alice")); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

// TestDecodeErrorEchoesRequestID checks a corrupt request still gets its ID
// echoed back, so ID-matching clients do not desynchronize.
func TestDecodeErrorEchoesRequestID(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	conn := dialRaw(t, addr)
	// A plan frame with a valid ID prefix and a hostile phase count.
	payload := make([]byte, 16)
	binary.LittleEndian.PutUint64(payload[:8], 7777)
	payload[8] = byte(wire.FramePlan)
	binary.LittleEndian.PutUint32(payload[9:13], 0xFFFFFFFF)
	if err := wire.WriteFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	respPayload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(respPayload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7777 {
		t.Fatalf("decode-error response ID %d, want 7777", resp.ID)
	}
	if resp.Committed || resp.Err == "" {
		t.Fatalf("expected a decode error response, got %+v", resp)
	}
}

// TestPipelinedManyInFlight floods one connection with concurrent
// transactions from many goroutines and verifies every response matches its
// request — the multiplexing correctness check.
func TestPipelinedManyInFlight(t *testing.T) {
	e, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	const n = 400
	ctx := context.Background()
	futures := make([]*client.Future, n)
	for i := 0; i < n; i++ {
		futures[i] = c.DoAsync(ctx, client.NewTxn().
			Upsert("accounts", client.Uint64Key(uint64(i+1)), []byte(fmt.Sprintf("w%d", i+1))))
	}
	for i, f := range futures {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	// Every write landed, none was lost or cross-matched.
	for i := 0; i < n; i++ {
		val, err := c.Get("accounts", client.Uint64Key(uint64(i+1)))
		if err != nil || string(val) != fmt.Sprintf("w%d", i+1) {
			t.Fatalf("key %d: %q, %v", i+1, val, err)
		}
	}
	l := e.NewLoader()
	count := 0
	if err := l.ReadRange("accounts", nil, nil, func(_, _ []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("engine holds %d records, want %d", count, n)
	}
}

// TestEngineScanRangeLimit exercises the engine-level bounded scan
// directly: the limit is enforced (modulo concurrent overshoot the server
// truncates) and clipping skips partitions outside the range.
func TestEngineScanRangeLimit(t *testing.T) {
	_, srv, _ := startServer(t, engine.PLPLeaf)
	e := srv.e
	l := e.NewLoader()
	for k := uint64(1); k <= 9000; k += 100 {
		if err := l.Insert("accounts", keyenc.Uint64Key(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var visited atomic.Int64
	st, err := e.ScanRange("accounts", keyenc.Uint64Key(2000), keyenc.Uint64Key(2600), 0, func(_ int, _, _ []byte) {
		visited.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Keys 2001..2501 step 100 → 6 records, spanning the 2500 boundary.
	if st.Records != 6 || visited.Load() != 6 {
		t.Fatalf("clipped scan visited %d records (stats %d), want 6", visited.Load(), st.Records)
	}
	if st.Partitions != 2 {
		t.Fatalf("clipped scan used %d partitions, want 2", st.Partitions)
	}
	st, err = e.ScanRange("accounts", nil, nil, 7, func(_ int, _, _ []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records < 7 {
		t.Fatalf("limited scan visited %d records, want >= 7", st.Records)
	}
}
