package server

// Regression tests for the cancel-registration race: a cancel frame arriving
// immediately behind its request must find the request's flag already
// registered (the reader registers before dispatching), and a completed
// request must delete exactly its own flag — a client reusing a request ID
// must not have the older request's completion reap the newer one's flag.

import (
	"bytes"
	"fmt"
	"testing"

	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/plan"
	"plp/wire"
)

// TestCancelImmediatelyAfterSend hammers the tightest cancellation race the
// wire allows: each request frame and its cancel frame leave in ONE TCP
// write, so the reader sees the cancel as early as physically possible.
// Every request must still get exactly one response, and the response's
// verdict must match the engine's state — a cancelled-and-aborted upsert
// must have no effect, a committed one must be readable.
func TestCancelImmediatelyAfterSend(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	conn := dialRaw(t, addr)

	const n = 300
	committed := make(map[uint64]bool, n)
	for i := uint64(1); i <= n; i++ {
		var buf bytes.Buffer
		p := plan.New().Upsert("accounts", keyenc.Uint64Key(i), []byte(fmt.Sprintf("c-%d", i))).MustBuild()
		if err := wire.WriteFrame(&buf, wire.EncodePlanRequest(i, p)); err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(&buf, wire.EncodeCancelRequest(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.ID != i {
			t.Fatalf("response %d for request %d: the cancel desynchronized the stream", resp.ID, i)
		}
		committed[i] = resp.Committed
	}

	// The connection survived the hammering and every verdict matches the
	// engine's state.
	c := dial(t, addr)
	seen := 0
	for i := uint64(1); i <= n; i++ {
		_, err := c.Get("accounts", keyenc.Uint64Key(i))
		if committed[i] && err != nil {
			t.Fatalf("request %d acknowledged committed but its key is missing: %v", i, err)
		}
		if !committed[i] && err == nil {
			t.Fatalf("request %d was cancelled/aborted but its upsert is visible", i)
		}
		if committed[i] {
			seen++
		}
	}
	t.Logf("cancel hammer: %d/%d requests outran their cancel", seen, n)
}

// TestCancelWithReusedRequestID reuses one request ID for a pipelined pair
// of requests with a cancel wedged between them.  With a plain delete at
// completion, the first request's completion could reap the flag the reader
// registered for the second, dropping the cancel on the floor silently; the
// compare-and-delete keeps each completion scoped to its own flag.  The
// observable contract: two responses, stream stays ordered and usable.
func TestCancelWithReusedRequestID(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	conn := dialRaw(t, addr)

	mkReq := func(key uint64) []byte {
		return wire.EncodePlanRequest(42, plan.New().Upsert("accounts", keyenc.Uint64Key(key), []byte("dup")).MustBuild())
	}
	for round := 0; round < 100; round++ {
		var buf bytes.Buffer
		for _, payload := range [][]byte{mkReq(1000), wire.EncodeCancelRequest(42), mkReq(2000)} {
			if err := wire.WriteFrame(&buf, payload); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			payload, err := wire.ReadFrame(conn)
			if err != nil {
				t.Fatalf("round %d response %d: %v", round, i, err)
			}
			resp, err := wire.DecodeResponse(payload)
			if err != nil {
				t.Fatal(err)
			}
			if resp.ID != 42 {
				t.Fatalf("round %d: response for unknown ID %d", round, resp.ID)
			}
		}
	}

	// Still alive and well-ordered.
	c := dial(t, addr)
	if err := c.Ping([]byte("post-reuse")); err != nil {
		t.Fatal(err)
	}
}
