package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"plp/client"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/repartition"
	"plp/plan"
	"plp/wire"
)

// TestControlWithoutHandlerRejected checks the control verb fails cleanly
// on a server with no controller attached.
func TestControlWithoutHandlerRejected(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	if _, err := c.Control("status", ""); err == nil {
		t.Fatal("control verb succeeded without a handler")
	}
}

// TestCheckpointVerb checks the "checkpoint" control verb routes to the
// checkpoint handler and stays token-gated like every other control verb.
func TestCheckpointVerb(t *testing.T) {
	e, srv, addr := startServer(t, engine.PLPLeaf)

	c := dial(t, addr)
	if _, err := c.Control("checkpoint", ""); err == nil {
		t.Fatal("checkpoint verb succeeded without a handler")
	}
	srv.SetCheckpointHandler(func() (string, error) {
		st, err := e.Checkpoint()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("entries=%d\n", st.Entries), nil
	})
	if err := c.Upsert("accounts", keyenc.Uint64Key(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	out, err := c.Control("checkpoint", "")
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if !strings.Contains(out, "entries=") {
		t.Fatalf("unexpected checkpoint output %q", out)
	}

	// With a token set, an unauthenticated session must be refused.
	srv.SetAuthToken("secret")
	c2 := dial(t, addr)
	if _, err := c2.Control("checkpoint", ""); err == nil {
		t.Fatal("checkpoint verb succeeded without authentication")
	}
}

// TestControlVerbsEndToEnd drives the full loop: skewed traffic over the
// wire, a controller attached to the server, and the plpctl-style status /
// trigger / shares verbs — asserting that triggering actually moves a
// boundary on the running server.
func TestControlVerbsEndToEnd(t *testing.T) {
	e, srv, addr := startServer(t, engine.PLPLeaf)

	ctrl, err := repartition.Attach(e, repartition.Config{
		Tables:          []string{"accounts"},
		MinObservations: 500,
		TriggerRatio:    1.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Detach()
	srv.SetControlHandler(ctrl)

	c := dial(t, addr)
	// Load rows, then hammer the first partition's range so it goes hot.
	for k := uint64(1); k <= 10_000; k += 10 {
		if err := c.Upsert("accounts", keyenc.Uint64Key(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		k := uint64(i%250)*10 + 1 // keys 1..2491: all in partition 0
		if _, err := c.Get("accounts", keyenc.Uint64Key(k)); err != nil {
			t.Fatal(err)
		}
	}

	out, err := c.Control("shares", "accounts")
	if err != nil {
		t.Fatalf("shares: %v", err)
	}
	if !strings.Contains(out, "accounts") {
		t.Fatalf("shares output %q", out)
	}

	out, err = c.Control("trigger", "")
	if err != nil {
		t.Fatalf("trigger: %v", err)
	}
	if !strings.Contains(out, "boundary") {
		t.Fatalf("trigger reported no boundary move under heavy skew: %q", out)
	}

	out, err = c.Control("status", "")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if !strings.Contains(out, "moves=") || strings.Contains(out, "moves=0 ") {
		t.Fatalf("status does not report the applied move: %q", out)
	}

	// Unknown commands surface as statement errors.
	if _, err := c.Control("bogus", ""); err == nil {
		t.Fatal("unknown control command accepted")
	}
}

// TestControlInsideTransactionRejected checks a control verb cannot carry
// a transaction: a control frame with a plan body smuggled behind its
// command is refused as malformed, and the plan's write is not applied.
func TestControlInsideTransactionRejected(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)

	tx := client.NewTxn().Upsert("accounts", keyenc.Uint64Key(1), []byte("v"))
	// Smuggle a control statement into the same request via the wire layer.
	resp, err := c.Do(tx)
	if err != nil {
		t.Fatalf("plain txn failed: %v", err)
	}
	if !resp.Committed {
		t.Fatal("plain txn did not commit")
	}

	smuggled := wire.EncodePlanRequest(99, plan.New().Upsert("accounts", keyenc.Uint64Key(2), []byte("v")).MustBuild())
	raw := append(wire.EncodeControlRequest(99, "status", ""), smuggled[9:]...)
	conn := dialRaw(t, addr)
	if err := wire.WriteFrame(conn, raw); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ID != 99 || resp2.Committed || resp2.Err == "" {
		t.Fatalf("mixed control+data request was not rejected: %+v", resp2)
	}
	if _, err := c.Get("accounts", keyenc.Uint64Key(2)); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("smuggled write: %v, want it never applied", err)
	}
}
