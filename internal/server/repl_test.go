package server

// In-process replication lifecycle tests: a durable primary server, a real
// repl.Follower applying into a second durable engine, and the follower
// server's read-only stance.  The kill-the-primary failover test lives in
// crash_test.go (it needs real processes); these cover the lifecycle the
// stream goes through while everything stays up: initial catch-up from a
// lagging start LSN, live streaming, reconnect-with-resubscribe after the
// primary's listener bounces, and the follower's refusal surface.

import (
	"strings"
	"testing"
	"time"

	"plp/client"
	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/repl"
)

// startReplServer builds a durable engine on dir (table "kv"), recovers it,
// and serves it.  The caller wires replication roles onto the returned
// server.
func startReplServer(t *testing.T, dir string) (*engine.Engine, *Server, string) {
	t.Helper()
	e, err := engine.Open(engine.Options{Design: engine.PLPLeaf, Partitions: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	boundaries := [][]byte{keyenc.Uint64Key(250_000), keyenc.Uint64Key(500_000), keyenc.Uint64Key(750_000)}
	if _, err := e.CreateTable(catalog.TableDef{Name: "kv", Boundaries: boundaries}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	srv := New(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() {
		_ = srv.Close()
		_ = e.Close()
	})
	return e, srv, addr
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startFollower attaches a follower loop for the engine on dir to a primary
// address.
func startFollower(t *testing.T, dir, primaryAddr string, fe *engine.Engine) *repl.Follower {
	t.Helper()
	f, err := repl.NewFollower(repl.FollowerOptions{
		Primary:       primaryAddr,
		Dir:           dir,
		Log:           fe.DurableLog(),
		Apply:         fe.ApplyReplicated,
		RetryInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Stop)
	return f
}

// caughtUp reports whether the follower's durable and applied horizons have
// reached the primary's durable horizon.
func caughtUp(pe *engine.Engine, f *repl.Follower) bool {
	target := uint64(pe.DurableLog().DurableLSN())
	st := f.Status()
	return st.DurableLSN >= target && st.Applier.AppliedLSN >= target
}

func TestFollowerCatchUpLiveStreamAndResubscribe(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pe, psrv, paddr := startReplServer(t, pdir)
	psrv.SetReplPrimary(repl.NewPrimary(pe.DurableLog(), 1))

	pc := dial(t, paddr)
	for i := uint64(1); i <= 50; i++ {
		if err := pc.Upsert("kv", client.Uint64Key(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}

	// The follower starts 50 transactions behind: initial catch-up streams
	// the backlog before any live record.
	fe, fsrv, faddr := startReplServer(t, fdir)
	fsrv.SetFollowerMode(true)
	f := startFollower(t, fdir, paddr, fe)
	waitFor(t, "initial catch-up", func() bool { return caughtUp(pe, f) })

	fc := dial(t, faddr)
	got, err := fc.Get("kv", client.Uint64Key(7))
	if err != nil || string(got) != "seed" {
		t.Fatalf("replicated read: %q, %v", got, err)
	}

	// A fresh follower adopts and persists the primary's epoch.
	if f.Epoch() != 1 {
		t.Fatalf("follower epoch %d, want 1", f.Epoch())
	}
	if epoch, ok, err := repl.ReadEpoch(fdir); !ok || err != nil || epoch != 1 {
		t.Fatalf("persisted epoch: %d ok=%v err=%v", epoch, ok, err)
	}

	// Live streaming: a write on the primary becomes readable on the
	// follower without any reconnect.
	if err := pc.Upsert("kv", client.Uint64Key(51), []byte("live")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live record", func() bool {
		v, err := fc.Get("kv", client.Uint64Key(51))
		return err == nil && string(v) == "live"
	})

	// Bounce the primary's listener: the stream drops, the follower retries
	// and resubscribes from its durable (mid-stream) LSN, and new writes
	// flow again.
	if err := psrv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream drop", func() bool { return !f.Status().Connected })
	psrv2 := New(pe)
	psrv2.SetReplPrimary(repl.NewPrimary(pe.DurableLog(), 1))
	if _, err := psrv2.Listen(paddr); err != nil {
		t.Fatalf("rebinding %s: %v", paddr, err)
	}
	go func() { _ = psrv2.Serve() }()
	t.Cleanup(func() { _ = psrv2.Close() })

	pc2 := dial(t, paddr)
	if err := pc2.Upsert("kv", client.Uint64Key(52), []byte("after-bounce")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resubscribed record", func() bool {
		v, err := fc.Get("kv", client.Uint64Key(52))
		return err == nil && string(v) == "after-bounce"
	})
	if st := f.Status(); st.Batches == 0 || st.Records == 0 {
		t.Fatalf("follower counters never moved: %+v", st)
	}
}

func TestFollowerRefusesWritesServesReads(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pe, psrv, paddr := startReplServer(t, pdir)
	psrv.SetReplPrimary(repl.NewPrimary(pe.DurableLog(), 1))
	pc := dial(t, paddr)
	for i := uint64(1); i <= 10; i++ {
		if err := pc.Upsert("kv", client.Uint64Key(i), []byte("row")); err != nil {
			t.Fatal(err)
		}
	}

	fe, fsrv, faddr := startReplServer(t, fdir)
	fsrv.SetFollowerMode(true)
	f := startFollower(t, fdir, paddr, fe)
	waitFor(t, "catch-up", func() bool { return caughtUp(pe, f) })

	fc := dial(t, faddr)

	// Reads and scans are served from replicated state.
	if v, err := fc.Get("kv", client.Uint64Key(3)); err != nil || string(v) != "row" {
		t.Fatalf("follower read: %q, %v", v, err)
	}
	entries, err := fc.Scan("kv", nil, nil, 0)
	if err != nil || len(entries) != 10 {
		t.Fatalf("follower scan: %d entries, %v", len(entries), err)
	}

	// Every write shape is refused with the follower marker.
	if err := fc.Upsert("kv", client.Uint64Key(99), []byte("x")); !client.IsFollowerRefusal(err) {
		t.Fatalf("follower upsert: %v", err)
	}
	if err := fc.Delete("kv", client.Uint64Key(3)); !client.IsFollowerRefusal(err) {
		t.Fatalf("follower delete: %v", err)
	}
	if _, err := fc.DoPlan(client.NewPlan().Add("kv", client.Uint64Key(3), 1).MustBuild()); !client.IsFollowerRefusal(err) {
		t.Fatalf("follower write plan: %v", err)
	}

	// Log-appending control verbs are refused; promote/repl status are the
	// only verbs a follower runs.
	if _, err := fc.Control("checkpoint", ""); !client.IsFollowerRefusal(err) {
		t.Fatalf("follower checkpoint: %v", err)
	}
	if _, err := fc.Control("promote", ""); err == nil || !strings.Contains(err.Error(), "promote") {
		// No promote handler installed on this bare test server: the verb
		// must still route (not be refused as unknown-on-follower).
		t.Fatalf("promote routing: %v", err)
	}
}

func TestReplicaAckedCommitGate(t *testing.T) {
	pdir := t.TempDir()
	pe, psrv, paddr := startReplServer(t, pdir)
	prim := repl.NewPrimary(pe.DurableLog(), 1)
	prim.SetAckTimeout(150 * time.Millisecond)
	psrv.SetReplPrimary(prim)
	pe.SetCommitAckWaiter(prim.OnReplicated)

	pc := dial(t, paddr)

	// No follower: the commit is refused as unreplicated — but the error
	// spells out that it IS durable locally.
	err := pc.Upsert("kv", client.Uint64Key(1), []byte("lonely"))
	if err == nil || !strings.Contains(err.Error(), "durable locally") {
		t.Fatalf("replica-acked commit without a follower: %v", err)
	}

	// With a follower attached the same write commits, and the ack
	// guarantees the commit record is on the follower's disk.
	fdir := t.TempDir()
	fe, _, _ := startReplServer(t, fdir)
	startFollower(t, fdir, paddr, fe)
	waitFor(t, "subscription", func() bool { return prim.NumFollowers() == 1 })

	if err := pc.Upsert("kv", client.Uint64Key(2), []byte("replicated")); err != nil {
		t.Fatalf("replica-acked commit with a follower: %v", err)
	}
	if got := uint64(fe.DurableLog().DurableLSN()); got < uint64(pe.DurableLog().DurableLSN()) {
		t.Fatalf("acked commit not on follower disk: follower durable %d, primary durable %d",
			got, pe.DurableLog().DurableLSN())
	}
	st := prim.Status()
	if st.AckWaits < 2 || st.AckTimeouts < 1 || len(st.Followers) != 1 {
		t.Fatalf("primary status after gated commits: %+v", st)
	}
}
