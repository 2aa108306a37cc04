package server

// Two-shard cluster tests: wrong-shard refusals, client routing, cross-shard
// two-phase commits, and forwarding across a shard-map bump.  Both shards
// run in-process over loopback so the tests can also inspect each engine
// directly and assert exactly-once placement of every key.

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"plp/client"
	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/txn"
	"plp/keys"
	"plp/plan"
	"plp/shard"
	"plp/wire"
)

// shardNode is one in-process member of a test cluster.
type shardNode struct {
	e    *engine.Engine
	srv  *Server
	addr string
}

// startShardCluster starts two shard servers splitting the keyspace at
// boundary and returns them with their version-1 map.
func startShardCluster(t *testing.T, boundary uint64) ([]*shardNode, *shard.Map) {
	t.Helper()
	nodes := make([]*shardNode, 2)
	for i := range nodes {
		e := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 4})
		parts := [][]byte{keyenc.Uint64Key(250_000), keyenc.Uint64Key(500_000), keyenc.Uint64Key(750_000)}
		if _, err := e.CreateTable(catalog.TableDef{Name: "kv", Boundaries: parts,
			Secondaries: []catalog.SecondaryDef{{Name: "by_name"}}}); err != nil {
			t.Fatal(err)
		}
		srv := New(e)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &shardNode{e: e, srv: srv, addr: addr}
	}
	m := &shard.Map{Version: 1, Shards: []shard.Shard{
		{ID: 0, Addr: nodes[0].addr, End: keys.Uint64(boundary)},
		{ID: 1, Addr: nodes[1].addr},
	}}
	for i, n := range nodes {
		if err := n.srv.SetShardConfig(m, i, "", 0); err != nil {
			t.Fatal(err)
		}
		srv, e := n.srv, n.e
		go func() { _ = srv.Serve() }()
		t.Cleanup(func() {
			_ = srv.Close()
			_ = e.Close()
		})
	}
	return nodes, m
}

// engineHasKey reports whether the node's engine holds the key locally.
func engineHasKey(t *testing.T, n *shardNode, key uint64) bool {
	t.Helper()
	k := keyenc.Uint64Key(key)
	hi := append(append([]byte(nil), k...), 0)
	found := false
	if err := n.e.NewLoader().ReadRange("kv", k, hi, func(_, _ []byte) bool {
		found = true
		return false
	}); err != nil {
		t.Fatal(err)
	}
	return found
}

func TestWrongShardRefusalCarriesMap(t *testing.T) {
	nodes, _ := startShardCluster(t, 500_000)
	c := dial(t, nodes[0].addr)

	// All keys of the request live on shard 1: shard 0 must refuse rather
	// than execute, and the refusal must carry a parseable current map.
	resp, err := c.Do(client.NewTxn().Upsert("kv", client.Uint64Key(600_000), []byte("x")))
	if !errors.Is(err, client.ErrAborted) {
		t.Fatalf("misrouted write: %v, want ErrAborted", err)
	}
	if !wire.IsWrongShard(resp.Err) {
		t.Fatalf("refusal message %q lacks the wrong-shard prefix", resp.Err)
	}
	got, perr := shard.Parse(resp.Results[0].Value)
	if perr != nil {
		t.Fatalf("refusal carries an unparseable map: %v", perr)
	}
	if got.Version != 1 || len(got.Shards) != 2 || got.Owner(client.Uint64Key(600_000)) != 1 {
		t.Fatalf("refusal map: %+v", got)
	}
	if engineHasKey(t, nodes[0], 600_000) || engineHasKey(t, nodes[1], 600_000) {
		t.Fatal("refused write left effects behind")
	}
}

// TestPlanWrongShardRefused checks plan frames get the shard ownership
// check: a plan whose keys all belong to another shard is refused with the
// map attached and no effect.  One whose keys span shards commits on each
// owner through the coordinator — unless an op binds the result of an op on
// another shard, which is refused up front, permanently, with no effect.
func TestPlanWrongShardRefused(t *testing.T) {
	nodes, _ := startShardCluster(t, 500_000)
	c := dial(t, nodes[0].addr)

	foreign := client.NewPlan().Upsert("kv", client.Uint64Key(600_000), []byte("x")).MustBuild()
	resp, err := c.DoPlanAsync(context.Background(), foreign).Result()
	if !errors.Is(err, client.ErrAborted) || !wire.IsWrongShard(resp.Err) {
		t.Fatalf("misrouted plan: %v, want a wrong-shard abort", err)
	}
	if m, perr := shard.Parse(resp.Results[0].Value); perr != nil || m.Owner(client.Uint64Key(600_000)) != 1 {
		t.Fatalf("refusal map: %v, %v", m, perr)
	}
	for _, n := range nodes {
		if engineHasKey(t, n, 600_000) {
			t.Fatalf("refused plan left its key on %s", n.addr)
		}
	}

	spanning := client.NewPlan().
		Upsert("kv", client.Uint64Key(100), []byte("x")).
		Upsert("kv", client.Uint64Key(700_000), []byte("x")).
		MustBuild()
	if _, err := c.DoPlan(spanning); err != nil {
		t.Fatalf("cross-shard plan: %v, want a commit through the coordinator", err)
	}
	if !engineHasKey(t, nodes[0], 100) || engineHasKey(t, nodes[1], 100) {
		t.Fatal("key 100 not exactly-once on shard 0")
	}
	if !engineHasKey(t, nodes[1], 700_000) || engineHasKey(t, nodes[0], 700_000) {
		t.Fatal("key 700000 not exactly-once on shard 1")
	}

	// Shard 0's upsert takes its value from a read on shard 1.
	b := client.NewPlan()
	read := b.Get("kv", client.Uint64Key(700_000)).Ref()
	b.Upsert("kv", client.Uint64Key(650_000), []byte("y"))
	b.Then().Upsert("kv", client.Uint64Key(200), nil).ValueFrom(read)
	_, err = c.DoPlan(b.MustBuild())
	if !errors.Is(err, client.ErrAborted) || client.IsTransient(err) || !strings.Contains(err.Error(), "binds op") {
		t.Fatalf("cross-shard binding: %v, want a permanent refusal", err)
	}
	for _, n := range nodes {
		for _, k := range []uint64{200, 650_000} {
			if engineHasKey(t, n, k) {
				t.Fatalf("refused plan left key %d on %s", k, n.addr)
			}
		}
	}

	// A plan wholly owned by the shard it is sent to still commits there.
	local := client.NewPlan().Upsert("kv", client.Uint64Key(150), []byte("x")).MustBuild()
	if _, err := c.DoPlan(local); err != nil {
		t.Fatalf("local plan: %v", err)
	}
	if !engineHasKey(t, nodes[0], 150) || engineHasKey(t, nodes[1], 150) {
		t.Fatal("local plan did not commit on its owning shard only")
	}
}

func TestCrossShardCommitAtomicity(t *testing.T) {
	nodes, _ := startShardCluster(t, 500_000)
	c := dial(t, nodes[0].addr) // shard 0 coordinates

	// A cross-shard transaction whose remote branch fails must leave no
	// effects on either shard.
	bad := client.NewTxn().
		Insert("kv", client.Uint64Key(100), []byte("roll-me-back")).
		Update("kv", client.Uint64Key(700_000), []byte("missing"))
	if _, err := c.Do(bad); !errors.Is(err, client.ErrAborted) {
		t.Fatalf("failing cross-shard txn: %v, want ErrAborted", err)
	}
	if engineHasKey(t, nodes[0], 100) {
		t.Fatal("aborted cross-shard txn left its local branch applied")
	}

	// A clean one commits on both, each key exactly once on its owner.
	good := client.NewTxn().
		Upsert("kv", client.Uint64Key(100), []byte("a")).
		Upsert("kv", client.Uint64Key(700_000), []byte("b")).
		InsertSecondary("kv", "by_name", []byte("alice"), client.Uint64Key(100))
	resp, err := c.Do(good)
	if err != nil || !resp.Committed {
		t.Fatalf("cross-shard commit: %v (%+v)", err, resp)
	}
	if !engineHasKey(t, nodes[0], 100) || engineHasKey(t, nodes[1], 100) {
		t.Fatal("key 100 not exactly-once on shard 0")
	}
	if !engineHasKey(t, nodes[1], 700_000) || engineHasKey(t, nodes[0], 700_000) {
		t.Fatal("key 700000 not exactly-once on shard 1")
	}

	// A cross-shard read sees both branches' values in statement order.
	// The secondary probe and its bound read stay on the coordinator, the
	// binding renumbered into the local branch.
	reads, err := c.Do(client.NewTxn().
		Get("kv", client.Uint64Key(100)).
		Get("kv", client.Uint64Key(700_000)).
		GetBySecondary("kv", "by_name", []byte("alice")))
	if err != nil {
		t.Fatal(err)
	}
	if len(reads.Results) != 3 || string(reads.Results[0].Value) != "a" ||
		string(reads.Results[1].Value) != "b" || string(reads.Results[2].Value) != "a" {
		t.Fatalf("cross-shard read: %+v", reads.Results)
	}

	// A TPC-B-shaped read-modify-write plan: the branch and teller rows on
	// shard 0, the account row on shard 1, each credited in one phase.
	branchKey, tellerKey, acctKey := client.Uint64Key(1), client.Uint64Key(11), client.Uint64Key(700_001)
	balances := func() []int64 {
		t.Helper()
		rs, err := c.DoPlan(client.NewPlan().Get("kv", branchKey).Get("kv", tellerKey).Get("kv", acctKey).MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(rs))
		for i, r := range rs {
			if out[i], err = plan.DecodeInt64(r.Value); err != nil {
				t.Fatalf("balance %d: %v", i, err)
			}
		}
		return out
	}
	credit := client.NewPlan().Add("kv", branchKey, 5).Add("kv", tellerKey, 5).Add("kv", acctKey, 5).MustBuild()
	if _, err := c.DoPlan(credit); err != nil {
		t.Fatalf("cross-shard read-modify-write plan: %v", err)
	}
	if got := balances(); got[0] != 5 || got[1] != 5 || got[2] != 5 {
		t.Fatalf("balances after the credit: %v, want 5 each", got)
	}
	if !engineHasKey(t, nodes[1], 700_001) || engineHasKey(t, nodes[0], 700_001) {
		t.Fatal("account row not exactly-once on shard 1")
	}

	// A failing condition on the remote shard aborts every branch.
	stale := client.NewPlan().
		Add("kv", branchKey, 5).
		Add("kv", tellerKey, 5).
		CompareAndSet("kv", acctKey, plan.Int64(999), plan.Int64(10)).
		MustBuild()
	if _, err := c.DoPlan(stale); !errors.Is(err, client.ErrAborted) {
		t.Fatalf("cross-shard plan with a failing remote condition: %v, want ErrAborted", err)
	}
	if got := balances(); got[0] != 5 || got[1] != 5 || got[2] != 5 {
		t.Fatalf("balances after the aborted plan: %v, want 5 each (nothing applied)", got)
	}
}

// TestShardedClientDifferential runs one deterministic mixed workload
// through the routing client against the two-shard cluster AND through a
// plain client against a single unsharded server, then compares the full
// table contents — the sharded cluster must be observationally identical.
func TestShardedClientDifferential(t *testing.T) {
	nodes, _ := startShardCluster(t, 500_000)

	single := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 4})
	if _, err := single.CreateTable(catalog.TableDef{Name: "kv", Boundaries: [][]byte{keyenc.Uint64Key(500_000)}}); err != nil {
		t.Fatal(err)
	}
	ssrv := New(single)
	saddr, err := ssrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ssrv.Serve() }()
	t.Cleanup(func() {
		_ = ssrv.Close()
		_ = single.Close()
	})

	ctx := context.Background()
	sc, err := client.DialSharded(ctx, []string{nodes[0].addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	pc := dial(t, saddr)

	// Deterministic workload: scattered upserts, deletes of known keys, and
	// cross-shard two-key transactions.
	rng := rand.New(rand.NewSource(7))
	used := make([]uint64, 0, 512)
	apply := func(txn *client.Txn) {
		ra, ea := sc.Do(txn)
		rb, eb := pc.Do(txn)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("divergent outcome: sharded=%v single=%v", ea, eb)
		}
		if ea == nil && ra.Committed != rb.Committed {
			t.Fatalf("divergent commit: sharded=%v single=%v", ra.Committed, rb.Committed)
		}
	}
	for i := 0; i < 300; i++ {
		switch {
		case i%7 == 3 && len(used) > 0:
			k := used[rng.Intn(len(used))]
			apply(client.NewTxn().Delete("kv", client.Uint64Key(k)))
		case i%5 == 0:
			kA := uint64(rng.Intn(400_000) + 1)
			kB := uint64(rng.Intn(300_000) + 600_000)
			v := []byte{byte(i), byte(i >> 8)}
			apply(client.NewTxn().
				Upsert("kv", client.Uint64Key(kA), v).
				Upsert("kv", client.Uint64Key(kB), v))
			used = append(used, kA, kB)
		default:
			k := uint64(rng.Intn(1_000_000) + 1)
			apply(client.NewTxn().Upsert("kv", client.Uint64Key(k), []byte{byte(i)}))
			used = append(used, k)
		}
	}

	// The cross-shard scan and the single-server scan agree record for
	// record (the sharded scan concatenates shard ranges in key order).
	want, err := pc.Scan("kv", nil, nil, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Scan("kv", nil, nil, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan lengths diverge: sharded=%d single=%d", len(got), len(want))
	}
	for i := range want {
		if string(got[i].Key) != string(want[i].Key) || string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("scan diverges at %d: %x=%q vs %x=%q", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	t.Logf("differential: %d records identical across sharded and single", len(want))
}

// TestStaleShardMapForwarding races a map bump against in-flight cross-shard
// transactions, then drives writes through the now-stale client cache: the
// wrong-shard refusal must refresh the client, and every acknowledged write
// must land exactly once on its current owner.
func TestStaleShardMapForwarding(t *testing.T) {
	nodes, _ := startShardCluster(t, 500_000)
	ctx := context.Background()
	sc, err := client.DialSharded(ctx, []string{nodes[0].addr, nodes[1].addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	v2 := &shard.Map{Version: 2, Shards: []shard.Shard{
		{ID: 0, Addr: nodes[0].addr, End: keys.Uint64(300_000)},
		{ID: 1, Addr: nodes[1].addr},
	}}

	// Phase A: cross-shard transactions in flight while the bump lands.
	// Their keys do not change owner between the maps, so every one must
	// commit exactly once regardless of which version it raced.
	const pairs = 150
	done := make(chan error, 1)
	go func() {
		for i := uint64(0); i < pairs; i++ {
			v := []byte{byte(i)}
			_, err := sc.Do(client.NewTxn().
				Upsert("kv", client.Uint64Key(100_000+i), v).
				Upsert("kv", client.Uint64Key(800_000+i), v))
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	time.Sleep(2 * time.Millisecond)
	if err := nodes[0].srv.UpdateShardMap(v2); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].srv.UpdateShardMap(v2); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("cross-shard txn racing the map bump: %v", err)
	}
	for i := uint64(0); i < pairs; i++ {
		if !engineHasKey(t, nodes[0], 100_000+i) || engineHasKey(t, nodes[1], 100_000+i) {
			t.Fatalf("pair %d: low key not exactly-once on shard 0", i)
		}
		if !engineHasKey(t, nodes[1], 800_000+i) || engineHasKey(t, nodes[0], 800_000+i) {
			t.Fatalf("pair %d: high key not exactly-once on shard 1", i)
		}
	}

	// Phase B: fresh keys in the moved range [300000, 500000).  The client
	// may still route them to shard 0 under its cached map; the refusal
	// must refresh it and forward, landing each key once on shard 1.
	for i := uint64(0); i < 20; i++ {
		k := 350_000 + i
		if err := sc.Upsert("kv", client.Uint64Key(k), []byte("moved")); err != nil {
			t.Fatalf("write to moved range: %v", err)
		}
		if !engineHasKey(t, nodes[1], k) {
			t.Fatalf("key %d missing from its current owner", k)
		}
		if engineHasKey(t, nodes[0], k) {
			t.Fatalf("key %d duplicated onto the old owner", k)
		}
	}
	if v := sc.Map().Version; v != 2 {
		t.Fatalf("client map version %d after forwarding, want 2", v)
	}
	// Routed reads see the moved keys.
	if val, err := sc.Get("kv", client.Uint64Key(350_000)); err != nil || string(val) != "moved" {
		t.Fatalf("read of moved key: %q, %v", val, err)
	}
}

// TestGidEpochUniqueAcrossIncarnations pins the gid format against the
// coordinator-restart hazard: a restarted coordinator's sequence restarts at
// zero, so only the per-incarnation epoch keeps it from minting a gid whose
// durable fate from a previous life would leak onto a new transaction.
func TestGidEpochUniqueAcrossIncarnations(t *testing.T) {
	a := &shardState{self: 3, epoch: 1}
	b := &shardState{self: 3, epoch: 2}
	ga, gb := a.gidFor(1), b.gidFor(1)
	if ga == gb {
		t.Fatalf("gid %q reused across incarnations", ga)
	}
	for _, g := range []string{ga, gb} {
		if coord, ok := coordinatorOf(g); !ok || coord != 3 {
			t.Fatalf("coordinatorOf(%q) = %d, %v", g, coord, ok)
		}
	}

	// Epoch 0 asks SetShardConfig to derive one: two configurations of the
	// same shard (a restart with no persisted state) get distinct epochs.
	e := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 2})
	defer e.Close()
	m := &shard.Map{Version: 1, Shards: []shard.Shard{{ID: 0, Addr: "127.0.0.1:1"}}}
	var epochs [2]uint64
	for i := range epochs {
		srv := New(e)
		if err := srv.SetShardConfig(m, 0, "", 0); err != nil {
			t.Fatal(err)
		}
		ss := srv.sharding.Load()
		epochs[i] = ss.epoch
		ss.stop()
	}
	if epochs[0] == 0 || epochs[0] == epochs[1] {
		t.Fatalf("derived epochs %d and %d, want distinct non-zero", epochs[0], epochs[1])
	}

	// An explicit epoch (plpd's persisted incarnation) is used verbatim.
	srv := New(e)
	if err := srv.SetShardConfig(m, 0, "", 42); err != nil {
		t.Fatal(err)
	}
	ss := srv.sharding.Load()
	defer ss.stop()
	if ss.epoch != 42 {
		t.Fatalf("explicit epoch = %d, want 42", ss.epoch)
	}
}

// TestDecisionFlushFailureLeavesInDoubt injects a decide-record flush
// failure at the commit point.  The decide record was appended and may yet
// become durable, so the coordinator must NOT send aborts (a participant
// whose abort frame is lost could later learn "commit" from the recovered
// record): every branch stays prepared, decide queries answer "decision
// pending", and the janitor must not resolve the transaction either way.
func TestDecisionFlushFailureLeavesInDoubt(t *testing.T) {
	nodes, _ := startShardCluster(t, 500_000)
	orig := logDecision
	logDecision = func(*engine.Engine, string) error { return txn.ErrNotDurable }
	t.Cleanup(func() { logDecision = orig })

	c := dial(t, nodes[0].addr)
	resp, err := c.Do(client.NewTxn().
		Upsert("kv", client.Uint64Key(100), []byte("a")).
		Upsert("kv", client.Uint64Key(700_000), []byte("b")))
	if !errors.Is(err, client.ErrAborted) {
		t.Fatalf("decision-flush failure returned %v, want ErrAborted", err)
	}
	if !strings.Contains(resp.Err, "outcome unknown") {
		t.Fatalf("error %q does not flag the unknown outcome", resp.Err)
	}

	// The participant's branch stays prepared — no abort was sent.
	gids := nodes[1].e.PreparedGIDs(0)
	if len(gids) != 1 {
		t.Fatalf("participant prepared gids = %v, want exactly one", gids)
	}
	gid := gids[0]

	// The coordinator answers decide queries "decision pending" rather than
	// presumed abort: the decide record may still surface at recovery.
	pc := &peerConn{addr: nodes[0].addr}
	defer pc.close()
	qresp, err := pc.call(wire.EncodeDecideRequest(0, gid, wire.DecideQuery))
	if err != nil {
		t.Fatal(err)
	}
	if qresp.Err != "decision pending" || qresp.Committed {
		t.Fatalf("decide query after flush failure: %+v", qresp)
	}

	// Even once the branch is older than the janitor's patience, chasing
	// the coordinator keeps it prepared instead of aborting it.
	time.Sleep(inDoubtPatience + 3*defaultJanitorPeriod)
	if gids := nodes[1].e.PreparedGIDs(0); len(gids) != 1 || gids[0] != gid {
		t.Fatalf("janitor resolved the undecidable branch: %v", gids)
	}
}

// TestPeerCallTimesOutOnHungPeer pins the per-call deadline: a peer that
// completes the handshake and then never answers must fail the call within
// peerCallTimeout (not block forever behind the serialized connection) and
// leave the dead connection retired so the next call redials.
func TestPeerCallTimesOutOnHungPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := wire.ReadFrame(br); err != nil { // HELLO
			return
		}
		_ = wire.WriteFrame(conn, wire.EncodeHelloAck(&wire.HelloAck{Version: wire.Version}))
		// Swallow frames and never answer; the read unblocks (and the
		// goroutine exits) once the timed-out caller resets its end.
		for {
			if _, err := wire.ReadFrame(br); err != nil {
				return
			}
		}
	}()

	pc := &peerConn{addr: ln.Addr().String()}
	defer pc.close()
	start := time.Now()
	if _, err := pc.call(wire.EncodeDecideRequest(0, "s0-1-1", wire.DecideQuery)); err == nil {
		t.Fatal("call to a hung peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > defaultPeerCallTimeout+2*time.Second {
		t.Fatalf("call took %v, deadline %v never fired", elapsed, defaultPeerCallTimeout)
	}
	if pc.conn != nil {
		t.Fatal("timed-out call left the dead connection cached")
	}
}

// TestRefreshAdoptsNewestMap: a router refreshing its map must take the
// newest version any member serves, not the first answer — after a
// failover, a member still following serves the map the promoted member
// replaced, and adopting that one leaves the router dialling the dead
// primary.
func TestRefreshAdoptsNewestMap(t *testing.T) {
	nodes, m := startShardCluster(t, 500_000)
	ctx := context.Background()
	sc, err := client.DialSharded(ctx, []string{nodes[0].addr, nodes[1].addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	newer := m.Clone()
	newer.Version = 2
	if err := nodes[1].srv.UpdateShardMap(newer); err != nil {
		t.Fatal(err)
	}
	if err := sc.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if v := sc.Map().Version; v != 2 {
		t.Fatalf("router map version %d after refresh, want 2 (served by shard 1 only)", v)
	}
}
