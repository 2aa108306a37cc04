package server_test

// In-process tests of internal/node, the code plpd runs: two nodes in this
// process, driven over the wire and through their methods, with no
// SIGKILL.  They live beside the SIGKILL suites so that both share one set
// of helpers (reservePorts, writeShardMap, probeRepl, parseNodeArgs).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"plp/client"
	"plp/internal/node"
	"plp/internal/repl"
	"plp/internal/server"
	"plp/internal/wal"
	"plp/shard"
)

// startNode runs a node in this process from a plpd argument list.
func startNode(t *testing.T, dir string, args ...string) *node.Node {
	t.Helper()
	cfg, err := parseNodeArgs(dir, args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestNodeRoleTransition promotes a follower over the control verb and
// demotes the old primary: the promoted node bumps its replication epoch
// and shard incarnation, reports the primary role, re-homes the shard and
// gates its commits on the demoted node's acks; the demoted node refuses
// writes, and the commit that was waiting on its gate fails at once.
func TestNodeRoleTransition(t *testing.T) {
	addrs := reservePorts(t, 2)
	paddr, faddr := addrs[0], addrs[1]
	pdir, fdir := t.TempDir(), t.TempDir()
	m := &shard.Map{Version: 1, Shards: []shard.Shard{{ID: 0, Addr: paddr, Replicas: []shard.Replica{{ID: 2, Addr: faddr}}}}}
	common := []string{"-shard-map", writeShardMap(t, m), "-ack-mode", "replica", "-ack-quorum", "1", "-ack-timeout", "30s"}
	p := startNode(t, pdir, append([]string{"-addr", paddr}, common...)...)
	f := startNode(t, fdir, append([]string{"-addr", faddr, "-follow", paddr, "-advertise", faddr}, common...)...)

	pc, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	fc, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if err := pc.Upsert("kv", client.Uint64Key(1), []byte("before")); err != nil {
		t.Fatalf("replica-acked write before the promotion: %v", err)
	}
	if err := fc.Upsert("kv", client.Uint64Key(2), []byte("x")); !client.IsFollowerRefusal(err) {
		t.Fatalf("write on the follower: %v", err)
	}
	before, ok, err := shard.ReadState(fdir)
	if err != nil || !ok {
		t.Fatalf("follower shard state: %v ok=%v", err, ok)
	}

	out, err := fc.Control("promote", "")
	if err != nil || !strings.Contains(out, "promoted") {
		t.Fatalf("promote: %q, %v", out, err)
	}
	if epoch, _, err := repl.ReadEpoch(fdir); err != nil || epoch != 2 {
		t.Fatalf("promoted replication epoch %d (%v), want 2", epoch, err)
	}
	if after, _, err := shard.ReadState(fdir); err != nil || after.Incarnation != before.Incarnation+1 {
		t.Fatalf("shard incarnation %d -> %d (%v), want a bump", before.Incarnation, after.Incarnation, err)
	}
	st, err := probeRepl(faddr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" || st.Primary == nil || st.Primary.Epoch != 2 || st.AckQuorum != 1 {
		t.Fatalf("promoted node's repl status: %+v", st)
	}
	if got := f.Server().ShardMap().Shards[0].Addr; got != faddr {
		t.Fatalf("promoted node's shard map homes shard 0 at %s, want %s", got, faddr)
	}

	// The old primary still takes writes, which now wait on its gate: its
	// follower has gone.  Demoting it must fail that commit at once.
	oldPrimary := p.Server().ReplPrimary()
	waits := oldPrimary.Status().AckWaits
	pending := pc.DoAsync(context.Background(), client.NewTxn().Upsert("kv", client.Uint64Key(3), []byte("stranded")))
	server.WaitFor(t, "the stranded commit on the old primary's gate", func() bool {
		return oldPrimary.Status().AckWaits > waits
	})
	if err := p.Demote(faddr); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := pending.Wait(ctx); err == nil || !strings.Contains(err.Error(), "durable locally") {
		t.Fatalf("stranded commit after demote: %v", err)
	}
	fired := make(chan error, 1)
	oldPrimary.OnReplicated(wal.LSN(1)<<40, func(err error) { fired <- err })
	select {
	case err := <-fired:
		if !errors.Is(err, repl.ErrNoFollower) {
			t.Fatalf("gate of the demoted primary: %v", err)
		}
	default:
		t.Fatal("the demoted node's Primary was not closed")
	}
	if p.Server().ReplPrimary() != nil {
		t.Fatal("the demoted node still serves subscriptions")
	}
	if err := pc.Upsert("kv", client.Uint64Key(4), []byte("x")); !client.IsFollowerRefusal(err) {
		t.Fatalf("write on the demoted node: %v", err)
	}

	// The new primary's commits pass its quorum gate once the demoted node
	// follows it.
	if err := fc.Upsert("kv", client.Uint64Key(5), []byte("after")); err != nil {
		t.Fatalf("replica-acked write on the promoted node: %v", err)
	}
	if st := f.ReplStatus(); st.Primary.AckWaits == 0 || st.ReplicaAckWait == nil {
		t.Fatalf("promoted node's commit skipped the quorum gate: %+v", st.Primary)
	}
	server.WaitFor(t, "the demoted node following the promoted one", func() bool {
		st := p.ReplStatus()
		return st.Role == "follower" && st.Follower.Primary == faddr && st.Follower.Connected
	})
	for k, want := range map[uint64]string{1: "before", 5: "after"} {
		got, err := pc.Get("kv", client.Uint64Key(k))
		if err != nil || string(got) != want {
			t.Fatalf("demoted node's key %d: %q, %v", k, got, err)
		}
	}
}

// TestNodePromotedGidsAreFresh checks that a promoted follower mints no gid
// its old primary minted.  Both data directories count their incarnations
// from 1 and both gid sequences restart at 1, so only the replication epoch
// the promotion bumps can keep the two primaries' gids apart.
func TestNodePromotedGidsAreFresh(t *testing.T) {
	addrs := reservePorts(t, 2)
	paddr, faddr := addrs[0], addrs[1]
	m := &shard.Map{Version: 1, Shards: []shard.Shard{{ID: 0, Addr: paddr, Replicas: []shard.Replica{{ID: 2, Addr: faddr}}}}}
	mapFile := writeShardMap(t, m)
	p := startNode(t, t.TempDir(), "-addr", paddr, "-shard-map", mapFile)
	f := startNode(t, t.TempDir(), "-addr", faddr, "-shard-map", mapFile, "-follow", paddr, "-advertise", faddr)
	server.WaitFor(t, "the follower subscribing", func() bool {
		st := f.ReplStatus()
		return st.Follower != nil && st.Follower.Connected
	})
	minted := map[string]bool{}
	for i := 0; i < 3; i++ {
		minted[p.Server().MintGID()] = true
	}
	if _, err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if g := f.Server().MintGID(); minted[g] {
			t.Fatalf("the promoted follower minted %s, a gid of its old primary (which minted %v)", g, minted)
		}
	}
}

// TestNodeLeaseHeartbeat checks that a node derives its replication
// heartbeat from -lease: an idle follower of a -lease 1s primary keeps
// hearing from it well inside the lease, so its failover monitor never
// sees the lease expire and never repoints.
func TestNodeLeaseHeartbeat(t *testing.T) {
	addrs := reservePorts(t, 2)
	membership := fmt.Sprintf("1@%s,2@%s", addrs[0], addrs[1])
	startNode(t, t.TempDir(), "-addr", addrs[0], "-cluster", membership, "-node-id", "1", "-lease", "1s")
	f := startNode(t, t.TempDir(), "-addr", addrs[1], "-cluster", membership, "-node-id", "2", "-lease", "1s", "-follow", addrs[0])
	server.WaitFor(t, "the follower's first contact", func() bool {
		st := f.ReplStatus()
		return st.Follower != nil && st.Follower.Connected && st.Follower.SinceContactMS >= 0
	})
	// The heartbeat is lease/4; a follower must never come near the lease.
	var most int64
	for end := time.Now().Add(3 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		most = max(most, f.ReplStatus().Follower.SinceContactMS)
	}
	if most >= 500 {
		t.Fatalf("idle follower went %d ms without hearing from its primary, lease 1s", most)
	}
	t.Logf("idle follower: at most %d ms since contact", most)
	if st := f.ReplStatus(); st.Cluster == nil || st.Cluster.Repoints != 0 {
		t.Fatalf("idle follower's failover monitor: %+v", st.Cluster)
	}
}
