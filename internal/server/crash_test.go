package server_test

// The kill-the-process integration test for the durability stack: a child
// process runs a durable server (what plpd -data-dir runs in-process), the
// parent loads it over the wire and SIGKILLs it mid-traffic, restarts it on
// the same data directory, and verifies the recovery contract over the
// wire:
//
//   - every transaction the client saw acknowledged is present, and
//   - every transaction the client did NOT see acknowledged is atomic —
//     its effects appear entirely or not at all (it may have committed
//     durably with the acknowledgement lost in the crash, but a torn
//     half-transaction must never survive).
//
// The child is this very test binary re-executed with PLP_CRASH_SERVER_DIR
// set (see TestMain): it runs a node from a plpd argument list, the same
// code plpd runs, so the test needs no go toolchain at run time and runs
// under -race in CI.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"plp/client"
	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/node"
	"plp/internal/repl"
	"plp/internal/server"
	"plp/shard"
	"plp/wire"
)

// The child's environment: crashEnvDir switches the test binary into child
// mode and names the data dir, crashEnvArgs holds the rest of the plpd
// argument list (one argument per line), and crashEnvPoint, when set, makes
// the child SIGKILL itself at that named point of the coordinator protocol
// ("coord-prepared" or "coord-decided").
const (
	crashEnvDir   = "PLP_CRASH_SERVER_DIR"
	crashEnvArgs  = "PLP_CRASH_ARGS"
	crashEnvPoint = "PLP_CRASH_POINT"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashEnvDir); dir != "" {
		runNodeChild(dir)
	}
	os.Exit(m.Run())
}

// runNodeChild is the child: a node run from parseNodeArgs.  It announces
// its address on stdout and serves until killed.
func runNodeChild(dir string) {
	if point := os.Getenv(crashEnvPoint); point != "" {
		server.SetTestHook(func(p string) {
			if p == point {
				_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // unreachable; the signal is fatal
			}
		})
	}
	var args []string
	if extra := os.Getenv(crashEnvArgs); extra != "" {
		args = strings.Split(extra, "\n")
	}
	cfg, err := parseNodeArgs(dir, args, os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	n, err := node.Start(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "node child: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("CRASHSRV_ADDR %s\n", n.Addr())
	select {}
}

// parseNodeArgs maps `plpd -data-dir dir` plus args to a node
// configuration, listening on a loopback port unless args name one.
func parseNodeArgs(dir string, args []string, stderr io.Writer) (node.Config, error) {
	return node.ParseFlags(append([]string{"-addr", "127.0.0.1:0", "-partitions", "4", "-data-dir", dir}, args...), stderr)
}

// startCrashServer spawns a node child on dir, run from the plpd argument
// list args and primed to die at the coordinator point crashPoint (empty
// for none), and waits for its address.
func startCrashServer(t *testing.T, dir, crashPoint string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), crashEnvDir+"="+dir, crashEnvArgs+"="+strings.Join(args, "\n"), crashEnvPoint+"="+crashPoint)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "CRASHSRV_ADDR "); ok {
				addrCh <- a
			}
			// Keep draining so the child never blocks on a full pipe.
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("crash child never announced its address")
		return nil, ""
	}
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-kill integration test in short mode")
	}
	dir := t.TempDir()
	cmd, addr := startCrashServer(t, dir, "")

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: synchronously acknowledged single-key commits.  Every one
	// of these MUST survive the kill.
	const acked = 250
	for i := uint64(1); i <= acked; i++ {
		if err := c.Upsert("kv", client.Uint64Key(i), []byte(fmt.Sprintf("acked-%d", i))); err != nil {
			t.Fatalf("acked upsert %d: %v", i, err)
		}
	}

	// Phase 2: a stream of two-key transactions kept in flight while the
	// server dies.  Each pair lands on different partitions; recovery must
	// keep every pair atomic whether or not its commit became durable.
	type pairState struct {
		mu    sync.Mutex
		acked map[uint64]bool // pair id -> acknowledged commit
		sent  uint64
	}
	ps := &pairState{acked: make(map[uint64]bool)}
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := i
			val := []byte(fmt.Sprintf("pair-%d", id))
			txn := client.NewTxn().
				Upsert("kv", client.Uint64Key(300_000+id), val).
				Upsert("kv", client.Uint64Key(700_000+id), val)
			f := c.DoAsync(ctx, txn)
			ps.mu.Lock()
			ps.sent = i + 1
			ps.mu.Unlock()
			go func() {
				resp, err := f.Wait(ctx)
				if err == nil && resp.Committed {
					ps.mu.Lock()
					ps.acked[id] = true
					ps.mu.Unlock()
				}
			}()
		}
	}()

	// Let the stream build up, then kill -9 mid-flight.
	time.Sleep(150 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	close(stop)
	wg.Wait()
	_ = c.Close()
	// Futures race the kill; give the in-flight Wait goroutines a moment
	// to record late acknowledgements before we snapshot them.
	time.Sleep(100 * time.Millisecond)
	ps.mu.Lock()
	sent := ps.sent
	ackedPairs := make(map[uint64]bool, len(ps.acked))
	for id := range ps.acked {
		ackedPairs[id] = true
	}
	ps.mu.Unlock()
	if sent == 0 {
		t.Fatal("no in-flight transactions were submitted before the kill")
	}

	// Restart on the same directory: the child re-runs recovery before it
	// accepts connections.
	cmd2, addr2 := startCrashServer(t, dir, "")
	defer func() {
		_ = cmd2.Process.Kill()
		_, _ = cmd2.Process.Wait()
	}()
	c2, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Every synchronously acknowledged commit is readable.
	for i := uint64(1); i <= acked; i++ {
		got, err := c2.Get("kv", client.Uint64Key(i))
		if err != nil {
			t.Fatalf("acked key %d lost by the crash: %v", i, err)
		}
		if want := fmt.Sprintf("acked-%d", i); string(got) != want {
			t.Fatalf("acked key %d = %q, want %q", i, got, want)
		}
	}

	// Every pair is atomic; acknowledged pairs must be present.
	survivors, torn := 0, 0
	for id := uint64(0); id < sent; id++ {
		want := fmt.Sprintf("pair-%d", id)
		a, errA := c2.Get("kv", client.Uint64Key(300_000+id))
		b, errB := c2.Get("kv", client.Uint64Key(700_000+id))
		hasA, hasB := errA == nil, errB == nil
		if hasA != hasB {
			torn++
			t.Errorf("pair %d is torn: first key present=%v, second key present=%v", id, hasA, hasB)
			continue
		}
		if hasA {
			survivors++
			if string(a) != want || string(b) != want {
				t.Errorf("pair %d has wrong values: %q / %q", id, a, b)
			}
		} else if ackedPairs[id] {
			t.Errorf("acknowledged pair %d vanished", id)
		}
	}
	t.Logf("crash test: %d acked singles, %d pairs sent, %d pair survivors, %d acked pairs, %d torn",
		acked, sent, survivors, len(ackedPairs), torn)
}

// TestShardCoordinatorCrash kills the coordinator of a two-shard commit at
// exact protocol points and verifies the in-doubt branches on BOTH shards
// resolve consistently:
//
//   - killed after every branch prepared but before the decision is durable
//     ("coord-prepared"): presumed abort — no shard may apply its branch;
//   - killed after the decision is durable but before any decide frame left
//     ("coord-decided"): the commit point passed — both shards must commit
//     once the participant's janitor chases the recovered decision.
//
// The coordinator is a child process (durable, SIGKILLed via the test hook);
// the participant runs in-process so the test can watch its prepared set.
func TestShardCoordinatorCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-kill integration test in short mode")
	}
	for _, tc := range []struct {
		point  string
		commit bool
	}{
		{point: "coord-prepared", commit: false},
		{point: "coord-decided", commit: true},
	} {
		t.Run(tc.point, func(t *testing.T) {
			// Participant: in-process shard 1.
			pe := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 4})
			parts := [][]byte{keyenc.Uint64Key(250_000), keyenc.Uint64Key(500_000), keyenc.Uint64Key(750_000)}
			if _, err := pe.CreateTable(catalog.TableDef{Name: "kv", Boundaries: parts}); err != nil {
				t.Fatal(err)
			}
			psrv := server.New(pe)
			paddr, err := psrv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = psrv.Serve() }()
			t.Cleanup(func() {
				_ = psrv.Close()
				_ = pe.Close()
			})

			// Coordinator: durable child serving shard 0 at a fixed
			// address, primed to die at the test point.  It restarts at a
			// second address under a version-2 map, so the participant's
			// janitor must find a coordinator that moved.
			ports := reservePorts(t, 2)
			caddr, caddr2 := ports[0], ports[1]
			m1 := &shard.Map{Version: 1, Shards: []shard.Shard{
				{ID: 0, Addr: caddr, End: keyenc.Uint64Key(500_000)},
				{ID: 1, Addr: paddr},
			}}
			if err := psrv.SetShardConfig(m1, 1, "", 0); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			cmd, _ := startCrashServer(t, dir, tc.point,
				"-addr", caddr, "-shard-map", writeShardMap(t, m1), "-shard-id", "0")

			c, err := client.Dial(caddr)
			if err != nil {
				t.Fatal(err)
			}
			txn := client.NewTxn().
				Upsert("kv", client.Uint64Key(100), []byte("x")).
				Upsert("kv", client.Uint64Key(600_000), []byte("y"))
			if _, err := c.Do(txn); err == nil {
				t.Fatal("transaction acknowledged by a coordinator that died mid-protocol")
			}
			_ = c.Close()
			_ = cmd.Wait()

			// Restart the coordinator on the same directory (no crash point)
			// at its new address, and repoint the participant's map at it.
			m2 := &shard.Map{Version: 2, Shards: []shard.Shard{
				{ID: 0, Addr: caddr2, End: keyenc.Uint64Key(500_000)},
				{ID: 1, Addr: paddr},
			}}
			cmd2, _ := startCrashServer(t, dir, "",
				"-addr", caddr2, "-shard-map", writeShardMap(t, m2), "-shard-id", "0")
			t.Cleanup(func() {
				_ = cmd2.Process.Kill()
				_, _ = cmd2.Process.Wait()
			})
			if err := psrv.UpdateShardMap(m2); err != nil {
				t.Fatal(err)
			}

			// The participant's janitor chases the restarted coordinator; wait
			// until its branch is out of doubt.
			deadline := time.Now().Add(30 * time.Second)
			for len(pe.PreparedGIDs(0)) > 0 || len(pe.InDoubtGIDs()) > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("participant branch still in doubt: prepared=%v recovered=%v",
						pe.PreparedGIDs(0), pe.InDoubtGIDs())
				}
				time.Sleep(25 * time.Millisecond)
			}

			c2, err := client.Dial(caddr2)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			cp, err := client.Dial(paddr)
			if err != nil {
				t.Fatal(err)
			}
			defer cp.Close()

			if tc.commit {
				// The durable decision must commit both branches.
				var coordVal []byte
				for {
					coordVal, err = c2.Get("kv", client.Uint64Key(100))
					if err == nil || time.Now().After(deadline) {
						break
					}
					time.Sleep(25 * time.Millisecond)
				}
				if err != nil || string(coordVal) != "x" {
					t.Fatalf("coordinator branch after decided crash: %q, %v", coordVal, err)
				}
				pv, err := cp.Get("kv", client.Uint64Key(600_000))
				if err != nil || string(pv) != "y" {
					t.Fatalf("participant branch after decided crash: %q, %v", pv, err)
				}
			} else {
				// No durable decision: presumed abort, no branch applied.
				if _, err := c2.Get("kv", client.Uint64Key(100)); !errors.Is(err, client.ErrNotFound) {
					t.Fatalf("coordinator branch survived an undecided crash: %v", err)
				}
				if _, err := cp.Get("kv", client.Uint64Key(600_000)); !errors.Is(err, client.ErrNotFound) {
					t.Fatalf("participant branch survived an undecided crash: %v", err)
				}
			}
		})
	}
}

// TestReplFailoverSIGKILL is the kill-the-primary failover test: a
// replica-acked primary and a follower run as real processes, the primary
// is SIGKILLed mid-traffic, the follower is promoted, and the promoted node
// must (a) serve every replica-acked commit, (b) keep unacked multi-key
// transactions atomic, (c) accept new writes, and (d) refuse the dead
// primary's lineage when it comes back asking to subscribe.
func TestReplFailoverSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-kill integration test in short mode")
	}
	pdir, fdir := t.TempDir(), t.TempDir()
	pcmd, paddr := startCrashServer(t, pdir, "", "-ack-mode", "replica", "-ack-timeout", "15s")
	fcmd, faddr := startCrashServer(t, fdir, "", "-follow", paddr)
	t.Cleanup(func() {
		_ = fcmd.Process.Kill()
		_, _ = fcmd.Process.Wait()
	})

	c, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: replica-acked commits.  Each acknowledgement means the
	// commit record is fsynced on the FOLLOWER, so every one of these must
	// survive losing the primary entirely.
	const acked = 100
	for i := uint64(1); i <= acked; i++ {
		if err := c.Upsert("kv", client.Uint64Key(i), []byte(fmt.Sprintf("acked-%d", i))); err != nil {
			t.Fatalf("replica-acked upsert %d: %v", i, err)
		}
	}

	// Phase 2: two-key transactions in flight while the primary dies.
	type pairState struct {
		mu    sync.Mutex
		acked map[uint64]bool
		sent  uint64
	}
	ps := &pairState{acked: make(map[uint64]bool)}
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := i
			val := []byte(fmt.Sprintf("pair-%d", id))
			txn := client.NewTxn().
				Upsert("kv", client.Uint64Key(300_000+id), val).
				Upsert("kv", client.Uint64Key(700_000+id), val)
			f := c.DoAsync(ctx, txn)
			ps.mu.Lock()
			ps.sent = i + 1
			ps.mu.Unlock()
			go func() {
				resp, err := f.Wait(ctx)
				if err == nil && resp.Committed {
					ps.mu.Lock()
					ps.acked[id] = true
					ps.mu.Unlock()
				}
			}()
		}
	}()

	time.Sleep(150 * time.Millisecond)
	if err := pcmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = pcmd.Wait()
	close(stop)
	wg.Wait()
	_ = c.Close()
	time.Sleep(100 * time.Millisecond)
	ps.mu.Lock()
	sent := ps.sent
	ackedPairs := make(map[uint64]bool, len(ps.acked))
	for id := range ps.acked {
		ackedPairs[id] = true
	}
	ps.mu.Unlock()
	if sent == 0 {
		t.Fatal("no in-flight transactions were submitted before the kill")
	}

	// Failover: the follower still refuses writes, then promotes.
	fc, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if err := fc.Upsert("kv", client.Uint64Key(900_000), []byte("x")); !client.IsFollowerRefusal(err) {
		t.Fatalf("pre-promote write on follower: %v", err)
	}
	out, err := fc.Control("promote", "")
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !strings.Contains(out, "promoted") {
		t.Fatalf("promote output: %q", out)
	}

	// (a) Every replica-acked commit survived the primary's death.
	for i := uint64(1); i <= acked; i++ {
		got, err := fc.Get("kv", client.Uint64Key(i))
		if err != nil {
			t.Fatalf("acked key %d lost in failover: %v", i, err)
		}
		if want := fmt.Sprintf("acked-%d", i); string(got) != want {
			t.Fatalf("acked key %d = %q, want %q", i, got, want)
		}
	}

	// (b) Every pair — acked or not — is atomic on the promoted node, and
	// acked pairs are present.
	survivors, torn := 0, 0
	for id := uint64(0); id < sent; id++ {
		want := fmt.Sprintf("pair-%d", id)
		a, errA := fc.Get("kv", client.Uint64Key(300_000+id))
		b, errB := fc.Get("kv", client.Uint64Key(700_000+id))
		hasA, hasB := errA == nil, errB == nil
		if hasA != hasB {
			torn++
			t.Errorf("pair %d is torn after failover: first=%v second=%v", id, hasA, hasB)
			continue
		}
		if hasA {
			survivors++
			if string(a) != want || string(b) != want {
				t.Errorf("pair %d has wrong values after failover: %q / %q", id, a, b)
			}
		} else if ackedPairs[id] {
			t.Errorf("replica-acked pair %d vanished in failover", id)
		}
	}

	// (c) The promoted node accepts writes.
	if err := fc.Upsert("kv", client.Uint64Key(900_001), []byte("post-promote")); err != nil {
		t.Fatalf("post-promote write: %v", err)
	}

	// (d) The dead primary's lineage is fenced but not stranded: a
	// subscriber presenting the old epoch is accepted as a SEED
	// subscription — the promoted node streams a snapshot plus tail under
	// its own epoch instead of refusing, which is how a revived old
	// primary rejoins as a follower.
	staleEpoch, ok, err := repl.ReadEpoch(pdir)
	if err != nil || !ok {
		t.Fatalf("old primary's epoch: %v ok=%v", err, ok)
	}
	conn, err := net.Dial("tcp", faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if err := wire.WriteFrame(conn, wire.EncodeHello(&wire.Hello{MaxVersion: wire.Version})); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(br); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.EncodeReplSubscribe(1, 1, staleEpoch, "stale-lineage")); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" || len(resp.Results) != 1 {
		t.Fatalf("stale-lineage subscribe was not seed-accepted: %+v", resp)
	}
	if !wire.ReplSubscribeAckSeeded(resp.Results[0].Value) {
		t.Fatalf("stale-lineage subscribe accepted without the seed marker")
	}
	newEpoch, _, err := wire.DecodeReplSubscribeAck(resp.Results[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	if newEpoch == staleEpoch {
		t.Fatalf("seed ack still carries the fenced epoch %d", staleEpoch)
	}
	t.Logf("failover test: %d acked singles, %d pairs sent, %d survivors, %d acked pairs, %d torn",
		acked, sent, survivors, len(ackedPairs), torn)
}

// reservePorts grabs n distinct loopback addresses and releases them, so a
// cluster's membership can be fixed before any member starts.  The usual
// bind-after-close race is harmless here: nothing else on the host races
// for the ports during the test.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	return addrs
}

// writeShardMap writes m to a file for a child's -shard-map.
func writeShardMap(t *testing.T, m *shard.Map) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shards.map")
	if err := os.WriteFile(path, m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// probeRepl fetches one node's replication status over a fresh connection
// (the node under test may have been restarted since the last probe).
func probeRepl(addr string) (*node.ReplStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c, err := client.DialContext(ctx, addr, nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out, err := c.ControlContext(ctx, "repl status", "")
	if err != nil {
		return nil, err
	}
	var st node.ReplStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// waitProbe polls a node's replication status until cond holds.
func waitProbe(t *testing.T, what, addr string, timeout time.Duration, cond func(*node.ReplStatus) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if st, err := probeRepl(addr); err == nil && cond(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s on %s", what, addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// primaryDurable samples a primary's durable LSN, the catch-up target for
// its followers once writes stop.
func primaryDurable(t *testing.T, addr string) uint64 {
	t.Helper()
	st, err := probeRepl(addr)
	if err != nil || st.Primary == nil {
		t.Fatalf("primary status on %s: %v (%+v)", addr, err, st)
	}
	return st.Primary.DurableLSN
}

// caughtUpTo builds a waitProbe condition: the follower is connected and
// both its durable log and its applier have reached the target LSN.
func caughtUpTo(target uint64) func(*node.ReplStatus) bool {
	return func(st *node.ReplStatus) bool {
		return st.Follower != nil && st.Follower.Connected &&
			st.Follower.DurableLSN >= target && st.Follower.Applier.AppliedLSN >= target
	}
}

// scanDigest streams a node's entire kv table and folds every key and value
// into one hash, so replicas can be compared for byte-identical readable
// state without holding the data set in memory.
func scanDigest(t *testing.T, addr string) (int, uint64) {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.ScanStream(context.Background(), "kv", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := fnv.New64a()
	n := 0
	for st.Next() {
		e := st.Entry()
		_, _ = h.Write(e.Key)
		_, _ = h.Write(e.Value)
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return n, h.Sum64()
}

// TestReplClusterAutoFailoverSIGKILL is the zero-intervention failover
// test: a three-node cluster loses its primary to SIGKILL and recovers
// with NO operator action — no `plpctl promote`, no shard-map edit.  The
// surviving followers detect the expired lease, elect the best candidate,
// self-promote through epoch fencing, re-home the shard map, and the
// sharded client follows the promotion on its own.  The revived old
// primary demotes itself and re-seeds from the new lineage.
func TestReplClusterAutoFailoverSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-kill integration test in short mode")
	}
	addrs := reservePorts(t, 3)
	a1, a2, a3 := addrs[0], addrs[1], addrs[2]
	membership := fmt.Sprintf("1@%s,2@%s,3@%s", a1, a2, a3)
	initMap := &shard.Map{Version: 1, Shards: []shard.Shard{{
		ID: 0, Addr: a1,
		Replicas: []shard.Replica{{ID: 2, Addr: a2}, {ID: 3, Addr: a3}},
	}}}
	mapFile := writeShardMap(t, initMap)
	args := func(id int, addr, follow string) []string {
		a := []string{"-addr", addr, "-cluster", membership, "-node-id", strconv.Itoa(id),
			"-lease", "1s", "-ack-mode", "replica", "-shard-map", mapFile}
		if follow != "" {
			a = append(a, "-follow", follow)
		}
		return a
	}
	reap := func(cmd *exec.Cmd) func() {
		return func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	}
	d1, d2, d3 := t.TempDir(), t.TempDir(), t.TempDir()
	cmd1, _ := startCrashServer(t, d1, "", args(1, a1, "")...)
	cmd2, _ := startCrashServer(t, d2, "", args(2, a2, a1)...)
	cmd3, _ := startCrashServer(t, d3, "", args(3, a3, a1)...)
	t.Cleanup(reap(cmd2))
	t.Cleanup(reap(cmd3))

	waitProbe(t, "both followers subscribed", a1, 30*time.Second, func(st *node.ReplStatus) bool {
		return st.Role == "primary" && st.Primary != nil && len(st.Primary.Followers) == 2
	})

	ctx := context.Background()
	sc, err := client.DialSharded(ctx, []string{a1, a2, a3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	// Phase 1: replica-acked commits through the router.  Each ack means
	// the commit record is fsynced on at least one follower, so all of
	// these must survive losing the primary outright.
	const acked = 120
	for i := uint64(1); i <= acked; i++ {
		if err := sc.Upsert("kv", client.Uint64Key(i), []byte(fmt.Sprintf("acked-%d", i))); err != nil {
			t.Fatalf("replica-acked upsert %d: %v", i, err)
		}
	}

	// SIGKILL the primary and do nothing else.
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd1.Wait()

	// Exactly one follower self-promotes; the other repoints to it.
	var newPrimary string
	deadline := time.Now().Add(60 * time.Second)
	for {
		st2, err2 := probeRepl(a2)
		st3, err3 := probeRepl(a3)
		if err2 == nil && err3 == nil {
			if st2.Role == "primary" && st3.Role == "follower" &&
				st3.Follower.Primary == a2 && st3.Follower.Connected {
				newPrimary = a2
				break
			}
			if st3.Role == "primary" && st2.Role == "follower" &&
				st2.Follower.Primary == a3 && st2.Follower.Connected {
				newPrimary = a3
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged on a new primary: a2=%+v (%v) a3=%+v (%v)", st2, err2, st3, err3)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Logf("auto-failover: %s self-promoted", newPrimary)

	// The router follows the promotion with no manual refresh: writes that
	// land on the dead or demoted member trigger a map refresh and retry.
	server.WaitFor(t, "router write after failover", func() bool {
		return sc.Upsert("kv", client.Uint64Key(900_001), []byte("post-failover")) == nil
	})
	if got := sc.Map().Shards[0].Addr; got != newPrimary {
		t.Fatalf("router map shard 0 primary = %s, want %s", got, newPrimary)
	}

	// (a) Every replica-acked commit survived the failover and is readable
	// through the router (reads rotate across the shard's live members).
	for i := uint64(1); i <= acked; i++ {
		got, err := sc.Get("kv", client.Uint64Key(i))
		if err != nil {
			t.Fatalf("acked key %d lost in auto-failover: %v", i, err)
		}
		if want := fmt.Sprintf("acked-%d", i); string(got) != want {
			t.Fatalf("acked key %d = %q, want %q", i, got, want)
		}
	}

	// (b) Restart the old primary on its own data dir.  It wakes up
	// believing it is a primary at the fenced epoch; the failover monitor
	// must demote it and re-seed it from the new lineage unattended.
	cmd1b, _ := startCrashServer(t, d1, "", args(1, a1, "")...)
	t.Cleanup(reap(cmd1b))
	waitProbe(t, "old primary demoted", a1, 60*time.Second, func(st *node.ReplStatus) bool {
		return st.Role == "follower" && st.Follower != nil &&
			st.Follower.Connected && st.Follower.Primary == newPrimary
	})
	waitProbe(t, "old primary caught up", a1, 30*time.Second, caughtUpTo(primaryDurable(t, newPrimary)))

	// The demoted node serves the failover-era write from replicated state
	// and refuses writes of its own.
	c1, err := client.Dial(a1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	got, err := c1.Get("kv", client.Uint64Key(900_001))
	if err != nil || string(got) != "post-failover" {
		t.Fatalf("demoted old primary's view of the failover-era write: %q, %v", got, err)
	}
	if err := c1.Upsert("kv", client.Uint64Key(900_002), []byte("x")); !client.IsFollowerRefusal(err) {
		t.Fatalf("write on demoted old primary: %v", err)
	}
}

// TestReplReseedChaosSIGKILL drives the snapshot re-seed path through a
// three-node chain under repeated SIGKILLs: a follower is killed in the
// middle of receiving its seed snapshot and again in the middle of the
// live stream, restarting on the same half-written directory each time,
// while a second follower joins fresh.  Everyone must converge to a
// byte-identical readable state.
func TestReplReseedChaosSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-kill integration test in short mode")
	}
	pdir, f1dir, f2dir := t.TempDir(), t.TempDir(), t.TempDir()
	pcmd, paddr := startCrashServer(t, pdir, "", "-checkpoint-truncate")
	t.Cleanup(func() {
		_ = pcmd.Process.Kill()
		_, _ = pcmd.Process.Wait()
	})

	pc, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	// Preload a working set big enough that streaming its snapshot takes
	// real time, then checkpoint and truncate the log: a fresh follower's
	// start LSN now precedes the oldest retained record, so it CANNOT
	// catch up from the log — it must take the snapshot re-seed path.
	ctx := context.Background()
	const preload = 40_000
	val := []byte(strings.Repeat("s", 64))
	window := make(chan *client.Future, 64)
	drain := func(n int) {
		for len(window) > n {
			resp, err := (<-window).Wait(ctx)
			if err != nil || !resp.Committed {
				t.Fatalf("preload commit: %v (%+v)", err, resp)
			}
		}
	}
	for i := uint64(1); i <= preload; i++ {
		drain(cap(window) - 1)
		window <- pc.DoAsync(ctx, client.NewTxn().Upsert("kv", client.Uint64Key(i), val))
	}
	drain(0)
	if _, err := pc.Control("checkpoint", ""); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	waitProbe(t, "log truncation", paddr, 15*time.Second, func(st *node.ReplStatus) bool {
		return st.Primary != nil && st.Primary.OldestLSN > 1
	})

	// Follower 1 joins from scratch and starts seeding.  Kill it while the
	// primary still reports the subscriber inside its seed phase.
	f1cmd, _ := startCrashServer(t, f1dir, "", "-follow", paddr)
	sawSeeding := false
	seedDeadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(seedDeadline) && !sawSeeding {
		st, err := probeRepl(paddr)
		if err == nil && st.Primary != nil {
			for _, f := range st.Primary.Followers {
				if f.Seeding {
					sawSeeding = true
				}
			}
			if !sawSeeding && len(st.Primary.Followers) > 0 {
				// Subscribed and already past the seed: too late to catch
				// the window, kill anyway — the restart still has to
				// resubscribe over a partial local state.
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	_ = f1cmd.Process.Kill()
	_, _ = f1cmd.Process.Wait()
	t.Logf("reseed chaos: follower 1 killed mid-seed=%v", sawSeeding)

	// Restart it on the same directory: recovery replays whatever fraction
	// of the seed got durable (checkpoint chunks apply as idempotent
	// upserts, so a torn seed is safe), and the next subscription resumes
	// — finishing the seed or streaming the tail.
	f1cmd2, f1addr := startCrashServer(t, f1dir, "", "-follow", paddr)
	waitProbe(t, "follower 1 rejoin after mid-seed kill", f1addr, 60*time.Second,
		caughtUpTo(primaryDurable(t, paddr)))

	// Follower 2 joins fresh as the third node of the chain; it must seed
	// too (the log prefix is still truncated).
	f2cmd, f2addr := startCrashServer(t, f2dir, "", "-follow", paddr)
	t.Cleanup(func() {
		_ = f2cmd.Process.Kill()
		_, _ = f2cmd.Process.Wait()
	})

	// Live-stream phase: writes flow while follower 1 is killed again —
	// mid-stream this time — and restarted on the same directory.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wc, err := client.Dial(paddr)
		if err != nil {
			return
		}
		defer wc.Close()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = wc.Upsert("kv", client.Uint64Key(500_000+i%5_000), []byte(fmt.Sprintf("live-%d", i)))
		}
	}()
	time.Sleep(200 * time.Millisecond)
	_ = f1cmd2.Process.Kill()
	_, _ = f1cmd2.Process.Wait()
	time.Sleep(200 * time.Millisecond)
	f1cmd3, f1addr3 := startCrashServer(t, f1dir, "", "-follow", paddr)
	t.Cleanup(func() {
		_ = f1cmd3.Process.Kill()
		_, _ = f1cmd3.Process.Wait()
	})
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Both followers converge to the primary's final durable horizon...
	target := primaryDurable(t, paddr)
	waitProbe(t, "follower 1 converged", f1addr3, 60*time.Second, caughtUpTo(target))
	waitProbe(t, "follower 2 converged", f2addr, 60*time.Second, caughtUpTo(target))

	// ...and read back byte-identical state.
	pn, ph := scanDigest(t, paddr)
	for _, fa := range []string{f1addr3, f2addr} {
		fn, fh := scanDigest(t, fa)
		if fn != pn || fh != ph {
			t.Fatalf("replica %s diverged: %d keys digest %x vs primary %d keys digest %x", fa, fn, fh, pn, ph)
		}
	}
	t.Logf("reseed chaos: %d keys, digest %x identical across 3 nodes", pn, ph)
}
