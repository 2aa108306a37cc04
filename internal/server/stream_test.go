package server

// Streaming-scan tests: the SCAN / SCAN-CHUNK / SCAN-ACK exchange end to
// end over real connections — round trips, limits, pushdown filtering,
// cancellation mid-stream, cross-shard merging, retry hints, the pushdown
// speedup and the plan cache's compile count.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"plp/client"
	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/lock"
	"plp/plan"
	"plp/wire"
)

// startScanServer starts a server over a "sub" table preloaded with rows
// keys 1..rows, each value an int64 balance (i % 100) followed by pad
// padding bytes.
func startScanServer(t *testing.T, design engine.Design, rows, pad int) (*engine.Engine, *Server, string) {
	t.Helper()
	e := engine.New(engine.Options{Design: design, Partitions: 4, SLI: design == engine.Conventional})
	q := uint64(rows) / 4
	if q == 0 {
		q = 1
	}
	boundaries := [][]byte{keyenc.Uint64Key(q), keyenc.Uint64Key(2 * q), keyenc.Uint64Key(3 * q)}
	if _, err := e.CreateTable(catalog.TableDef{Name: "sub", Boundaries: boundaries}); err != nil {
		t.Fatal(err)
	}
	l := e.NewLoader()
	padding := make([]byte, pad)
	for i := 1; i <= rows; i++ {
		val := append(plan.Int64(int64(i%100)), padding...)
		if err := l.Insert("sub", keyenc.Uint64Key(uint64(i)), val); err != nil {
			t.Fatal(err)
		}
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

// TestScanStreamRoundTrip streams a full table in small chunks and checks
// exact coverage in key order, on a partitioned and a conventional engine.
func TestScanStreamRoundTrip(t *testing.T) {
	for _, design := range []engine.Design{engine.Conventional, engine.PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			const rows = 1000
			_, _, addr := startScanServer(t, design, rows, 0)
			c := dial(t, addr)

			st, err := c.ScanStream(context.Background(), "sub", nil, nil,
				&client.ScanStreamOptions{ChunkEntries: 64, Window: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			want := uint64(1)
			for st.Next() {
				ent := st.Entry()
				if got := binary.BigEndian.Uint64(ent.Key); got != want {
					t.Fatalf("entry key %d, want %d", got, want)
				}
				if v, _ := plan.DecodeInt64(ent.Value); v != int64(want%100) {
					t.Fatalf("key %d value %d, want %d", want, v, want%100)
				}
				want++
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			if want != rows+1 {
				t.Fatalf("stream yielded %d entries, want %d", want-1, rows)
			}
		})
	}
}

// TestScanStreamFilterAndLimit pushes a predicate down and caps the stream:
// only matching rows cross the wire and the limit counts matches.
func TestScanStreamFilterAndLimit(t *testing.T) {
	const rows = 1000
	_, _, addr := startScanServer(t, engine.PLPRegular, rows, 0)
	c := dial(t, addr)

	flt := plan.Int64Cmp(0, plan.CmpEq, 13) // keys 13, 113, ..., 913
	st, err := c.ScanStream(context.Background(), "sub", nil, nil,
		&client.ScanStreamOptions{Filter: flt, Limit: 4, ChunkEntries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []uint64
	for st.Next() {
		got = append(got, binary.BigEndian.Uint64(st.Entry().Key))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	want := []uint64{13, 113, 213, 313}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestScanStreamCancelMidStream is the cancellation regression: a client
// that cancels its context mid-stream must stop the server's chunk
// production — even when the stream is stalled waiting for credits —
// rather than leave it producing for nobody.
func TestScanStreamCancelMidStream(t *testing.T) {
	const rows = 20000
	_, srv, addr := startScanServer(t, engine.PLPLeaf, rows, 0)
	c := dial(t, addr)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A tiny window and chunk size guarantee the server exhausts its
	// credits long before the scan completes; the client consumes one
	// entry, never acks beyond the first chunk, and then cancels.
	st, err := c.ScanStream(ctx, "sub", nil, nil,
		&client.ScanStreamOptions{ChunkEntries: 16, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Next() {
		t.Fatalf("no first entry: %v", st.Err())
	}
	cancel()
	for st.Next() {
		// Drain whatever was already in flight; the stream must still end.
	}
	if err := st.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("stream error %v, want context.Canceled", err)
	}

	// The server must abort the stream: its producer goroutine exits and
	// counts the scan as aborted.  Poll briefly — the cancel frame races
	// with the producer's credit wait.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Aborted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never aborted the cancelled stream")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The connection must remain usable for ordinary requests.
	if _, err := c.Get("sub", keyenc.Uint64Key(1)); err != nil {
		t.Fatalf("connection unusable after stream cancel: %v", err)
	}
}

// TestShardedScanStream merges per-shard streams in key order under a
// global limit and proves laziness: when the first shard satisfies the
// limit, the second shard is never contacted.
func TestShardedScanStream(t *testing.T) {
	nodes, _ := startShardCluster(t, 500_000)
	// Shard 0 owns keys < 500_000, shard 1 the rest.
	const perShard = 400
	for i := 1; i <= perShard; i++ {
		if err := nodes[0].e.NewLoader().Insert("kv", keyenc.Uint64Key(uint64(i)), plan.Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := nodes[1].e.NewLoader().Insert("kv", keyenc.Uint64Key(600_000+uint64(i)), plan.Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	sc, err := client.DialSharded(ctx, []string{nodes[0].addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })

	// Limited merge first: the limit is satisfied entirely by shard 0, so
	// the lazy iterator must never open a connection to shard 1.
	shard1Conns := nodes[1].srv.Stats().Connections
	st, err := sc.ScanStream(ctx, "kv", nil, nil,
		&client.ScanStreamOptions{Limit: 10, ChunkEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for st.Next() {
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	_ = st.Close()
	if n != 10 {
		t.Fatalf("limited merge yielded %d entries, want 10", n)
	}
	if got := nodes[1].srv.Stats().Connections; got != shard1Conns {
		t.Fatalf("limit met on shard 0 but shard 1 was contacted (%d new connections)", got-shard1Conns)
	}

	// Full merge: both shards, global key order, every row exactly once.
	st, err = sc.ScanStream(ctx, "kv", nil, nil, &client.ScanStreamOptions{ChunkEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	var keysSeen []uint64
	for st.Next() {
		keysSeen = append(keysSeen, binary.BigEndian.Uint64(st.Entry().Key))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	_ = st.Close()
	if len(keysSeen) != 2*perShard {
		t.Fatalf("merged %d entries, want %d", len(keysSeen), 2*perShard)
	}
	for i, k := range keysSeen {
		want := uint64(i + 1)
		if i >= perShard {
			want = 600_000 + uint64(i-perShard+1)
		}
		if k != want {
			t.Fatalf("merged key[%d] = %d, want %d", i, k, want)
		}
	}
}

// TestTransientAbortHint checks the retry hint end to end: a prepared
// transaction holds an X lock on a key (a prepared branch keeps its locks
// until the coordinator decides), so a wire transaction touching that key
// waits out the deadlock-avoidance timeout and aborts — and the abort must
// arrive tagged transient, where an ordinary data error stays permanent.
func TestTransientAbortHint(t *testing.T) {
	e := engine.New(engine.Options{Design: engine.Conventional, Partitions: 1, SLI: true,
		LockTimeout: 25 * time.Millisecond})
	if _, err := e.CreateTable(catalog.TableDef{Name: "sub"}); err != nil {
		t.Fatal(err)
	}
	if err := e.NewLoader().Insert("sub", keyenc.Uint64Key(1), []byte("v")); err != nil {
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

	// Pin the X lock on key 1 with a prepared branch.
	key := keyenc.Uint64Key(1)
	sess := e.NewSession()
	defer sess.Close()
	hold := &engine.Request{Phases: [][]engine.Action{{{
		Table: "sub", Key: key,
		Exec: func(c *engine.Ctx) error { return c.Update("sub", key, []byte("held")) },
	}}}}
	if _, err := sess.ExecutePrepare(hold, "hint-test-gid"); err != nil {
		t.Fatal(err)
	}
	released := false
	release := func() {
		if !released {
			released = true
			if err := e.DecidePrepared("hint-test-gid", false); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer release()

	c := dial(t, addr)
	_, err = c.Do(client.NewTxn().Update("sub", key, []byte("w")))
	if !errors.Is(err, client.ErrAborted) {
		t.Fatalf("blocked update: %v, want ErrAborted", err)
	}
	if !client.IsTransient(err) {
		t.Fatalf("lock-timeout abort not tagged transient: %v", err)
	}

	// A data error — updating a key that does not exist — is not worth
	// retrying and must stay permanent.
	release()
	_, err = c.Do(client.NewTxn().Update("sub", keyenc.Uint64Key(404), []byte("w")))
	if !errors.Is(err, client.ErrAborted) {
		t.Fatalf("missing-key update: %v, want ErrAborted", err)
	}
	if client.IsTransient(err) {
		t.Fatalf("data-error abort wrongly tagged transient: %v", err)
	}
}

// TestClassifyAbort pins the abort-to-hint mapping deterministically: only
// the lock manager's deadlock-avoidance timeout is transient; everything
// else is permanent, and a missing error carries no hint.
func TestClassifyAbort(t *testing.T) {
	if got := classifyAbort(nil); got != wire.RetryUnknown {
		t.Fatalf("classifyAbort(nil) = %d, want RetryUnknown", got)
	}
	wrapped := fmt.Errorf("txn: %w", lock.ErrTimeout)
	if got := classifyAbort(wrapped); got != wire.RetryTransient {
		t.Fatalf("classifyAbort(lock timeout) = %d, want RetryTransient", got)
	}
	if got := classifyAbort(errors.New("validation failed")); got != wire.RetryPermanent {
		t.Fatalf("classifyAbort(other) = %d, want RetryPermanent", got)
	}
}

// TestLatencyHistogramOverWire checks the sampled latency histograms move
// when requests flow: enough transactions and scan chunks to guarantee
// samples at the 1-in-N stride.
func TestLatencyHistogramOverWire(t *testing.T) {
	_, _, addr := startScanServer(t, engine.PLPLeaf, 2000, 0)
	c := dial(t, addr)

	before := LatencySnapshot()
	for i := 0; i < 2*latencySampleEvery; i++ {
		if _, err := c.Get("sub", keyenc.Uint64Key(1)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.ScanStream(context.Background(), "sub", nil, nil,
		&client.ScanStreamOptions{ChunkEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	for st.Next() {
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	_ = st.Close()

	after := LatencySnapshot()
	if d := after["plan"].Seen - before["plan"].Seen; d < 2*latencySampleEvery {
		t.Fatalf("plan seen moved by %d, want >= %d", d, 2*latencySampleEvery)
	}
	if after["plan"].Sampled <= before["plan"].Sampled {
		t.Fatal("no plan latency samples at the sampling stride")
	}
	// 2000 rows / 16-entry chunks = 125 chunk productions, over a stride.
	if d := after["scan_chunk"].Seen - before["scan_chunk"].Seen; d < 64 {
		t.Fatalf("scan_chunk seen moved by %d, want >= 64", d)
	}
}

// TestScanPushdownSpeedupAndBytes compares a 1% selectivity scan over
// padded rows, pushed down versus filtered client-side, by wall time and by
// bytes on the wire.  Pushdown must win by at least 1.5× (checked without
// the race detector) — only 1% of rows are encoded, shipped, and decoded,
// so the margin is structural, not a timing accident.
func TestScanPushdownSpeedupAndBytes(t *testing.T) {
	const (
		rows = 20000
		pad  = 120 // 128-byte records: padding makes shipped bytes visible
	)
	_, _, addr := startScanServer(t, engine.PLPLeaf, rows, pad)
	proxy := newCountingProxy(t, addr)
	c := dial(t, proxy.addr)

	flt := plan.Int64Cmp(0, plan.CmpEq, 7) // 1 in 100 rows
	match := func(v []byte) bool {
		i, err := plan.DecodeInt64(v[:8])
		return err == nil && i == 7
	}

	run := func(pushdown bool) (time.Duration, int64, int) {
		var best time.Duration
		var bytesOnWire int64
		kept := 0
		for iter := 0; iter < 3; iter++ {
			startBytes := proxy.toClientBytes.Load()
			opts := &client.ScanStreamOptions{ChunkEntries: 256}
			if pushdown {
				opts.Filter = flt
			}
			kept = 0
			start := time.Now()
			st, err := c.ScanStream(context.Background(), "sub", nil, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			for st.Next() {
				if pushdown || match(st.Entry().Value) {
					kept++
				}
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			_ = st.Close()
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
			bytesOnWire = proxy.toClientBytes.Load() - startBytes
		}
		return best, bytesOnWire, kept
	}

	clientDur, clientBytes, clientKept := run(false)
	pushDur, pushBytes, pushKept := run(true)
	if clientKept != rows/100 || pushKept != rows/100 {
		t.Fatalf("kept %d/%d rows, want %d", clientKept, pushKept, rows/100)
	}
	speedup := float64(clientDur) / float64(pushDur)
	// Race-detector instrumentation compresses the wall-clock ratio
	// (1.36-1.47x measured under -race), so it is asserted only without
	// the detector; the bytes on the wire are asserted in every mode.
	if speedup < 1.5 && !raceEnabled {
		t.Fatalf("pushdown speedup %.2f, want >= 1.5", speedup)
	}
	if pushBytes*10 > clientBytes {
		t.Fatalf("pushdown shipped %d bytes vs %d client-side; expected ~1%% of the traffic",
			pushBytes, clientBytes)
	}
}

// TestPlanCacheCompilesOncePerShape asserts the plan-shape cache's contract
// over the wire: repeated executions of one shape compile exactly once.
func TestPlanCacheCompilesOncePerShape(t *testing.T) {
	_, _, addr := startScanServer(t, engine.PLPLeaf, 1000, 0)
	c := dial(t, addr)

	mk := func(balance int64) *plan.Plan {
		b := client.NewPlan()
		b.Scan("sub", keyenc.Uint64Key(1), nil, 16).
			Where(plan.And(plan.Int64Cmp(0, plan.CmpGe, balance), plan.Int64Cmp(0, plan.CmpLt, balance+3)))
		b.Get("sub", keyenc.Uint64Key(500))
		return b.MustBuild()
	}

	_, _, compiles0 := engine.PlanCacheCounters()
	if _, err := c.DoPlan(mk(10)); err != nil {
		t.Fatal(err)
	}
	_, _, compilesCold := engine.PlanCacheCounters()
	if compilesCold-compiles0 != 1 {
		t.Fatalf("cold execution compiled %d times, want 1", compilesCold-compiles0)
	}

	const reps = 50
	hits0, _, _ := engine.PlanCacheCounters()
	for i := 0; i < reps; i++ {
		res, err := c.DoPlan(mk(int64(i % 90)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res[0].Entries) == 0 {
			t.Fatalf("rebound filter returned nothing for balance %d", i%90)
		}
	}
	hits1, _, compilesWarm := engine.PlanCacheCounters()
	if compilesWarm != compilesCold {
		t.Fatalf("hit path compiled %d times on repeated shapes, want 0", compilesWarm-compilesCold)
	}
	if hits1-hits0 < reps {
		t.Fatalf("cache hits moved by %d, want >= %d", hits1-hits0, reps)
	}
}
