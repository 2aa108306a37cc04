package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"plp/client"
	"plp/internal/bufferpool"
	"plp/internal/catalog"
	"plp/internal/cs"
	"plp/internal/dora"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/latch"
	"plp/internal/server"
	"plp/internal/txn"
	"plp/internal/wal"
	"plp/plan"
	"plp/wire"
)

const (
	// setups is how many times a run sets the database up; setup_s is
	// the median, and the last set-up is the one measured.
	setups = 3
	// restarts is how many times a run restarts the measured database;
	// recovery.restart_s is the median.
	restarts = 2
	// rounds is how many saturated+serial rounds a run measures.  The
	// host's speed changes in spells of tens of milliseconds, so many
	// short serial phases spread over the measured window sample it
	// better than a few long ones.
	rounds = 45
	// conns is the number of client connections of the saturated phase.
	conns = 2
)

// sizing fixes a workload's phase lengths as operation counts per nominal
// second of --seconds, so the work a run measures never depends on how fast
// the program is: a faster commit path must not log more and then read as
// a restart_s or heap_mb regression.
type sizing struct {
	depth     int // ops in flight per connection in the saturated phase
	satPerSec int // saturated-phase ops per nominal second
	serPerSec int // serial-phase ops per nominal second
	probes    int // in-process probe ops (traced run)
}

var sizes = map[string]sizing{
	"tatp-mix":     {depth: 16, satPerSec: 12000, serPerSec: 26400, probes: 19800},
	"tpcb-durable": {depth: 16, satPerSec: 5000, serPerSec: 25000, probes: 6250},
	"scan-filter":  {depth: 2, satPerSec: 150, serPerSec: 16200, probes: 8100},
}

type bench struct {
	seed    int64
	seconds int
	traced  bool
	dir     string

	wl   workload
	size sizing
	tr   *tracer // nil in the untraced run

	e      *engine.Engine
	srv    *server.Server
	served chan error
	addr   string
	defs   []catalog.TableDef

	nextIdx uint64 // run-wide op index; see workload.saturated

	mu        sync.Mutex
	attempted int
	committed int
	failures  []error // reply and verification failures: correct=false
	firstErr  error   // first failed operation, for the log
}

func engineOptions(dir string) engine.Options {
	// plpd's defaults: PLP-Leaf over 8 partitions, group-commit fsync
	// before acknowledgement (no lazy commit), no background checkpoint,
	// no repartitioning.
	return engine.Options{Design: engine.PLPLeaf, Partitions: partitions, DataDir: dir}
}

// fail records a correctness failure.
func (b *bench) fail(err error) {
	b.mu.Lock()
	b.failures = append(b.failures, err)
	b.mu.Unlock()
}

// setup opens a fresh durable engine in dir, loads the workload, takes the
// post-load checkpoint and starts serving on loopback.  It returns the
// set-up time and the checkpoint's share of it.
func (b *bench) setup(dir string) (total, checkpoint time.Duration, err error) {
	start := time.Now()
	err = b.tr.region("setup", 0, func(id uint64) error {
		if err := b.tr.region("engine.Open", id, func(uint64) error {
			var err error
			b.e, err = engine.Open(engineOptions(dir))
			return err
		}); err != nil {
			return err
		}
		if err := b.tr.region("workload.load", id, func(uint64) error { return b.wl.load(b.e) }); err != nil {
			return err
		}
		cpStart := time.Now()
		if err := b.tr.region("engine.Checkpoint", id, func(uint64) error {
			_, err := b.e.Checkpoint()
			return err
		}); err != nil {
			return err
		}
		checkpoint = time.Since(cpStart)
		return b.tr.region("server.Listen", id, func(uint64) error {
			srv := server.New(b.e)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return err
			}
			b.srv, b.addr, b.served = srv, addr, make(chan error, 1)
			go func() { b.served <- srv.Serve() }()
			return nil
		})
	})
	return time.Since(start), checkpoint, err
}

// shutdown stops the server and closes the engine cleanly; a clean close
// drains the log, so the restart that follows recovers every commit.
func (b *bench) shutdown() error {
	var err error
	if b.srv != nil {
		err = b.srv.Close()
		if serr := <-b.served; !errors.Is(serr, server.ErrClosed) && err == nil {
			err = serr
		}
		b.srv = nil
	}
	if b.e != nil {
		if cerr := b.e.Close(); err == nil {
			err = cerr
		}
		b.e = nil
	}
	return err
}

// captureSchema records the table definitions in creation order so the
// restart re-creates the same schema before recovery.
func (b *bench) captureSchema() {
	tables := b.e.Catalog().Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })
	b.defs = b.defs[:0]
	for _, t := range tables {
		b.defs = append(b.defs, t.Def)
	}
}

// restart opens the data directory again, re-creates the schema, recovers
// and verifies.  total runs from Open until the verification passed.
func (b *bench) restart(dir string) (total, open, replay time.Duration, info engine.RecoverInfo, err error) {
	start := time.Now()
	var e *engine.Engine
	err = b.tr.region("restart", 0, func(id uint64) error {
		t := time.Now()
		if err := b.tr.region("engine.Open", id, func(uint64) error {
			var err error
			e, err = engine.Open(engineOptions(dir))
			return err
		}); err != nil {
			return err
		}
		open = time.Since(t)
		for _, def := range b.defs {
			if _, err := e.CreateTable(def); err != nil {
				return err
			}
		}
		t = time.Now()
		if err := b.tr.region("engine.Recover", id, func(uint64) error {
			var err error
			info, err = e.Recover()
			return err
		}); err != nil {
			return err
		}
		replay = time.Since(t)
		return b.tr.region("workload.verify", id, func(uint64) error {
			if err := b.wl.verify(e, true); err != nil {
				return fmt.Errorf("after restart: %w", err)
			}
			return nil
		})
	})
	total = time.Since(start)
	if e != nil {
		if cerr := e.Close(); err == nil {
			err = cerr
		}
	}
	return total, open, replay, info, err
}

// exec runs one op over the wire and returns the reply of a committed op.
func exec(ctx context.Context, c *client.Client, o *op) (*reply, error) {
	if o.kind == opScan {
		st, err := c.ScanStream(ctx, o.table, keyenc.Uint64Key(o.lo), keyenc.Uint64Key(o.hi),
			&client.ScanStreamOptions{Filter: o.pred})
		if err != nil {
			return nil, err
		}
		var r reply
		for st.Next() {
			r.entries = append(r.entries, st.Entry())
		}
		err = st.Err()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return &r, err
	}
	resp, err := c.DoPlanAsync(ctx, o.plan).Result()
	if err != nil {
		return nil, err
	}
	return &reply{results: resp.Results}, nil
}

// phaseStats is the outcome of one closed-loop phase.
type phaseStats struct {
	host      hostDelta
	attempted int
	committed int
	writes    int // committed write transactions
	lat       latencies
}

// phase runs total operations drawn from gen as a closed loop over the
// given connections with depth operations in flight on each: every slot
// issues its quota one operation at a time, waiting for each reply.
func (b *bench) phase(name string, cs []*client.Client, depth, total int, gen func(*rand.Rand, uint64) op, traced bool) phaseStats {
	q := quotas(total, len(cs)*depth)
	out := make([]phaseStats, len(q))
	spans := make([][]span, len(q))
	tr := b.tr
	if !traced {
		tr = nil
	}
	var wg sync.WaitGroup
	start := readHost()
	first := b.nextIdx
	for s := range q {
		wg.Add(1)
		go func(s int, first uint64) {
			defer wg.Done()
			out[s], spans[s] = b.slot(cs[s%len(cs)], name, s, q[s], first, gen, tr)
		}(s, first)
		first += uint64(q[s])
	}
	wg.Wait()
	end := readHost()
	b.nextIdx = first

	st := phaseStats{host: start.until(end)}
	for s := range out {
		st.attempted += out[s].attempted
		st.committed += out[s].committed
		st.writes += out[s].writes
		st.lat.merge(&out[s].lat)
		tr.add(spans[s]...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: phase %s: %d/%d ops committed in %.3fs, %.1f cpu us/op, p50 %.1f us (steal %.3f, cpu util %.3f)\n",
		name, st.committed, st.attempted, st.host.wall.Seconds(), per(float64(st.host.cpu.Microseconds()), st.attempted),
		median(slices.Concat(st.lat[:]...)),
		st.host.stealFrac, st.host.cpuUtil)
	b.mu.Lock()
	b.attempted += st.attempted
	b.committed += st.committed
	b.mu.Unlock()
	return st
}

// serial runs one round's serial phase on one connection with one
// operation in flight: each operation type of the workload's serial mix
// as its own back-to-back sub-phase.
func (b *bench) serial(round int, c *client.Client, total int) phaseStats {
	var st phaseStats
	for k, n := range split(total, b.wl.serialMix()) {
		if n == 0 {
			continue
		}
		kind := opKind(k)
		gen := func(rng *rand.Rand, idx uint64) op { return b.wl.serialOp(kind, rng, idx) }
		p := b.phase(fmt.Sprintf("serial-%s-%d", kindNames[kind], round), []*client.Client{c}, 1, n, gen, b.traced)
		st.attempted += p.attempted
		st.committed += p.committed
		st.writes += p.writes
		st.lat.merge(&p.lat)
	}
	return st
}

// Span names of wire operations and in-process probes, by operation type.
var (
	clientSpans = [numOpKinds]string{opRead: "client.read", opWrite: "client.write", opScan: "client.scan"}
	probeSpans  = [numOpKinds]string{opRead: "probe.read", opWrite: "probe.write", opScan: "probe.scan"}
)

// slot is one closed-loop caller: n operations, each submitted after the
// previous one's reply arrived.
func (b *bench) slot(c *client.Client, phase string, s, n int, first uint64, gen func(*rand.Rand, uint64) op, tr *tracer) (phaseStats, []span) {
	rng := rand.New(rand.NewSource(streamSeed(b.seed, phase, s)))
	ctx := context.Background()
	var st phaseStats
	var spans []span
	if tr != nil {
		spans = make([]span, 0, n)
	}
	for i := 0; i < n; i++ {
		idx := first + uint64(i)
		o := gen(rng, idx)
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		began := time.Now()
		r, err := exec(ctx, c, &o)
		us := float64(time.Since(began).Nanoseconds()) / 1e3
		if tr != nil {
			spans = append(spans, span{ID: tr.id(), Txn: idx, Name: clientSpans[o.kind], Start: t0, End: tr.now()})
		}
		st.attempted++
		if err != nil {
			b.mu.Lock()
			if b.firstErr == nil {
				b.firstErr = fmt.Errorf("%s: %w", phase, err)
			}
			b.mu.Unlock()
			continue
		}
		b.wl.acked(&o)
		if err := b.wl.check(&o, r); err != nil {
			b.fail(fmt.Errorf("%s: %w", phase, err))
			continue
		}
		st.committed++
		if o.kind == opWrite {
			st.writes++
		}
		st.lat.add(o.kind, us)
	}
	return st, spans
}

// dial opens n client connections to the server.
func (b *bench) dial(n int) ([]*client.Client, error) {
	var cs []*client.Client
	for i := 0; i < n; i++ {
		c, err := client.DialContext(context.Background(), b.addr, nil)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client.Client) {
	for _, c := range cs {
		_ = c.Close() // the connection carries no unacknowledged work here
	}
}

// counters is a snapshot of every counter the layers export, taken at a
// phase boundary.
type counters struct {
	host       hostSample
	cs         cs.Snapshot
	latch      latch.Snapshot
	bp         bufferpool.Stats
	parts      []dora.Stats
	wal        wal.Stats
	txn        txn.Stats
	srv        server.Stats
	planHits   int64
	planMisses int64
	ack        txn.AckWaitHist
	rt         [3]float64 // runtime/metrics, see runtimeSamples
}

// runtimeSamples are read at every snapshot: allocated objects and bytes,
// and GC CPU seconds.
var runtimeSamples = [3]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func (b *bench) snapshot() counters {
	c := counters{
		host:  readHost(),
		cs:    b.e.CSStats().Snapshot(),
		latch: b.e.LatchStats().Snapshot(),
		bp:    b.e.BufferPool().Stats(),
		parts: b.e.PartitionStats(),
		wal:   b.e.Log().Stats(),
		txn:   b.e.TxnStats(),
		srv:   b.srv.Stats(),
	}
	c.planHits, c.planMisses, _ = engine.PlanCacheCounters()
	c.ack, _ = b.e.AckWaitHistograms()
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			c.rt[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			c.rt[i] = s[i].Value.Float64()
		}
	}
	return c
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// probeStats is what the in-process engine probe measured.
type probeStats struct {
	compileUS []float64
	exec      latencies // Session.Execute only, by operation type
	waits     [txn.NumWaitKinds]time.Duration
	txns      int
	chunkUS   []float64
	examined  int
	returned  int
}

// probe runs the workload's serial mix in-process at depth 1, timing
// CompilePlan and Session.Execute separately and every ScanChunk of a
// scan, then walks extra scan ranges chunk by chunk.  It bypasses client,
// wire and server, so the wire latency minus the probe's is what those
// layers cost.
func (b *bench) probe() (probeStats, error) {
	var ps probeStats
	sess := b.e.NewSession()
	defer sess.Close()
	rng := rand.New(rand.NewSource(streamSeed(b.seed, "probe", 0)))
	for k, n := range split(b.size.probes, b.wl.serialMix()) {
		for i := 0; i < n; i++ {
			idx := b.nextIdx
			b.nextIdx++
			o := b.wl.serialOp(opKind(k), rng, idx)
			var err error
			if o.kind == opScan {
				err = b.probeScan(&o, &ps)
			} else {
				err = b.probeOne(sess, &o, idx, &ps)
			}
			if err != nil {
				return ps, err
			}
		}
	}
	for i := 0; i < b.size.probes/10+1; i++ {
		o := b.wl.scanProbe(rng)
		if err := b.probeScan(&o, &ps); err != nil {
			return ps, err
		}
	}
	return ps, nil
}

func (b *bench) probeOne(sess *engine.Session, o *op, idx uint64, ps *probeStats) error {
	results := make([]plan.Result, o.plan.NumOps())
	var (
		req    *engine.Request
		finish func()
		res    engine.Result
	)
	err := b.tr.region(probeSpans[o.kind], 0, func(root uint64) error {
		t := time.Now()
		if err := b.tr.region("engine.CompilePlan", root, func(uint64) error {
			var err error
			req, finish, err = b.e.CompilePlan(o.plan, results, nil)
			return err
		}); err != nil {
			return err
		}
		ps.compileUS = append(ps.compileUS, float64(time.Since(t).Nanoseconds())/1e3)
		t = time.Now()
		err := b.tr.region("engine.Execute", root, func(uint64) error {
			var err error
			res, err = sess.Execute(req)
			return err
		})
		ps.exec.add(o.kind, float64(time.Since(t).Nanoseconds())/1e3)
		finish()
		return err
	})
	if err != nil {
		return fmt.Errorf("probe op %d: %w", idx, err)
	}
	b.wl.acked(o)
	r := reply{results: make([]wire.StatementResult, len(results))}
	for i, pr := range results {
		r.results[i] = wire.StatementResult{Found: pr.Found, Value: pr.Value}
	}
	if err := b.wl.check(o, &r); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	for k := range ps.waits {
		ps.waits[k] += res.Breakdown.Waits[k]
	}
	ps.txns++
	return nil
}

// probeScan walks o's range with ScanChunk, timing every chunk.
func (b *bench) probeScan(o *op, ps *probeStats) error {
	flt, err := o.pred.Compile()
	if err != nil {
		return err
	}
	return b.tr.region(probeSpans[opScan], 0, func(root uint64) error {
		cursor, hi := keyenc.Uint64Key(o.lo), keyenc.Uint64Key(o.hi)
		for {
			var res engine.ScanChunkResult
			t := time.Now()
			if err := b.tr.region("engine.ScanChunk", root, func(uint64) error {
				var err error
				res, err = b.e.ScanChunk(o.table, cursor, hi, flt, 0, nil)
				return err
			}); err != nil {
				return err
			}
			ps.chunkUS = append(ps.chunkUS, float64(time.Since(t).Nanoseconds())/1e3)
			ps.examined += res.Scanned
			ps.returned += len(res.Entries)
			if res.Done {
				return nil
			}
			cursor = res.Next
		}
	})
}

// removeDir deletes a data directory, reporting failures on stderr only:
// the next run starts from a fresh directory either way.
func removeDir(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// dbDir is the data directory of set-up i.
func (b *bench) dbDir(i int) string { return filepath.Join(b.dir, fmt.Sprintf("db%d", i)) }
