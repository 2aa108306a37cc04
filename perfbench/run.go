package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"plp/internal/cs"
	"plp/internal/latch"
	"plp/internal/txn"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics the untraced run prints; BENCHMARK.json lists
// the same names, units and bounds.
var endToEnd = []metricDef{
	{"cpu_us_per_txn", "us"},
	{"read_p50_us", "us"},
	{"ok_frac", "fraction"},
	{"log_bytes_per_txn", "B"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics the traced run prints.
var perLayer = []metricDef{
	{"client.saturated_tps", "1/s"},
	{"client.write_p50_us", "us"},
	{"client.read_p99_us", "us"},
	{"client.read_samples", "count"},
	{"client.write_p99_us", "us"},
	{"client.write_samples", "count"},
	{"server.read_overhead_us", "us"},
	{"server.write_overhead_us", "us"},
	{"server.aborted_frac", "fraction"},
	{"plan.compile_us", "us"},
	{"plan.cache_hit_frac", "fraction"},
	{"engine.read_exec_p50_us", "us"},
	{"engine.write_exec_p50_us", "us"},
	{"engine.scan_chunk_us", "us"},
	{"engine.scan_examined_per_returned", "ratio"},
	{"dora.tasks_per_txn", "count"},
	{"dora.queue_wait_us_per_txn", "us"},
	{"dora.busy_us_per_txn", "us"},
	{"dora.max_partition_busy_share", "fraction"},
	{"txn.commit_wait_us", "us"},
	{"txn.wait_log_us_per_txn", "us"},
	{"txn.wait_lock_us_per_txn", "us"},
	{"txn.wait_queue_us_per_txn", "us"},
	{"txn.abort_frac", "fraction"},
	{"cs.per_txn", "count"},
	{"cs.contended_per_txn", "count"},
	{"cs.logmgr_per_txn", "count"},
	{"cs.logmgr_contended_per_txn", "count"},
	{"cs.bpool_per_txn", "count"},
	{"cs.msgpass_per_txn", "count"},
	{"cs.xctmgr_per_txn", "count"},
	{"latch.index_per_txn", "count"},
	{"latch.heap_per_txn", "count"},
	{"bufferpool.fixes_per_txn", "count"},
	{"wal.appends_per_txn", "count"},
	{"wal.txns_per_flush", "count"},
	{"wal.flushes_per_s", "1/s"},
	{"recovery.restart_s", "s"},
	{"recovery.checkpoint_s", "s"},
	{"recovery.open_s", "s"},
	{"recovery.replay_s", "s"},
	{"recovery.replay_ops", "count"},
	{"go.allocs_per_txn", "count"},
	{"go.alloc_bytes_per_txn", "B"},
	{"go.gc_cpu_frac", "fraction"},
	{"host.steal_frac", "fraction"},
	{"host.cpu_util", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// run sets up, measures, verifies, restarts and verifies again, and
// returns every metric it measured.
func (b *bench) run() (map[string]float64, error) {
	var setupCPU []float64
	var checkpoint time.Duration
	for i := 0; i < setups; i++ {
		// Every repetition starts from the same heap: the previous
		// engine's garbage is collected before the CPU time is read.
		runtime.GC()
		cpu0 := processCPU()
		d, cp, err := b.setup(b.dbDir(i))
		cpu := processCPU() - cpu0
		fmt.Fprintf(os.Stderr, "perfbench: setup %d: %.3fs wall, %.3fs cpu\n", i, d.Seconds(), cpu.Seconds())
		if err != nil {
			_ = b.shutdown() // the set-up error is the one to report
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupCPU = append(setupCPU, cpu.Seconds())
		checkpoint = cp
		if i < setups-1 {
			if err := b.shutdown(); err != nil {
				return nil, err
			}
			removeDir(b.dbDir(i))
		}
	}
	m, err := b.measure()
	if serr := b.shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	m["setup_s"] = median(setupCPU)
	m["recovery.checkpoint_s"] = checkpoint.Seconds()

	var total, open, replay []float64
	for i := 0; i < restarts; i++ {
		runtime.GC()
		cpu := processCPU()
		t, o, r, info, err := b.restart(b.dbDir(setups - 1))
		fmt.Fprintf(os.Stderr, "perfbench: restart %d: %.3fs wall, %.3fs cpu\n", i, t.Seconds(), (processCPU() - cpu).Seconds())
		if err != nil {
			b.fail(err)
			break
		}
		total, open, replay = append(total, t.Seconds()), append(open, o.Seconds()), append(replay, r.Seconds())
		m["recovery.replay_ops"] = float64(info.Replay.Applied)
	}
	m["recovery.restart_s"] = median(total)
	m["recovery.open_s"] = median(open)
	m["recovery.replay_s"] = median(replay)
	return m, nil
}

// measure runs the measured phases against the served engine, then
// verifies it.  The saturated and serial phases alternate in rounds, so a
// spell of host steal or a slow disk hits both alike, and every
// per-round figure is reported as its median over the rounds.
func (b *bench) measure() (map[string]float64, error) {
	b.captureSchema()
	if err := b.wl.prepare(b.e); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	cs, err := b.dial(conns)
	if err != nil {
		return nil, err
	}
	defer closeAll(cs)

	satN := b.seconds * b.size.satPerSec
	satQ := quotas(satN, rounds)
	serQ := quotas(b.seconds*b.size.serPerSec, rounds)
	b.phase("warmup", cs, b.size.depth, satN/10, b.wl.saturated, false)
	// Start the measured rounds right after a collection, so the number
	// and placement of collections inside them follow from what the rounds
	// allocate rather than from what set-up and warm-up left behind.
	runtime.GC()
	start := b.snapshot()
	committed0 := b.committed
	var perRound []map[string]float64
	var ser latencies
	// Each round's serial read and write medians.  Point reads run in fast
	// and slow spells of the host (about 20 and 30 µs) whose share changes
	// from run to run; a median over all of a run's reads jumps from one
	// spell's level to the other's as that share nears a half, while the
	// mean of the rounds' medians moves only in proportion to it.
	var serP50 [numOpKinds][]float64
	for r := 0; r < rounds; r++ {
		rm := make(map[string]float64)
		// The traced run adds a traced copy of the saturated phase to every
		// round, before the untraced one in odd rounds and after it in even
		// ones, so neither copy always follows the serial phase.
		tracedCopy := func() {
			t := b.phase(fmt.Sprintf("saturated-traced-%d", r), cs, b.size.depth, satQ[r], b.wl.saturated, true)
			rm["traced_tps"] = perSec(t.committed, t.host.wall)
		}
		if b.traced && r%2 == 1 {
			tracedCopy()
		}
		before := b.snapshot()
		sat := b.phase(fmt.Sprintf("saturated-%d", r), cs, b.size.depth, satQ[r], b.wl.saturated, false)
		after := b.snapshot()
		rm["client.saturated_tps"] = perSec(sat.committed, sat.host.wall)
		rm["cpu_us_per_txn"] = per(float64(sat.host.cpu.Microseconds()), sat.committed)
		if b.traced {
			b.roundLayerMetrics(rm, sat, before, after)
			if r%2 == 0 {
				tracedCopy()
			}
		}
		perRound = append(perRound, rm)
		// With one operation in flight nothing runs in parallel, so the
		// serial phase runs on one Go processor: with more, each request
		// hops between virtual CPUs, and every hop waits for the
		// hypervisor to wake an idle one, which made the point-read median
		// switch between 20 and 50 µs with the host's load.
		procs := runtime.GOMAXPROCS(1)
		s := b.serial(r, cs[0], serQ[r])
		runtime.GOMAXPROCS(procs)
		ser.merge(&s.lat)
		for _, k := range []opKind{opRead, opWrite} {
			serP50[k] = append(serP50[k], median(s.lat[k]))
		}
	}
	end := b.snapshot()
	heap := liveHeapMB()
	window := start.host.until(end.host)
	fmt.Printf("# host steal_frac=%.4f cpu_util=%.4f wall_s=%.3f\n", window.stealFrac, window.cpuUtil, window.wall.Seconds())

	m := medians(perRound)
	m["read_p50_us"] = mean(serP50[opRead])
	m["client.write_p50_us"] = mean(serP50[opWrite])
	m["log_bytes_per_txn"] = per(float64(end.wal.BytesLogged-start.wal.BytesLogged), b.committed-committed0)
	m["heap_mb"] = heap
	if b.traced {
		m["trace.overhead_frac"] = 1 - m["traced_tps"]/m["client.saturated_tps"]
		ps, err := b.probe()
		if err != nil {
			b.fail(err)
		}
		b.layerMetrics(m, ser, ps, start, end)
	}
	if err := b.wl.verify(b.e, false); err != nil {
		b.fail(fmt.Errorf("after the measured phases: %w", err))
	}
	m["ok_frac"] = per(float64(b.committed), b.attempted)
	return m, nil
}

// medians returns, for every key of the per-round maps, its median.
func medians(rounds []map[string]float64) map[string]float64 {
	vals := make(map[string][]float64)
	for _, rm := range rounds {
		for k, v := range rm {
			vals[k] = append(vals[k], v)
		}
	}
	m := make(map[string]float64, len(vals))
	for k, vs := range vals {
		m[k] = median(vs)
	}
	return m
}

// roundLayerMetrics computes the counter ratios of one untraced saturated
// round, so span recording never shows in them.
func (b *bench) roundLayerMetrics(m map[string]float64, sat phaseStats, c0, c1 counters) {
	n := sat.committed
	host := c0.host.until(c1.host)

	var tasks uint64
	var queue, busy, maxBusy time.Duration
	for i := range c1.parts {
		tasks += c1.parts[i].Executed - c0.parts[i].Executed
		queue += c1.parts[i].QueueWait - c0.parts[i].QueueWait
		pb := c1.parts[i].Busy - c0.parts[i].Busy
		busy += pb
		maxBusy = max(maxBusy, pb)
	}
	m["dora.tasks_per_txn"] = per(float64(tasks), n)
	m["dora.queue_wait_us_per_txn"] = per(float64(queue.Microseconds()), n)
	m["dora.busy_us_per_txn"] = per(float64(busy.Microseconds()), n)
	m["dora.max_partition_busy_share"] = per(float64(maxBusy), int(busy))

	d := c1.cs.Sub(c0.cs)
	m["cs.per_txn"] = per(float64(d.Total()), n)
	m["cs.contended_per_txn"] = per(float64(d.TotalContended()), n)
	m["cs.logmgr_per_txn"] = per(float64(d.Entered[cs.LogMgr]), n)
	m["cs.logmgr_contended_per_txn"] = per(float64(d.Contended[cs.LogMgr]), n)
	m["cs.bpool_per_txn"] = per(float64(d.Entered[cs.Bpool]), n)
	m["cs.msgpass_per_txn"] = per(float64(d.Entered[cs.MessagePassing]), n)
	m["cs.xctmgr_per_txn"] = per(float64(d.Entered[cs.XctMgr]), n)

	l := c1.latch.Sub(c0.latch)
	m["latch.index_per_txn"] = per(float64(l.Acquired[latch.KindIndex]), n)
	m["latch.heap_per_txn"] = per(float64(l.Acquired[latch.KindHeap]), n)
	m["bufferpool.fixes_per_txn"] = per(float64(c1.bp.Fixes-c0.bp.Fixes), n)

	flushes := c1.wal.Flushes - c0.wal.Flushes
	m["wal.appends_per_txn"] = per(float64(c1.wal.Appends-c0.wal.Appends), n)
	m["wal.txns_per_flush"] = per(float64(sat.writes), int(flushes))
	m["wal.flushes_per_s"] = perSec(int(flushes), host.wall)

	m["go.allocs_per_txn"] = per(c1.rt[0]-c0.rt[0], n)
	m["go.alloc_bytes_per_txn"] = per(c1.rt[1]-c0.rt[1], n)
	m["host.steal_frac"] = host.stealFrac
	m["host.cpu_util"] = host.cpuUtil
}

// layerMetrics fills in the per-layer metrics taken over the whole
// measured window (c0..c1), the serial-phase tails and the probe.
func (b *bench) layerMetrics(m map[string]float64, ser latencies, ps probeStats, c0, c1 counters) {
	// The runtime refreshes its CPU-class estimates only when a collection
	// ends, so GC CPU is taken over the whole window, which holds several,
	// and divided by the process CPU time getrusage measured.
	m["go.gc_cpu_frac"] = (c1.rt[2] - c0.rt[2]) / c0.host.until(c1.host).cpu.Seconds()

	readP99, readN := percentile(ser[opRead], 99)
	writeP99, writeN := percentile(ser[opWrite], 99)
	m["client.read_p99_us"], m["client.read_samples"] = readP99, float64(readN)
	m["client.write_p99_us"], m["client.write_samples"] = writeP99, float64(writeN)

	readExec, writeExec := median(ps.exec[opRead]), median(ps.exec[opWrite])
	m["server.read_overhead_us"] = m["read_p50_us"] - readExec
	m["server.write_overhead_us"] = m["client.write_p50_us"] - writeExec
	m["server.aborted_frac"] = per(float64(c1.srv.Aborted-c0.srv.Aborted), int(c1.srv.Requests-c0.srv.Requests))

	m["plan.compile_us"] = median(ps.compileUS)
	hits, misses := c1.planHits-c0.planHits, c1.planMisses-c0.planMisses
	m["plan.cache_hit_frac"] = per(float64(hits), int(hits+misses))

	m["engine.read_exec_p50_us"] = readExec
	m["engine.write_exec_p50_us"] = writeExec
	m["engine.scan_chunk_us"] = median(ps.chunkUS)
	m["engine.scan_examined_per_returned"] = per(float64(ps.examined), ps.returned)

	acks := c1.ack.Count - c0.ack.Count
	m["txn.commit_wait_us"] = per(float64(c1.ack.SumNS-c0.ack.SumNS)/1e3, int(acks))
	m["txn.wait_log_us_per_txn"] = per(float64(ps.waits[txn.WaitLog].Microseconds()), ps.txns)
	m["txn.wait_lock_us_per_txn"] = per(float64(ps.waits[txn.WaitLock].Microseconds()), ps.txns)
	m["txn.wait_queue_us_per_txn"] = per(float64(ps.waits[txn.WaitQueue].Microseconds()), ps.txns)
	commits, aborts := c1.txn.Committed-c0.txn.Committed, c1.txn.Aborted-c0.txn.Aborted
	m["txn.abort_frac"] = per(float64(aborts), int(commits+aborts))
}

// per is v/n, defined as 0 when nothing happened (n == 0).
func per(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

// perSec is a count per wall-clock second.
func perSec(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
