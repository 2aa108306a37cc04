// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation studies called out in DESIGN.md.
//
// Each benchmark executes the corresponding experiment end to end (build
// engines, load, run the measured interval) once per iteration and reports
// the figure's headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result at benchmark scale.  cmd/plpbench runs the same
// experiments at larger scale with tabular output.
package plp

import (
	"testing"
	"time"

	"plp/internal/cs"
	"plp/internal/experiments"
	"plp/internal/latch"
)

// benchScale returns the scale used by the benchmark suite: large enough to
// show the contention effects, small enough to keep the full suite in the
// minutes range.
func benchScale() experiments.Scale {
	s := experiments.DefaultScale()
	s.TATPSubscribers = 10000
	s.TPCBBranches = 1
	s.TPCBAccountsPerBranch = 5000
	s.TPCCWarehouses = 1
	s.Partitions = 4
	s.Clients = 4
	s.TxnsPerClient = 1000
	s.Warmup = 100
	return s
}

// metricLabel turns a human-readable row label into a benchmark metric unit
// (testing.B rejects units containing whitespace).
func metricLabel(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '\t', ',', '(', ')':
			if len(out) > 0 && out[len(out)-1] == '-' {
				continue
			}
			out = append(out, '-')
		default:
			out = append(out, r)
		}
	}
	for len(out) > 0 && out[len(out)-1] == '-' {
		out = out[:len(out)-1]
	}
	return string(out)
}

// BenchmarkFig1CriticalSections reproduces Figure 1: critical sections per
// transaction, by component, for the baseline, SLI, Logical and PLP systems.
func BenchmarkFig1CriticalSections(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(s)
		if err != nil {
			b.Fatal(err)
		}
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		b.ReportMetric(first.PerTxn.Total, "cs/txn-baseline")
		b.ReportMetric(last.PerTxn.Total, "cs/txn-plp-leaf")
		b.ReportMetric(first.PerTxn.TotalContended, "contended/txn-baseline")
		b.ReportMetric(last.PerTxn.TotalContended, "contended/txn-plp-leaf")
	}
}

// BenchmarkFig2LatchBreakdown reproduces Figure 2: page latches by page type
// for TATP, TPC-B and TPC-C on the conventional system.
func BenchmarkFig2LatchBreakdown(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			total := row.LatchesPerTxn[latch.KindIndex] + row.LatchesPerTxn[latch.KindHeap] + row.LatchesPerTxn[latch.KindCatalog]
			if total > 0 {
				b.ReportMetric(100*row.LatchesPerTxn[latch.KindIndex]/total, "idx%-"+row.Workload)
			}
		}
	}
}

// BenchmarkFig3LatchByDesign reproduces Figure 3: page latches acquired per
// transaction by each design on TATP.
func BenchmarkFig3LatchByDesign(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.Total, "latches/txn-"+row.System)
		}
	}
}

// BenchmarkTable1RepartitionCost reproduces Table 1: the cost of splitting a
// partition in half, measured on loaded databases of each PLP variant.
func BenchmarkTable1RepartitionCost(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1Measured(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(float64(row.EntriesMoved), "entries-"+row.System)
			b.ReportMetric(float64(row.RecordsMoved), "records-"+row.System)
		}
	}
}

// BenchmarkFig5Throughput reproduces Figure 5: GetSubscriberData throughput
// scaling for the conventional, logical and PLP designs.
func BenchmarkFig5Throughput(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(s, []int{1, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.Clients == 8 {
				b.ReportMetric(p.TPS, "tps8-"+p.System)
			}
		}
	}
}

// BenchmarkFig6InsertDelete reproduces Figure 6: the per-transaction time
// breakdown of the insert/delete-heavy workload (index latch contention).
func BenchmarkFig6InsertDelete(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(s, []int{s.Clients})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(float64(row.WaitPerTxn[1])/1e3, "heapwait-us-"+row.System)
			b.ReportMetric(float64(row.WaitPerTxn[0])/1e3, "idxwait-us-"+row.System)
			b.ReportMetric(row.TPS, "tps-"+row.System)
		}
	}
}

// BenchmarkFig7FalseSharing reproduces Figure 7: TPC-B with heap-page false
// sharing.
func BenchmarkFig7FalseSharing(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(s, []int{s.Clients})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(float64(row.WaitPerTxn[1])/1e3, "heapwait-us-"+row.System)
			b.ReportMetric(row.TPS, "tps-"+row.System)
		}
	}
}

// BenchmarkFig8Repartitioning reproduces Figure 8: throughput while the
// workload skew changes and the engines repartition.
func BenchmarkFig8Repartitioning(b *testing.B) {
	s := benchScale()
	s.Duration = 250 * time.Millisecond // shrink the timeline for benchmarking
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, series := range r.Series {
			min := -1.0
			for _, p := range series.Points {
				if p.T <= r.EventAt {
					continue
				}
				if min < 0 || p.TPS < min {
					min = p.TPS
				}
			}
			if min >= 0 {
				b.ReportMetric(min, "min-tps-after-event-"+series.System)
			}
			b.ReportMetric(float64(series.Rebalance.RecordsMoved), "records-moved-"+series.System)
		}
	}
}

// BenchmarkFig9MRBTreeConventional reproduces Figure 9: the benefit of
// MRBTree indexes inside the conventional and logical designs.
func BenchmarkFig9MRBTreeConventional(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			label := row.System + "-normal"
			if row.MRBTree {
				label = row.System + "-mrbt"
			}
			b.ReportMetric(row.TPS, "tps-"+label)
		}
	}
}

// BenchmarkFig10ParallelSMO reproduces Figure 10: time spent blocked on
// structure modifications as the insert ratio grows, with and without
// MRBTrees.
func BenchmarkFig10ParallelSMO(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(s, []int{0, 50, 100})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.InsertPercent != 100 {
				continue
			}
			label := "normal"
			if row.MRBTree {
				label = "mrbt"
			}
			b.ReportMetric(float64(row.SMOWait)/1e3, "smowait-us-"+label)
			b.ReportMetric(row.TPS, "tps-"+label)
		}
	}
}

// BenchmarkFig11Fragmentation reproduces Figure 11: the heap-space overhead
// of the PLP variations.
func BenchmarkFig11Fragmentation(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(s, []int{100, 1000})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.RecordSize == 100 {
				b.ReportMetric(row.Normalized, "pages-norm-"+row.System)
			}
		}
	}
}

// BenchmarkFig12ScanOverhead reproduces Figure 12: normalized heap scan
// time.
func BenchmarkFig12ScanOverhead(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.Normalized, "scan-norm-"+row.System)
		}
	}
}

// BenchmarkAblationSLI measures the effect of Speculative Lock Inheritance
// in the conventional design.
func BenchmarkAblationSLI(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSLI(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.TPS, "tps-"+metricLabel(row.Label))
		}
	}
}

// BenchmarkAblationLatchFreeIndex measures the effect of latch-free index
// access inside PLP.
func BenchmarkAblationLatchFreeIndex(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationLatchFreeIndex(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.LatchesPerTxn, "latches/txn-"+metricLabel(row.Label))
			b.ReportMetric(row.TPS, "tps-"+metricLabel(row.Label))
		}
	}
}

// BenchmarkAblationLogBuffer compares the consolidated (Aether-style) log
// buffer against a single-mutex buffer.
func BenchmarkAblationLogBuffer(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationLogBuffer(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.TPS, "tps-"+metricLabel(row.Label))
		}
	}
}

// BenchmarkAblationPartitions sweeps the MRBTree partition count.
func BenchmarkAblationPartitions(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPartitionCount(s, []int{1, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.TPS, "tps-"+metricLabel(row.Label))
		}
	}
}

// BenchmarkExtAutoBalance measures automatic load balancing (EXT-1): the
// Figure 8 skew scenario handled by the online repartitioning controller
// instead of a manual Rebalance call.
func BenchmarkExtAutoBalance(b *testing.B) {
	s := benchScale()
	s.Duration = 300 * time.Millisecond
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtAutoBalance(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Series[0].PostSkewTPS, "tps-post-skew-static")
		b.ReportMetric(r.Series[1].PostSkewTPS, "tps-post-skew-auto")
		b.ReportMetric(100*r.Series[0].HotShare, "hot-worker-%-static")
		b.ReportMetric(100*r.Series[1].HotShare, "hot-worker-%-auto")
		b.ReportMetric(float64(r.Series[1].Decisions), "rebalances")
	}
}

// BenchmarkExtRecovery measures checkpointing plus logical restart recovery
// of a TATP database (EXT-2).
func BenchmarkExtRecovery(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtRecovery(s)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Verified {
			b.Fatal("recovered database failed verification")
		}
		b.ReportMetric(r.CheckpointDuration.Seconds()*1000, "checkpoint-ms")
		b.ReportMetric(r.RecoveryDuration.Seconds()*1000, "recovery-ms")
		b.ReportMetric(float64(r.ReplayApplied), "ops-replayed")
		b.ReportMetric(float64(r.CheckpointEntries), "snapshot-entries")
	}
}

// TestPublicAPISmoke exercises the package-level public API end to end so
// the root package has test coverage beyond the benchmarks.
func TestPublicAPISmoke(t *testing.T) {
	for _, design := range AllDesigns() {
		eng := New(Options{Design: design, Partitions: 2})
		if _, err := eng.CreateTable(TableDef{Name: "t", Boundaries: UniformBoundaries(1000, 2)}); err != nil {
			t.Fatal(err)
		}
		sess := eng.NewSession()
		key := Uint64Key(7)
		req := NewRequest(Action{Table: "t", Key: key, Exec: func(c *Ctx) error {
			return c.Insert("t", key, []byte("v"))
		}})
		if _, err := sess.Execute(req); err != nil {
			t.Fatalf("%v: %v", design, err)
		}
		var got []byte
		read := NewRequest(Action{Table: "t", Key: key, Exec: func(c *Ctx) error {
			v, err := c.Read("t", key)
			got = v
			return err
		}})
		if _, err := sess.Execute(read); err != nil {
			t.Fatalf("%v: %v", design, err)
		}
		if string(got) != "v" {
			t.Fatalf("%v: got %q", design, got)
		}
		sess.Close()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The critical-section categories used in reports must round-trip.
	if cs.LockMgr.String() == "" {
		t.Fatal("category label missing")
	}
}
