// The remaining experiments: repartitioning costs (Table 1), time
// breakdowns (Figures 6, 7 and 10), the repartitioning timeline (Figure 8),
// MRBTrees inside conventional systems (Figure 9), heap fragmentation and
// scan overhead (Figures 11 and 12), and the design-choice ablations called
// out in DESIGN.md.

package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"plp/internal/costmodel"
	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/keyenc"
	"plp/internal/page"
	"plp/internal/txn"
	"plp/internal/workload/micro"
	"plp/internal/workload/tatp"
)

//
// Table 1 — repartitioning costs.
//

// Table1MeasuredRow is one measured repartitioning of a loaded database.
type Table1MeasuredRow struct {
	System       string
	EntriesMoved int
	RecordsMoved int
	Duration     time.Duration
}

// Table1Result holds the Appendix C cost model evaluated with the paper's
// Table 1 parameters, and the same repartitioning measured on this
// implementation.
type Table1Result struct {
	Analytical []costmodel.Cost
	Measured   []Table1MeasuredRow
}

// Table1 evaluates the cost model, then loads the same TATP subscriber
// table into the PLP designs and measures the cost of splitting one
// partition in half with the MRBTree slice machinery (via
// Engine.Rebalance).
func Table1(s Scale) (*Table1Result, error) {
	res := &Table1Result{Analytical: costmodel.AllCosts(costmodel.Table1Params())}
	for _, d := range []engine.Design{engine.PLPRegular, engine.PLPLeaf, engine.PLPPartition} {
		e, _, err := setupTATP(engine.Options{Design: d, Partitions: s.Partitions}, s, tatp.MixBalanceProbe)
		if err != nil {
			return nil, err
		}
		// Move the boundary of partition 1 to the middle of partition 0,
		// i.e. split the first partition's data in half.
		perPart := uint64(s.TATPSubscribers) / uint64(s.Partitions)
		st, err := e.Rebalance(tatp.TableSubscriber, 1, keyenc.Uint64Key(perPart/2))
		e.Close()
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", d, err)
		}
		res.Measured = append(res.Measured, Table1MeasuredRow{
			System:       d.String(),
			EntriesMoved: st.EntriesMoved,
			RecordsMoved: st.RecordsMoved,
			Duration:     st.Duration,
		})
	}
	return res, nil
}

// String renders the analytical and measured repartitioning costs.
func (r *Table1Result) String() string {
	rows := [][]string{{"system", "records moved", "entries moved", "pages read", "ptr updates", "primary", "secondary"}}
	for _, c := range r.Analytical {
		rows = append(rows, []string{c.System.String(), fmt.Sprintf("%11d (%3s)", c.RecordsMoved, byteSize(c.RecordBytesMoved)),
			strconv.Itoa(c.EntriesMoved), strconv.Itoa(c.PagesRead), strconv.Itoa(c.PointerUpdates), c.Primary.String(), c.Secondary.String()})
	}
	out := table("Table 1: repartitioning cost model (split a 466 MB partition in half)", " ", []int{-28, 16, 16, 12, 12, 14, 14}, rows...)
	if len(r.Measured) > 0 {
		rows = [][]string{{"system", "entries moved", "records moved", "duration"}}
		for _, m := range r.Measured {
			rows = append(rows, []string{m.System, strconv.Itoa(m.EntriesMoved), strconv.Itoa(m.RecordsMoved), m.Duration.String()})
		}
		out += table("\nMeasured on this implementation (TATP subscriber table, split first partition in half):", " ", []int{-28, 16, 16, 14}, rows...)
	}
	return out
}

// byteSize formats a byte count compactly.
func byteSize(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.0fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// table2 is the closed-form cost model (Appendix C, Table 2), printed next
// to the evaluated costs.
const table2 text = "Table 2: repartitioning cost model (h = tree height, n = entries/node, m_k = entries moved at level k, M = records moved)\n" +
	"  PLP-Regular    : records 0                     entries Σ m_k        reads 0        pages 0            ptr 2h+1  primary -            secondary -\n" +
	"  PLP-Leaf       : records m_1                   entries Σ m_k        reads M        pages 1            ptr 2h+1  primary M updates    secondary M updates\n" +
	"  PLP-Partition  : records m_1+Σ n^(h-l-1)(m_..-1) entries Σ m_k      reads M        pages 1+(M-m_1)/n  ptr 2h+1  primary M updates    secondary M updates\n" +
	"  Shared-Nothing : records (as PLP-Partition)    entries -            reads M        pages 1+(M-m_1)/n  ptr -     primary M ins+M del  secondary M ins+M del\n" +
	"  PLP (Clustered): records m_1                   entries Σ_{k>=2} m_k reads -        pages -            ptr 2h+1  primary -            secondary M updates\n" +
	"  SN  (Clustered): records (as PLP-Partition)    entries -            reads -        pages -            ptr -     primary M ins+M del  secondary M ins+M del\n"

//
// Figures 6, 7, 10 — per-transaction time breakdowns.
//

// BreakdownRow is one bar of a time-breakdown figure.
type BreakdownRow struct {
	System     string
	Clients    int
	TPS        float64
	AvgLatency time.Duration
	WaitPerTxn [txn.NumWaitKinds]time.Duration
}

// Other returns the non-blocked part of the average latency.
func (r BreakdownRow) Other() time.Duration {
	total := r.AvgLatency
	for _, w := range r.WaitPerTxn {
		total -= w
	}
	if total < 0 {
		return 0
	}
	return total
}

// BreakdownResult is a full time-breakdown figure.
type BreakdownResult struct {
	Title string
	Rows  []BreakdownRow
}

// String renders the figure.
func (r *BreakdownResult) String() string {
	rows := [][]string{{"system", "clients", "tps", "latency", "idx latch", "heap latch", "smo wait", "other"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.System, strconv.Itoa(row.Clients), num(0, row.TPS), us(row.AvgLatency),
			us(row.WaitPerTxn[txn.WaitIndexLatch]), us(row.WaitPerTxn[txn.WaitHeapLatch]),
			us(row.WaitPerTxn[txn.WaitSMO]), us(row.Other())})
	}
	return table(r.Title, " ", []int{-22, 8, 10, 12, 14, 14, 12, 12}, rows...)
}

// breakdown measures the per-transaction time breakdown of the systems on
// the workload load builds, at each client count of s.ClientSweep (at
// s.Clients by default).
func (s Scale) breakdown(id, title string, systems []systemConfig, load workloadFor) (*BreakdownResult, error) {
	res := &BreakdownResult{Title: title}
	for _, sys := range systems {
		if err := s.measure(id, sys, load, s.ClientSweep, func(_ *engine.Engine, r harness.Result) {
			res.Rows = append(res.Rows, BreakdownRow{
				System: sys.label, Clients: r.Clients, TPS: r.ThroughputTPS,
				AvgLatency: r.AvgLatency, WaitPerTxn: r.WaitPerTxn,
			})
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Fig6 runs the insert/delete-heavy TATP stream (CallForwarding inserts and
// deletes) and reports the per-transaction time breakdown, showing the index
// latch contention that PLP eliminates.
func Fig6(s Scale) (*BreakdownResult, error) {
	return s.breakdown("fig6", "Figure 6: time breakdown per transaction, insert/delete-heavy workload", []systemConfig{
		{"Conv.", engine.Options{Design: engine.Conventional, Partitions: s.Partitions, SLI: true}},
		{"Logical", engine.Options{Design: engine.Logical, Partitions: s.Partitions}},
		{"PLP", engine.Options{Design: engine.PLPRegular, Partitions: s.Partitions}},
	}, tatpLoad(tatp.MixInsertDeleteCallFwd))
}

// Fig7 runs TPC-B without record padding and reports the per-transaction
// time breakdown, showing heap-page false sharing.
func Fig7(s Scale) (*BreakdownResult, error) {
	return s.breakdown("fig7", "Figure 7: time breakdown per transaction, TPC-B with heap false sharing", []systemConfig{
		{"Conv.", engine.Options{Design: engine.Conventional, Partitions: s.Partitions, SLI: true}},
		{"Logical", engine.Options{Design: engine.Logical, Partitions: s.Partitions}},
		{"PLP-Reg", engine.Options{Design: engine.PLPRegular, Partitions: s.Partitions}},
		{"PLP-Leaf", engine.Options{Design: engine.PLPLeaf, Partitions: s.Partitions}},
	}, tpcbLoad)
}

//
// Figure 8 — throughput timeline during repartitioning.
//

// Fig8Series is the throughput timeline of one design.
type Fig8Series struct {
	System string
	Points []harness.TimelinePoint
	// Rebalance describes the repartitioning performed at the skew change.
	Rebalance engine.RebalanceStats
}

// Fig8Result is the full figure.
type Fig8Result struct {
	Series  []Fig8Series
	EventAt time.Duration
}

// timeline returns the length of a timeline run and when its skew change
// fires: 3 s and 1 s, shrunk for runs whose measured interval is under a
// second (tests).
func (s Scale) timeline() (total, eventAt time.Duration) {
	if s.Duration > 0 && s.Duration < time.Second {
		return 6 * s.Duration, 2 * s.Duration
	}
	return 3 * time.Second, time.Second
}

// timelineInterval is the sampling interval of the timeline figures.
const timelineInterval = 100 * time.Millisecond

// Fig8 runs the balance-probe microbenchmark on every design.  Partway
// through the run the request distribution changes from uniform to skewed
// (50% of the requests target the first 10% of the subscribers) and the
// partitioned designs rebalance by moving the first partition boundary.
func Fig8(s Scale) (*Fig8Result, error) {
	total, eventAt := s.timeline()
	systems := []systemConfig{
		{"Conv.", engine.Options{Design: engine.Conventional, Partitions: 2, SLI: true}},
		{"Logical", engine.Options{Design: engine.Logical, Partitions: 2}},
		{"PLP-Reg.", engine.Options{Design: engine.PLPRegular, Partitions: 2}},
		{"PLP-Part", engine.Options{Design: engine.PLPPartition, Partitions: 2}},
		{"PLP-Leaf", engine.Options{Design: engine.PLPLeaf, Partitions: 2}},
	}
	res := &Fig8Result{EventAt: eventAt}
	for _, sys := range systems {
		opts := sys.opts
		e, w, err := setupTATP(opts, s, tatp.MixBalanceProbe)
		if err != nil {
			return nil, err
		}
		series := Fig8Series{System: sys.label}
		hotBoundary := keyenc.Uint64Key(uint64(s.TATPSubscribers/10) + 1)
		event := func() {
			// The workload becomes skewed and the engine rebalances so that
			// the hot 10% of the key space forms its own partition.
			w.SetSkew(0.10, 0.50)
			if opts.Design.Partitioned() || opts.UseMRBTree {
				st, rerr := e.Rebalance(tatp.TableSubscriber, 1, hotBoundary)
				if rerr == nil {
					series.Rebalance = st
				}
			}
		}
		cfg := s.runConfig()
		cfg.Clients = 2 // the paper's experiment uses 2 clients
		points, err := harness.RunTimeline(e, w, cfg, total, timelineInterval, eventAt, event)
		e.Close()
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", sys.label, err)
		}
		series.Points = points
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// timelineRows lays throughput timelines out side by side: a header of the
// labels, then one row per sample of the first timeline.
func timelineRows(labels []string, series [][]harness.TimelinePoint) [][]string {
	rows := [][]string{append([]string{"t"}, labels...)}
	if len(series) == 0 {
		return rows
	}
	for i, p := range series[0] {
		row := []string{p.T.Round(time.Millisecond).String()}
		for _, s := range series {
			if i < len(s) {
				row = append(row, num(0, s[i].TPS))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// String renders the timeline as a table of throughput samples.
func (r *Fig8Result) String() string {
	var labels []string
	var points [][]harness.TimelinePoint
	for _, s := range r.Series {
		labels, points = append(labels, s.System), append(points, s.Points)
	}
	var b strings.Builder
	b.WriteString(table(fmt.Sprintf("Figure 8: throughput (tps) during repartitioning (skew change at %s)", r.EventAt),
		"", []int{-10, 12}, timelineRows(labels, points)...))
	for _, s := range r.Series {
		if s.Rebalance.EntriesMoved > 0 || s.Rebalance.RecordsMoved > 0 || s.Rebalance.RoutingOnly {
			fmt.Fprintf(&b, "%s rebalance: routingOnly=%v entries=%d records=%d in %s\n",
				s.System, s.Rebalance.RoutingOnly, s.Rebalance.EntriesMoved, s.Rebalance.RecordsMoved,
				us(s.Rebalance.Duration))
		}
	}
	return b.String()
}

//
// Figure 9 — MRBTrees inside the conventional and logical designs.
//

// Fig9Row is one bar of Figure 9.
type Fig9Row struct {
	System  string
	MRBTree bool
	TPS     float64
	Height  int
}

// Fig9Result is the full figure.
type Fig9Result struct {
	Rows []Fig9Row
}

// Fig9 measures the TATP throughput of the conventional and logical systems
// with single-rooted indexes and with MRBTrees.
func Fig9(s Scale) (*Fig9Result, error) {
	res := &Fig9Result{}
	for _, d := range []engine.Design{engine.Conventional, engine.Logical} {
		for _, useMRB := range []bool{false, true} {
			sys := systemConfig{d.String(), engine.Options{Design: d, Partitions: s.Partitions, SLI: d == engine.Conventional, UseMRBTree: useMRB}}
			if err := s.measure("fig9", sys, tatpLoad(tatp.MixStandard), nil, func(e *engine.Engine, r harness.Result) {
				h := 0
				if tbl, terr := e.Table(tatp.TableSubscriber); terr == nil {
					h, _ = tbl.Primary.Height()
				}
				res.Rows = append(res.Rows, Fig9Row{System: sys.label, MRBTree: useMRB, TPS: r.ThroughputTPS, Height: h})
			}); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// indexKind names a figure's index structure.
func indexKind(mrbTree bool) string {
	if mrbTree {
		return "MRBT"
	}
	return "Normal"
}

// String renders the figure.
func (r *Fig9Result) String() string {
	rows := [][]string{{"system", "index", "tps", "height"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.System, indexKind(row.MRBTree), num(0, row.TPS), strconv.Itoa(row.Height)})
	}
	return table("Figure 9: TATP throughput with and without MRBTree indexes", " ", []int{-16, -8, 12, 8}, rows...)
}

//
// Figure 10 — parallel SMOs as the insert ratio grows.
//

// Fig10Row is one group of bars of Figure 10.
type Fig10Row struct {
	InsertPercent int
	MRBTree       bool
	TPS           float64
	AvgLatency    time.Duration
	SMOWait       time.Duration
}

// Fig10Result is the full figure.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 runs the probe/insert microbenchmark on the conventional system
// with and without MRBTrees as the fraction of inserts grows from 0 to
// 100%, measuring the time spent waiting on structure modification
// operations.
func Fig10(s Scale) (*Fig10Result, error) {
	res := &Fig10Result{}
	for _, pct := range []int{0, 20, 40, 60, 80, 100} {
		load := func(s Scale, parts int) harness.Workload {
			return micro.NewProbeInsert(micro.ProbeInsertConfig{
				InitialRows:   s.TATPSubscribers,
				InsertPercent: pct,
				RecordSize:    100,
				Partitions:    parts,
			})
		}
		for _, useMRB := range []bool{false, true} {
			sys := systemConfig{indexKind(useMRB), engine.Options{Design: engine.Conventional, Partitions: s.Partitions, SLI: true, UseMRBTree: useMRB}}
			if err := s.measure("fig10", sys, load, nil, func(_ *engine.Engine, r harness.Result) {
				res.Rows = append(res.Rows, Fig10Row{
					InsertPercent: pct, MRBTree: useMRB, TPS: r.ThroughputTPS,
					AvgLatency: r.AvgLatency, SMOWait: r.WaitPerTxn[txn.WaitSMO],
				})
			}); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// String renders the figure.
func (r *Fig10Result) String() string {
	rows := [][]string{{"inserts%", "index", "tps", "latency", "smo wait/txn"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{strconv.Itoa(row.InsertPercent), indexKind(row.MRBTree), num(0, row.TPS),
			us(row.AvgLatency), us(row.SMOWait)})
	}
	return table("Figure 10: conventional system with parallel SMOs (probe/insert microbenchmark)", " ", []int{-10, -8, 12, 12, 14}, rows...)
}

//
// Figures 11 and 12 — heap fragmentation and scan overhead.
//

// Fig11Row is one bar of Figure 11.
type Fig11Row struct {
	System     string
	RecordSize int
	Records    int
	HeapPages  int
	Normalized float64 // heap pages relative to the conventional system
}

// Fig11Result is the full figure.
type Fig11Result struct {
	Rows []Fig11Row
}

// fragmentationSystems are the designs compared by Figures 11 and 12.
func fragmentationSystems(parts int) []systemConfig {
	return []systemConfig{
		{"Conventional", engine.Options{Design: engine.Conventional, Partitions: parts, SLI: true}},
		{"PLP-Regular", engine.Options{Design: engine.PLPRegular, Partitions: parts}},
		{"PLP-Partition", engine.Options{Design: engine.PLPPartition, Partitions: parts}},
		{"PLP-Leaf", engine.Options{Design: engine.PLPLeaf, Partitions: parts}},
	}
}

// eachFragmented loads records of recordSize bytes into a fresh engine of
// each design of fragmentationSystems, Conventional first, and hands the
// engine and the heap pages the load took to visit before closing it.
func (s Scale) eachFragmented(id string, records, recordSize int, visit func(sys systemConfig, e *engine.Engine, pages int) error) error {
	for _, sys := range fragmentationSystems(s.Partitions) {
		e := engine.New(sys.opts)
		pages, err := micro.LoadFragmentation(e, micro.FragmentationConfig{
			Records:    records,
			RecordSize: recordSize,
			Partitions: s.Partitions,
		})
		if err == nil {
			err = visit(sys, e, pages)
		}
		e.Close()
		if err != nil {
			return fmt.Errorf("%s %s: %w", id, sys.label, err)
		}
	}
	return nil
}

// ratio is v relative to base, or 0 without a base.
func ratio(v, base float64) float64 {
	if base > 0 {
		return v / base
	}
	return 0
}

// Fig11 loads the same record set, of 100-byte and of 1000-byte records,
// into every design and compares the number of heap pages used.
func Fig11(s Scale) (*Fig11Result, error) {
	res := &Fig11Result{}
	for _, set := range []struct{ size, records int }{{100, 4 * s.TATPSubscribers}, {1000, s.TATPSubscribers}} {
		basePages := 0
		if err := s.eachFragmented("fig11", set.records, set.size, func(sys systemConfig, _ *engine.Engine, pages int) error {
			if basePages == 0 {
				basePages = pages
			}
			res.Rows = append(res.Rows, Fig11Row{
				System: sys.label, RecordSize: set.size, Records: set.records,
				HeapPages: pages, Normalized: ratio(float64(pages), float64(basePages)),
			})
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// String renders the figure.
func (r *Fig11Result) String() string {
	rows := [][]string{{"system", "record size", "records", "heap pages", "normalized"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.System, strconv.Itoa(row.RecordSize), strconv.Itoa(row.Records),
			strconv.Itoa(row.HeapPages), num(2, row.Normalized)})
	}
	return table("Figure 11: heap space overhead of the PLP variations (pages, normalized to Conventional)", " ", []int{-16, 12}, rows...)
}

// Fig12Row is one bar of Figure 12.
type Fig12Row struct {
	System     string
	Records    int
	ScanTime   time.Duration
	Normalized float64
}

// Fig12Result is the full figure.
type Fig12Result struct {
	Rows []Fig12Row
}

// Fig12 loads the same record set into every design and measures the time
// to scan the heap file.
func Fig12(s Scale) (*Fig12Result, error) {
	records := s.TATPSubscribers * 4
	res := &Fig12Result{}
	var baseTime time.Duration
	if err := s.eachFragmented("fig12", records, 100, func(sys systemConfig, e *engine.Engine, _ int) error {
		start := time.Now()
		n := 0
		if err := e.ScanHeap(micro.FragmentationTable, func(_ page.RID, _ []byte) bool {
			n++
			return true
		}); err != nil {
			return err
		}
		elapsed := time.Since(start)
		if n != records {
			return fmt.Errorf("scanned %d of %d records", n, records)
		}
		if baseTime == 0 {
			baseTime = elapsed
		}
		res.Rows = append(res.Rows, Fig12Row{System: sys.label, Records: records, ScanTime: elapsed, Normalized: ratio(float64(elapsed), float64(baseTime))})
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the figure.
func (r *Fig12Result) String() string {
	rows := [][]string{{"system", "records", "scan time", "normalized"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.System, strconv.Itoa(row.Records), us(row.ScanTime), num(2, row.Normalized)})
	}
	return table("Figure 12: heap file scan time (normalized to Conventional)", " ", []int{-16, 12, 14, 12}, rows...)
}

//
// Ablations.
//

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Label         string
	TPS           float64
	CSPerTxn      float64
	LatchesPerTxn float64
}

// AblationResult is one ablation study.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// String renders the ablation table.
func (r *AblationResult) String() string {
	rows := [][]string{{"configuration", "tps", "cs/txn", "latches/txn"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Label, num(0, row.TPS), num(1, row.CSPerTxn), num(1, row.LatchesPerTxn)})
	}
	return table(r.Title, " ", []int{-36, 12, 14, 16}, rows...)
}

// AblationResults is every ablation study.
type AblationResults []*AblationResult

// String renders the studies one after the other.
func (r AblationResults) String() string {
	out := make([]string, len(r))
	for i, a := range r {
		out[i] = a.String()
	}
	return strings.Join(out, "\n")
}

// Ablations measures the design choices one at a time on TATP: speculative
// lock inheritance in the conventional system, latch-free sub-trees inside
// PLP-Regular, the consolidated (Aether-style) log buffer against a
// single-mutex one on an update-heavy stream, and PLP-Regular's partition
// count on the read-only stream.
func Ablations(s Scale) (AblationResults, error) {
	var counts []systemConfig
	for _, n := range []int{1, 2, 4, 8, 16} {
		counts = append(counts, systemConfig{fmt.Sprintf("%d partitions", n), engine.Options{Design: engine.PLPRegular, Partitions: n}})
	}
	studies := []struct {
		title   string
		mix     tatp.Mix
		systems []systemConfig
	}{
		{"Ablation: Speculative Lock Inheritance (conventional, TATP)", tatp.MixStandard, []systemConfig{
			{"Conventional, SLI off", engine.Options{Design: engine.Conventional, Partitions: s.Partitions}},
			{"Conventional, SLI on", engine.Options{Design: engine.Conventional, Partitions: s.Partitions, SLI: true}},
		}},
		{"Ablation: latch-free index access inside PLP (TATP)", tatp.MixStandard, []systemConfig{
			{"PLP-Regular, latched sub-trees", engine.Options{Design: engine.PLPRegular, Partitions: s.Partitions, ForceLatchedIndex: true}},
			{"PLP-Regular, latch-free sub-trees", engine.Options{Design: engine.PLPRegular, Partitions: s.Partitions}},
		}},
		{"Ablation: consolidated vs naive log buffer (PLP-Regular, update-heavy TATP)", tatp.MixUpdateLocation, []systemConfig{
			{"Naive single-mutex log buffer", engine.Options{Design: engine.PLPRegular, Partitions: s.Partitions, NaiveLog: true}},
			{"Consolidated (Aether-style) log buffer", engine.Options{Design: engine.PLPRegular, Partitions: s.Partitions}},
		}},
		{"Ablation: MRBTree partition count (PLP-Regular, GetSubscriberData)", tatp.MixGetSubscriberData, counts},
	}
	var res AblationResults
	for _, st := range studies {
		study := &AblationResult{Title: st.title}
		for _, sys := range st.systems {
			if err := s.measure("ablations", sys, tatpLoad(st.mix), nil, func(_ *engine.Engine, r harness.Result) {
				latches := 0.0
				for _, v := range r.LatchesPerTxn {
					latches += v
				}
				study.Rows = append(study.Rows, AblationRow{Label: sys.label, TPS: r.ThroughputTPS, CSPerTxn: r.CSPerTxn.Total, LatchesPerTxn: latches})
			}); err != nil {
				return nil, err
			}
		}
		res = append(res, study)
	}
	return res, nil
}
