// Package experiments reproduces every table and figure of the paper's
// evaluation.  Each experiment builds fresh engines for the systems it
// compares, loads the workload, runs a measured interval through the
// harness and returns structured results that print as ASCII tables close
// to the paper's figures.
//
// Absolute numbers differ from the paper (different hardware, Go instead of
// C++, goroutines instead of bound threads); what is reproduced is the
// shape: which design wins, by roughly what factor, and where the
// crossovers are.  Experiments lists them, each with the claim it tests;
// cmd/plpbench -experiment <id> runs one and -experiment all runs every
// one.  The ids are fig1, fig2, fig3, table1, table2, fig5, fig6, fig7,
// fig8, fig9, fig10, fig11, fig12, ext-autobalance, ext-recovery and
// ablations.
//
// Deviations from the paper:
//   - The Logical design releases a transaction's locks when its action
//     ends, not when the transaction commits, so a multi-site transaction
//     there is not isolated; its critical-section and latch counts are
//     the paper's, its isolation is weaker.
//   - PLP still fixes pages through the shared buffer pool, so its
//     transactions pay Bpool critical sections that the paper's PLP, with
//     partition-owned frames, does not; Figure 1 shows them.
//   - A streaming scan under online repartitioning may miss or repeat
//     records near a boundary that moves while the stream runs; Figures 8
//     and 12 and EXT-1 scan no moving boundary.
package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"plp/internal/cs"
	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/latch"
	"plp/internal/workload/tatp"
	"plp/internal/workload/tpcb"
	"plp/internal/workload/tpcc"
)

// Experiment is one table or figure of the paper's evaluation, or one of
// the extensions and ablations run beside them.
type Experiment struct {
	// ID names the experiment on plpbench's command line.
	ID string
	// Claim is what the experiment shows, in one sentence: the paper's
	// claim for its figures and tables, this code's for the rest.
	Claim string
	// Run performs the experiment at scale s; the result prints as the
	// figure's table.
	Run func(s Scale) (fmt.Stringer, error)
}

// Experiments lists every experiment, in the order plpbench -experiment
// all runs them.
var Experiments = []Experiment{
	{"fig1", "PLP enters far fewer critical sections per transaction than a conventional system, with or without SLI.", run(Fig1)},
	{"fig2", "Index page latches are the largest share of the page latches a conventional system acquires, on TATP, TPC-B and TPC-C alike.", run(Fig2)},
	{"fig3", "PLP-Regular removes most page latching and PLP-Leaf nearly all of it, heap page latches included.", run(Fig3)},
	{"table1", "Repartitioning PLP-Regular moves index entries but no heap records, where PLP-Partition must relocate records.", run(Table1)},
	{"table2", "Repartitioning costs follow closed-form formulas in tree height, fan-out and entries moved.", run(func(Scale) (text, error) { return table2, nil })},
	{"fig5", "PLP's read-only GetSubscriberData throughput grows with the client count at least as far as the conventional and logical designs'.", run(Fig5)},
	{"fig6", "On an insert/delete-heavy load PLP spends no time waiting on index page latches.", run(Fig6)},
	{"fig7", "Without record padding PLP-Leaf spends no time waiting on heap page latches, which the other designs falsely share.", run(Fig7)},
	{"fig8", "After a skew change PLP-Leaf repartitions by moving far fewer records than PLP-Partition, and Logical by routing alone.", run(Fig8)},
	{"fig9", "MRBTree indexes help the conventional and logical designs too, not only PLP.", run(Fig9)},
	{"fig10", "An MRBTree's parallel structure modifications cut the time insert-heavy loads spend blocked on SMOs.", run(Fig10)},
	{"fig11", "PLP-Regular takes no more heap pages than a conventional system; PLP-Leaf fragments the heap most.", run(Fig11)},
	{"fig12", "A full heap scan costs the PLP variants that fragment the heap more time, in step with their extra pages.", run(Fig12)},
	{"ext-autobalance", "The online repartitioning controller spreads a skewed load over the partition workers on its own.", run(ExtAutoBalance)},
	{"ext-recovery", "A checkpoint plus the shared log recovers a crashed TATP database, complete and consistent.", run(ExtRecovery)},
	{"ablations", "Latch-free sub-trees are what remove PLP's index latches; SLI, the log buffer and the partition count are measured beside them.", run(Ablations)},
}

// run adapts an experiment function to Experiment.Run.
func run[R fmt.Stringer](f func(Scale) (R, error)) func(Scale) (fmt.Stringer, error) {
	return func(s Scale) (fmt.Stringer, error) {
		r, err := f(s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// text is a result that is text already.
type text string

func (t text) String() string { return string(t) }

// Scale controls how large the experiments are.  The defaults are sized so
// that the full suite runs in a few minutes on a laptop; the cmd/plpbench
// flags can raise them.
type Scale struct {
	// TATPSubscribers is the TATP scale factor.
	TATPSubscribers int
	// TPCBBranches is the TPC-B scale factor.
	TPCBBranches int
	// TPCBAccountsPerBranch overrides the accounts per branch.
	TPCBAccountsPerBranch int
	// TPCCWarehouses is the TPC-C scale factor.
	TPCCWarehouses int
	// Partitions is the number of logical partitions / worker threads used
	// by the partitioned designs.
	Partitions int
	// Clients is the default number of client goroutines.
	Clients int
	// ClientSweep is the client counts Figures 5, 6 and 7 measure; empty
	// means each figure's own default.
	ClientSweep []int
	// Duration is the measured interval of time-bounded runs.
	Duration time.Duration
	// TxnsPerClient is used instead of Duration when it is zero.
	TxnsPerClient int
	// Warmup transactions per client before measuring.
	Warmup int
}

// DefaultScale returns the scale used by the benchmark suite.
func DefaultScale() Scale {
	return Scale{
		TATPSubscribers:       20000,
		TPCBBranches:          2,
		TPCBAccountsPerBranch: 10000,
		TPCCWarehouses:        2,
		Partitions:            8,
		Clients:               8,
		TxnsPerClient:         2000,
		Warmup:                200,
	}
}

func (s Scale) runConfig() harness.RunConfig {
	return harness.RunConfig{
		Clients:             s.Clients,
		Duration:            s.Duration,
		TxnsPerClient:       s.TxnsPerClient,
		WarmupTxnsPerClient: s.Warmup,
		Seed:                1,
	}
}

// systemConfig names an engine configuration under comparison.
type systemConfig struct {
	label string
	opts  engine.Options
}

// setupTATP builds an engine for cfg and loads a TATP database into it.
func setupTATP(cfg engine.Options, s Scale, mix tatp.Mix) (*engine.Engine, *tatp.Workload, error) {
	e := engine.New(cfg)
	w := tatp.New(tatp.Config{Subscribers: s.TATPSubscribers, Partitions: cfg.Partitions, Mix: mix})
	if err := w.Setup(e); err != nil {
		e.Close()
		return nil, nil, fmt.Errorf("tatp setup (%s): %w", cfg.Design, err)
	}
	return e, w, nil
}

// workloadFor builds the workload an experiment loads, sized by s and
// partitioned like the engine it runs on.
type workloadFor func(s Scale, parts int) harness.Workload

func tatpLoad(mix tatp.Mix) workloadFor {
	return func(s Scale, parts int) harness.Workload {
		return tatp.New(tatp.Config{Subscribers: s.TATPSubscribers, Partitions: parts, Mix: mix})
	}
}

func tpcbLoad(s Scale, parts int) harness.Workload {
	return tpcb.New(tpcb.Config{Branches: s.TPCBBranches, AccountsPerBranch: s.TPCBAccountsPerBranch, Partitions: parts})
}

func tpccLoad(s Scale, parts int) harness.Workload {
	return tpcc.New(tpcc.Config{Warehouses: s.TPCCWarehouses, Partitions: parts})
}

// measure builds an engine for sys, loads the workload load builds for it
// and runs one measured interval per client count (one at s.Clients when
// clients is empty), handing each result to add while the engine is still
// open.  The engine is closed before measure returns.
func (s Scale) measure(id string, sys systemConfig, load workloadFor, clients []int, add func(*engine.Engine, harness.Result)) error {
	e := engine.New(sys.opts)
	defer e.Close()
	w := load(s, sys.opts.Partitions)
	if err := w.Setup(e); err != nil {
		return fmt.Errorf("%s %s: setup: %w", id, sys.label, err)
	}
	cfg := s.runConfig()
	if len(clients) == 0 {
		clients = []int{cfg.Clients}
	}
	for _, c := range clients {
		cfg.Clients = c
		r, err := harness.Run(e, w, cfg)
		if err != nil {
			return fmt.Errorf("%s %s: %w", id, sys.label, err)
		}
		add(e, r)
	}
	return nil
}

// table renders a figure as text: the title line, then one line per row.
// Cell i of a row is padded to widths[i], or to the last width for cells
// past the end of widths, left-aligned when the width is negative; sep
// joins the cells.
func table(title, sep string, widths []int, rows ...[]string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString(sep)
			}
			fmt.Fprintf(&b, "%*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// num formats v with prec digits after the point.
func num(prec int, v float64) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// us formats d rounded to the microsecond.
func us(d time.Duration) string { return d.Round(time.Microsecond).String() }

//
// Figure 1 — critical sections per transaction, by component.
//

// Fig1Row is one bar of Figure 1.
type Fig1Row struct {
	System    string
	PerTxn    cs.Breakdown
	Committed uint64
}

// Fig1Result is the full figure.
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1 runs the standard TATP mix on the Figure 1 systems and reports the
// number of critical sections entered per transaction, by component.
func Fig1(s Scale) (*Fig1Result, error) {
	systems := []systemConfig{
		{"Baseline", engine.Options{Design: engine.Conventional, Partitions: s.Partitions}},
		{"Conventional (SLI)", engine.Options{Design: engine.Conventional, Partitions: s.Partitions, SLI: true}},
		{"Logical", engine.Options{Design: engine.Logical, Partitions: s.Partitions}},
		{"PLP-Regular", engine.Options{Design: engine.PLPRegular, Partitions: s.Partitions}},
		{"PLP-Leaf", engine.Options{Design: engine.PLPLeaf, Partitions: s.Partitions}},
	}
	res := &Fig1Result{}
	for _, sys := range systems {
		if err := s.measure("fig1", sys, tatpLoad(tatp.MixStandard), nil, func(_ *engine.Engine, r harness.Result) {
			res.Rows = append(res.Rows, Fig1Row{System: sys.label, PerTxn: r.CSPerTxn, Committed: r.Committed})
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// String renders the figure as an ASCII table.
func (r *Fig1Result) String() string {
	rows := [][]string{{"component"}}
	for _, row := range r.Rows {
		rows[0] = append(rows[0], row.System)
	}
	line := func(label string, v func(cs.Breakdown) float64) {
		cells := []string{label}
		for _, row := range r.Rows {
			cells = append(cells, num(2, v(row.PerTxn)))
		}
		rows = append(rows, cells)
	}
	for _, cat := range cs.Categories() {
		line(cat.String(), func(b cs.Breakdown) float64 { return b.Entered[cat] })
	}
	line("TOTAL", func(b cs.Breakdown) float64 { return b.Total })
	line("contended", func(b cs.Breakdown) float64 { return b.TotalContended })
	return table("Figure 1: critical sections per transaction (TATP mix)", "", []int{-20, 20}, rows...)
}

//
// Figure 2 — page-latch breakdown by page type across benchmarks.
//

// Fig2Row is one bar of Figure 2.
type Fig2Row struct {
	Workload      string
	LatchesPerTxn [latch.NumKinds]float64
}

// Fig2Result is the full figure.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2 runs TATP, TPC-B and TPC-C on the conventional system and breaks the
// acquired page latches down by page type.
func Fig2(s Scale) (*Fig2Result, error) {
	res := &Fig2Result{}
	conv := engine.Options{Design: engine.Conventional, Partitions: s.Partitions, SLI: true}
	for _, wl := range []struct {
		name string
		load workloadFor
	}{{"TATP", tatpLoad(tatp.MixStandard)}, {"TPC-B", tpcbLoad}, {"TPC-C", tpccLoad}} {
		if err := s.measure("fig2", systemConfig{wl.name, conv}, wl.load, nil, func(_ *engine.Engine, r harness.Result) {
			res.Rows = append(res.Rows, Fig2Row{Workload: wl.name, LatchesPerTxn: r.LatchesPerTxn})
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// String renders the figure.
func (r *Fig2Result) String() string {
	rows := [][]string{{"workload", "INDEX", "HEAP", "CATALOG/SPACE", "index%"}}
	for _, row := range r.Rows {
		l := row.LatchesPerTxn
		total := 0.0
		for _, v := range l {
			total += v
		}
		rows = append(rows, []string{row.Workload, num(1, l[latch.KindIndex]), num(1, l[latch.KindHeap]),
			num(1, l[latch.KindCatalog]), num(0, 100*ratio(l[latch.KindIndex], total)) + "%"})
	}
	return table("Figure 2: page latches per transaction by page type (conventional system)", " ", []int{-10, 12, 12, 16, 10}, rows...)
}

//
// Figure 3 — page latches acquired by the different designs (TATP).
//

// Fig3Row is one bar of Figure 3.
type Fig3Row struct {
	System        string
	LatchesPerTxn [latch.NumKinds]float64
	Total         float64
}

// Fig3Result is the full figure.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 runs the same TATP transaction stream on the conventional,
// logically-partitioned, PLP-Regular and PLP-Leaf systems and counts page
// latch acquisitions per transaction.
func Fig3(s Scale) (*Fig3Result, error) {
	systems := []systemConfig{
		{"Conv.", engine.Options{Design: engine.Conventional, Partitions: s.Partitions, SLI: true}},
		{"Logical", engine.Options{Design: engine.Logical, Partitions: s.Partitions}},
		{"PLP", engine.Options{Design: engine.PLPRegular, Partitions: s.Partitions}},
		{"PLP-Leaf", engine.Options{Design: engine.PLPLeaf, Partitions: s.Partitions}},
	}
	res := &Fig3Result{}
	for _, sys := range systems {
		if err := s.measure("fig3", sys, tatpLoad(tatp.MixStandard), nil, func(_ *engine.Engine, r harness.Result) {
			row := Fig3Row{System: sys.label, LatchesPerTxn: r.LatchesPerTxn}
			for _, v := range r.LatchesPerTxn {
				row.Total += v
			}
			res.Rows = append(res.Rows, row)
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// String renders the figure.
func (r *Fig3Result) String() string {
	rows := [][]string{{"design", "INDEX", "HEAP", "CATALOG/SPACE", "TOTAL"}}
	base := 0.0
	for i, row := range r.Rows {
		if i == 0 {
			base = row.Total
		}
		rel := ""
		if base > 0 {
			rel = fmt.Sprintf("(%.0f%% of Conv.)", 100*row.Total/base)
		}
		l := row.LatchesPerTxn
		rows = append(rows, []string{row.System, num(1, l[latch.KindIndex]), num(1, l[latch.KindHeap]),
			num(1, l[latch.KindCatalog]), num(1, row.Total), rel})
	}
	return table("Figure 3: page latches acquired per transaction by design (TATP)", " ", []int{-10, 12, 12, 16, 10, 0}, rows...)
}

//
// Figure 5 — throughput scaling of the read-only GetSubscriberData stream.
//

// Fig5Point is one measurement of Figure 5.
type Fig5Point struct {
	System  string
	Clients int
	TPS     float64
}

// Fig5Result is the full figure.
type Fig5Result struct {
	Points []Fig5Point
}

// Fig5 measures GetSubscriberData throughput for the conventional, logical
// and PLP systems at each client count of s.ClientSweep (1, 2, 4 and 8 by
// default).
func Fig5(s Scale) (*Fig5Result, error) {
	clients := s.ClientSweep
	if len(clients) == 0 {
		clients = []int{1, 2, 4, 8}
	}
	systems := []systemConfig{
		{"Conv.", engine.Options{Design: engine.Conventional, Partitions: s.Partitions, SLI: true}},
		{"Logical", engine.Options{Design: engine.Logical, Partitions: s.Partitions}},
		{"PLP", engine.Options{Design: engine.PLPRegular, Partitions: s.Partitions}},
	}
	res := &Fig5Result{}
	for _, sys := range systems {
		if err := s.measure("fig5", sys, tatpLoad(tatp.MixGetSubscriberData), clients, func(_ *engine.Engine, r harness.Result) {
			res.Points = append(res.Points, Fig5Point{System: sys.label, Clients: r.Clients, TPS: r.ThroughputTPS})
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// String renders the figure: one line per client count, one column per
// system.
func (r *Fig5Result) String() string {
	type at struct {
		system  string
		clients int
	}
	tps := map[at]float64{}
	head := []string{"clients"}
	var clients []int
	for _, p := range r.Points {
		if !slices.Contains(head[1:], p.System) {
			head = append(head, p.System)
		}
		if !slices.Contains(clients, p.Clients) {
			clients = append(clients, p.Clients)
		}
		tps[at{p.System, p.Clients}] = p.TPS
	}
	rows := [][]string{head}
	for _, c := range clients {
		row := []string{strconv.Itoa(c)}
		for _, sys := range head[1:] {
			row = append(row, num(0, tps[at{sys, c}]))
		}
		rows = append(rows, row)
	}
	return table("Figure 5: GetSubscriberData throughput (tps) vs client count", "", []int{-10, 14}, rows...)
}
