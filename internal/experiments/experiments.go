// Package experiments reproduces every table and figure of the paper's
// evaluation.  Each experiment builds fresh engines for the systems it
// compares, loads the workload, runs a measured interval through the
// harness and returns structured results that print as ASCII tables close
// to the paper's figures.
//
// Absolute numbers differ from the paper (different hardware, Go instead of
// C++, goroutines instead of bound threads); what is reproduced is the
// shape: which design wins, by roughly what factor, and where the
// crossovers are.  Run them with cmd/plpbench -experiment <name> (fig1 ..
// fig12, table1, table2, ext-autobalance, ext-recovery, ablations or all).
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"plp/internal/cs"
	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/latch"
	"plp/internal/txn"
	"plp/internal/workload/tatp"
	"plp/internal/workload/tpcb"
	"plp/internal/workload/tpcc"
)

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

// TestScale returns a small scale for unit tests.
func TestScale() Scale {
	return Scale{
		TATPSubscribers:       2000,
		TPCBBranches:          1,
		TPCBAccountsPerBranch: 1000,
		TPCCWarehouses:        1,
		Partitions:            4,
		Clients:               4,
		TxnsPerClient:         200,
		Warmup:                20,
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

// baselineSystems returns the configurations of Figure 1: the conventional
// system without and with SLI, the logically-partitioned system, and the
// PLP variants.
func (s Scale) baselineSystems(includeBaselineNoSLI bool) []systemConfig {
	var out []systemConfig
	if includeBaselineNoSLI {
		out = append(out, systemConfig{"Baseline", engine.Options{Design: engine.Conventional, Partitions: s.Partitions}})
	}
	out = append(out,
		systemConfig{"Conventional (SLI)", engine.Options{Design: engine.Conventional, Partitions: s.Partitions, SLI: true}},
		systemConfig{"Logical", engine.Options{Design: engine.Logical, Partitions: s.Partitions}},
		systemConfig{"PLP-Regular", engine.Options{Design: engine.PLPRegular, Partitions: s.Partitions}},
		systemConfig{"PLP-Leaf", engine.Options{Design: engine.PLPLeaf, Partitions: s.Partitions}},
	)
	return out
}

// setupTATP builds an engine for cfg and loads a TATP database into it.
func setupTATP(cfg engine.Options, s Scale, mix tatp.Mix) (*engine.Engine, *tatp.Workload, error) {
	e := engine.New(cfg)
	w := tatp.New(tatp.Config{
		Subscribers: s.TATPSubscribers,
		Partitions:  cfg.Partitions,
		Mix:         mix,
	})
	if err := w.Setup(e); err != nil {
		e.Close()
		return nil, nil, fmt.Errorf("tatp setup (%s): %w", cfg.Design, err)
	}
	return e, w, nil
}

// setupTPCB builds an engine for cfg and loads a TPC-B database into it.
func setupTPCB(cfg engine.Options, s Scale) (*engine.Engine, *tpcb.Workload, error) {
	e := engine.New(cfg)
	w := tpcb.New(tpcb.Config{
		Branches:          s.TPCBBranches,
		AccountsPerBranch: s.TPCBAccountsPerBranch,
		Partitions:        cfg.Partitions,
	})
	if err := w.Setup(e); err != nil {
		e.Close()
		return nil, nil, fmt.Errorf("tpcb setup (%s): %w", cfg.Design, err)
	}
	return e, w, nil
}

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
	res := &Fig1Result{}
	for _, sys := range s.baselineSystems(true) {
		e, w, err := setupTATP(sys.opts, s, tatp.MixStandard)
		if err != nil {
			return nil, err
		}
		r, err := harness.Run(e, w, s.runConfig())
		e.Close()
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", sys.label, err)
		}
		res.Rows = append(res.Rows, Fig1Row{System: sys.label, PerTxn: r.CSPerTxn, Committed: r.Committed})
	}
	return res, nil
}

// String renders the figure as an ASCII table.
func (r *Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: critical sections per transaction (TATP mix)\n")
	fmt.Fprintf(&b, "%-20s", "component")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%20s", row.System)
	}
	b.WriteByte('\n')
	for _, cat := range cs.Categories() {
		fmt.Fprintf(&b, "%-20s", cat.String())
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%20.2f", row.PerTxn.Entered[cat])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-20s", "TOTAL")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%20.2f", row.PerTxn.Total)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-20s", "contended")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%20.2f", row.PerTxn.TotalContended)
	}
	b.WriteByte('\n')
	return b.String()
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
	convOpts := engine.Options{Design: engine.Conventional, Partitions: s.Partitions, SLI: true}

	// TATP.
	{
		e, w, err := setupTATP(convOpts, s, tatp.MixStandard)
		if err != nil {
			return nil, err
		}
		r, err := harness.Run(e, w, s.runConfig())
		e.Close()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig2Row{Workload: "TATP", LatchesPerTxn: r.LatchesPerTxn})
	}
	// TPC-B.
	{
		e, w, err := setupTPCB(convOpts, s)
		if err != nil {
			return nil, err
		}
		r, err := harness.Run(e, w, s.runConfig())
		e.Close()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig2Row{Workload: "TPC-B", LatchesPerTxn: r.LatchesPerTxn})
	}
	// TPC-C.
	{
		e := engine.New(convOpts)
		w := tpcc.New(tpcc.Config{Warehouses: s.TPCCWarehouses, Partitions: convOpts.Partitions})
		if err := w.Setup(e); err != nil {
			e.Close()
			return nil, err
		}
		r, err := harness.Run(e, w, s.runConfig())
		e.Close()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig2Row{Workload: "TPC-C", LatchesPerTxn: r.LatchesPerTxn})
	}
	return res, nil
}

// String renders the figure.
func (r *Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: page latches per transaction by page type (conventional system)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %16s %10s\n", "workload", "INDEX", "HEAP", "CATALOG/SPACE", "index%")
	for _, row := range r.Rows {
		total := 0.0
		for _, v := range row.LatchesPerTxn {
			total += v
		}
		idxPct := 0.0
		if total > 0 {
			idxPct = 100 * row.LatchesPerTxn[latch.KindIndex] / total
		}
		fmt.Fprintf(&b, "%-10s %12.1f %12.1f %16.1f %9.0f%%\n", row.Workload,
			row.LatchesPerTxn[latch.KindIndex], row.LatchesPerTxn[latch.KindHeap],
			row.LatchesPerTxn[latch.KindCatalog], idxPct)
	}
	return b.String()
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
		e, w, err := setupTATP(sys.opts, s, tatp.MixStandard)
		if err != nil {
			return nil, err
		}
		r, err := harness.Run(e, w, s.runConfig())
		e.Close()
		if err != nil {
			return nil, err
		}
		row := Fig3Row{System: sys.label, LatchesPerTxn: r.LatchesPerTxn}
		for _, v := range r.LatchesPerTxn {
			row.Total += v
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the figure.
func (r *Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: page latches acquired per transaction by design (TATP)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %16s %10s\n", "design", "INDEX", "HEAP", "CATALOG/SPACE", "TOTAL")
	base := 0.0
	for i, row := range r.Rows {
		if i == 0 {
			base = row.Total
		}
		rel := ""
		if base > 0 {
			rel = fmt.Sprintf("(%.0f%% of Conv.)", 100*row.Total/base)
		}
		fmt.Fprintf(&b, "%-10s %12.1f %12.1f %16.1f %10.1f %s\n", row.System,
			row.LatchesPerTxn[latch.KindIndex], row.LatchesPerTxn[latch.KindHeap],
			row.LatchesPerTxn[latch.KindCatalog], row.Total, rel)
	}
	return b.String()
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
// and PLP systems as the number of clients grows.
func Fig5(s Scale, clientCounts []int) (*Fig5Result, error) {
	if len(clientCounts) == 0 {
		clientCounts = []int{1, 2, 4, 8}
	}
	systems := []systemConfig{
		{"Conv.", engine.Options{Design: engine.Conventional, Partitions: s.Partitions, SLI: true}},
		{"Logical", engine.Options{Design: engine.Logical, Partitions: s.Partitions}},
		{"PLP", engine.Options{Design: engine.PLPRegular, Partitions: s.Partitions}},
	}
	res := &Fig5Result{}
	for _, sys := range systems {
		e, w, err := setupTATP(sys.opts, s, tatp.MixGetSubscriberData)
		if err != nil {
			return nil, err
		}
		for _, clients := range clientCounts {
			cfg := s.runConfig()
			cfg.Clients = clients
			r, err := harness.Run(e, w, cfg)
			if err != nil {
				e.Close()
				return nil, err
			}
			res.Points = append(res.Points, Fig5Point{System: sys.label, Clients: clients, TPS: r.ThroughputTPS})
		}
		e.Close()
	}
	return res, nil
}

// String renders the figure.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: GetSubscriberData throughput (tps) vs client count\n")
	byClients := map[int]map[string]float64{}
	var systems []string
	seen := map[string]bool{}
	var clients []int
	seenC := map[int]bool{}
	for _, p := range r.Points {
		if byClients[p.Clients] == nil {
			byClients[p.Clients] = map[string]float64{}
		}
		byClients[p.Clients][p.System] = p.TPS
		if !seen[p.System] {
			seen[p.System] = true
			systems = append(systems, p.System)
		}
		if !seenC[p.Clients] {
			seenC[p.Clients] = true
			clients = append(clients, p.Clients)
		}
	}
	fmt.Fprintf(&b, "%-10s", "clients")
	for _, sys := range systems {
		fmt.Fprintf(&b, "%14s", sys)
	}
	b.WriteByte('\n')
	for _, c := range clients {
		fmt.Fprintf(&b, "%-10d", c)
		for _, sys := range systems {
			fmt.Fprintf(&b, "%14.0f", byClients[c][sys])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// newRand returns a deterministic RNG for experiments that need one outside
// the harness.
func newRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

// waitName is a short alias used by the breakdown formatters.
func waitName(k txn.WaitKind) string { return k.String() }
