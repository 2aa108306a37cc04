package experiments

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"plp/internal/latch"
)

// tinyScale keeps the experiment integration tests fast.
func tinyScale() Scale {
	return Scale{
		TATPSubscribers:       1000,
		TPCBBranches:          1,
		TPCBAccountsPerBranch: 500,
		TPCCWarehouses:        1,
		Partitions:            2,
		Clients:               2,
		TxnsPerClient:         100,
		Warmup:                10,
	}
}

// shape is the check of one experiment's result against the claim it
// tests, with the changes it makes to tinyScale first.
type shape struct {
	scale func(s *Scale)
	check func(t *testing.T, s Scale, r fmt.Stringer)
}

// shapes holds one check per experiment of Experiments, keyed by id.
var shapes = map[string]shape{
	"fig1": {check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*Fig1Result)
		if len(r.Rows) != 5 {
			t.Fatalf("expected 5 systems, got %d", len(r.Rows))
		}
		baseline := r.Rows[0]
		plpLeaf := r.Rows[len(r.Rows)-1]
		if plpLeaf.PerTxn.Total >= baseline.PerTxn.Total {
			t.Fatalf("PLP-Leaf (%.1f cs/txn) should enter fewer critical sections than the baseline (%.1f)",
				plpLeaf.PerTxn.Total, baseline.PerTxn.Total)
		}
		if !strings.Contains(r.String(), "Figure 1") {
			t.Fatal("missing report header")
		}
	}},
	"fig2": {check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*Fig2Result)
		if len(r.Rows) != 3 {
			t.Fatalf("expected TATP, TPC-B and TPC-C rows, got %d", len(r.Rows))
		}
		for _, row := range r.Rows {
			total := row.LatchesPerTxn[latch.KindIndex] + row.LatchesPerTxn[latch.KindHeap] + row.LatchesPerTxn[latch.KindCatalog]
			if total == 0 {
				t.Fatalf("%s acquired no latches", row.Workload)
			}
			// Index latches are the largest (or co-largest) component in the
			// paper's Figure 2.  At the tiny test scale our trees are only 1-2
			// levels deep, so accept index latches being marginally below heap
			// latches (within 25%) but never a minor component.
			if row.LatchesPerTxn[latch.KindIndex] < 0.75*row.LatchesPerTxn[latch.KindHeap] {
				t.Fatalf("%s: index latches (%.1f) should be a dominant component vs heap (%.1f)",
					row.Workload, row.LatchesPerTxn[latch.KindIndex], row.LatchesPerTxn[latch.KindHeap])
			}
			if row.LatchesPerTxn[latch.KindIndex] < row.LatchesPerTxn[latch.KindCatalog] {
				t.Fatalf("%s: catalog latches exceed index latches", row.Workload)
			}
		}
	}},
	"fig3": {check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*Fig3Result)
		byName := map[string]Fig3Row{}
		for _, row := range r.Rows {
			byName[row.System] = row
		}
		conv, plp, leaf := byName["Conv."], byName["PLP"], byName["PLP-Leaf"]
		if conv.Total == 0 {
			t.Fatal("conventional system acquired no latches")
		}
		// The paper: PLP-Regular removes >80% of page latching; PLP-Leaf nearly
		// all of it.
		if plp.Total > 0.5*conv.Total {
			t.Fatalf("PLP latches/txn %.2f not far below conventional %.2f", plp.Total, conv.Total)
		}
		if leaf.Total > plp.Total {
			t.Fatalf("PLP-Leaf (%.2f) should not exceed PLP-Regular (%.2f)", leaf.Total, plp.Total)
		}
		if leaf.LatchesPerTxn[latch.KindHeap] != 0 {
			t.Fatalf("PLP-Leaf acquired heap latches: %.2f", leaf.LatchesPerTxn[latch.KindHeap])
		}
	}},
	"table1": {check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*Table1Result)
		if len(r.Analytical) != 6 {
			t.Fatalf("expected 6 analytical rows, got %d", len(r.Analytical))
		}
		byName := map[string]Table1MeasuredRow{}
		for _, m := range r.Measured {
			byName[m.System] = m
		}
		reg := byName["PLP-Regular"]
		part := byName["PLP-Partition"]
		if reg.RecordsMoved != 0 {
			t.Fatalf("PLP-Regular moved %d heap records", reg.RecordsMoved)
		}
		if part.RecordsMoved == 0 {
			t.Fatal("PLP-Partition should relocate heap records")
		}
		if reg.EntriesMoved == 0 {
			t.Fatal("slice should move a boundary path of index entries")
		}
		out := r.String()
		if !strings.Contains(out, "Shared-Nothing") || !strings.Contains(out, "Measured") {
			t.Fatal("table formatting incomplete")
		}
	}},
	"table2": {check: func(t *testing.T, _ Scale, r fmt.Stringer) {
		if r.String() == "" {
			t.Fatal("table 2 formulas missing")
		}
	}},
	"fig5": {scale: func(s *Scale) { s.ClientSweep = []int{1, 4} }, check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*Fig5Result)
		tps := map[string]map[int]float64{}
		for _, p := range r.Points {
			if tps[p.System] == nil {
				tps[p.System] = map[int]float64{}
			}
			tps[p.System][p.Clients] = p.TPS
		}
		for sys, m := range tps {
			if m[1] <= 0 || m[4] <= 0 {
				t.Fatalf("%s has zero throughput", sys)
			}
		}
		if r.String() == "" {
			t.Fatal("report missing")
		}
	}},
	"fig6": {scale: func(s *Scale) { s.ClientSweep = []int{4} }, check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*BreakdownResult)
		var plp *BreakdownRow
		for i := range r.Rows {
			if r.Rows[i].System == "PLP" {
				plp = &r.Rows[i]
			}
		}
		if plp == nil {
			t.Fatal("PLP row missing")
		}
		if plp.WaitPerTxn[0] != 0 { // WaitIndexLatch
			t.Fatalf("PLP spent %v waiting on index latches", plp.WaitPerTxn[0])
		}
	}},
	"fig7": {scale: func(s *Scale) { s.ClientSweep = []int{4} }, check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*BreakdownResult)
		var leaf *BreakdownRow
		for i := range r.Rows {
			if r.Rows[i].System == "PLP-Leaf" {
				leaf = &r.Rows[i]
			}
		}
		if leaf == nil {
			t.Fatal("PLP-Leaf row missing")
		}
		if leaf.WaitPerTxn[1] != 0 { // WaitHeapLatch
			t.Fatalf("PLP-Leaf spent %v waiting on heap latches", leaf.WaitPerTxn[1])
		}
		if leaf.Other() < 0 {
			t.Fatal("negative residual latency")
		}
	}},
	"fig8": {scale: func(s *Scale) { s.Duration = 100 * time.Millisecond }, check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*Fig8Result)
		if len(r.Series) != 5 {
			t.Fatalf("expected 5 series, got %d", len(r.Series))
		}
		var partMoved, leafMoved int
		for _, series := range r.Series {
			if len(series.Points) == 0 {
				t.Fatalf("%s has no samples", series.System)
			}
			switch series.System {
			case "PLP-Part":
				partMoved = series.Rebalance.RecordsMoved
			case "PLP-Leaf":
				leafMoved = series.Rebalance.RecordsMoved
			case "Logical":
				if !series.Rebalance.RoutingOnly {
					t.Fatal("logical rebalance should be routing-only")
				}
			}
		}
		// PLP-Partition must pay far more than PLP-Leaf during repartitioning
		// (the Figure 8 dip).
		if partMoved <= leafMoved {
			t.Fatalf("PLP-Partition moved %d records, PLP-Leaf %d; expected Partition >> Leaf", partMoved, leafMoved)
		}
		if !strings.Contains(r.String(), "Figure 8") {
			t.Fatal("report missing")
		}
	}},
	"fig9": {check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*Fig9Result)
		if len(r.Rows) != 4 {
			t.Fatalf("expected 4 rows, got %d", len(r.Rows))
		}
		for _, row := range r.Rows {
			if row.TPS <= 0 {
				t.Fatalf("%s has no throughput", row.System)
			}
			if row.MRBTree && row.Height == 0 {
				t.Fatal("height not measured")
			}
		}
	}},
	"fig10": {scale: func(s *Scale) { s.Clients = 4 }, check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*Fig10Result)
		var normal, mrbt Fig10Row
		for _, row := range r.Rows {
			if row.InsertPercent != 100 {
				continue
			}
			if row.MRBTree {
				mrbt = row
			} else {
				normal = row
			}
		}
		if normal.TPS <= 0 || mrbt.TPS <= 0 {
			t.Fatal("missing throughput")
		}
		// The MRBTree's parallel SMOs must not make things worse.  At the tiny
		// test scale both SMO waits are a few microseconds and noisy, so only
		// compare when the single-rooted wait is large enough to be meaningful.
		if normal.SMOWait > 100*time.Microsecond && mrbt.SMOWait > 2*normal.SMOWait {
			t.Fatalf("MRBTree SMO wait (%v) should not exceed single-rooted (%v) by this much", mrbt.SMOWait, normal.SMOWait)
		}
	}},
	"fig11": {check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*Fig11Result)
		byName := map[string]Fig11Row{}
		for _, row := range r.Rows {
			if row.RecordSize == 100 {
				byName[row.System] = row
			}
		}
		if byName["PLP-Regular"].Normalized > 1.05 {
			t.Fatalf("PLP-Regular should not fragment: %.2f", byName["PLP-Regular"].Normalized)
		}
		if byName["PLP-Leaf"].Normalized < byName["PLP-Partition"].Normalized {
			t.Fatalf("PLP-Leaf (%.2f) should fragment at least as much as PLP-Partition (%.2f)",
				byName["PLP-Leaf"].Normalized, byName["PLP-Partition"].Normalized)
		}
	}},
	"fig12": {check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*Fig12Result)
		if len(r.Rows) != 4 {
			t.Fatalf("expected 4 rows, got %d", len(r.Rows))
		}
		for _, row := range r.Rows {
			if row.ScanTime <= 0 || row.Normalized <= 0 {
				t.Fatalf("%s scan not measured: %+v", row.System, row)
			}
		}
	}},
	"ext-autobalance": {scale: func(s *Scale) { s.Duration = 150 * time.Millisecond }, check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(*ExtAutoBalanceResult)
		if len(r.Series) != 2 {
			t.Fatalf("expected 2 series, got %d", len(r.Series))
		}
		static, auto := r.Series[0], r.Series[1]
		if static.Decisions != 0 {
			t.Fatalf("static configuration rebalanced %d times", static.Decisions)
		}
		if auto.Decisions == 0 {
			t.Fatal("auto-balance configuration never rebalanced")
		}
		if len(auto.Points) == 0 || len(static.Points) == 0 {
			t.Fatal("empty timelines")
		}
		// The point of the monitor: after the skew shift the static
		// configuration serves the hot range from one worker, while the
		// auto-balanced one spreads it out.
		if static.HotShare < 0.75 {
			t.Fatalf("static hot-worker share %.2f, expected the skew to concentrate load", static.HotShare)
		}
		if auto.HotShare >= static.HotShare {
			t.Fatalf("auto-balance hot-worker share %.2f did not improve on static %.2f", auto.HotShare, static.HotShare)
		}
		out := r.String()
		if !strings.Contains(out, "EXT-1") || !strings.Contains(out, "auto-balance") {
			t.Fatalf("report text incomplete:\n%s", out)
		}
	}},
	"ext-recovery": {check: func(t *testing.T, s Scale, res fmt.Stringer) {
		r := res.(*ExtRecoveryResult)
		if !r.Verified {
			t.Fatalf("recovered database failed verification: %+v", r)
		}
		if r.RowsOriginal != r.RowsRecovered {
			t.Fatalf("row counts differ: %d vs %d", r.RowsOriginal, r.RowsRecovered)
		}
		if r.CheckpointEntries < s.TATPSubscribers {
			t.Fatalf("checkpoint captured %d entries, want >= %d subscribers", r.CheckpointEntries, s.TATPSubscribers)
		}
		if r.TxnsExecuted == 0 || r.LogRecords == 0 {
			t.Fatalf("no workload was run before the crash: %+v", r)
		}
		if !strings.Contains(r.String(), "EXT-2") {
			t.Fatal("missing report header")
		}
	}},
	"ablations": {check: func(t *testing.T, _ Scale, res fmt.Stringer) {
		r := res.(AblationResults)
		if len(r) != 4 {
			t.Fatalf("expected 4 ablation studies, got %d", len(r))
		}
		sli, lf, logb, parts := r[0], r[1], r[2], r[3]
		if len(sli.Rows) != 2 || sli.String() == "" {
			t.Fatal("SLI ablation incomplete")
		}
		if lf.Rows[0].LatchesPerTxn <= lf.Rows[1].LatchesPerTxn {
			t.Fatalf("forcing latches should increase latch count: %+v", lf.Rows)
		}
		if len(logb.Rows) != 2 {
			t.Fatal("log buffer ablation incomplete")
		}
		if len(parts.Rows) != 5 {
			t.Fatal("partition count ablation incomplete")
		}
	}},
}

// TestExperimentShapes runs every experiment at tinyScale and checks its
// result has the shape of the claim it tests.
func TestExperimentShapes(t *testing.T) {
	for _, x := range Experiments {
		sh, ok := shapes[x.ID]
		if !ok {
			t.Errorf("%s has no shape check", x.ID)
			continue
		}
		t.Run(x.ID, func(t *testing.T) {
			s := tinyScale()
			if sh.scale != nil {
				sh.scale(&s)
			}
			r, err := x.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			sh.check(t, s, r)
		})
	}
}

// TestExperimentList checks the list itself: ids are unique, every shape
// check belongs to a listed experiment, each row states its claim, and
// the package documentation names exactly the listed ids, in order.
func TestExperimentList(t *testing.T) {
	var ids []string
	for _, x := range Experiments {
		if slices.Contains(ids, x.ID) {
			t.Errorf("experiment id %s is listed twice", x.ID)
		}
		if x.Claim == "" || x.Run == nil {
			t.Errorf("%s has no claim or no run function", x.ID)
		}
		ids = append(ids, x.ID)
	}
	for id := range shapes {
		if !slices.Contains(ids, id) {
			t.Errorf("shape check %s has no experiment", id)
		}
	}

	src, err := os.ReadFile("experiments.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage experiments")
	m := regexp.MustCompile(`(?s)The ids are (.*?)\.\n`).FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("the package documentation does not list the experiment ids")
	}
	var named []string
	for _, f := range strings.Fields(strings.NewReplacer("//", " ", ",", " ").Replace(m[1])) {
		if f != "and" {
			named = append(named, f)
		}
	}
	if !slices.Equal(named, ids) {
		t.Fatalf("the package documentation names %v, the list %v", named, ids)
	}
}
