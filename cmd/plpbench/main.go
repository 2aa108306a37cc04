// Command plpbench regenerates the tables and figures of the paper's
// evaluation.
//
// Usage:
//
//	plpbench -experiment fig1            # one experiment
//	plpbench -experiment all             # everything (several minutes)
//	plpbench -experiment fig5 -clients 1,2,4,8,16 -subscribers 100000
//
// Experiments: fig1 fig2 fig3 table1 table2 fig5 fig6 fig7 fig8 fig9 fig10
// fig11 fig12 ext-autobalance ext-recovery ablations all.  ext-autobalance
// (EXT-1) repeats fig8's skew change with the online repartitioning
// controller moving the boundary on its own; ext-recovery (EXT-2) crashes a
// TATP engine and recovers it from the log.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"plp/internal/experiments"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "experiment to run: fig1-fig3, fig5-fig12, table1, table2, ext-autobalance (DRP under a skew change), ext-recovery, ablations or all")
		subscribers = flag.Int("subscribers", 20000, "TATP scale factor")
		branches    = flag.Int("branches", 2, "TPC-B scale factor")
		warehouses  = flag.Int("warehouses", 2, "TPC-C scale factor")
		partitions  = flag.Int("partitions", 8, "logical partitions / worker goroutines")
		clients     = flag.Int("clients", 8, "default client goroutines")
		clientSweep = flag.String("client-sweep", "1,2,4,8", "client counts for scaling experiments")
		txns        = flag.Int("txns", 2000, "transactions per client per measured point")
		duration    = flag.Duration("duration", 0, "measured duration per point (overrides -txns)")
	)
	flag.Parse()

	scale := experiments.DefaultScale()
	scale.TATPSubscribers = *subscribers
	scale.TPCBBranches = *branches
	scale.TPCCWarehouses = *warehouses
	scale.Partitions = *partitions
	scale.Clients = *clients
	scale.TxnsPerClient = *txns
	scale.Duration = *duration

	sweep, err := parseIntList(*clientSweep)
	if err != nil {
		fatal(err)
	}

	if err := run(*experiment, scale, sweep); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plpbench:", err)
	os.Exit(1)
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad client count %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(name string, scale experiments.Scale, sweep []int) error {
	all := name == "all"
	ran := false
	start := time.Now()
	section := func(id string) bool {
		if all || name == id {
			ran = true
			fmt.Printf("== %s ==\n", id)
			return true
		}
		return false
	}

	if section("fig1") {
		r, err := experiments.Fig1(scale)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("fig2") {
		r, err := experiments.Fig2(scale)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("fig3") {
		r, err := experiments.Fig3(scale)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("table1") {
		measured, err := experiments.Table1Measured(scale)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable1(experiments.Table1Analytical(), measured))
	}
	if section("table2") {
		fmt.Println(experiments.Table2())
	}
	if section("fig5") {
		r, err := experiments.Fig5(scale, sweep)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("fig6") {
		r, err := experiments.Fig6(scale, sweep)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("fig7") {
		r, err := experiments.Fig7(scale, sweep)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("fig8") {
		r, err := experiments.Fig8(scale)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("fig9") {
		r, err := experiments.Fig9(scale)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("fig10") {
		r, err := experiments.Fig10(scale, nil)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("fig11") {
		r, err := experiments.Fig11(scale, nil)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("fig12") {
		r, err := experiments.Fig12(scale)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("ext-autobalance") {
		r, err := experiments.ExtAutoBalance(scale)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("ext-recovery") {
		r, err := experiments.ExtRecovery(scale)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if section("ablations") {
		for _, fn := range []func() (*experiments.AblationResult, error){
			func() (*experiments.AblationResult, error) { return experiments.AblationSLI(scale) },
			func() (*experiments.AblationResult, error) { return experiments.AblationLatchFreeIndex(scale) },
			func() (*experiments.AblationResult, error) { return experiments.AblationLogBuffer(scale) },
			func() (*experiments.AblationResult, error) { return experiments.AblationPartitionCount(scale, nil) },
		} {
			r, err := fn()
			if err != nil {
				return err
			}
			fmt.Println(r)
		}
	}

	if !ran {
		return fmt.Errorf("unknown experiment %q", name)
	}
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
