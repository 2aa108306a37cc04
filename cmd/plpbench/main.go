// Command plpbench regenerates the tables and figures of the paper's
// evaluation: it runs the experiments listed in internal/experiments.
//
// Usage:
//
//	plpbench -experiment fig1            # one experiment
//	plpbench -experiment all             # everything (several minutes)
//	plpbench -experiment fig5 -client-sweep 1,2,4,8,16 -subscribers 100000
//
// Experiments: fig1 fig2 fig3 table1 table2 fig5 fig6 fig7 fig8 fig9 fig10
// fig11 fig12 ext-autobalance ext-recovery ablations.  ext-autobalance
// (EXT-1) repeats fig8's skew change with the online repartitioning
// controller moving the boundary on its own; ext-recovery (EXT-2) crashes a
// TATP engine and recovers it from the log.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"plp/internal/experiments"
)

func main() {
	scale := experiments.DefaultScale()
	experiment := flag.String("experiment", "all", experimentUsage(experiments.Experiments))
	flag.IntVar(&scale.TATPSubscribers, "subscribers", scale.TATPSubscribers, "TATP scale factor")
	flag.IntVar(&scale.TPCBBranches, "branches", scale.TPCBBranches, "TPC-B scale factor")
	flag.IntVar(&scale.TPCCWarehouses, "warehouses", scale.TPCCWarehouses, "TPC-C scale factor")
	flag.IntVar(&scale.Partitions, "partitions", scale.Partitions, "logical partitions / worker goroutines")
	flag.IntVar(&scale.Clients, "clients", scale.Clients, "default client goroutines")
	clientSweep := flag.String("client-sweep", "1,2,4,8", "client counts for scaling experiments")
	flag.IntVar(&scale.TxnsPerClient, "txns", scale.TxnsPerClient, "transactions per client per measured point")
	flag.DurationVar(&scale.Duration, "duration", 0, "measured duration per point (overrides -txns)")
	flag.Parse()

	sweep, err := parseIntList(*clientSweep)
	if err != nil {
		fatal(err)
	}
	scale.ClientSweep = sweep

	if err := run(os.Stdout, experiments.Experiments, *experiment, scale); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plpbench:", err)
	os.Exit(1)
}

// experimentUsage is the -experiment flag's help text: the listed ids.
func experimentUsage(list []experiments.Experiment) string {
	ids := make([]string, len(list))
	for i, x := range list {
		ids[i] = x.ID
	}
	return "experiment to run: " + strings.Join(ids, ", ") + ", or all"
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

// run runs the experiment of list called name, or every one for "all",
// printing each result under its "== id ==" heading.
func run(out io.Writer, list []experiments.Experiment, name string, scale experiments.Scale) error {
	start := time.Now()
	ran := false
	for _, x := range list {
		if name != "all" && name != x.ID {
			continue
		}
		ran = true
		fmt.Fprintf(out, "== %s ==\n", x.ID)
		r, err := x.Run(scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", name)
	}
	fmt.Fprintf(out, "done in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
