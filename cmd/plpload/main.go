// Command plpload loads one of the benchmark databases into an engine of
// the chosen design and prints storage statistics: index heights, page
// counts, heap occupancy and fragmentation.  It is a quick way to inspect
// how the heap-placement policies of the PLP variants shape the physical
// database (the effect behind Figures 11 and 12).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"plp/internal/engine"
	"plp/internal/workload/tatp"
	"plp/internal/workload/tpcb"
	"plp/internal/workload/tpcc"
)

func main() {
	var (
		workload    = flag.String("workload", "tatp", "tatp, tpcb or tpcc")
		designName  = flag.String("design", "plp-leaf", "conventional, logical, plp-regular, plp-partition or plp-leaf")
		partitions  = flag.Int("partitions", 8, "logical partitions")
		subscribers = flag.Int("subscribers", 20000, "TATP scale factor")
		branches    = flag.Int("branches", 2, "TPC-B scale factor")
		warehouses  = flag.Int("warehouses", 2, "TPC-C scale factor")
	)
	flag.Parse()

	design, ok := map[string]engine.Design{
		"conventional":  engine.Conventional,
		"logical":       engine.Logical,
		"plp-regular":   engine.PLPRegular,
		"plp-partition": engine.PLPPartition,
		"plp-leaf":      engine.PLPLeaf,
	}[*designName]
	if !ok {
		fmt.Fprintf(os.Stderr, "plpload: unknown design %q\n", *designName)
		os.Exit(2)
	}

	e := engine.New(engine.Options{Design: design, Partitions: *partitions, SLI: design == engine.Conventional})
	defer e.Close()

	start := time.Now()
	var err error
	switch *workload {
	case "tatp":
		err = tatp.New(tatp.Config{Subscribers: *subscribers, Partitions: *partitions}).Setup(e)
	case "tpcb":
		err = tpcb.New(tpcb.Config{Branches: *branches, Partitions: *partitions}).Setup(e)
	case "tpcc":
		err = tpcc.New(tpcc.Config{Warehouses: *warehouses, Partitions: *partitions}).Setup(e)
	default:
		log.Fatalf("unknown workload %q", *workload)
	}
	if err != nil {
		log.Fatalf("load: %v", err)
	}
	loadTime := time.Since(start)

	fmt.Printf("workload=%s design=%s partitions=%d loaded in %s\n\n",
		*workload, design, *partitions, loadTime.Round(time.Millisecond))
	fmt.Printf("%-26s %6s %10s %10s %10s %12s %12s\n",
		"table", "height", "idx leaf", "idx inner", "entries", "heap pages", "heap recs")
	for _, tbl := range e.Catalog().Tables() {
		st, err := tbl.Primary.Stats()
		if err != nil {
			log.Fatal(err)
		}
		heapPages, heapRecs := 0, 0
		if tbl.Heap != nil {
			hs := tbl.Heap.Stats()
			heapPages, heapRecs = hs.Pages, hs.Records
		}
		fmt.Printf("%-26s %6d %10d %10d %10d %12d %12d\n",
			tbl.Def.Name, st.Height, st.LeafPages, st.InteriorPages, st.Entries, heapPages, heapRecs)
	}
	bp := e.BufferPool().Stats()
	fmt.Printf("\nbuffer pool: %d resident pages, %d fixes\n", bp.Resident, bp.Fixes)
}
