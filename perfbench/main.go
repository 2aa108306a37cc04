package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: tatp-mix, tpcb-durable or scan-filter")
		seed    = flag.Int64("seed", 1, "seed every random stream of the run derives from")
		seconds = flag.Int("seconds", 10, "nominal measured seconds; phase operation counts scale with it")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if err := runMain(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runMain(name string, seed int64, seconds int, traced bool) error {
	wl, err := newWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	base := filepath.Join(".bench_build", "perfbench")
	b := &bench{
		seed: seed, seconds: seconds, traced: traced,
		dir: filepath.Join(base, fmt.Sprintf("%s-%d", name, os.Getpid())),
		wl:  wl, size: sizes[name],
	}
	if traced {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	defer removeDir(b.dir)

	m, err := b.run()
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	if b.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed operation:", b.firstErr)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: len(b.failures) == 0, Attempted: b.attempted, Failed: b.attempted - b.committed,
		Metrics: make(map[string]metricJSON, len(defs))}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Printf("%-36s %16.6g %s\n", d.name, v, d.unit)
	}
	if traced {
		path := filepath.Join(base, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
		if err := b.reportTrace(path); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

// reportTrace writes the spans and prints self time per span name.
func (b *bench) reportTrace(path string) error {
	spans := b.tr.spans
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# trace: %d spans written to %s\n", len(spans), path)
	fmt.Printf("# %-24s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/span")
	for _, s := range selfTimes(spans) {
		fmt.Printf("# %-24s %9d %12.3f %12.3f %12.3f\n", s.Name, s.Count,
			ms(s.Total), ms(s.Self), float64(s.Self.Nanoseconds())/1e3/float64(s.Count))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
