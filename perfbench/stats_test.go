package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

func TestPercentile(t *testing.T) {
	if v, n := percentile(nil, 50); !math.IsNaN(v) || n != 0 {
		t.Fatalf("empty: got (%v, %d), want (NaN, 0)", v, n)
	}
	for _, p := range []float64{1, 50, 99, 100} {
		if v, n := percentile([]float64{7}, p); v != 7 || n != 1 {
			t.Fatalf("single sample, p%v: got (%v, %d), want (7, 1)", p, v, n)
		}
	}
	s := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if v, n := percentile(s, c.p); v != c.want || n != 100 {
			t.Errorf("1..100, p%v: got (%v, %d), want (%v, 100)", c.p, v, n, c.want)
		}
	}
	if s[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
}

func TestMean(t *testing.T) {
	if v := mean(nil); !math.IsNaN(v) {
		t.Errorf("mean of nothing = %v, want NaN", v)
	}
	if v := mean([]float64{20, 30, 31}); v != 27 {
		t.Errorf("mean of {20,30,31} = %v, want 27", v)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"tps", "setup_s", "cs.per_txn", "tatp-mix", "9lives", "a.b-c_d"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "has space", "p/99", "µs", string(long)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that every metric the program
// prints is legally named, printed once, and declared in BENCHMARK.json
// with the same unit, and the reverse.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &cfg); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	check := func(kind string, defs []metricDef, declared []decl) {
		if len(defs) != len(declared) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
		}
		units := make(map[string]string)
		for _, d := range declared {
			units[d.Name] = d.Unit
		}
		for _, d := range defs {
			if !validName(d.name) {
				t.Errorf("%s: invalid metric name %q", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s: metric %q printed twice", kind, d.name)
			}
			seen[d.name] = true
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s: metric %q unit %q, BENCHMARK.json has %q (declared: %v)", kind, d.name, d.unit, u, ok)
			}
		}
	}
	check("end_to_end", endToEnd, cfg.EndToEnd)
	check("per_layer", perLayer, cfg.PerLayer)
	for _, w := range cfg.Workloads {
		if !validName(w.Name) {
			t.Errorf("invalid workload name %q", w.Name)
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
		if _, ok := sizes[w.Name]; !ok {
			t.Errorf("workload %q has no sizing", w.Name)
		}
	}
}

// TestLatencySeparation checks that reads, writes and scans land in their
// own percentiles: a read never lands in write_p50_us.
func TestLatencySeparation(t *testing.T) {
	var l, other latencies
	l.add(opRead, 10)
	l.add(opScan, 2000)
	l.add(opWrite, 1000)
	other.add(opRead, 30)
	l.merge(&other)
	if got := l[opWrite]; len(got) != 1 || got[0] != 1000 {
		t.Fatalf("write samples %v, want [1000]", got)
	}
	if got := l[opRead]; len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("read samples %v, want [10 30]", got)
	}
	if got := l[opScan]; len(got) != 1 || got[0] != 2000 {
		t.Fatalf("scan samples %v, want [2000]", got)
	}
	if got := median(l[opWrite]); got != 1000 {
		t.Errorf("write p50 = %v, want 1000", got)
	}
}

// TestQuotas checks that the slots' quotas always sum to the phase's
// operation count and differ by at most one.
func TestQuotas(t *testing.T) {
	for _, c := range []struct{ total, slots int }{{0, 4}, {1, 4}, {7, 3}, {96000, 32}, {12001, 32}} {
		q := quotas(c.total, c.slots)
		if len(q) != c.slots {
			t.Fatalf("quotas(%d, %d) has %d slots", c.total, c.slots, len(q))
		}
		sum, lo, hi := 0, q[0], q[0]
		for _, n := range q {
			sum += n
			lo, hi = min(lo, n), max(hi, n)
		}
		if sum != c.total || hi-lo > 1 {
			t.Errorf("quotas(%d, %d) = %v: sum %d, spread %d", c.total, c.slots, q, sum, hi-lo)
		}
	}
}

func TestSplit(t *testing.T) {
	for _, c := range []struct {
		total int
		mix   [numOpKinds]int
		want  [numOpKinds]int
	}{
		{100, [numOpKinds]int{opRead: 4, opWrite: 1}, [numOpKinds]int{opRead: 80, opWrite: 20}},
		{10, [numOpKinds]int{opRead: 1, opWrite: 1, opScan: 1}, [numOpKinds]int{opRead: 4, opWrite: 3, opScan: 3}},
		{7, [numOpKinds]int{opWrite: 1, opScan: 1}, [numOpKinds]int{opWrite: 4, opScan: 3}},
		{0, [numOpKinds]int{opRead: 1}, [numOpKinds]int{}},
	} {
		if got := split(c.total, c.mix); got != c.want {
			t.Errorf("split(%d, %v) = %v, want %v", c.total, c.mix, got, c.want)
		}
	}
}

// TestStreamsAreDisjoint checks that warm-up, measured and probe phases
// draw different operations from one seed, and the same seed repeats them.
func TestStreamsAreDisjoint(t *testing.T) {
	draw := func(phase string, slot int) [8]int64 {
		rng := rand.New(rand.NewSource(streamSeed(42, phase, slot)))
		var out [8]int64
		for i := range out {
			out[i] = rng.Int63()
		}
		return out
	}
	if draw("warmup", 0) != draw("warmup", 0) {
		t.Fatal("the same seed, phase and slot gave different streams")
	}
	seen := make(map[[8]int64]string)
	for _, phase := range []string{"warmup", "saturated-0", "saturated-1", "serial-0", "probe"} {
		for slot := 0; slot < 32; slot++ {
			d := draw(phase, slot)
			if prev, dup := seen[d]; dup {
				t.Fatalf("%s/%d repeats the stream of %s", phase, slot, prev)
			}
			seen[d] = phase
		}
	}
	if streamSeed(1, "warmup", 0) == streamSeed(2, "warmup", 0) {
		t.Fatal("different seeds gave the same stream")
	}
}

func TestHistoryIDsNeverRepeat(t *testing.T) {
	seen := make(map[uint64]bool)
	for idx := uint64(0); idx < 1<<20; idx++ {
		id := historyID(idx)
		if id == 0 || id >= historyKeySpace {
			t.Fatalf("historyID(%d) = %d, outside [1, 2^40)", idx, id)
		}
		if seen[id] {
			t.Fatalf("historyID(%d) = %d repeats", idx, id)
		}
		seen[id] = true
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 60); one sticks out past
		// the parent's end and counts only up to 100.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 40, End: 60},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 20, End: 30},
	}
	got := make(map[string]selfStat)
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	if r := got["root"]; r.Count != 1 || r.Total != 100 || r.Self != 100-60 {
		t.Errorf("root: %+v, want total 100 self 40", r)
	}
	if c := got["child"]; c.Count != 3 || c.Total != 40+20+30 || c.Self != 40+20+30-10 {
		t.Errorf("child: %+v, want total 90 self 80", c)
	}
	if l := got["leaf"]; l.Self != 10 {
		t.Errorf("leaf: %+v, want self 10", l)
	}
}
