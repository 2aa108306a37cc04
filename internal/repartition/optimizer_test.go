package repartition

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"plp/internal/keyenc"
)

// histFromCounts builds a sorted key histogram where key i carries counts[i]
// weight (keys are 1-based uint64 keys).
func histFromCounts(counts map[uint64]float64) []KeyWeight {
	out := make([]KeyWeight, 0, len(counts))
	for k, w := range counts {
		out = append(out, KeyWeight{Key: keyenc.Uint64Key(k), Weight: w})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	return out
}

// uniformBounds returns n-1 uniform boundaries over [1, max].
func uniformBounds(max uint64, n int) [][]byte {
	out := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, keyenc.Uint64Key(max*uint64(i)/uint64(n)+1))
	}
	return out
}

func TestMaxFairRatio(t *testing.T) {
	if r := MaxFairRatio(nil); r != 0 {
		t.Fatalf("empty ratio %v", r)
	}
	if r := MaxFairRatio([]float64{0, 0}); r != 0 {
		t.Fatalf("zero-load ratio %v", r)
	}
	if r := MaxFairRatio([]float64{1, 1, 1, 1}); r != 1 {
		t.Fatalf("balanced ratio %v, want 1", r)
	}
	if r := MaxFairRatio([]float64{3, 1}); r != 1.5 {
		t.Fatalf("ratio %v, want 1.5", r)
	}
}

func TestOptimizeBalancedInputNoMoves(t *testing.T) {
	counts := make(map[uint64]float64)
	for k := uint64(1); k <= 100; k++ {
		counts[k] = 1
	}
	moves := Optimize([]float64{25, 25, 25, 25}, histFromCounts(counts), uniformBounds(100, 4), 0.05)
	if len(moves) != 0 {
		t.Fatalf("balanced input produced moves: %+v", moves)
	}
}

func TestOptimizeDegenerateInputs(t *testing.T) {
	counts := map[uint64]float64{1: 1, 2: 1}
	if m := Optimize([]float64{1}, histFromCounts(counts), nil, 0.05); m != nil {
		t.Fatalf("single partition produced moves")
	}
	if m := Optimize([]float64{1, 1}, nil, uniformBounds(10, 2), 0.05); m != nil {
		t.Fatalf("empty histogram produced moves")
	}
	if m := Optimize([]float64{0, 0}, histFromCounts(counts), uniformBounds(10, 2), 0.05); m != nil {
		t.Fatalf("zero load produced moves")
	}
}

// apply simulates applying the moves: it re-buckets the key histogram
// through the updated boundaries and returns the resulting loads.
func apply(moves []Move, bounds [][]byte, keys []KeyWeight, n int) ([]float64, [][]byte) {
	newBounds := make([][]byte, len(bounds))
	copy(newBounds, bounds)
	for _, m := range moves {
		newBounds[m.Boundary-1] = m.NewKey
	}
	loads := make([]float64, n)
	for _, kw := range keys {
		p := sort.Search(len(newBounds), func(i int) bool { return bytes.Compare(newBounds[i], kw.Key) > 0 })
		loads[p] += kw.Weight
	}
	return loads, newBounds
}

func TestOptimizeHotFirstPartition(t *testing.T) {
	// 80% of the load on the first 10% of the key space.
	counts := make(map[uint64]float64)
	for k := uint64(1); k <= 100; k++ {
		counts[k] = 80.0 / 100
	}
	for k := uint64(101); k <= 1000; k++ {
		counts[k] = 20.0 / 900
	}
	keys := histFromCounts(counts)
	bounds := uniformBounds(1000, 4)
	loads, _ := apply(nil, bounds, keys, 4)

	moves := Optimize(loads, keys, bounds, 0.05)
	if len(moves) == 0 {
		t.Fatalf("hot head produced no moves")
	}
	for _, m := range moves {
		if m.From != 0 && m.To != 0 && m.From >= m.Boundary+1 {
			t.Fatalf("unexpected move %+v", m)
		}
	}
	after, _ := apply(moves, bounds, keys, 4)
	if r := MaxFairRatio(after); r > 1.3 {
		t.Fatalf("after one optimizer round ratio = %.2f, want <= 1.3 (loads %v)", r, after)
	}
}

// TestOptimizeConvergesOnZipf iterates optimize/apply rounds on a Zipfian
// histogram until the load ratio stabilizes, checking monotone progress and
// that boundaries stay strictly ordered (the engine would reject anything
// else).
func TestOptimizeConvergesOnZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.1, 1, 99_999)
	counts := make(map[uint64]float64)
	for i := 0; i < 200_000; i++ {
		counts[zipf.Uint64()+1]++
	}
	keys := histFromCounts(counts)
	bounds := uniformBounds(100_000, 8)
	loads, _ := apply(nil, bounds, keys, 8)
	if MaxFairRatio(loads) < 2 {
		t.Fatalf("test setup not skewed enough: ratio %.2f", MaxFairRatio(loads))
	}

	ratio := MaxFairRatio(loads)
	for round := 0; round < 6; round++ {
		moves := Optimize(loads, keys, bounds, 0.05)
		if len(moves) == 0 {
			break
		}
		loads, bounds = apply(moves, bounds, keys, 8)
		for i := 1; i < len(bounds); i++ {
			if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
				t.Fatalf("boundaries out of order after round %d", round)
			}
		}
	}
	final := MaxFairRatio(loads)
	if final > 1.25 {
		t.Fatalf("optimizer did not converge: ratio %.2f -> %.2f (loads %v)", ratio, final, loads)
	}
}
