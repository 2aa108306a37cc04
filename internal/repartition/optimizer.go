// The two-phase load-balance optimizer behind online dynamic repartitioning.
//
// Given aged per-partition loads and an aged key histogram, the controller
// needs every boundary move that brings the table back to balance.
// Optimize works in the two phases of the paper's load balancer:
//
//   - Phase 1 (planning) treats the partitions as a chain and computes, for
//     every cut between two adjacent partitions, the signed load flow that
//     must cross it so that every partition ends up with its fair share
//     (the cumulative-balance formulation: flow through cut i equals the
//     excess of everything below the cut).
//   - Phase 2 (realization) converts each sufficiently large flow into a
//     concrete boundary key, using the weighted key histogram to find the
//     equal-load quantile, clamped so the new boundary stays strictly
//     between its neighbouring boundaries (engine.Rebalance applies moves
//     one at a time, left to right).
//
// The optimizer is pure: it never touches an engine, which keeps it
// deterministic and unit-testable.

package repartition

import (
	"bytes"
	"math"
	"sort"
)

// Move is one boundary adjustment produced by the optimizer.
type Move struct {
	// Boundary is the index of the partition whose lower bound moves
	// (1 <= Boundary < partitions); it is the idx argument of
	// engine.Rebalance.
	Boundary int
	// NewKey is the new lower bound of partition Boundary.
	NewKey []byte
	// From and To are the load donor and recipient partitions.
	From, To int
	// Transfer is the planned load flow across the cut, in aged weight
	// units.
	Transfer float64
}

// MaxFairRatio returns the hottest partition's load over the fair share
// (1.0 means perfectly balanced).  Controllers compare it against their
// trigger threshold.  It returns 0 when there is no load.
func MaxFairRatio(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	total, max := 0.0, 0.0
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total <= 0 {
		return 0
	}
	return max / (total / float64(len(loads)))
}

// Optimize plans the boundary moves that rebalance a table whose partitions
// currently carry the given loads.  keys is the aged key histogram sorted
// by key (HistogramSnapshot.Keys); boundaries are the table's current
// partition boundaries (len(loads)-1 entries, as in
// mrbtree.Tree.Boundaries).  Flows across a cut smaller than
// minTransferFraction of the total load are left alone, so the optimizer
// does not chase noise (Config.MinTransferFraction).  The returned moves are ordered by boundary
// index and are valid to apply sequentially through engine.Rebalance.  A
// nil result means the table is already balanced or the histogram carries
// too little information to act on.
func Optimize(loads []float64, keys []KeyWeight, boundaries [][]byte, minTransferFraction float64) []Move {
	n := len(loads)
	if n < 2 || len(boundaries) != n-1 || len(keys) == 0 {
		return nil
	}
	total := 0.0
	for _, l := range loads {
		total += l
	}
	if total <= 0 {
		return nil
	}
	fair := total / float64(n)

	// Phase 1: signed flow through every cut.  flow[i] > 0 means partitions
	// below cut i (0..i-1) are overloaded and the boundary must move left so
	// their top keys drain upward; flow[i] < 0 moves it right.
	flow := make([]float64, n)
	cum := 0.0
	for i := 1; i < n; i++ {
		cum += loads[i-1]
		flow[i] = cum - fair*float64(i)
	}

	// Phase 2: per-key prefix weights for quantile lookups.
	prefix := make([]float64, len(keys))
	weight := 0.0
	for i, kw := range keys {
		weight += kw.Weight
		prefix[i] = weight
	}
	if weight <= 0 {
		return nil
	}

	var moves []Move
	// effectiveLower tracks boundary i-1 after any move planned for it, so
	// that sequentially applied moves never cross each other.
	var effectiveLower []byte
	for i := 1; i < n; i++ {
		lower := effectiveLower
		if i-1 >= 1 && lower == nil {
			lower = boundaries[i-2]
		}
		effectiveLower = nil

		if math.Abs(flow[i]) < minTransferFraction*total {
			continue
		}
		// The equal-load quantile: the first key index whose prefix weight
		// reaches the target; the boundary is the key after it so the
		// quantile key itself stays below the cut.
		target := weight * float64(i) / float64(n)
		j := sort.Search(len(keys), func(k int) bool { return prefix[k] >= target })
		if j+1 >= len(keys) {
			continue
		}
		cand := keys[j+1].Key

		// Clamp strictly between the neighbouring boundaries: above the
		// (possibly just moved) boundary i-1 and below the not-yet-moved
		// boundary i+1.
		var upper []byte
		if i < n-1 {
			upper = boundaries[i]
		}
		if lower != nil && bytes.Compare(cand, lower) <= 0 {
			k := sort.Search(len(keys), func(k int) bool { return bytes.Compare(keys[k].Key, lower) > 0 })
			if k >= len(keys) {
				continue
			}
			cand = keys[k].Key
		}
		if upper != nil && bytes.Compare(cand, upper) >= 0 {
			k := sort.Search(len(keys), func(k int) bool { return bytes.Compare(keys[k].Key, upper) >= 0 })
			if k == 0 {
				continue
			}
			cand = keys[k-1].Key
			if lower != nil && bytes.Compare(cand, lower) <= 0 {
				continue
			}
		}
		if bytes.Equal(cand, boundaries[i-1]) {
			continue // already there
		}

		m := Move{Boundary: i, NewKey: append([]byte(nil), cand...), Transfer: math.Abs(flow[i])}
		if bytes.Compare(cand, boundaries[i-1]) < 0 {
			m.From, m.To = i-1, i
		} else {
			m.From, m.To = i, i-1
		}
		moves = append(moves, m)
		effectiveLower = cand
	}
	return moves
}
