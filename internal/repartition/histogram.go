// Aging access histograms: the workload statistics the online dynamic
// repartitioning (DRP) controller feeds on.
//
// The paper's DRP component continuously observes which key ranges a
// workload touches and ages the observations so that the histogram tracks
// the *current* access pattern rather than the whole history: a hot spot
// that moves must stop looking hot where it used to be.  AgingHistogram is
// that structure for one table — per-partition access counters plus a
// bounded per-key weight map, both decayed exponentially by Age, which the
// controller calls once per control period.

package repartition

import (
	"bytes"
	"sort"
	"sync"
)

// KeyWeight is one key's aged access weight.
type KeyWeight struct {
	Key    []byte
	Weight float64
}

// HistogramSnapshot is a consistent copy of an AgingHistogram's state.
type HistogramSnapshot struct {
	// PartitionLoads holds the aged access weight per logical partition, as
	// attributed at observation time (a boundary move does not re-bucket
	// them; re-bucket Keys through the current routing for that).
	PartitionLoads []float64
	// Keys holds the aged per-key weights, sorted by key.  The map is
	// bounded, so very wide uniform workloads may under-report cold keys;
	// hot keys are always tracked.
	Keys []KeyWeight
	// Total is the aged total weight (the sum of PartitionLoads).
	Total float64
	// WindowObservations counts raw observations since the last Age call;
	// controllers use it to skip control periods with too little signal.
	WindowObservations uint64
}

// AgingHistogram accumulates per-partition and per-key access observations
// for one table and decays them exponentially on demand.  It is safe for
// concurrent use; Observe is a single short critical section so it can sit
// on the request-submitting path.
type AgingHistogram struct {
	mu      sync.Mutex
	loads   []float64
	keys    map[string]float64
	maxKeys int
	window  uint64
	total   float64
}

// minKeyWeight is the aged weight below which a key is dropped from the
// histogram; it bounds memory when the hot set moves and old keys decay
// towards zero.
const minKeyWeight = 0.5

// NewAgingHistogram returns a histogram over the given number of
// partitions, tracking at most maxKeys distinct keys (0 selects 16384).
func NewAgingHistogram(partitions, maxKeys int) *AgingHistogram {
	if partitions < 1 {
		partitions = 1
	}
	if maxKeys <= 0 {
		maxKeys = 16384
	}
	return &AgingHistogram{
		loads:   make([]float64, partitions),
		keys:    make(map[string]float64),
		maxKeys: maxKeys,
	}
}

// Observe records one access to key, attributed to the given partition.
func (h *AgingHistogram) Observe(partition int, key []byte) {
	h.mu.Lock()
	if partition >= 0 && partition < len(h.loads) {
		h.loads[partition]++
	}
	h.total++
	h.window++
	if _, ok := h.keys[string(key)]; ok || len(h.keys) < h.maxKeys {
		h.keys[string(key)]++
	}
	h.mu.Unlock()
}

// Age multiplies every weight by factor (clamped to [0, 1)) and drops keys
// whose weight decayed to noise, then starts a fresh observation window.
// Calling it once per control period gives the histogram an exponentially
// weighted moving view of the access pattern.
func (h *AgingHistogram) Age(factor float64) {
	if factor < 0 {
		factor = 0
	}
	if factor >= 1 {
		factor = 0.99
	}
	h.mu.Lock()
	for i := range h.loads {
		h.loads[i] *= factor
	}
	h.total *= factor
	for k, w := range h.keys {
		w *= factor
		if w < minKeyWeight {
			delete(h.keys, k)
			continue
		}
		h.keys[k] = w
	}
	h.window = 0
	h.mu.Unlock()
}

// Snapshot returns a copy of the current state, with keys sorted.
func (h *AgingHistogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	snap := HistogramSnapshot{
		PartitionLoads:     append([]float64(nil), h.loads...),
		Keys:               make([]KeyWeight, 0, len(h.keys)),
		Total:              h.total,
		WindowObservations: h.window,
	}
	for k, w := range h.keys {
		snap.Keys = append(snap.Keys, KeyWeight{Key: []byte(k), Weight: w})
	}
	h.mu.Unlock()
	sort.Slice(snap.Keys, func(i, j int) bool { return bytes.Compare(snap.Keys[i].Key, snap.Keys[j].Key) < 0 })
	return snap
}

// Restore overwrites the histogram's aged state with a snapshot previously
// taken by Snapshot — the warm-start path after a restart, when the
// controller reclaims the histograms a checkpoint persisted.  Loads beyond
// the histogram's partition count and keys beyond its key bound are
// dropped; the observation window restarts empty, so a freshly restored
// controller will not act before it has seen live traffic again.
func (h *AgingHistogram) Restore(loads []float64, keys []KeyWeight) {
	h.mu.Lock()
	for i := range h.loads {
		h.loads[i] = 0
	}
	copy(h.loads, loads)
	h.total = 0
	for _, l := range h.loads {
		h.total += l
	}
	h.keys = make(map[string]float64, len(keys))
	for _, kw := range keys {
		if len(h.keys) >= h.maxKeys {
			break
		}
		if kw.Weight >= minKeyWeight {
			h.keys[string(kw.Key)] = kw.Weight
		}
	}
	h.window = 0
	h.mu.Unlock()
}

// WindowObservations returns the raw observation count since the last Age.
func (h *AgingHistogram) WindowObservations() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.window
}
