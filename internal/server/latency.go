// Sampled request-latency histograms, published as the expvar "plp_latency"
// map (visible on plpd's -pprof /debug/vars endpoint).
//
// The hot path must not pay for observability: only one request in
// latencySampleEvery reads the clock at all — the unsampled ones cost a
// single atomic increment — and a sampled duration lands in a log2
// microsecond bucket (the same compression the replication ack histogram
// uses), so the whole histogram is a small fixed array of counters with no
// locks.  Histograms are per op kind and process-wide: a process serving
// several Server instances aggregates them, which is what an operator
// scraping /debug/vars wants.
package server

import (
	"expvar"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// latencySampleEvery is the sampling stride: 1 in 64 requests is timed.
	// Power of two so the stride check is a mask.
	latencySampleEvery = 64
	// latencyBuckets bounds the log2-µs histogram; bucket i counts
	// durations in [2^(i-1), 2^i) µs, so 32 buckets reach ~35 minutes.
	latencyBuckets = 32
)

// latencyHist is one op kind's sampled histogram.
type latencyHist struct {
	seq     atomic.Uint64
	samples atomic.Uint64
	sumUS   atomic.Uint64
	buckets [latencyBuckets]atomic.Uint64
}

// sampleStart elects this observation: the zero time means "not sampled"
// and makes the matching observe a no-op.
func (h *latencyHist) sampleStart() time.Time {
	if h.seq.Add(1)&(latencySampleEvery-1) != 0 {
		return time.Time{}
	}
	return time.Now()
}

// observe records the duration since a sampled start.
func (h *latencyHist) observe(start time.Time) {
	if start.IsZero() {
		return
	}
	us := uint64(time.Since(start).Microseconds())
	b := bits.Len64(us)
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	h.samples.Add(1)
	h.sumUS.Add(us)
	h.buckets[b].Add(1)
}

// The per-op-kind histograms: transactions (every data request is a plan,
// one-shot scans included) and individual streaming-scan chunk productions
// (engine chunk + frame encode + writer hand-off).
var (
	latPlan      = &latencyHist{}
	latScanChunk = &latencyHist{}
)

var latencyKinds = []struct {
	name string
	h    *latencyHist
}{
	{"plan", latPlan},
	{"scan_chunk", latScanChunk},
}

// LatencyStats is one op kind's snapshot.
type LatencyStats struct {
	// Seen is the total number of observations offered (sampled or not).
	Seen uint64
	// Sampled is the number actually timed (≈ Seen / latencySampleEvery).
	Sampled uint64
	// MeanUS is the mean of the sampled durations, in microseconds.
	MeanUS uint64
	// Buckets[i] counts sampled durations in [2^(i-1), 2^i) microseconds.
	Buckets [latencyBuckets]uint64
}

// LatencySnapshot returns the process-wide sampled latency histograms by op
// kind ("plan", "scan_chunk") — the same data expvar
// publishes as "plp_latency".
func LatencySnapshot() map[string]LatencyStats {
	out := make(map[string]LatencyStats, len(latencyKinds))
	for _, k := range latencyKinds {
		st := LatencyStats{
			Seen:    k.h.seq.Load(),
			Sampled: k.h.samples.Load(),
		}
		if st.Sampled > 0 {
			st.MeanUS = k.h.sumUS.Load() / st.Sampled
		}
		for i := range k.h.buckets {
			st.Buckets[i] = k.h.buckets[i].Load()
		}
		out[k.name] = st
	}
	return out
}

func init() {
	expvar.Publish("plp_latency", expvar.Func(func() any {
		snap := LatencySnapshot()
		out := make(map[string]any, len(snap))
		for name, st := range snap {
			// Trim trailing empty buckets so the JSON stays readable.
			last := 0
			for i, c := range st.Buckets {
				if c != 0 {
					last = i + 1
				}
			}
			out[name] = map[string]any{
				"seen":       st.Seen,
				"sampled":    st.Sampled,
				"mean_us":    st.MeanUS,
				"buckets_us": st.Buckets[:last],
			}
		}
		return out
	}))
}
