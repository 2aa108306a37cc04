package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples and the number of samples it was taken over.  An empty sample
// set yields (NaN, 0); callers report the count so a reader can tell how
// many samples lie beyond the percentile.  samples is not modified.
func percentile(samples []float64, p float64) (float64, int) {
	n := len(samples)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n
}

// median is percentile(samples, 50) without the count.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 50)
	return v
}

// mean returns the arithmetic mean of samples, NaN when there are none.
func mean(samples []float64) float64 {
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// validName reports whether s is a legal metric or workload name: it starts
// with a letter or digit and holds at most 64 letters, digits, '_', '.'
// and '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// opKind classifies an operation for latency accounting.
type opKind int

const (
	opRead  opKind = iota // read-only point transaction
	opWrite               // fsync-durable write transaction
	opScan                // read-only filtered streaming scan
	numOpKinds
)

var kindNames = [numOpKinds]string{opRead: "read", opWrite: "write", opScan: "scan"}

// latencies holds service latencies (µs) by operation type, so a read
// never lands in a write or scan percentile.
type latencies [numOpKinds][]float64

func (l *latencies) add(k opKind, us float64) { l[k] = append(l[k], us) }

// merge appends o's samples.
func (l *latencies) merge(o *latencies) {
	for k := range l {
		l[k] = append(l[k], o[k]...)
	}
}

// quotas splits a phase's fixed operation count over its slots (one slot is
// one in-flight position on one connection).  Every slot gets total/slots
// operations and the first total%slots get one more, so the quotas always
// sum to total: a phase is bounded by operation count, never by time.
func quotas(total, slots int) []int {
	q := make([]int, slots)
	for i := range q {
		q[i] = total / slots
		if i < total%slots {
			q[i]++
		}
	}
	return q
}

// split divides total operations over the operation types in proportion
// to mix; the remainder goes to the first types with a share, so the parts
// always sum to total.
func split(total int, mix [numOpKinds]int) [numOpKinds]int {
	var out [numOpKinds]int
	sum := 0
	for _, w := range mix {
		sum += w
	}
	left := total
	for k, w := range mix {
		out[k] = total * w / sum
		left -= out[k]
	}
	for k := 0; left > 0; k = (k + 1) % len(mix) {
		if mix[k] > 0 {
			out[k]++
			left--
		}
	}
	return out
}

// streamSeed derives the random stream of one slot of one phase from the
// run's seed.  Distinct phase names or slots give unrelated streams, so
// warm-up never replays the operations a measured phase will issue.
func streamSeed(seed int64, phase string, slot int) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(phase); i++ {
		h = splitmix(h ^ uint64(phase[i]))
	}
	return int64(splitmix(h ^ uint64(slot)))
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// historyKeySpace is the TPC-B history table's key space, [1, 2^40), over
// which its partition boundaries are spread.
const historyKeySpace = 1 << 40

// historyID maps a run-wide operation index to a TPC-B history key in
// [1, 2^40).  Multiplying by an odd constant is a bijection modulo 2^40, so
// the keys of distinct indexes below 2^40-1 never repeat, and idx+1 is
// never 0 modulo 2^40, so neither is its key; consecutive indexes still
// scatter over every history partition.
func historyID(idx uint64) uint64 {
	return ((idx + 1) * 0x9e3779b97f4b) & (historyKeySpace - 1)
}
