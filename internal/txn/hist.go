// Commit acknowledgement latency histograms.  The commit pipeline has two
// distinct acknowledgement gates — the local group-commit fsync
// (Log.OnDurable) and the extended replica/quorum ack (SetCommitAckWaiter)
// — and operators tuning -ack-mode need to see both distributions, not one
// blended average: quorum waits have a long network-shaped tail the fsync
// wait never shows.
package txn

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// ackHistBuckets is the number of log₂ latency buckets: bucket i counts
// waits in [2^i, 2^(i+1)) microseconds, with the last bucket absorbing
// everything longer (~2s and up).
const ackHistBuckets = 22

// ackHist is a lock-free log₂-bucketed latency histogram.  Recording is two
// atomic adds, cheap enough to run on every commit.
type ackHist struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	buckets [ackHistBuckets]atomic.Uint64
}

func (h *ackHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNS.Add(uint64(d))
	i := bits.Len64(uint64(d / time.Microsecond))
	if i >= ackHistBuckets {
		i = ackHistBuckets - 1
	}
	h.buckets[i].Add(1)
}

// AckWaitHist is a point-in-time copy of one acknowledgement-gate histogram.
type AckWaitHist struct {
	// Count is the number of observed waits; SumNS their total duration.
	Count uint64
	SumNS uint64
	// Buckets[i] counts waits in [2^i, 2^(i+1)) microseconds; the last
	// bucket is open-ended.
	Buckets []uint64
}

func (h *ackHist) snapshot() AckWaitHist {
	s := AckWaitHist{
		Count:   h.count.Load(),
		SumNS:   h.sumNS.Load(),
		Buckets: make([]uint64, ackHistBuckets),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// AckWaitHistograms returns the local-durability (group-commit fsync) and
// replica-acknowledgement (SetCommitAckWaiter) wait distributions.  The
// replica histogram stays empty while no waiter is installed.
func (m *Manager) AckWaitHistograms() (local, replica AckWaitHist) {
	return m.localAck.snapshot(), m.replicaAck.snapshot()
}
