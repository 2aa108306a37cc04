package wal

import (
	"sync"
	"testing"
	"time"

	"plp/internal/cs"
)

// BenchmarkAppendConsolidated measures the Aether-style append path under
// full parallelism; adding goroutines should not add contention
// (a composable critical section).
func BenchmarkAppendConsolidated(b *testing.B) {
	l := NewConsolidated(&cs.Stats{})
	payload := make([]byte, 48)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Append(&Record{Txn: 1, Type: RecUpdate, Payload: payload})
		}
	})
}

// BenchmarkAppendNaive measures the single-mutex baseline used by the
// log-buffer ablation.
func BenchmarkAppendNaive(b *testing.B) {
	l := NewNaive(&cs.Stats{})
	payload := make([]byte, 48)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Append(&Record{Txn: 1, Type: RecUpdate, Payload: payload})
		}
	})
}

// ----------------------------------------------------------------------
// Group commit vs per-transaction fsync.
//
// The benchmark pair runs the same workload — N concurrent committers,
// each appending an update+commit pair and waiting for durability — on the
// disk-backed device in its two sync modes.  In group mode every waiter
// rides the daemon's shared fsync; in sync-every-commit mode each commit
// pays its own, serialized on the device.  TestGroupCommitBeatsPerCommitFsync
// checks the gap at 16 committers.
// ----------------------------------------------------------------------

// commitConcurrency is the committer count of the benchmark pair; the
// acceptance bar for group commit is "beats per-commit fsync at >= 16".
const commitConcurrency = 16

// runCommitters drives total commits through the log from n concurrent
// committers, each waiting for durability.
func runCommitters(l Log, n, total int) {
	var wg sync.WaitGroup
	per := total / n
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := []byte("group-commit-bench-payload")
			for i := 0; i < per; i++ {
				id := uint64(g*total + i + 1)
				l.Append(&Record{Txn: id, Type: RecUpdate, Payload: payload})
				lsn := l.Append(&Record{Txn: id, Type: RecCommit})
				l.WaitDurable(lsn)
			}
		}(g)
	}
	wg.Wait()
}

// benchDurableCommits measures committed transactions with the given sync
// mode at commitConcurrency concurrent committers.
func benchDurableCommits(b *testing.B, syncEvery bool) {
	l, err := OpenDurable(b.TempDir(), DurableOptions{SyncEveryCommit: syncEvery})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	runCommitters(l, commitConcurrency, b.N)
}

// BenchmarkGroupCommit16 measures the production configuration: 16
// concurrent committers riding the group-commit daemon's shared fsyncs.
func BenchmarkGroupCommit16(b *testing.B) { benchDurableCommits(b, false) }

// BenchmarkPerCommitFsync16 measures the naive baseline: 16 concurrent
// committers each performing their own fsync.
func BenchmarkPerCommitFsync16(b *testing.B) { benchDurableCommits(b, true) }

// measureCommitThroughput returns committed transactions per second for
// the given sync mode at commitConcurrency committers.
func measureCommitThroughput(tb testing.TB, syncEvery bool, d time.Duration) float64 {
	tb.Helper()
	l, err := OpenDurable(tb.TempDir(), DurableOptions{SyncEveryCommit: syncEvery})
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	deadline := time.Now().Add(d)
	var done int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < commitConcurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := []byte("group-commit-bench-payload")
			n := int64(0)
			for i := 0; time.Now().Before(deadline); i++ {
				id := uint64(g*1_000_000 + i + 1)
				l.Append(&Record{Txn: id, Type: RecUpdate, Payload: payload})
				lsn := l.Append(&Record{Txn: id, Type: RecCommit})
				l.WaitDurable(lsn)
				n++
			}
			mu.Lock()
			done += n
			mu.Unlock()
		}(g)
	}
	start := time.Now()
	wg.Wait()
	return float64(done) / time.Since(start).Seconds()
}

// TestGroupCommitBeatsPerCommitFsync asserts the durability design's point
// at 16 concurrent committers: sharing the fsync must beat paying one per
// commit.
func TestGroupCommitBeatsPerCommitFsync(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping throughput measurement in short mode")
	}
	perCommit := measureCommitThroughput(t, true, 400*time.Millisecond)
	group := measureCommitThroughput(t, false, 400*time.Millisecond)
	if group <= perCommit {
		t.Errorf("group commit (%.0f txn/s) did not beat per-commit fsync (%.0f txn/s) at %d committers",
			group, perCommit, commitConcurrency)
	}
}
