package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"plp/internal/cs"
	"plp/internal/lock"
	"plp/internal/wal"
)

func newManager() (*Manager, wal.Log, *lock.Manager) {
	cstats := &cs.Stats{}
	log := wal.NewConsolidated(cstats)
	locks := lock.NewManager(cstats)
	return NewManager(log, locks, cstats), log, locks
}

func TestBeginCommit(t *testing.T) {
	m, log, _ := newManager()
	tx := m.Begin()
	if tx.State() != Active {
		t.Fatal("new transaction not active")
	}
	if m.NumActive() != 1 {
		t.Fatal("active table wrong")
	}
	lsn := log.Append(&wal.Record{Txn: tx.ID(), Type: wal.RecUpdate})
	tx.SetLastLSN(lsn)
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Committed || m.NumActive() != 0 {
		t.Fatal("commit did not retire the transaction")
	}
	if m.Stats().Committed != 1 {
		t.Fatal("commit not counted")
	}
	// The commit record must be durable.
	if log.DurableLSN() < tx.LastLSN() {
		t.Fatal("commit record not flushed")
	}
	// Double commit is rejected.
	if err := m.Commit(tx); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestAbortRunsUndoInReverse(t *testing.T) {
	m, _, _ := newManager()
	tx := m.Begin()
	var order []int
	tx.PushUndo(func() error { order = append(order, 1); return nil })
	tx.PushUndo(func() error { order = append(order, 2); return nil })
	tx.PushUndo(func() error { order = append(order, 3); return nil })
	if err := m.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 3 || order[2] != 1 {
		t.Fatalf("undo order wrong: %v", order)
	}
	if tx.State() != Aborted || m.Stats().Aborted != 1 {
		t.Fatal("abort not recorded")
	}
}

func TestAbortReportsUndoError(t *testing.T) {
	m, _, _ := newManager()
	tx := m.Begin()
	sentinel := errors.New("undo failed")
	tx.PushUndo(func() error { return sentinel })
	if err := m.Abort(tx); !errors.Is(err, sentinel) {
		t.Fatalf("expected undo error, got %v", err)
	}
}

func TestCommitReleasesLocks(t *testing.T) {
	m, _, locks := newManager()
	tx := m.Begin()
	name := lock.KeyName(1, 5)
	if _, err := locks.Acquire(tx.ID(), name, lock.X); err != nil {
		t.Fatal(err)
	}
	tx.RecordLock(name)
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// Another transaction must be able to take the lock immediately.
	other := m.Begin()
	locks.SetTimeout(50 * time.Millisecond)
	if _, err := locks.Acquire(other.ID(), name, lock.X); err != nil {
		t.Fatalf("lock not released at commit: %v", err)
	}
}

func TestBreakdownAccumulates(t *testing.T) {
	var b Breakdown
	b.AddWait(WaitIndexLatch, 10*time.Millisecond)
	b.AddWait(WaitIndexLatch, 5*time.Millisecond)
	b.AddWait(WaitHeapLatch, 3*time.Millisecond)
	b.AddWait(WaitLock, -time.Millisecond) // ignored
	b.AddLatch()
	b.AddLatch()
	if b.Wait(WaitIndexLatch) != 15*time.Millisecond {
		t.Fatalf("index wait %v", b.Wait(WaitIndexLatch))
	}
	if b.Wait(WaitLock) != 0 {
		t.Fatal("negative wait recorded")
	}
	if b.Latches() != 2 {
		t.Fatal("latch count wrong")
	}
	tot := b.Totals()
	if tot.Waits[WaitHeapLatch] != 3*time.Millisecond || tot.Latches != 2 {
		t.Fatalf("totals wrong: %+v", tot)
	}
	// Nil breakdown must be safe.
	var nb *Breakdown
	nb.AddWait(WaitSMO, time.Second)
	nb.AddLatch()
	if nb.Wait(WaitSMO) != 0 || nb.Latches() != 0 {
		t.Fatal("nil breakdown not inert")
	}
}

func TestConcurrentBeginCommit(t *testing.T) {
	m, _, _ := newManager()
	var wg sync.WaitGroup
	const goroutines = 8
	const per = 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx := m.Begin()
				if i%5 == 0 {
					_ = m.Abort(tx)
				} else {
					_ = m.Commit(tx)
				}
			}
		}()
	}
	wg.Wait()
	st := m.Stats()
	if st.Committed+st.Aborted != goroutines*per {
		t.Fatalf("lost transactions: %+v", st)
	}
	if m.NumActive() != 0 {
		t.Fatalf("%d transactions leaked", m.NumActive())
	}
}

func TestLazyCommitSkipsDurabilityWait(t *testing.T) {
	log, err := wal.NewDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	m := NewManager(log, nil, nil)
	m.SetLazyCommit(true)
	if !m.LazyCommit() {
		t.Fatal("lazy commit not recorded")
	}
	tx := m.Begin()
	lsn := log.Append(&wal.Record{Txn: tx.ID(), Type: wal.RecUpdate, Payload: []byte("lazy")})
	tx.SetLastLSN(lsn)
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// The commit was acknowledged without waiting; the daemon makes it
	// durable shortly after, and an explicit Flush forces the issue.
	log.Flush(log.CurrentLSN())
	if log.DurableLSN() <= tx.LastLSN() {
		t.Fatal("commit record never became durable")
	}

	// Eager commit on the same manager must block until durable.
	m.SetLazyCommit(false)
	tx2 := m.Begin()
	if err := m.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	if log.DurableLSN() <= tx2.LastLSN() {
		t.Fatal("eager commit acknowledged before its record was durable")
	}
}

func TestCommitAfterLogCloseIsNotAcknowledged(t *testing.T) {
	log, err := wal.NewDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(log, nil, nil)
	lsn := log.Append(&wal.Record{Txn: 1, Type: wal.RecUpdate, Payload: []byte("w")})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// A commit racing engine shutdown must not be acknowledged: its record
	// can never become durable, so recovery will treat it as a loser.
	tx := m.Begin()
	tx.SetLastLSN(lsn)
	if err := m.Commit(tx); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("commit on a closed log returned %v, want ErrNotDurable", err)
	}
	// A read-only transaction may have observed that never-durable write
	// (early lock release), so it must not be acknowledged either.
	ro := m.Begin()
	if err := m.Commit(ro); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("read-only commit over a non-durable tail returned %v, want ErrNotDurable", err)
	}
	// On a closed but EMPTY log there is nothing it can have observed, so
	// the read-only commit is acknowledged.
	empty, err := wal.NewDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(empty, nil, nil)
	if err := empty.Close(); err != nil {
		t.Fatal(err)
	}
	ro2 := m2.Begin()
	if err := m2.Commit(ro2); err != nil {
		t.Fatalf("read-only commit on an empty closed log returned %v, want nil", err)
	}
}

// TestReadOnlyCommitWaitsForOutstandingTail proves acknowledged-implies-
// durable causality for the read-only fast path: with a writer's commit
// record ordered but not yet flushed, a read-only commit must block until
// the durable horizon covers it.
func TestReadOnlyCommitWaitsForOutstandingTail(t *testing.T) {
	log, err := wal.NewDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	m := NewManager(log, nil, nil)
	lsn := log.Append(&wal.Record{Txn: 1, Type: wal.RecUpdate, Payload: []byte("w")})
	ro := m.Begin()
	if err := m.Commit(ro); err != nil {
		t.Fatal(err)
	}
	if log.DurableLSN() <= lsn {
		t.Fatal("read-only commit acknowledged before the outstanding tail was durable")
	}
}

func TestReadOnlyCommitSkipsLog(t *testing.T) {
	cstats := &cs.Stats{}
	log := wal.NewConsolidated(cstats)
	m := NewManager(log, nil, cstats)
	before := log.CurrentLSN()
	tx := m.Begin()
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if log.CurrentLSN() != before {
		t.Fatal("read-only commit appended a log record")
	}
	if m.Stats().Committed != 1 {
		t.Fatal("read-only commit not counted")
	}
}

func TestRecycleReusesTransactions(t *testing.T) {
	m, _, _ := newManager()
	tx := m.Begin()
	tx.PushUndo(func() error { return nil })
	tx.RecordLock(lock.KeyName(1, 2))
	tx.Breakdown.AddWait(WaitLock, time.Millisecond)
	lsn := m.Log().Append(&wal.Record{Txn: tx.ID(), Type: wal.RecUpdate})
	tx.SetLastLSN(lsn)
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	firstID := tx.ID()
	m.Recycle(tx)

	got := m.Begin()
	if got.ID() == firstID {
		t.Fatal("recycled transaction kept its old ID")
	}
	if got.State() != Active {
		t.Fatal("recycled transaction not active")
	}
	if got.LastLSN() != wal.InvalidLSN {
		t.Fatal("recycled transaction kept its LSN chain")
	}
	if len(got.LockNames()) != 0 {
		t.Fatal("recycled transaction kept its lock footprint")
	}
	if got.Breakdown.Wait(WaitLock) != 0 {
		t.Fatal("recycled transaction kept its breakdown")
	}
	// Recycling an active transaction must be refused.
	m.Recycle(got)
	if got.State() != Active {
		t.Fatal("recycling an active transaction changed it")
	}
	if err := m.Commit(got); err != nil {
		t.Fatal(err)
	}
}

func TestWaitKindAndStateLabels(t *testing.T) {
	for k := WaitKind(0); int(k) < NumWaitKinds; k++ {
		if k.String() == "" {
			t.Fatalf("missing label for wait kind %d", k)
		}
	}
	for _, s := range []State{Active, Committed, Aborted} {
		if s.String() == "" {
			t.Fatal("missing state label")
		}
	}
}

// TestXctMgrCriticalSections pins that beginning and retiring a transaction
// enter no transaction-manager critical section: the active count is one
// atomic counter.
func TestXctMgrCriticalSections(t *testing.T) {
	cstats := &cs.Stats{}
	m := NewManager(wal.NewConsolidated(cstats), nil, cstats)
	tx := m.Begin()
	if n := m.NumActive(); n != 1 {
		t.Fatalf("NumActive=%d after Begin, want 1", n)
	}
	_ = m.Commit(tx)
	if n := cstats.Snapshot().Entered[cs.XctMgr]; n != 0 {
		t.Fatalf("Begin and Commit entered %d transaction-manager critical sections, want 0", n)
	}
	if n := m.NumActive(); n != 0 {
		t.Fatalf("NumActive=%d after Commit, want 0", n)
	}
}

// TestCommitThenRunsOnTheFlusher holds the log's flusher between write and
// fsync: CommitThen returns at once with the locks released and the
// transaction retired, and no continuation — a writer's or a read-only
// transaction's, registered on the LSN current at its commit — runs until
// the fsync completes.  No goroutine waits for them meanwhile.
func TestCommitThenRunsOnTheFlusher(t *testing.T) {
	log, err := wal.NewDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	log.SetSyncHook(func() {
		once.Do(func() { close(held) })
		<-release
	})
	m := NewManager(log, nil, nil)
	done := make(chan error, 2)
	w := m.Begin()
	w.SetLastLSN(log.Append(&wal.Record{Txn: w.ID(), Type: wal.RecUpdate, Payload: []byte("w")}))
	m.CommitThen(w, func(err error) { done <- err })
	ro := m.Begin()
	m.CommitThen(ro, func(err error) { done <- err })
	if n := m.NumActive(); n != 0 {
		t.Fatalf("%d transactions still active after CommitThen returned", n)
	}
	<-held
	select {
	case err := <-done:
		t.Fatalf("a commit completed (%v) before its fsync", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Committed != 2 {
		t.Fatalf("committed %d, want 2", st.Committed)
	}
}
