package tpcb

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"plp/internal/cs"
	"plp/internal/engine"
	"plp/internal/logrec"
	"plp/internal/wal"
)

func setup(t *testing.T, design engine.Design) (*engine.Engine, *Workload) {
	t.Helper()
	e := engine.New(engine.Options{Design: design, Partitions: 4, SLI: design == engine.Conventional})
	t.Cleanup(func() { _ = e.Close() })
	w := New(Config{Branches: 1, AccountsPerBranch: 500, Partitions: 4})
	if err := w.Setup(e); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return e, w
}

func TestLoadAndInitialConsistency(t *testing.T) {
	e, w := setup(t, engine.Conventional)
	if err := w.Verify(e); err != nil {
		t.Fatalf("freshly loaded database inconsistent: %v", err)
	}
	l := e.NewLoader()
	if _, err := l.Read(TableAccount, accountKey(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(TableBranch, branchKey(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(TableTeller, tellerKey(TellersPerBranch)); err != nil {
		t.Fatal(err)
	}
}

func TestRowRoundTrip(t *testing.T) {
	r := row{ID: 9, Balance: -1234}
	got, err := unmarshalRow(marshalRow(r))
	if err != nil || got.ID != 9 || got.Balance != -1234 {
		t.Fatalf("round trip: %+v %v", got, err)
	}
	if _, err := unmarshalRow([]byte{1}); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestBalanceConservationAllDesigns(t *testing.T) {
	for _, design := range engine.AllDesigns() {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			e, w := setup(t, design)
			const clients = 4
			const perClient = 150
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					sess := e.NewSession()
					defer sess.Close()
					rng := rand.New(rand.NewSource(int64(c + 1)))
					for i := 0; i < perClient; i++ {
						if _, err := sess.Execute(w.NextRequest(rng)); err != nil && !errors.Is(err, engine.ErrAborted) {
							t.Errorf("client %d: %v", c, err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if e.TxnStats().Committed == 0 {
				t.Fatal("nothing committed")
			}
			// The TPC-B invariant: account, teller, branch and history sums
			// all match, even though each transaction's updates ran as
			// parallel actions on different partition workers.
			if err := w.Verify(e); err != nil {
				t.Fatalf("consistency violated: %v", err)
			}
		})
	}
}

func TestAccountUpdateIsAtomicUnderAbort(t *testing.T) {
	e, w := setup(t, engine.PLPLeaf)
	sess := e.NewSession()
	defer sess.Close()
	// A request against a nonexistent account aborts; the teller/branch
	// updates that may already have run must be rolled back.
	req := w.AccountUpdate(99999999, 1, 1, 12345, 100)
	if _, err := sess.Execute(req); err == nil {
		t.Fatal("expected abort for missing account")
	}
	if err := w.Verify(e); err != nil {
		t.Fatalf("abort left the database inconsistent: %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	w := New(Config{})
	if w.cfg.Branches != 1 || w.cfg.AccountsPerBranch != AccountsPerBranch || w.cfg.Partitions != 1 {
		t.Fatalf("defaults wrong: %+v", w.cfg)
	}
	if w.Name() != "tpcb" {
		t.Fatal("name wrong")
	}
	if w.NumAccounts() != AccountsPerBranch {
		t.Fatal("NumAccounts wrong")
	}
}

func TestAccountUpdatePlanMatchesClosure(t *testing.T) {
	e, w := setup(t, engine.PLPLeaf)
	sess := e.NewSession()
	defer sess.Close()
	// Apply the same transaction once through the closure path and once
	// through the plan path; every touched balance must move by delta both
	// times.
	const delta = 777
	if _, err := sess.Execute(w.AccountUpdate(3, 2, 1, 100, delta)); err != nil {
		t.Fatalf("closure path: %v", err)
	}
	if _, err := sess.ExecutePlan(w.AccountUpdatePlan(3, 2, 1, 101, delta)); err != nil {
		t.Fatalf("plan path: %v", err)
	}
	l := e.NewLoader()
	for _, tc := range []struct {
		table string
		key   []byte
	}{
		{TableAccount, accountKey(3)},
		{TableTeller, tellerKey(2)},
		{TableBranch, branchKey(1)},
	} {
		rec, err := l.Read(tc.table, tc.key)
		if err != nil {
			t.Fatal(err)
		}
		r, err := unmarshalRow(rec)
		if err != nil {
			t.Fatal(err)
		}
		if r.Balance != 2*delta {
			t.Fatalf("%s balance = %d, want %d", tc.table, r.Balance, 2*delta)
		}
	}
	if err := w.Verify(e); err != nil {
		t.Fatalf("consistency: %v", err)
	}
}

func TestPlanBalanceConservationAllDesigns(t *testing.T) {
	for _, design := range engine.AllDesigns() {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			e, w := setup(t, design)
			sess := e.NewSession()
			defer sess.Close()
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 200; i++ {
				if _, err := sess.ExecutePlan(w.NextPlan(rng)); err != nil && !errors.Is(err, engine.ErrAborted) {
					t.Fatalf("txn %d: %v", i, err)
				}
			}
			if err := w.Verify(e); err != nil {
				t.Fatalf("consistency violated: %v", err)
			}
		})
	}
}

func TestAccountUpdatePlanAbortsOnMissingAccount(t *testing.T) {
	e, w := setup(t, engine.PLPLeaf)
	sess := e.NewSession()
	defer sess.Close()
	if _, err := sess.ExecutePlan(w.AccountUpdatePlan(99999999, 1, 1, 12345, 100)); err == nil {
		t.Fatal("expected abort for missing account")
	}
	if err := w.Verify(e); err != nil {
		t.Fatalf("abort left the database inconsistent: %v", err)
	}
}

// TestAccountUpdateLogBytes is the log-volume gate on TPC-B: the redo-only
// log carries no before-images, each balance increment logs an 8-byte
// patch at the balance offset rather than the 100-byte row, and each
// record's frame header is a type byte and two uvarints, so an
// AccountUpdate (three increments, a history insert and the commit) logs
// at most 260 bytes.  Logging both images of every row takes about 1 KB,
// and a fixed 37-byte header per record adds about 160 bytes.
func TestAccountUpdateLogBytes(t *testing.T) {
	const txns, bound = 200, 260.0
	e, w := setup(t, engine.PLPLeaf)
	sess := e.NewSession()
	defer sess.Close()
	rng := rand.New(rand.NewSource(1))
	bytes0, lsn0 := e.Log().Stats().BytesLogged, e.Log().CurrentLSN()
	for i := 0; i < txns; i++ {
		if _, err := sess.ExecutePlan(w.NextPlan(rng)); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	perTxn := float64(e.Log().Stats().BytesLogged-bytes0) / txns

	patches := 0
	for _, rec := range e.Log().Records() {
		if rec.LSN < lsn0 || rec.Type != wal.RecUpdate {
			continue
		}
		m, err := logrec.DecodeModification(rec.Payload)
		if err != nil {
			t.Fatalf("record at %d: %v", rec.LSN, err)
		}
		switch m.Table {
		case TableAccount, TableTeller, TableBranch:
		default:
			t.Fatalf("unexpected update of %s", m.Table)
		}
		if m.At != logrec.PatchAt(balanceOffset) || len(m.After) != 8 {
			t.Fatalf("%s update logs %d bytes at At=%d, want an 8-byte patch at offset %d", m.Table, len(m.After), m.At, balanceOffset)
		}
		patches++
	}
	if patches != 3*txns {
		t.Fatalf("%d balance patches logged for %d AccountUpdates, want %d", patches, txns, 3*txns)
	}
	t.Logf("AccountUpdate logs %.1f bytes per transaction", perTxn)
	if perTxn > bound {
		t.Fatalf("AccountUpdate logs %.1f bytes per transaction, want <= %.0f", perTxn, bound)
	}
}

// TestAccountUpdateBpoolSections is the count gate on partition-owned page
// access: a PLP-Leaf AccountUpdate reaches every page it touches through
// the buffer pool's lock-free lookup and enters no Bpool critical section,
// while a Conventional one, whose trees and heaps are latched, enters one
// per page it fixes.  The measured transaction inserts its history row
// next to the previous transaction's, on a leaf and a heap page that
// already exist, so it allocates no page.  Both are counts, independent of
// the machine.
func TestAccountUpdateBpoolSections(t *testing.T) {
	for _, design := range []engine.Design{engine.PLPLeaf, engine.Conventional} {
		t.Run(design.String(), func(t *testing.T) {
			e, w := setup(t, design)
			sess := e.NewSession()
			defer sess.Close()
			run := func(hist uint64) (fixes, bpool uint64) {
				t.Helper()
				f0, b0 := e.BufferPool().Stats().Fixes, e.CSStats().Snapshot().Entered[cs.Bpool]
				if _, err := sess.ExecutePlan(w.AccountUpdatePlan(7, 3, 1, hist, 5)); err != nil {
					t.Fatal(err)
				}
				return e.BufferPool().Stats().Fixes - f0, e.CSStats().Snapshot().Entered[cs.Bpool] - b0
			}
			run(1000) // compile the plan shape and give the history leaf a heap page
			fixes, bpool := run(1001)
			if fixes < 8 {
				t.Fatalf("AccountUpdate made %d page accesses; want at least a leaf and a heap page per row", fixes)
			}
			if design == engine.PLPLeaf && bpool != 0 {
				t.Fatalf("PLP-Leaf AccountUpdate entered %d Bpool critical sections over %d page accesses, want 0", bpool, fixes)
			}
			if design == engine.Conventional && bpool != fixes {
				t.Fatalf("Conventional AccountUpdate entered %d Bpool critical sections over %d page fixes, want one per fix", bpool, fixes)
			}
		})
	}
}
