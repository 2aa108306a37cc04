package repl

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"plp/internal/logrec"
	"plp/internal/recovery"
	"plp/internal/wal"
	"plp/wire"
)

func newLog(t *testing.T) *wal.Durable {
	t.Helper()
	d, err := wal.NewDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

func appendTxn(t *testing.T, log *wal.Durable, txnID uint64, key, value string) wal.LSN {
	t.Helper()
	mod := logrec.Modification{Table: "kv", Key: []byte(key), After: []byte(value)}
	log.Append(&wal.Record{Txn: txnID, Type: wal.RecInsert, Payload: logrec.EncodeModification(mod)})
	lsn := log.Append(&wal.Record{Txn: txnID, Type: wal.RecCommit})
	log.Flush(log.CurrentLSN())
	return lsn
}

func TestSubscribeEpochRules(t *testing.T) {
	log := newLog(t)
	appendTxn(t, log, 1, "a", "1")
	p := NewPrimary(log, 7)

	// Fresh follower (epoch 0) accepted.
	s, err := p.Subscribe(1, 0, "n1", "f1")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Same-epoch follower accepted.
	s, err = p.Subscribe(1, 7, "n2", "f2")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Stale lineage (any other epoch) refused — this is the promoted
	// primary refusing a reconnecting stale primary.
	if _, err := p.Subscribe(1, 6, "n3", "stale"); err == nil || !wire.IsReplRefused(err.Error()) {
		t.Fatalf("stale epoch subscribe: err=%v", err)
	}
	if _, err := p.Subscribe(1, 8, "n4", "future"); err == nil || !wire.IsReplRefused(err.Error()) {
		t.Fatalf("future epoch subscribe: err=%v", err)
	}

	// A subscriber claiming a log longer than ours has diverged.
	if _, err := p.Subscribe(log.DurableLSN()+1000, 7, "n5", "ahead"); err == nil || !wire.IsReplRefused(err.Error()) {
		t.Fatalf("ahead-of-primary subscribe: err=%v", err)
	}
}

func TestSubscribeBelowRetentionRefused(t *testing.T) {
	log := newLog(t)
	for i := uint64(1); i <= 20; i++ {
		appendTxn(t, log, i, "k", "v")
	}
	log.Truncate(log.DurableLSN())
	p := NewPrimary(log, 1)
	if _, err := p.Subscribe(1, 0, "n1", "lagging"); err == nil || !wire.IsReplRefused(err.Error()) {
		t.Fatalf("truncated-away subscribe: err=%v", err)
	}
	// From the oldest retained LSN it works.
	s, err := p.Subscribe(log.OldestLSN(), 0, "n2", "ok")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func TestSubscriptionStreamsAndPins(t *testing.T) {
	log := newLog(t)
	appendTxn(t, log, 1, "a", "1")
	p := NewPrimary(log, 1)
	s, err := p.Subscribe(1, 0, "n1", "f")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	b, err := s.Next(stop)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := wal.DecodeFrames(b.First, b.Frames); err != nil || len(recs) != 2 || b.First != 1 || b.End != log.DurableLSN() {
		t.Fatalf("first batch: %d records in [%d, %d), %v", len(recs), b.First, b.End, err)
	}

	// The un-acked subscriber pins the log: truncation keeps its records.
	log.Truncate(log.DurableLSN())
	if oldest := log.OldestLSN(); oldest != 1 {
		t.Fatalf("truncate ignored subscriber pin: oldest %d", oldest)
	}

	// Ack at the durable horizon: truncation may now reclaim the prefix.
	s.UpdateAck(uint64(log.DurableLSN()), uint64(log.DurableLSN()))
	log.Truncate(log.DurableLSN())
	if oldest, dur := log.OldestLSN(), log.DurableLSN(); oldest != dur {
		t.Fatalf("acked prefix not reclaimed: oldest %d durable %d", oldest, dur)
	}

	// Next blocks while caught up, wakes on new appends.
	got := make(chan int, 1)
	go func() {
		b, err := s.Next(stop)
		recs, derr := wal.DecodeFrames(b.First, b.Frames)
		if err != nil || derr != nil {
			got <- -1
			return
		}
		got <- len(recs)
	}()
	select {
	case n := <-got:
		t.Fatalf("Next returned %d records while caught up", n)
	case <-time.After(50 * time.Millisecond):
	}
	appendTxn(t, log, 2, "b", "2")
	select {
	case n := <-got:
		if n != 2 {
			t.Fatalf("wake-up batch had %d records", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not wake on new durable records")
	}
}

func TestWaitReplicated(t *testing.T) {
	log := newLog(t)
	lsn := appendTxn(t, log, 1, "a", "1")
	p := NewPrimary(log, 1)
	p.SetAckTimeout(50 * time.Millisecond)

	// No follower: the wait times out with the commit-durable caveat.
	if err := p.WaitReplicated(lsn); !errors.Is(err, ErrNoFollower) {
		t.Fatalf("no-follower wait: err=%v", err)
	}

	s, err := p.Subscribe(1, 0, "n1", "f")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p.SetAckTimeout(2 * time.Second)

	var wg sync.WaitGroup
	wg.Add(1)
	var waitErr error
	go func() {
		defer wg.Done()
		waitErr = p.WaitReplicated(lsn)
	}()
	time.Sleep(10 * time.Millisecond)
	s.UpdateAck(uint64(log.DurableLSN()), uint64(log.DurableLSN()))
	wg.Wait()
	if waitErr != nil {
		t.Fatalf("acked wait failed: %v", waitErr)
	}
	st := p.Status()
	if st.AckWaits != 2 || st.AckTimeouts != 1 || len(st.Followers) != 1 {
		t.Fatalf("status: %+v", st)
	}
}

func TestWaitReplicatedQuorum(t *testing.T) {
	log := newLog(t)
	lsn := appendTxn(t, log, 1, "a", "1")
	p := NewPrimary(log, 1)
	p.SetAckQuorum(2)
	p.SetAckTimeout(100 * time.Millisecond)

	s1, err := p.Subscribe(1, 0, "n1", "f1")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s1.UpdateAck(uint64(log.DurableLSN()), uint64(log.DurableLSN()))

	// One fully-acked follower cannot satisfy k=2.
	if err := p.WaitReplicated(lsn); !errors.Is(err, ErrNoFollower) {
		t.Fatalf("k=2 wait with one follower: err=%v", err)
	}

	// A second subscriber that has not acked past the commit still leaves
	// the quorum watermark below it.
	s2, err := p.Subscribe(1, 0, "n2", "f2")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitReplicated(lsn); !errors.Is(err, ErrNoFollower) {
		t.Fatalf("k=2 wait with one lagging follower: err=%v", err)
	}

	p.SetAckTimeout(2 * time.Second)
	var wg sync.WaitGroup
	wg.Add(1)
	var waitErr error
	go func() {
		defer wg.Done()
		waitErr = p.WaitReplicated(lsn)
	}()
	time.Sleep(10 * time.Millisecond)
	s2.UpdateAck(uint64(log.DurableLSN()), uint64(log.DurableLSN()))
	wg.Wait()
	if waitErr != nil {
		t.Fatalf("k=2 wait with both acked: %v", waitErr)
	}

	st := p.Status()
	if st.AckQuorum != 2 || st.QuorumAcked <= uint64(lsn) {
		t.Fatalf("status after quorum ack: %+v", st)
	}

	// The watermark is monotonic: a departing follower never retracts an
	// acknowledgement already given.
	s2.Close()
	if err := p.WaitReplicated(lsn); err != nil {
		t.Fatalf("wait after acked follower left: %v", err)
	}
}

func TestSubscribeOrSeedEpochDirection(t *testing.T) {
	log := newLog(t)
	appendTxn(t, log, 1, "a", "1")
	p := NewPrimary(log, 3)

	// A behind-lineage subscriber (lower epoch) is seed-accepted.
	s, err := p.SubscribeOrSeed(1, 2, "behind", "r1")
	if err != nil {
		t.Fatalf("lower-epoch subscriber not seed-accepted: %v", err)
	}
	if _, _, seeding := s.Seeding(); !seeding {
		t.Fatal("lower-epoch subscriber accepted without the seed phase")
	}
	s.Close()

	// A NEWER-epoch subscriber means this primary is the fenced lineage:
	// seeding would wipe the up-to-date node, so it must be refused.
	if _, err := p.SubscribeOrSeed(1, 4, "newer", "r2"); err == nil || !wire.IsReplRefused(err.Error()) {
		t.Fatalf("newer-epoch subscriber was not refused: err=%v", err)
	}
	if n := p.NumFollowers(); n != 0 {
		t.Fatalf("refused subscriber left %d registrations", n)
	}
}

func TestSameNodeResubscriptionEvicts(t *testing.T) {
	log := newLog(t)
	appendTxn(t, log, 1, "a", "1")
	p := NewPrimary(log, 1)

	s1, err := p.Subscribe(1, 0, "n1", "old-conn")
	if err != nil {
		t.Fatal(err)
	}
	// The node reconnects (half-open TCP left s1 dangling): the new
	// registration evicts the old one.
	s2, err := p.Subscribe(1, 0, "n1", "new-conn")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := p.NumFollowers(); n != 1 {
		t.Fatalf("same-node resubscription left %d live subscriptions", n)
	}
	if _, err := s1.Next(nil); !errors.Is(err, ErrSubscriptionClosed) {
		t.Fatalf("evicted subscription still streams: err=%v", err)
	}
}

func TestKthAckedGroupsByNode(t *testing.T) {
	log := newLog(t)
	appendTxn(t, log, 1, "a", "1")
	p := NewPrimary(log, 1)
	p.quorum = 2

	// Two subscriptions sharing one node identity — the transient window
	// before a same-node eviction lands — must count as ONE stable copy.
	a := &Subscription{p: p, node: "n1"}
	a.acked.Store(100)
	b := &Subscription{p: p, node: "n1"}
	b.acked.Store(90)
	p.subs[1], p.subs[2] = a, b
	if got := p.kthAckedLocked(); got != 0 {
		t.Fatalf("duplicate-node subs counted toward quorum: kth=%d", got)
	}

	// A second distinct node completes the quorum at ITS ack, not the
	// duplicate's.
	c := &Subscription{p: p, node: "n2"}
	c.acked.Store(80)
	p.subs[3] = c
	if got := p.kthAckedLocked(); got != 80 {
		t.Fatalf("quorum watermark with nodes n1@100,n2@80: kth=%d, want 80", got)
	}

	// Pre-node subscribers (empty identity) still count individually.
	d := &Subscription{p: p}
	d.acked.Store(95)
	p.subs[4] = d
	if got := p.kthAckedLocked(); got != 95 {
		t.Fatalf("quorum watermark with n1@100,n2@80,anon@95: kth=%d, want 95", got)
	}
}

func TestSeedMarkerPersistence(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadSeedTarget(dir); ok || err != nil {
		t.Fatalf("fresh dir has a seed marker: ok=%v err=%v", ok, err)
	}
	if err := WriteSeedTarget(dir, 777); err != nil {
		t.Fatal(err)
	}
	target, ok, err := ReadSeedTarget(dir)
	if err != nil || !ok || target != 777 {
		t.Fatalf("seed marker round-trip: target=%d ok=%v err=%v", target, ok, err)
	}

	// A follower constructed over a dir carrying the marker — a crash mid
	// re-seed — starts out refusing reads.
	f, err := NewFollower(FollowerOptions{
		Dir:   dir,
		Log:   newLog(t),
		Apply: func(ops []recovery.Op) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Seeding() {
		t.Fatal("restarted mid-seed follower does not report Seeding")
	}
	f.clearSeeding()
	if f.Seeding() {
		t.Fatal("still Seeding after clear")
	}
	if _, ok, _ := ReadSeedTarget(dir); ok {
		t.Fatal("seed marker survived clearSeeding")
	}
}

func mod(key, value string) logrec.Modification {
	return logrec.Modification{Table: "kv", Key: []byte(key), After: []byte(value)}
}

func feedRecords(t *testing.T, a *Applier, log *wal.Durable, recs ...wal.Record) {
	t.Helper()
	// Assign LSNs by appending to a scratch log so the stream is shaped
	// exactly like a shipped one.
	for i := range recs {
		log.Append(&recs[i])
	}
	log.Flush(log.CurrentLSN())
	if err := a.Feed(recs); err != nil {
		t.Fatal(err)
	}
}

func TestApplierCommitAbortPrepare(t *testing.T) {
	log := newLog(t)
	var applied [][]recovery.Op
	a := NewApplier(func(ops []recovery.Op) error {
		applied = append(applied, append([]recovery.Op(nil), ops...))
		return nil
	})

	// Committed txn applies with its ops in order.
	feedRecords(t, a, log,
		wal.Record{Txn: 1, Type: wal.RecInsert, Payload: logrec.EncodeModification(mod("a", "1"))},
		wal.Record{Txn: 1, Type: wal.RecUpdate, Payload: logrec.EncodeModification(mod("a", "2"))},
		wal.Record{Txn: 1, Type: wal.RecCommit},
	)
	if len(applied) != 1 || len(applied[0]) != 2 || string(applied[0][1].Mod.After) != "2" {
		t.Fatalf("applied: %+v", applied)
	}

	// Aborted txn never applies.
	feedRecords(t, a, log,
		wal.Record{Txn: 2, Type: wal.RecInsert, Payload: logrec.EncodeModification(mod("b", "1"))},
		wal.Record{Txn: 2, Type: wal.RecAbort},
	)
	if len(applied) != 1 {
		t.Fatalf("aborted txn applied: %+v", applied)
	}

	// Prepared branch stays buffered until its commit record.
	feedRecords(t, a, log,
		wal.Record{Txn: 3, Type: wal.RecInsert, Payload: logrec.EncodeModification(mod("c", "1"))},
		wal.Record{Txn: 3, Type: wal.RecPrepare, Payload: []byte("s0-1-1")},
	)
	if len(applied) != 1 || a.Status().PendingTxns != 1 {
		t.Fatalf("prepared branch applied early or dropped: %+v", a.Status())
	}
	feedRecords(t, a, log, wal.Record{Txn: 3, Type: wal.RecCommit})
	if len(applied) != 2 || string(applied[1][0].Mod.Key) != "c" {
		t.Fatalf("decided branch not applied: %+v", applied)
	}
	if a.AppliedLSN() != log.CurrentLSN() {
		t.Fatalf("applied horizon %d, log horizon %d", a.AppliedLSN(), log.CurrentLSN())
	}
}

func TestApplierBootstrapCarriesInFlight(t *testing.T) {
	log := newLog(t)
	// Txn 1 commits; txn 2's ops land but its commit record will only
	// arrive on the resumed stream.
	log.Append(&wal.Record{Txn: 1, Type: wal.RecInsert, Payload: logrec.EncodeModification(mod("a", "1"))})
	log.Append(&wal.Record{Txn: 1, Type: wal.RecCommit})
	log.Append(&wal.Record{Txn: 2, Type: wal.RecInsert, Payload: logrec.EncodeModification(mod("b", "1"))})
	log.Flush(log.CurrentLSN())

	an, err := recovery.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	var applied [][]recovery.Op
	a := NewApplier(func(ops []recovery.Op) error {
		applied = append(applied, ops)
		return nil
	})
	a.Bootstrap(an)
	if a.Status().PendingTxns != 1 {
		t.Fatalf("bootstrap pending: %+v", a.Status())
	}
	// The resumed stream delivers txn 2's commit: the buffered op applies.
	feedRecords(t, a, log, wal.Record{Txn: 2, Type: wal.RecCommit})
	if len(applied) != 1 || string(applied[0][0].Mod.Key) != "b" {
		t.Fatalf("carried-over txn not applied: %+v", applied)
	}
}

func TestEpochStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadEpoch(dir); ok || err != nil {
		t.Fatalf("fresh dir: ok=%v err=%v", ok, err)
	}
	if err := WriteEpoch(dir, 42); err != nil {
		t.Fatal(err)
	}
	epoch, ok, err := ReadEpoch(dir)
	if !ok || err != nil || epoch != 42 {
		t.Fatalf("epoch=%d ok=%v err=%v", epoch, ok, err)
	}
}

// catchUp subscribes flog at its durable LSN and applies shipped batches
// the way Follower does — append verbatim, flush, ack — until it holds
// everything durable on the primary.
func catchUp(t *testing.T, p *Primary, plog, flog *wal.Durable) {
	t.Helper()
	s, err := p.Subscribe(flog.DurableLSN(), 0, "f", "test")
	if err != nil {
		t.Fatal(err)
	}
	stream(t, s, plog, flog, nil)
}

// stream drains subscription s into flog until flog holds everything
// durable on the primary, then closes s.  When a is not nil, each batch,
// once durable in flog, also goes through the applier, as the follower's
// receive loop does.
func stream(t *testing.T, s *Subscription, plog, flog *wal.Durable, a *Applier) {
	t.Helper()
	defer s.Close()
	stop := make(chan struct{})
	for flog.DurableLSN() < plog.DurableLSN() {
		b, err := s.Next(stop)
		if err != nil {
			t.Fatal(err)
		}
		// The frames go over as they are, as the wire carries them.
		if err := flog.AppendShipped(b.First, b.Frames); err != nil {
			t.Fatal(err)
		}
		durable := flog.Flush(flog.CurrentLSN())
		if a != nil {
			recs, err := wal.DecodeFrames(b.First, b.Frames)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Feed(recs); err != nil {
				t.Fatal(err)
			}
		}
		s.UpdateAck(uint64(durable), uint64(durable))
	}
}

// logBytes concatenates a log directory's segment files in LSN order.
func logBytes(t *testing.T, dir string) []byte {
	t.Helper()
	files := segmentFiles(t, dir)
	var all []byte
	for _, name := range slices.Sorted(maps.Keys(files)) {
		all = append(all, files[name]...)
	}
	return all
}

// segmentFiles returns the contents of a log directory's segment files,
// by file name.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(segs))
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(s)] = b
	}
	return files
}

// sameSegmentFiles fails unless the follower's log directory holds the
// primary's segment files from first on, byte for byte, and nothing else.
func sameSegmentFiles(t *testing.T, stage, fdir, pdir string, first wal.LSN) {
	t.Helper()
	fsegs, psegs := segmentFiles(t, fdir), segmentFiles(t, pdir)
	n := 0
	for name, p := range psegs {
		if name < fmt.Sprintf("%016x.seg", uint64(first)) {
			continue
		}
		n++
		if f, ok := fsegs[name]; !ok || !bytes.Equal(f, p) {
			t.Fatalf("%s: follower segment %s differs from the primary's (present: %v)", stage, name, ok)
		}
	}
	if n != len(fsegs) || n < 2 {
		t.Fatalf("%s: follower holds %d segments, primary %d from LSN %d; want the same, and a rotation", stage, len(fsegs), n, first)
	}
}

// TestFollowerCatchesUpFromClosedSegment: a follower whose durable LSN now
// lies only in a closed segment file of the primary's log subscribes
// there, streams the rest from the segment files, and ends up with a
// byte-identical log.
func TestFollowerCatchesUpFromClosedSegment(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	opts := wal.DurableOptions{SegmentBytes: 4096}
	plog, err := wal.OpenDurable(pdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	flog, err := wal.OpenDurable(fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer flog.Close()
	p := NewPrimary(plog, 1)

	for i := uint64(1); i <= 10; i++ {
		appendTxn(t, plog, i, fmt.Sprintf("k%03d", i), "first")
	}
	catchUp(t, p, plog, flog)
	start := flog.DurableLSN()
	for i := uint64(11); i <= 400; i++ {
		appendTxn(t, plog, i, fmt.Sprintf("k%03d", i), "second-pass-value")
	}
	segs, _ := filepath.Glob(filepath.Join(pdir, "*.seg"))
	var active uint64
	if _, err := fmt.Sscanf(filepath.Base(segs[len(segs)-1]), "%016x", &active); err != nil || wal.LSN(active) <= start {
		t.Fatalf("start LSN %d is not in a closed segment (active segment starts at %d, %d segments)", start, active, len(segs))
	}

	catchUp(t, p, plog, flog)
	if flog.DurableLSN() != plog.DurableLSN() {
		t.Fatalf("follower durable %d, primary %d", flog.DurableLSN(), plog.DurableLSN())
	}
	if !bytes.Equal(logBytes(t, fdir), logBytes(t, pdir)) {
		t.Fatal("follower log is not byte-identical to the primary's")
	}
}

// TestFollowerSegmentsByteEqual: a follower appends the primary's frames
// as they are, and rotates where the primary rotated, so its segment files
// are the primary's, name for name and byte for byte, after rotations and
// after a re-seed that restarts its log at a segment the primary still
// holds.  A re-seed from inside a segment leaves the follower's frames a
// byte-identical suffix of the primary's.
func TestFollowerSegmentsByteEqual(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	opts := wal.DurableOptions{SegmentBytes: 2048}
	plog, err := wal.OpenDurable(pdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	flog, err := wal.OpenDurable(fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer flog.Close()
	p := NewPrimary(plog, 1)
	txn := uint64(0)
	load := func(n int) {
		for i := 0; i < n; i++ {
			txn++
			appendTxn(t, plog, txn, fmt.Sprintf("k%04d", txn), strings.Repeat("v", int(txn%50)))
		}
	}
	load(100)
	catchUp(t, p, plog, flog)
	load(100)
	catchUp(t, p, plog, flog)
	sameSegmentFiles(t, "after rotations", fdir, pdir, 1)

	// Drop the primary's first two segments and re-seed from the third.
	names := slices.Sorted(maps.Keys(segmentFiles(t, pdir)))
	var third uint64
	if _, err := fmt.Sscanf(names[2], "%016x", &third); err != nil {
		t.Fatal(err)
	}
	plog.Truncate(wal.LSN(third))
	if plog.OldestLSN() != wal.LSN(third) {
		t.Fatalf("truncation to a segment start left the horizon at %d, want %d", plog.OldestLSN(), third)
	}
	reseed := func(stage string) {
		t.Helper()
		start := plog.OldestLSN()
		if err := flog.ResetForSeed(start); err != nil {
			t.Fatal(err)
		}
		s, err := p.Subscribe(start, 0, "f", "test")
		if err != nil {
			t.Fatal(err)
		}
		stream(t, s, plog, flog, nil)
		if flog.DurableLSN() != plog.DurableLSN() {
			t.Fatalf("%s: follower durable %d, primary %d", stage, flog.DurableLSN(), plog.DurableLSN())
		}
	}
	reseed("re-seed")
	load(50)
	catchUp(t, p, plog, flog)
	sameSegmentFiles(t, "after a re-seed", fdir, pdir, wal.LSN(third))

	// A horizon inside a segment: the follower's log starts there.
	frames, _, err := plog.NewReader().ReadFrames(plog.OldestLSN(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := wal.DecodeFrames(plog.OldestLSN(), frames)
	if err != nil || len(recs) < 10 {
		t.Fatalf("reading the retained log: %d records, %v", len(recs), err)
	}
	plog.Truncate(recs[5].LSN)
	reseed("re-seed inside a segment")
	segFrames := func(dir string) []byte {
		files := segmentFiles(t, dir)
		var all []byte
		for _, name := range slices.Sorted(maps.Keys(files)) {
			all = append(all, files[name][len("PLPWAL")+1:]...)
		}
		return all
	}
	if f := segFrames(fdir); len(f) == 0 || !bytes.HasSuffix(segFrames(pdir), f) {
		t.Fatal("a follower re-seeded inside a segment holds frames the primary does not end with")
	}
}

// TestOnReplicatedOneSweeper registers many commits on the quorum gate:
// they all wait on one sweeper goroutine, not a timer each; an ack passes
// those it covers, in LSN order, and the sweeper times out the rest with
// the durable-locally error and then exits.
func TestOnReplicatedOneSweeper(t *testing.T) {
	log := newLog(t)
	p := NewPrimary(log, 1)
	p.SetAckTimeout(200 * time.Millisecond)
	s, err := p.Subscribe(1, 0, "n1", "f")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var lsns []wal.LSN
	for i := 0; i < 100; i++ {
		lsns = append(lsns, appendTxn(t, log, uint64(i+1), "k", "v"))
	}
	base := runtime.NumGoroutine()
	var mu sync.Mutex
	var passed []wal.LSN
	timedOut := make(chan error, len(lsns))
	for i := len(lsns) - 1; i >= 0; i-- {
		lsn := lsns[i]
		p.OnReplicated(lsn, func(err error) {
			if err != nil {
				timedOut <- err
				return
			}
			mu.Lock()
			passed = append(passed, lsn)
			mu.Unlock()
		})
	}
	if n := runtime.NumGoroutine(); n > base+1 {
		t.Fatalf("%d waiters started %d goroutines, want at most one sweeper", len(lsns), n-base)
	}
	s.UpdateAck(uint64(lsns[49])+1, uint64(lsns[49])+1)
	mu.Lock()
	if len(passed) != 50 {
		t.Fatalf("the ack passed %d commits, want 50", len(passed))
	}
	for i := range passed {
		if passed[i] != lsns[i] {
			t.Fatalf("commits passed out of LSN order: %v", passed)
		}
	}
	mu.Unlock()
	for i := 0; i < 50; i++ {
		if err := <-timedOut; !errors.Is(err, ErrNoFollower) || !strings.Contains(err.Error(), "durable locally") {
			t.Fatalf("timeout error %v", err)
		}
	}
	if st := p.Status(); st.AckTimeouts != 50 || st.AckWaits != 100 {
		t.Fatalf("status %+v", st)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("sweeper still running with no waiters (%d goroutines over base)", n-base)
	}
}

// TestPrimaryClose retires the gate of a demoted primary: a commit waiting
// on it fails at once with the durable-locally error instead of after the
// ack timeout, the sweeper exits, and a commit registered after Close
// fails immediately.
func TestPrimaryClose(t *testing.T) {
	log := newLog(t)
	p := NewPrimary(log, 1)
	p.SetAckTimeout(time.Minute)
	lsn := appendTxn(t, log, 1, "k", "v")
	base := runtime.NumGoroutine()
	waited := make(chan error, 1)
	p.OnReplicated(lsn, func(err error) { waited <- err })
	time.Sleep(10 * time.Millisecond) // let the sweeper park on its timer
	start := time.Now()
	p.Close()
	select {
	case err := <-waited:
		if !errors.Is(err, ErrNoFollower) || !strings.Contains(err.Error(), "durable locally") {
			t.Fatalf("waiter failed with %v", err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("waiter failed %v after Close, want within 100ms", d)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("waiter still registered 100ms after Close")
	}
	late := make(chan error, 1)
	p.OnReplicated(lsn, func(err error) { late <- err })
	select {
	case err := <-late:
		if !errors.Is(err, ErrNoFollower) {
			t.Fatalf("OnReplicated after Close: %v", err)
		}
	default:
		t.Fatal("OnReplicated after Close did not fire at once")
	}
	p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("sweeper still running after Close (%d goroutines over base)", n-base)
	}
}
