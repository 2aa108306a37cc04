package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/workload/tatp"
	"plp/internal/workload/tpcb"
	"plp/plan"
	"plp/wire"
)

// Data sizes, fixed so that every run of a workload loads the same database.
const (
	subscribers       = 100_000 // TATP scale (tatp-mix and scan-filter)
	tpcbBranches      = 6
	accountsPerBranch = 100_000 // the TPC-B standard ratio
	partitions        = 8       // plpd's default

	// scanLen is the length of every filtered subscriber (or account) range.
	scanLen = 10_000
)

// op is one operation a client issues: a plan (read or write) or a
// filtered streaming scan of [lo, hi).
type op struct {
	kind opKind
	plan *plan.Plan

	table  string
	lo, hi uint64
	pred   *plan.Predicate

	// What the reply check and the durability check need to know.
	id  uint64 // subscriber or account id the op targets
	loc uint32 // VLR location an UpdateLocation writes
}

// reply is what came back for one op.
type reply struct {
	results []wire.StatementResult // plan ops
	entries []wire.ScanEntry       // scans
}

// workload is one traffic mix over one database.
type workload interface {
	// load creates the schema and loads the data (timed as set-up).
	load(e *engine.Engine) error
	// prepare does untimed post-load work the reply checks need.
	prepare(e *engine.Engine) error
	// saturated draws one op of the saturated mix; idx is the op's
	// run-wide index, unique within a run.
	saturated(rng *rand.Rand, idx uint64) op
	// serialMix is each operation type's share of the serial phase, which
	// runs the types one after another, each back to back, so a read's
	// latency never includes the aftermath of a write's commit or a scan.
	serialMix() [numOpKinds]int
	// serialOp draws one serial op of type k.
	serialOp(k opKind, rng *rand.Rand, idx uint64) op
	// scanProbe draws a range for the in-process ScanChunk probe.
	scanProbe(rng *rand.Rand) op
	// check validates a committed op's reply.
	check(o *op, r *reply) error
	// acked records a write the server acknowledged as durable.
	acked(o *op)
	// verify checks the database invariants and that every acknowledged
	// write is present (restarted: after a close and recovery).
	verify(e *engine.Engine, restarted bool) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "tatp-mix":
		return &tatpMix{tatpData: newTATPData()}, nil
	case "tpcb-durable":
		return newTPCB(), nil
	case "scan-filter":
		return &scanFilter{tatpData: newTATPData()}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want tatp-mix, tpcb-durable or scan-filter)", name)
	}
}

// --- TATP data, shared by tatp-mix and scan-filter ---------------------------

// mscOffset is where the 4-byte big-endian MSC location sits in a
// subscriber row (after sid, bit, hex and byte fields).  Nothing in either
// mix writes it, so scan results stay predictable under concurrent writes.
const mscOffset = 38

// mscThreshold selects ~1% of the uniformly random MSC locations.
const mscThreshold = uint32(1<<32/100 + 1)

func mscPredicate() *plan.Predicate {
	var arg [4]byte
	binary.BigEndian.PutUint32(arg[:], mscThreshold)
	return plan.FieldCmp(mscOffset, 4, plan.CmpLt, arg[:])
}

type tatpData struct {
	w    *tatp.Workload
	pred *plan.Predicate

	// matches is the sorted list of subscriber ids the scan predicate
	// selects, evaluated in-process after load.
	matches []uint64

	mu   sync.Mutex
	acks map[uint64]locAck // UpdateLocation writes acknowledged, by sid
}

// locAck is what was acknowledged for one subscriber: how many writes and
// the last value.  Concurrent writes to one sid have no defined order, so
// the durability check compares values only where exactly one was acked.
type locAck struct {
	n   int
	loc uint32
}

func newTATPData() *tatpData {
	return &tatpData{
		w:    tatp.New(tatp.Config{Subscribers: subscribers, Partitions: partitions}),
		pred: mscPredicate(),
		acks: make(map[uint64]locAck),
	}
}

func (d *tatpData) load(e *engine.Engine) error { return d.w.Setup(e) }

// prepare evaluates the scan predicate in-process over the whole table,
// once with the compiled filter the server runs and once by decoding the
// field, and keeps the result the wire scans are checked against.
func (d *tatpData) prepare(e *engine.Engine) error {
	flt, err := d.pred.Compile()
	if err != nil {
		return err
	}
	var decodeErr error
	d.matches = d.matches[:0]
	err = e.NewLoader().ReadRange(tatp.TableSubscriber, nil, nil, func(key, rec []byte) bool {
		sub, err := tatp.UnmarshalSubscriber(rec)
		if err != nil {
			decodeErr = err
			return false
		}
		if flt.Eval(key, rec) != (sub.MSCLocation < mscThreshold) {
			decodeErr = fmt.Errorf("filter and decoded MSC disagree on subscriber %d", sub.SID)
			return false
		}
		if sub.MSCLocation < mscThreshold {
			d.matches = append(d.matches, sub.SID)
		}
		return true
	})
	if err == nil {
		err = decodeErr
	}
	if err == nil && len(d.matches) == 0 {
		err = errors.New("scan predicate selects no subscriber")
	}
	return err
}

func (d *tatpData) randomSID(rng *rand.Rand) uint64 {
	return 1 + uint64(rng.Int63n(subscribers))
}

func (d *tatpData) read(rng *rand.Rand) op {
	sid := d.randomSID(rng)
	return op{kind: opRead, plan: d.w.GetSubscriberDataPlan(sid), id: sid}
}

func (d *tatpData) write(rng *rand.Rand) op {
	sid, loc := d.randomSID(rng), rng.Uint32()
	return op{kind: opWrite, plan: d.w.UpdateLocationPlan(sid, loc), id: sid, loc: loc}
}

func (d *tatpData) scan(rng *rand.Rand) op {
	lo := 1 + uint64(rng.Int63n(subscribers-scanLen+1))
	return op{kind: opScan, table: tatp.TableSubscriber, lo: lo, hi: lo + scanLen, pred: d.pred}
}

func (d *tatpData) scanProbe(rng *rand.Rand) op { return d.scan(rng) }

func (d *tatpData) serialOp(k opKind, rng *rand.Rand, _ uint64) op {
	if k == opRead {
		return d.read(rng)
	}
	return d.write(rng)
}

func (d *tatpData) check(o *op, r *reply) error {
	switch o.kind {
	case opRead:
		if len(r.results) != 1 || !r.results[0].Found {
			return fmt.Errorf("GetSubscriberData(%d): not found", o.id)
		}
		sub, err := tatp.UnmarshalSubscriber(r.results[0].Value)
		if err != nil {
			return err
		}
		if sub.SID != o.id {
			return fmt.Errorf("GetSubscriberData(%d) returned subscriber %d", o.id, sub.SID)
		}
	case opScan:
		return d.checkScan(o, r.entries)
	}
	return nil
}

// checkScan compares a scan's entries with the in-process evaluation of the
// same predicate over the same range.
func (d *tatpData) checkScan(o *op, got []wire.ScanEntry) error {
	want := d.matchesIn(o.lo, o.hi)
	if len(got) != len(want) {
		return fmt.Errorf("scan [%d,%d): %d entries, in-process evaluation has %d", o.lo, o.hi, len(got), len(want))
	}
	for i, ent := range got {
		sub, err := tatp.UnmarshalSubscriber(ent.Value)
		if err != nil {
			return err
		}
		if binary.BigEndian.Uint64(ent.Key) != want[i] || sub.SID != want[i] {
			return fmt.Errorf("scan [%d,%d): entry %d is subscriber %d, want %d", o.lo, o.hi, i, sub.SID, want[i])
		}
	}
	return nil
}

// matchesIn returns the matching ids in [lo, hi).
func (d *tatpData) matchesIn(lo, hi uint64) []uint64 {
	i := sort.Search(len(d.matches), func(k int) bool { return d.matches[k] >= lo })
	j := sort.Search(len(d.matches), func(k int) bool { return d.matches[k] >= hi })
	return d.matches[i:j]
}

func (d *tatpData) acked(o *op) {
	if o.kind != opWrite {
		return
	}
	d.mu.Lock()
	a := d.acks[o.id]
	d.acks[o.id] = locAck{n: a.n + 1, loc: o.loc}
	d.mu.Unlock()
}

func (d *tatpData) verify(e *engine.Engine, _ bool) error {
	if err := d.w.Verify(e); err != nil {
		return err
	}
	l := e.NewLoader()
	d.mu.Lock()
	defer d.mu.Unlock()
	checked := 0
	for sid, a := range d.acks {
		if a.n != 1 {
			continue
		}
		rec, err := l.Read(tatp.TableSubscriber, tatp.SubscriberKey(sid))
		if err != nil {
			return fmt.Errorf("acknowledged write to subscriber %d: %w", sid, err)
		}
		sub, err := tatp.UnmarshalSubscriber(rec)
		if err != nil {
			return err
		}
		if sub.VLRLocation != a.loc {
			return fmt.Errorf("subscriber %d: VLR location %d, acknowledged write set %d", sid, sub.VLRLocation, a.loc)
		}
		checked++
	}
	if len(d.acks) > 0 && checked == 0 {
		return errors.New("no acknowledged UpdateLocation could be checked")
	}
	return nil
}

// tatpMix: 80% GetSubscriberData, 20% UpdateLocation, in both phases.
// In the saturated phase the operation index picks the type, so every run
// has exactly the same share of writes and only the keys depend on the
// seed.
type tatpMix struct{ *tatpData }

func (m *tatpMix) saturated(rng *rand.Rand, idx uint64) op {
	if idx%5 != 0 {
		return m.read(rng)
	}
	return m.write(rng)
}

func (m *tatpMix) serialMix() [numOpKinds]int { return [numOpKinds]int{opRead: 32, opWrite: 1} }

// scanFilter: filtered scans only while saturated; the serial phase has
// eighty GetSubscriberData per UpdateLocation, which writes a field the
// predicate does not read.
type scanFilter struct{ *tatpData }

func (s *scanFilter) saturated(rng *rand.Rand, _ uint64) op { return s.scan(rng) }

func (s *scanFilter) serialMix() [numOpKinds]int { return [numOpKinds]int{opRead: 80, opWrite: 1} }

// --- TPC-B -------------------------------------------------------------------

// tpcbDurable runs AccountUpdate on every saturated transaction; the serial
// phase has 24 one-row account reads per AccountUpdate.
type tpcbDurable struct {
	w      *tpcb.Workload
	pred   *plan.Predicate
	nAcked atomic.Int64 // AccountUpdates acknowledged
	nSent  atomic.Int64 // AccountUpdates issued
}

func newTPCB() *tpcbDurable {
	// The low byte of the big-endian account id selects ~1.2% of accounts
	// for the in-process ScanChunk probe.
	return &tpcbDurable{
		w:    tpcb.New(tpcb.Config{Branches: tpcbBranches, AccountsPerBranch: accountsPerBranch, Partitions: partitions}),
		pred: plan.FieldCmp(7, 1, plan.CmpLt, []byte{3}),
	}
}

func (t *tpcbDurable) load(e *engine.Engine) error    { return t.w.Setup(e) }
func (t *tpcbDurable) prepare(e *engine.Engine) error { return nil }

func (t *tpcbDurable) accounts() int64 { return tpcbBranches * accountsPerBranch }

func (t *tpcbDurable) update(rng *rand.Rand, idx uint64) op {
	acct := 1 + uint64(rng.Int63n(t.accounts()))
	branch := 1 + (acct-1)/accountsPerBranch
	teller := (branch-1)*tpcb.TellersPerBranch + 1 + uint64(rng.Intn(tpcb.TellersPerBranch))
	delta := int64(rng.Intn(1999999) - 999999)
	t.nSent.Add(1)
	return op{kind: opWrite, plan: t.w.AccountUpdatePlan(acct, teller, branch, historyID(idx), delta), id: acct}
}

func (t *tpcbDurable) saturated(rng *rand.Rand, idx uint64) op { return t.update(rng, idx) }

func (t *tpcbDurable) serialMix() [numOpKinds]int { return [numOpKinds]int{opRead: 24, opWrite: 1} }

func (t *tpcbDurable) serialOp(k opKind, rng *rand.Rand, idx uint64) op {
	if k == opRead {
		acct := 1 + uint64(rng.Int63n(t.accounts()))
		return op{kind: opRead, plan: plan.New().Get(tpcb.TableAccount, keyenc.Uint64Key(acct)).MustBuild(), id: acct}
	}
	return t.update(rng, idx)
}

func (t *tpcbDurable) scanProbe(rng *rand.Rand) op {
	lo := 1 + uint64(rng.Int63n(t.accounts()-scanLen+1))
	return op{kind: opScan, table: tpcb.TableAccount, lo: lo, hi: lo + scanLen, pred: t.pred}
}

func (t *tpcbDurable) check(o *op, r *reply) error {
	if o.kind != opRead {
		return nil
	}
	if len(r.results) != 1 || !r.results[0].Found || len(r.results[0].Value) < 8 {
		return fmt.Errorf("account %d: not found", o.id)
	}
	if id := binary.BigEndian.Uint64(r.results[0].Value); id != o.id {
		return fmt.Errorf("account %d: read returned row %d", o.id, id)
	}
	return nil
}

func (t *tpcbDurable) acked(o *op) {
	if o.kind == opWrite {
		t.nAcked.Add(1)
	}
}

// verify runs the TPC-B sum invariant and counts history rows: one per
// acknowledged AccountUpdate before the restart, and after it at least
// that many (every acknowledged write survived) and no more than were sent.
func (t *tpcbDurable) verify(e *engine.Engine, restarted bool) error {
	if err := t.w.Verify(e); err != nil {
		return err
	}
	rows := int64(0)
	if err := e.NewLoader().ReadRange(tpcb.TableHistory, nil, nil, func(_, _ []byte) bool {
		rows++
		return true
	}); err != nil {
		return err
	}
	acked, sent := t.nAcked.Load(), t.nSent.Load()
	switch {
	case !restarted && rows != acked:
		return fmt.Errorf("tpcb: %d history rows, %d AccountUpdates acknowledged", rows, acked)
	case rows < acked:
		return fmt.Errorf("tpcb: after restart %d history rows, %d AccountUpdates acknowledged", rows, acked)
	case rows > sent:
		return fmt.Errorf("tpcb: after restart %d history rows, only %d AccountUpdates sent", rows, sent)
	}
	return nil
}
