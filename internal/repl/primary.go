package repl

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"plp/internal/logrec"
	"plp/internal/wal"
	"plp/wire"
)

// Primary-side tunables.
const (
	// DefaultBatchBytes bounds the encoded record bytes per REPL-RECORDS
	// frame — well under wire.MaxFrameSize with room for framing.
	DefaultBatchBytes = 1 << 20
	// DefaultAckTimeout bounds how long a replica-acked commit waits for a
	// follower before reporting the commit's replication as uncertain.
	DefaultAckTimeout = 5 * time.Second
)

// ErrSubscriptionClosed is returned by Subscription.Next after Close.
var ErrSubscriptionClosed = fmt.Errorf("repl: subscription closed")

// ErrNoFollower is wrapped by WaitReplicated timeouts.  The commit it
// reports on IS durable locally — only its replication is unconfirmed.
var ErrNoFollower = fmt.Errorf("repl: commit not acknowledged by enough followers")

// Primary is the primary-side replication hub: it tracks subscribed
// followers, hands each one a cursor over the durable log, and implements
// the replica-acked commit gate (OnReplicated).
type Primary struct {
	log        *wal.Durable
	epoch      uint64
	batchBytes int
	ackTimeout time.Duration

	mu     sync.Mutex
	subs   map[int]*Subscription
	seq    int
	quorum int // k in k-of-n replica acks (distinct subscribers)
	// maxAcked is the highest durable LSN acked by any follower;
	// quorumAcked is the highest LSN acked by ≥ quorum distinct
	// subscribers.  Both are monotonic: a departing follower never takes
	// back an acknowledgement it already gave, so guarantees reported to
	// committers cannot regress when the population shrinks.
	maxAcked    uint64
	quorumAcked uint64

	// waiters are the commits registered with OnReplicated that the quorum
	// watermark has not yet passed.  One sweeper goroutine, running only
	// while waiters exist, times them out: sweepAt is its next wake-up, and
	// sweepKick moves that earlier when SetAckTimeout shortened it.
	waiters   []replWaiter
	sweeping  bool
	sweepAt   time.Time
	sweepKick chan struct{}
	// closed is set by Close; closing ends the sweeper.
	closed  bool
	closing chan struct{}

	ackWaits    atomic.Uint64
	ackTimeouts atomic.Uint64
}

// NewPrimary builds the replication hub over the durable log at the given
// replication epoch.
func NewPrimary(log *wal.Durable, epoch uint64) *Primary {
	p := &Primary{
		log:        log,
		epoch:      epoch,
		batchBytes: DefaultBatchBytes,
		ackTimeout: DefaultAckTimeout,
		quorum:     1,
		subs:       make(map[int]*Subscription),
		sweepKick:  make(chan struct{}, 1),
		closing:    make(chan struct{}),
	}
	return p
}

// Epoch returns the primary's replication epoch.
func (p *Primary) Epoch() uint64 { return p.epoch }

// DurableLSN returns the primary log's durable horizon.
func (p *Primary) DurableLSN() wal.LSN { return p.log.DurableLSN() }

// SetAckTimeout overrides the replica-ack wait bound (testing and tuning).
func (p *Primary) SetAckTimeout(d time.Duration) {
	p.mu.Lock()
	p.ackTimeout = d
	p.mu.Unlock()
}

// SetAckQuorum sets k for k-of-n replica-acked commit: the gate passes a
// commit once k distinct subscribers have it durable.  k < 1 is clamped to
// 1 (any one follower).
func (p *Primary) SetAckQuorum(k int) {
	if k < 1 {
		k = 1
	}
	p.mu.Lock()
	p.quorum = k
	p.mu.Unlock()
}

// AckQuorum returns the configured k.
func (p *Primary) AckQuorum() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quorum
}

// Subscription is one follower's stream state: a cursor over the primary's
// log, a retention pin that trails the follower's acks, and the follower's
// reported progress.
type Subscription struct {
	p      *Primary
	id     int
	node   string // stable follower identity ("" from pre-node subscribers)
	remote string
	since  time.Time
	start  wal.LSN
	cursor wal.LSN     // next LSN to ship (streamer goroutine only)
	reader *wal.Reader // reads the log at cursor (streamer goroutine only)
	pin    int

	// seed marks a subscription accepted via re-seed: the stream restarts
	// at seedStart (the oldest retained LSN) and every record below
	// seedTarget belongs to the seed phase.
	seed       bool
	seedStart  wal.LSN
	seedTarget wal.LSN

	acked   atomic.Uint64 // follower's durable LSN
	applied atomic.Uint64 // follower's applied LSN
	closed  atomic.Bool
}

// Seeding reports whether this subscription re-seeds the follower, and the
// seed phase bounds when it does.
func (s *Subscription) Seeding() (start, target wal.LSN, ok bool) {
	return s.seedStart, s.seedTarget, s.seed
}

// Subscribe validates and registers a follower.  start is the LSN the
// stream must begin at (the follower's durable horizon); followerEpoch is
// the epoch the follower last followed (0 = fresh, adopts ours); node is
// the follower's stable identity ("" from pre-node subscribers).  Refusals
// carry the wire.ReplRefusedPrefix so they travel as-is in a response Err.
func (p *Primary) Subscribe(start wal.LSN, followerEpoch uint64, node, remote string) (*Subscription, error) {
	if followerEpoch != 0 && followerEpoch != p.epoch {
		return nil, fmt.Errorf("%s: replication epoch mismatch: subscriber at %d, primary at %d (stale lineage; re-seed required)",
			wire.ReplRefusedPrefix, followerEpoch, p.epoch)
	}
	if durable := p.log.DurableLSN(); start > durable {
		return nil, fmt.Errorf("%s: subscriber log ahead of primary (start %d > durable %d); diverged lineage",
			wire.ReplRefusedPrefix, start, durable)
	}
	if oldest := p.log.OldestLSN(); start < oldest {
		return nil, fmt.Errorf("%s: start LSN %d precedes oldest retained %d; re-seed required",
			wire.ReplRefusedPrefix, start, oldest)
	}
	return p.register(start, node, remote, false), nil
}

// SubscribeOrSeed registers a follower like Subscribe, but converts the
// refusals that mean the subscriber is BEHIND this lineage — a stale
// (lower) epoch, a diverged (ahead-of-durable) same-epoch log, or a start
// LSN older than the retained prefix — into a seed subscription: the
// stream restarts at seedStart, the records up to the durable horizon
// captured here form the seed phase, and the follower is expected to
// discard its local state before applying them.  Sequential replay from
// there always reconstructs a faithful replica: the seed phase starts with
// a complete checkpoint image whenever the retained log holds one, and the
// log records after it replay in causal order.
//
// A subscriber reporting a NEWER epoch is still refused outright: it
// followed a lineage that fenced this primary, so this node is the stale
// one — seeding (wiping) the up-to-date follower would destroy the newer
// lineage's committed data.  The refusal tells this node to demote, not
// the follower to reset.
func (p *Primary) SubscribeOrSeed(start wal.LSN, followerEpoch uint64, node, remote string) (*Subscription, error) {
	if followerEpoch > p.epoch {
		return nil, fmt.Errorf("%s: subscriber epoch %d is newer than this primary's %d; this node is the fenced lineage and must not seed",
			wire.ReplRefusedPrefix, followerEpoch, p.epoch)
	}
	if s, err := p.Subscribe(start, followerEpoch, node, remote); err == nil {
		return s, nil
	}
	return p.register(p.seedStart(), node, remote, true), nil
}

// seedStart returns where a seed stream begins: the first record of the
// newest complete checkpoint in the retained log, or the oldest retained
// LSN when the log holds none (then it holds the whole history).  Starting
// at the oldest LSN is not enough once the log has been truncated: a
// lagging subscriber's pin can stop truncation short of a checkpoint, so
// the retained log may begin mid-history, and the log is redo-only — a
// patch record rewrites bytes of a record that a wiped follower would not
// have until the checkpoint image arrives.
func (p *Primary) seedStart() wal.LSN {
	start := p.log.OldestLSN()
	_ = wal.Scan(p.log, func(r *wal.Record) error {
		if r.Type != wal.RecCheckpoint {
			return nil
		}
		if end, ok, err := logrec.DecodeCheckpointEnd(r.Payload); err == nil && ok && wal.LSN(end.BeginLSN) > start {
			start = wal.LSN(end.BeginLSN)
		}
		return nil
	})
	return start
}

// register builds and registers a subscription starting (and pinned) at
// start.  Seed subscriptions capture the durable horizon as the seed
// target; a target at or below start (empty retained log) means the seed
// phase is empty and SEED-END follows SEED-BEGIN immediately.  A
// resubscription from an already-subscribed node evicts the node's
// previous subscription (a crash or partition can leave it half-open for
// a TCP timeout), so one physical node never holds two live entries.
func (p *Primary) register(start wal.LSN, node, remote string, seed bool) *Subscription {
	s := &Subscription{p: p, node: node, remote: remote, since: time.Now(), start: start, cursor: start, reader: p.log.NewReader()}
	if seed {
		s.seed = true
		s.seedStart = start
		s.seedTarget = p.log.DurableLSN()
	}
	s.acked.Store(uint64(start))
	s.applied.Store(uint64(start))
	s.pin = p.log.Pin(start)
	var evicted *Subscription
	p.mu.Lock()
	if node != "" {
		for _, old := range p.subs {
			if old.node == node {
				evicted = old
				break
			}
		}
	}
	p.seq++
	s.id = p.seq
	p.subs[s.id] = s
	p.mu.Unlock()
	if evicted != nil {
		// Close outside p.mu (Close re-locks it).  The evicted streamer's
		// next cursor read fails with ErrSubscriptionClosed, severing the
		// stale connection.
		evicted.Close()
	}
	return s
}

// Batch is a run of whole WAL frames read from the primary's log, as they
// lie on disk: the first was written at First, and End is the LSN after
// the last.
type Batch struct {
	First, End wal.LSN
	Frames     []byte
}

// Next blocks until at least one durable record past the cursor exists,
// then returns the next batch (bounded by the primary's batch size) and
// advances the cursor.  stop aborts the wait at the next durability
// wake-up or within one poll interval.
func (s *Subscription) Next(stop <-chan struct{}) (Batch, error) {
	for {
		if s.closed.Load() {
			return Batch{}, ErrSubscriptionClosed
		}
		select {
		case <-stop:
			return Batch{}, ErrSubscriptionClosed
		default:
		}
		frames, end, err := s.reader.ReadFrames(s.cursor, s.p.batchBytes)
		if err != nil {
			return Batch{}, err
		}
		if len(frames) > 0 {
			b := Batch{First: s.cursor, End: end, Frames: frames}
			s.cursor = end
			return b, nil
		}
		// Caught up: sleep until the group commit makes the cursor's record
		// durable, abortable by stop.  The callback stays registered until
		// the next flush or the log's close.
		cursor := s.cursor
		woke := make(chan struct{})
		s.p.log.OnDurable(cursor, func(error) { close(woke) })
		select {
		case <-stop:
			return Batch{}, ErrSubscriptionClosed
		case <-woke:
			if s.p.log.DurableLSN() <= cursor {
				// The callback fires without progress only when the log is
				// closing; the short pause keeps that case from spinning.
				select {
				case <-stop:
					return Batch{}, ErrSubscriptionClosed
				case <-time.After(10 * time.Millisecond):
				}
			}
		}
	}
}

// UpdateAck records the follower's progress report, advances its retention
// pin, recomputes the quorum watermark, and runs, in LSN order, the
// OnReplicated callbacks the watermark now covers.
func (s *Subscription) UpdateAck(applied, durable uint64) {
	s.applied.Store(applied)
	s.acked.Store(durable)
	s.p.log.UpdatePin(s.pin, wal.LSN(durable))
	p := s.p
	p.mu.Lock()
	if durable > p.maxAcked {
		p.maxAcked = durable
	}
	// Quorum watermark: the k-th highest durable LSN among live
	// subscribers.  Only ever raised — a follower that later disappears
	// does not retract the stable copies it reported, so commits already
	// acknowledged at quorum stay acknowledged.
	var passed []replWaiter
	if q := p.kthAckedLocked(); q > p.quorumAcked {
		p.quorumAcked = q
		kept := p.waiters[:0]
		for _, w := range p.waiters {
			if uint64(w.lsn) < q {
				passed = append(passed, w)
			} else {
				kept = append(kept, w)
			}
		}
		clear(p.waiters[len(kept):])
		p.waiters = kept
	}
	p.mu.Unlock()
	slices.SortFunc(passed, func(a, b replWaiter) int { return cmp.Compare(a.lsn, b.lsn) })
	for _, w := range passed {
		w.fn(nil)
	}
}

// kthAckedLocked returns the quorum-th highest acked LSN among the live
// follower NODES (0 when fewer than quorum nodes exist).  Subscriptions
// sharing a node identity collapse to that node's best ack — registration
// evicts same-node duplicates, but until the eviction lands two live subs
// for one node must not count as two stable copies.  Pre-node subscribers
// (empty identity) each count as their own node.  Caller holds p.mu.
func (p *Primary) kthAckedLocked() uint64 {
	acked := make([]uint64, 0, len(p.subs))
	byNode := make(map[string]int, len(p.subs))
	for _, s := range p.subs {
		a := s.acked.Load()
		if s.node != "" {
			if i, ok := byNode[s.node]; ok {
				if a > acked[i] {
					acked[i] = a
				}
				continue
			}
			byNode[s.node] = len(acked)
		}
		acked = append(acked, a)
	}
	if len(acked) < p.quorum {
		return 0
	}
	// Selection by repeated max is fine: follower counts are single-digit.
	var kth uint64
	for i := 0; i < p.quorum; i++ {
		hi, at := uint64(0), 0
		for j, a := range acked {
			if a >= hi {
				hi, at = a, j
			}
		}
		kth = hi
		acked = append(acked[:at], acked[at+1:]...)
	}
	return kth
}

// Close deregisters the subscription and releases its retention pin.  Safe
// to call more than once.
func (s *Subscription) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.p.log.Unpin(s.pin)
	s.p.mu.Lock()
	delete(s.p.subs, s.id)
	s.p.mu.Unlock()
}

// replWaiter is one commit registered with OnReplicated.
type replWaiter struct {
	lsn      wal.LSN
	deadline time.Time
	fn       func(error)
}

// OnReplicated is the replica-acked commit gate installed on txn.Manager:
// fn runs with a nil error once the configured quorum of distinct followers
// have the record appended at lsn on stable storage — at once when they
// already do, otherwise on the goroutine whose ack completes the quorum —
// or with an ErrNoFollower error once the ack timeout elapses, on the
// gate's sweeper, or once the primary is closed.  Either way the commit IS
// durable locally.  fn must not block.
func (p *Primary) OnReplicated(lsn wal.LSN, fn func(error)) {
	p.ackWaits.Add(1)
	p.mu.Lock()
	deadline := time.Now().Add(p.ackTimeout)
	if p.quorumAcked > uint64(lsn) {
		p.mu.Unlock()
		fn(nil)
		return
	}
	if p.closed {
		quorum := p.quorum
		p.mu.Unlock()
		fn(unconfirmed(quorum, "not reached before the primary closed"))
		return
	}
	p.waiters = append(p.waiters, replWaiter{lsn: lsn, deadline: deadline, fn: fn})
	start := !p.sweeping
	earlier := p.sweeping && deadline.Before(p.sweepAt)
	if start {
		p.sweeping, p.sweepAt = true, deadline
	}
	p.mu.Unlock()
	switch {
	case start:
		go p.sweep()
	case earlier:
		select {
		case p.sweepKick <- struct{}{}:
		default:
		}
	}
}

// sweep times out the waiters whose deadline passed, sleeping until the
// earliest remaining one, and exits when none remain.
func (p *Primary) sweep() {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case <-p.sweepKick:
		case <-p.closing:
			return
		}
		now := time.Now()
		var expired []replWaiter
		var next time.Time
		p.mu.Lock()
		kept := p.waiters[:0]
		for _, w := range p.waiters {
			if !w.deadline.After(now) {
				expired = append(expired, w)
				continue
			}
			kept = append(kept, w)
			if next.IsZero() || w.deadline.Before(next) {
				next = w.deadline
			}
		}
		clear(p.waiters[len(kept):])
		p.waiters = kept
		p.sweeping, p.sweepAt = len(kept) > 0, next
		quorum, timeout := p.quorum, p.ackTimeout
		p.mu.Unlock()
		for _, w := range expired {
			p.ackTimeouts.Add(1)
			w.fn(unconfirmed(quorum, fmt.Sprintf("not reached within %v", timeout)))
		}
		if next.IsZero() {
			return
		}
		timer.Reset(time.Until(next))
	}
}

// Close retires the gate of a primary that demoted or shut down: every
// registered commit fails at once with the ErrNoFollower error, the
// sweeper exits, and later OnReplicated calls fail immediately.  Safe to
// call more than once.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.closing)
	waiters, quorum := p.waiters, p.quorum
	p.waiters, p.sweeping = nil, false
	p.mu.Unlock()
	for _, w := range waiters {
		w.fn(unconfirmed(quorum, "not reached before the primary closed"))
	}
}

// unconfirmed is the error a commit gets when its replication could not be
// confirmed; the commit itself is durable locally.
func unconfirmed(quorum int, why string) error {
	return fmt.Errorf("%w: quorum %d %s (commit IS durable locally; replication unconfirmed)", ErrNoFollower, quorum, why)
}

// WaitReplicated blocks until the quorum gate passes the record appended at
// lsn or times out: OnReplicated plus a wait.  A nil return means the
// commit record is durable on ≥ quorum followers.
func (p *Primary) WaitReplicated(lsn wal.LSN) error {
	done := make(chan error, 1)
	p.OnReplicated(lsn, func(err error) { done <- err })
	return <-done
}

// FollowerStatus is one follower's progress snapshot.
type FollowerStatus struct {
	ID         int
	Node       string `json:",omitempty"`
	Remote     string
	Since      time.Time
	StartLSN   uint64
	AppliedLSN uint64
	AckedLSN   uint64
	LagBytes   uint64
	// Seeding reports a subscriber still inside its snapshot re-seed phase.
	Seeding bool
}

// PrimaryStatus is the hub snapshot feeding expvar and `plpctl repl
// status`.
type PrimaryStatus struct {
	Epoch       uint64
	DurableLSN  uint64
	OldestLSN   uint64
	AckQuorum   int
	QuorumAcked uint64
	Followers   []FollowerStatus
	AckWaits    uint64
	AckTimeouts uint64
}

// Status returns a consistent snapshot of the hub.
func (p *Primary) Status() PrimaryStatus {
	durable := uint64(p.log.DurableLSN())
	st := PrimaryStatus{
		Epoch:       p.epoch,
		DurableLSN:  durable,
		OldestLSN:   uint64(p.log.OldestLSN()),
		AckWaits:    p.ackWaits.Load(),
		AckTimeouts: p.ackTimeouts.Load(),
	}
	p.mu.Lock()
	st.AckQuorum = p.quorum
	st.QuorumAcked = p.quorumAcked
	for _, s := range p.subs {
		acked := s.acked.Load()
		f := FollowerStatus{
			ID:         s.id,
			Node:       s.node,
			Remote:     s.remote,
			Since:      s.since,
			StartLSN:   uint64(s.start),
			AppliedLSN: s.applied.Load(),
			AckedLSN:   acked,
			Seeding:    s.seed && wal.LSN(s.applied.Load()) < s.seedTarget,
		}
		if durable > acked {
			f.LagBytes = durable - acked
		}
		st.Followers = append(st.Followers, f)
	}
	p.mu.Unlock()
	return st
}

// NumFollowers returns the live subscriber count.
func (p *Primary) NumFollowers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}
