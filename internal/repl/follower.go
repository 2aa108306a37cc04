package repl

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"plp/internal/recovery"
	"plp/internal/wal"
	"plp/wire"
)

// Follower-side tunables.
const (
	// DefaultRetryInterval paces reconnect attempts after a dropped stream.
	DefaultRetryInterval = 500 * time.Millisecond
	// refusedRetryInterval paces retries after an explicit subscription
	// refusal (epoch mismatch, truncated start): the condition is unlikely
	// to clear on its own, so back off hard.
	refusedRetryInterval = 5 * time.Second
	// dialTimeout bounds connect + handshake + subscribe.
	dialTimeout = 3 * time.Second
)

// FollowerOptions configures a follower's replication loop.
type FollowerOptions struct {
	// Primary is the primary's listen address.
	Primary string
	// Token authenticates the subscription (the primary's full token:
	// receiving the write stream is a write-privileged operation).
	Token string
	// Dir is the data directory holding repl.state.
	Dir string
	// NodeID is this follower's stable identity, sent with every
	// subscription so the primary's replica-ack quorum counts physical
	// nodes, not connections, and a reconnect evicts the node's half-open
	// previous subscription.  Defaults to Dir.
	NodeID string
	// Log is the follower's local durable log; shipped records are
	// appended to it verbatim.
	Log *wal.Durable
	// Apply commits a replicated transaction's operations into the live
	// engine (engine.ApplyReplicated).
	Apply func(ops []recovery.Op) error
	// Reseed, when set, discards the follower's local state — engine
	// contents and the local log — and restarts the log at start, so an
	// incoming SEED stream rebuilds the replica from scratch
	// (engine.ResetForSeed).  A primary offering a seed to a follower
	// without it is a hard error: the follower cannot follow that lineage.
	Reseed func(start wal.LSN) error
	// TLSConfig, when set, wraps the replication connection in TLS.
	TLSConfig *tls.Config
	// RetryInterval overrides the reconnect pacing (tests).
	RetryInterval time.Duration
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

// Follower runs the replication receive loop: subscribe from the local
// durable LSN, persist and apply shipped batches, ack progress, reconnect
// with resubscription on stream loss.
type Follower struct {
	o       FollowerOptions
	applier *Applier
	epoch   atomic.Uint64

	mu   sync.Mutex
	conn net.Conn // live stream connection, for Stop to sever

	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool

	connected   atomic.Bool
	refused     atomic.Bool
	lastErr     atomic.Pointer[string]
	batches     atomic.Uint64
	records     atomic.Uint64
	reseeds     atomic.Uint64
	lastContact atomic.Int64 // unixnano of the last frame from the primary

	// seedTarget is non-zero while a re-seed is incomplete: the local
	// engine was wiped and has not yet re-applied every record below the
	// target, so its state is NOT a consistent replica and must not serve
	// reads.  Persisted (seed.state) so a crash mid-seed resumes refusing.
	seedTarget atomic.Uint64
}

// NewFollower builds a follower over an engine that has already completed
// restart recovery on Log's directory.  It analyzes the local log once to
// seed the applier's in-flight transaction buffers (a transaction whose
// ops landed before the follower's durable horizon but whose commit record
// arrives on the resumed stream must still apply).
func NewFollower(o FollowerOptions) (*Follower, error) {
	if o.Log == nil || o.Apply == nil {
		return nil, errors.New("repl: follower needs a durable log and an apply function")
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = DefaultRetryInterval
	}
	if o.NodeID == "" {
		o.NodeID = o.Dir
	}
	f := &Follower{
		o:       o,
		applier: NewApplier(o.Apply),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if o.Dir != "" {
		epoch, _, err := ReadEpoch(o.Dir)
		if err != nil {
			return nil, err
		}
		f.epoch.Store(epoch)
		target, ok, err := ReadSeedTarget(o.Dir)
		if err != nil {
			return nil, err
		}
		if ok {
			f.seedTarget.Store(target)
		}
	}
	an, err := recovery.Analyze(o.Log)
	if err != nil {
		return nil, fmt.Errorf("repl: bootstrap analysis: %w", err)
	}
	f.applier.Bootstrap(an)
	f.applier.SetAppliedLSN(o.Log.DurableLSN())
	return f, nil
}

// Epoch returns the follower's current replication epoch (0 until it first
// adopts a primary's).
func (f *Follower) Epoch() uint64 { return f.epoch.Load() }

// PrimaryAddr returns the address currently being followed.
func (f *Follower) PrimaryAddr() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.o.Primary
}

// SetPrimary repoints the follower at a new primary address (failover
// chasing a promotion).  Any live stream is severed so the next connect
// attempt goes to the new address.
func (f *Follower) SetPrimary(addr string) {
	f.mu.Lock()
	if f.o.Primary == addr {
		f.mu.Unlock()
		return
	}
	f.o.Primary = addr
	conn := f.conn
	f.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Seeding reports whether the follower is inside an incomplete re-seed:
// its engine was wiped and has not yet re-applied the seed phase, so its
// state is not a consistent replica.  The serving layer refuses reads
// while this is true, so clients fall through to a healthy member.
func (f *Follower) Seeding() bool {
	target := f.seedTarget.Load()
	return target != 0 && uint64(f.applier.AppliedLSN()) < target
}

// clearSeeding marks the re-seed complete and removes the persisted
// marker.
func (f *Follower) clearSeeding() {
	if f.seedTarget.Swap(0) == 0 {
		return
	}
	if f.o.Dir != "" {
		if err := ClearSeedTarget(f.o.Dir); err != nil {
			f.logf("repl: clearing seed marker: %v", err)
		}
	}
}

// SinceContact returns how long ago the last frame arrived from the
// primary (a very large duration before first contact).  The cluster lease
// monitor reads it: heartbeats refresh it even when no records flow.
func (f *Follower) SinceContact() time.Duration {
	at := f.lastContact.Load()
	if at == 0 {
		return time.Duration(1<<62 - 1)
	}
	return time.Since(time.Unix(0, at))
}

// Start launches the replication loop.
func (f *Follower) Start() {
	if f.started.Swap(true) {
		return
	}
	go f.run()
}

// Stop terminates the loop and severs any live stream.  Idempotent; safe
// before Start (the loop just never runs).
func (f *Follower) Stop() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.mu.Lock()
	if f.conn != nil {
		_ = f.conn.Close()
	}
	f.mu.Unlock()
	if f.started.Load() {
		<-f.done
	}
}

func (f *Follower) logf(format string, args ...any) {
	if f.o.Logf != nil {
		f.o.Logf(format, args...)
	}
}

func (f *Follower) setErr(err error) {
	if err == nil {
		f.lastErr.Store(nil)
		return
	}
	msg := err.Error()
	f.lastErr.Store(&msg)
}

func (f *Follower) run() {
	defer close(f.done)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		refused, err := f.streamOnce()
		f.connected.Store(false)
		if err != nil {
			f.setErr(err)
			f.logf("repl: stream to %s: %v", f.PrimaryAddr(), err)
		}
		f.refused.Store(refused)
		wait := f.o.RetryInterval
		if refused {
			wait = refusedRetryInterval
		}
		select {
		case <-f.stop:
			return
		case <-time.After(wait):
		}
	}
}

// streamOnce runs one connect → subscribe → receive cycle.  refused=true
// means the primary explicitly rejected the subscription (retry slowly).
func (f *Follower) streamOnce() (refused bool, err error) {
	primary := f.PrimaryAddr()
	nc, err := net.DialTimeout("tcp", primary, dialTimeout)
	if err != nil {
		return false, err
	}
	var conn net.Conn = nc
	if f.o.TLSConfig != nil {
		cfg := f.o.TLSConfig
		if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
			// The primary address changes across repoints; derive the
			// verification name from wherever we are dialing now.
			if host, _, herr := net.SplitHostPort(primary); herr == nil {
				cfg = cfg.Clone()
				cfg.ServerName = host
			}
		}
		conn = tls.Client(nc, cfg)
	}
	f.mu.Lock()
	select {
	case <-f.stop:
		f.mu.Unlock()
		_ = conn.Close()
		return false, nil
	default:
	}
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		if f.conn == conn {
			f.conn = nil
		}
		f.mu.Unlock()
		_ = conn.Close()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))

	// Handshake: full-token session.
	hello := &wire.Hello{MaxVersion: wire.Version, Token: []byte(f.o.Token)}
	if err := wire.WriteFrame(conn, wire.EncodeHello(hello)); err != nil {
		return false, err
	}
	payload, err := wire.ReadFrame(br)
	if err != nil {
		return false, err
	}
	ack, err := wire.DecodeHelloAck(payload)
	if err != nil {
		return false, err
	}
	if ack.Err != "" {
		return true, fmt.Errorf("repl: handshake refused: %s", ack.Err)
	}
	if ack.Version != wire.Version {
		return true, fmt.Errorf("repl: primary speaks protocol v%d, need v%d", ack.Version, wire.Version)
	}

	// Subscribe from the local durable horizon.
	start := f.o.Log.DurableLSN()
	if err := wire.WriteFrame(conn, wire.EncodeReplSubscribe(1, uint64(start), f.epoch.Load(), f.o.NodeID)); err != nil {
		return false, err
	}
	payload, err = wire.ReadFrame(br)
	if err != nil {
		return false, err
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		return false, err
	}
	if resp.Err != "" {
		return wire.IsReplRefused(resp.Err), fmt.Errorf("repl: subscribe: %s", resp.Err)
	}
	if len(resp.Results) == 0 {
		return false, errors.New("repl: subscribe ack missing")
	}
	primaryEpoch, _, err := wire.DecodeReplSubscribeAck(resp.Results[0].Value)
	if err != nil {
		return false, fmt.Errorf("repl: subscribe ack: %w", err)
	}
	seeded := wire.ReplSubscribeAckSeeded(resp.Results[0].Value)
	if seeded {
		// The primary is replacing this node's history wholesale; the first
		// stream frame (SEED-BEGIN) carries the new start.  Epoch adoption
		// happens after the local reset succeeds.
		if f.o.Reseed == nil {
			return true, errors.New("repl: primary requires a re-seed but no reseed hook is configured")
		}
		// Never accept a seed from an older lineage: a fenced ex-primary
		// that still thinks it leads would wipe this node's newer committed
		// history.  (The primary-side epoch check refuses this too; this is
		// the follower's own fence.)
		if cur := f.epoch.Load(); primaryEpoch < cur {
			return true, fmt.Errorf("repl: refusing seed from stale primary (its epoch %d < local %d)", primaryEpoch, cur)
		}
	} else if cur := f.epoch.Load(); cur == 0 {
		f.epoch.Store(primaryEpoch)
		if f.o.Dir != "" {
			if werr := WriteEpoch(f.o.Dir, primaryEpoch); werr != nil {
				return false, fmt.Errorf("repl: persisting epoch: %w", werr)
			}
		}
	} else if cur != primaryEpoch {
		return true, fmt.Errorf("repl: primary epoch changed mid-lineage: have %d, got %d", cur, primaryEpoch)
	}

	if seeded {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			return false, err
		}
		fr, err := wire.DecodeFrameV3(payload)
		if err != nil {
			return false, err
		}
		if fr.Kind != wire.FrameReplSeedBegin {
			return false, fmt.Errorf("repl: expected SEED-BEGIN, got frame kind %d", fr.Kind)
		}
		seedStart := wal.LSN(fr.SeedStart)
		f.logf("repl: re-seeding from %s: restart at LSN %d, seed target %d (epoch %d)", primary, fr.SeedStart, fr.SeedTarget, primaryEpoch)
		// Mark the seed incomplete BEFORE wiping anything: from the first
		// destroyed byte until the seed phase has fully re-applied, this
		// node's state is not a replica and reads must be refused — across
		// stream reconnects and process restarts (hence the on-disk marker).
		if f.o.Dir != "" {
			if werr := WriteSeedTarget(f.o.Dir, fr.SeedTarget); werr != nil {
				return false, fmt.Errorf("repl: persisting seed marker: %w", werr)
			}
		}
		f.seedTarget.Store(fr.SeedTarget)
		if err := f.o.Reseed(seedStart); err != nil {
			return false, fmt.Errorf("repl: local reset for seed: %w", err)
		}
		f.applier.Discard()
		f.applier.SetAppliedLSN(seedStart)
		f.epoch.Store(primaryEpoch)
		if f.o.Dir != "" {
			if werr := WriteEpoch(f.o.Dir, primaryEpoch); werr != nil {
				return false, fmt.Errorf("repl: persisting seeded epoch: %w", werr)
			}
		}
		f.reseeds.Add(1)
		start = seedStart
	}

	_ = conn.SetDeadline(time.Time{})
	f.connected.Store(true)
	f.setErr(nil)
	f.lastContact.Store(time.Now().UnixNano())
	f.logf("repl: following %s from LSN %d (epoch %d)", primary, start, f.epoch.Load())

	// Receive loop: persist, apply, ack.  Heartbeats and SEED-END markers
	// are acked too — the ack doubles as the lease refresh on the primary's
	// side of the connection.
	var ackSeq uint64
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			return false, err
		}
		fr, err := wire.DecodeFrameV3(payload)
		if err != nil {
			return false, err
		}
		f.lastContact.Store(time.Now().UnixNano())
		switch fr.Kind {
		case wire.FrameReplRecords:
			// The frames are appended as they came, each checked at the
			// LSN it lands at, and decoded only to feed the applier.
			first := wal.LSN(fr.StartLSN)
			if err := f.o.Log.AppendShipped(first, fr.ReplFrames); err != nil {
				return false, fmt.Errorf("repl: shipped frames refused: %w", err)
			}
			recs, err := wal.DecodeFrames(first, fr.ReplFrames)
			if err != nil {
				return false, err
			}
			f.o.Log.Flush(f.o.Log.CurrentLSN())
			if err := f.applier.Feed(recs); err != nil {
				return false, err
			}
			f.batches.Add(1)
			f.records.Add(uint64(len(recs)))
			// A seed interrupted mid-stream resumes as an ordinary
			// subscription (no second SEED-END), so completion is also
			// detected by the applied horizon crossing the recorded target.
			if t := f.seedTarget.Load(); t != 0 && uint64(f.applier.AppliedLSN()) >= t {
				f.clearSeeding()
				f.logf("repl: seed from %s complete at LSN %d", primary, f.o.Log.DurableLSN())
			}
		case wire.FrameReplHeartbeat:
			// Nothing to persist; fall through to the ack, which refreshes
			// the primary's view of this follower.
		case wire.FrameReplSeedEnd:
			f.clearSeeding()
			f.logf("repl: seed from %s complete at LSN %d", primary, f.o.Log.DurableLSN())
		default:
			return false, fmt.Errorf("repl: unexpected frame kind %d on stream", fr.Kind)
		}
		ackSeq++
		ackPayload := wire.EncodeReplAck(ackSeq, uint64(f.applier.AppliedLSN()), uint64(f.o.Log.DurableLSN()))
		if err := wire.WriteFrame(conn, ackPayload); err != nil {
			return false, err
		}
	}
}

// Promote turns the follower into a primary lineage: stop the stream, drop
// in-flight (uncommitted) transaction buffers, bump and persist the
// replication epoch.  The caller flips the serving layer (accept writes,
// install a Primary hub at the returned epoch, bump shard incarnation).
func (f *Follower) Promote() (uint64, error) {
	f.Stop()
	f.applier.Discard()
	newEpoch := f.epoch.Load() + 1
	if f.o.Dir != "" {
		if err := WriteEpoch(f.o.Dir, newEpoch); err != nil {
			return 0, fmt.Errorf("repl: persisting promoted epoch: %w", err)
		}
	}
	f.epoch.Store(newEpoch)
	return newEpoch, nil
}

// FollowerNodeStatus is the follower snapshot feeding expvar and `plpctl
// repl status`.
type FollowerNodeStatus struct {
	Primary    string
	Epoch      uint64
	Connected  bool
	Refused    bool
	LastError  string
	DurableLSN uint64
	Batches    uint64
	Records    uint64
	Reseeds    uint64
	// Seeding reports an incomplete re-seed: the local state is not a
	// consistent replica and reads are being refused.
	Seeding bool
	// SinceContactMS is the time since the last frame from the primary, in
	// milliseconds (-1 before first contact).
	SinceContactMS int64
	Applier        ApplierStatus
}

// Status returns a snapshot of follower progress.
func (f *Follower) Status() FollowerNodeStatus {
	st := FollowerNodeStatus{
		Primary:        f.PrimaryAddr(),
		Epoch:          f.epoch.Load(),
		Connected:      f.connected.Load(),
		Refused:        f.refused.Load(),
		DurableLSN:     uint64(f.o.Log.DurableLSN()),
		Batches:        f.batches.Load(),
		Records:        f.records.Load(),
		Reseeds:        f.reseeds.Load(),
		Seeding:        f.Seeding(),
		SinceContactMS: -1,
		Applier:        f.applier.Status(),
	}
	if f.lastContact.Load() != 0 {
		st.SinceContactMS = f.SinceContact().Milliseconds()
	}
	if msg := f.lastErr.Load(); msg != nil {
		st.LastError = *msg
	}
	return st
}
