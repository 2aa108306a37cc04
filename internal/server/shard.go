// Cross-process sharding: the coordinator and participant sides of the
// two-shard commit protocol, shard-map serving, wrong-shard refusals and
// the in-doubt janitor.
//
// Each plpd process serves one shard of a versioned shard map (package
// shard).  A plan whose ops all belong to this shard takes the unchanged
// single-process path; one whose ops all belong to another shard is refused
// with a wrong-shard error carrying the current map (the client refreshes
// and forwards, mirroring the engine's in-process mis-route forwarding);
// one spanning shards is executed here as a coordinator-logged two-phase
// commit:
//
//  1. the coordinator splits the plan into one sub-plan per owning shard
//     (see split) and ships each remote branch as a PREPARE frame;
//     participants execute the branch, force a prepare record naming the
//     gid, and vote by committing the response;
//  2. the local branch (if any) prepares the same way through
//     Session.ExecutePrepare;
//  3. on unanimous yes the coordinator durably logs its commit decision
//     (engine.LogDecision) — the global commit point — and only then sends
//     DECIDE commit frames; any no vote sends DECIDE abort instead.
//     Presumed abort: abort decisions are never logged, so a gid the
//     coordinator does not remember is aborted.  A decision whose flush
//     FAILS is neither: the decide record was appended and may yet reach
//     disk, so the transaction stays in doubt (branches prepared, queries
//     answered "decision pending") until this coordinator's next recovery
//     reads the log and fixes the fate one way for everyone.
//
// Gids embed the coordinator's shard ID, its replication epoch and an
// incarnation epoch (s<shard>-<replEpoch>.<epoch>-<seq>), so neither a
// restarted coordinator nor a promoted follower can reuse a gid whose
// durable decision from an earlier primary would then leak onto an
// unrelated transaction.
//
// A participant that crashes (or loses its coordinator) while prepared is
// in doubt; the janitor chases the coordinator with DECIDE query frames
// and resolves the branch from the answer.
package server

import (
	"bufio"
	"crypto/tls"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plp/internal/engine"
	"plp/internal/txn"
	"plp/plan"
	"plp/shard"
	"plp/wire"
)

// Janitor cadence: how often in-doubt branches are re-examined, and how
// long a branch must have been in doubt before its coordinator is chased
// (a live coordinator normally decides within milliseconds).  The period
// and the peer-call deadline are defaults, overridable per server
// (Server.JanitorPeriod / Server.PeerCallTimeout).
const (
	defaultJanitorPeriod = 250 * time.Millisecond
	inDoubtPatience      = time.Second
)

// defaultPeerCallTimeout bounds one shard-to-shard round trip (including
// the handshake of a fresh dial).  Calls on a peer are mutex-serialized, so
// without it a hung participant would wedge both the coordinator path and
// the janitor behind the same connection forever.
const defaultPeerCallTimeout = 3 * time.Second

// peerCallTimeout returns the configured shard-peer call deadline.
func (s *Server) peerCallTimeout() time.Duration {
	if s.PeerCallTimeout > 0 {
		return s.PeerCallTimeout
	}
	return defaultPeerCallTimeout
}

// janitorPeriod returns the configured janitor interval.
func (s *Server) janitorPeriod() time.Duration {
	if s.JanitorPeriod > 0 {
		return s.JanitorPeriod
	}
	return defaultJanitorPeriod
}

// testHook, when non-nil, runs at named points of the coordinator path
// ("coord-prepared" after every branch voted yes, "coord-decided" after the
// decision is durable).  The SIGKILL crash harness uses it to die at exact
// protocol moments.
var testHook atomic.Pointer[func(string)]

func hook(point string) {
	if fn := testHook.Load(); fn != nil {
		(*fn)(point)
	}
}

// logDecision is indirected so tests can inject decision-flush failures
// without wedging a real WAL.
var logDecision = (*engine.Engine).LogDecision

// shardState is the server's sharding configuration and runtime state.
type shardState struct {
	self        int
	token       string
	epoch       uint64 // gid epoch: unique per coordinator incarnation
	callTimeout time.Duration
	tlsConf     *tls.Config // client-side TLS for peer dials
	m           atomic.Pointer[shard.Map]
	seq         atomic.Uint64 // gid sequence for transactions coordinated here

	// peers caches one connection per remote shard (shard ID -> *peerConn).
	peers sync.Map
	// coordinating marks gids this coordinator is actively driving between
	// prepare and decide; the decide-query handler answers "try again" for
	// them so a janitor cannot presume abort mid-protocol.
	coordinating sync.Map

	stopOnce sync.Once
	stopCh   chan struct{}
}

func (ss *shardState) stop() {
	ss.stopOnce.Do(func() {
		close(ss.stopCh)
		ss.peers.Range(func(_, v any) bool {
			v.(*peerConn).close()
			return true
		})
	})
}

// SetShardConfig attaches a shard map to the server: the process serves
// shard selfID, refuses keys owned elsewhere, and coordinates cross-shard
// transactions.  token is presented to peer shards (use the same -token on
// every member).  It also starts the in-doubt janitor.  Call before Serve.
//
// epoch distinguishes this coordinator incarnation in the gids it mints and
// must never repeat across restarts of the same shard: a reused gid would
// inherit a previous incarnation's durable commit decision (or hand its own
// to an old in-doubt branch).  Durable daemons pass the incarnation counter
// persisted in shard.state; 0 derives an epoch from the wall clock, which
// suffices for processes with no cross-restart state.
func (s *Server) SetShardConfig(m *shard.Map, selfID int, token string, epoch uint64) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if _, ok := m.ByID(selfID); !ok {
		return fmt.Errorf("server: shard map version %d has no shard %d", m.Version, selfID)
	}
	if epoch == 0 {
		epoch = uint64(time.Now().UnixNano())
	}
	ss := &shardState{
		self: selfID, token: token, epoch: epoch,
		callTimeout: s.peerCallTimeout(),
		tlsConf:     s.PeerTLSConfig,
		stopCh:      make(chan struct{}),
	}
	ss.m.Store(m.Clone())
	s.sharding.Store(ss)
	go s.janitor(ss)
	return nil
}

// UpdateShardMap installs a newer shard map (a controller move).  Maps with
// a version not above the current one are rejected.
func (s *Server) UpdateShardMap(m *shard.Map) error {
	ss := s.sharding.Load()
	if ss == nil {
		return fmt.Errorf("server: not sharded")
	}
	if err := m.Validate(); err != nil {
		return err
	}
	cur := ss.m.Load()
	if m.Version <= cur.Version {
		return fmt.Errorf("server: map version %d not newer than %d", m.Version, cur.Version)
	}
	ss.m.Store(m.Clone())
	return nil
}

// ShardMap returns the server's current shard map (nil when not sharded).
func (s *Server) ShardMap() *shard.Map {
	ss := s.sharding.Load()
	if ss == nil {
		return nil
	}
	return ss.m.Load()
}

// gidFor mints a globally unique transaction ID,
// s<shard>-<replEpoch>.<epoch>-<seq>.  The "s<shard>-" prefix names the
// coordinator so participants know whom to chase.  The sequence restarts at
// 0 with the process, so the epochs keep gids apart: the incarnation epoch
// across restarts of one data directory, and the replication epoch across
// the primaries of the shard.  A promoted follower's data directory counts
// its incarnations on its own, but it mints under a replication epoch above
// every earlier primary's, so it cannot re-mint their gids.
func (ss *shardState) gidFor(replEpoch uint64) string {
	return fmt.Sprintf("s%d-%d.%d-%d", ss.self, replEpoch, ss.epoch, ss.seq.Add(1))
}

// coordinatorOf parses the coordinator shard ID out of a gid.
func coordinatorOf(gid string) (int, bool) {
	rest, ok := strings.CutPrefix(gid, "s")
	if !ok {
		return 0, false
	}
	idStr, _, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return 0, false
	}
	return id, true
}

// wrongShard builds the routing refusal for a request owned by another
// shard: the error names the owner and the response carries the current
// encoded map so the client can refresh and forward in one round trip.
func wrongShard(resp *wire.Response, m *shard.Map, owner int) *wire.Response {
	resp.Err = fmt.Sprintf("%s: keys belong to shard %d (map version %d)", wire.WrongShardPrefix, owner, m.Version)
	resp.Results = []wire.StatementResult{{Value: m.Encode()}}
	return resp
}

// branch is one shard's sub-plan of a cross-shard transaction.
type branch struct {
	owner int
	plan  plan.Plan
	phase int   // index of p's phase the last appended op came from
	flat  []int // each sub-plan op's flat index in p, for result scattering
}

// split divides a cross-shard plan into one sub-plan per owning shard.
// Each keeps its ops in phase order, with a phase wherever p has one that
// holds an op of the branch, and bindings renumbered to the sub-plan's flat
// indices.  A binding to an op of another branch is refused: that value
// would have to cross shards mid-transaction.
func split(p *plan.Plan, m *shard.Map, self int) ([]*branch, error) {
	var branches []*branch
	type place struct {
		b   *branch
		ref int32 // 1-based flat index within b's sub-plan
	}
	placed := make([]place, 0, p.NumOps())
	for pi, ph := range p.Phases {
		for i := range ph {
			op := ph[i]
			o := m.OpOwner(&op, self)
			var b *branch
			for _, c := range branches {
				if c.owner == o {
					b = c
				}
			}
			if b == nil {
				b = &branch{owner: o, phase: -1}
				branches = append(branches, b)
			}
			for _, ref := range []*int32{&op.KeyFrom, &op.ValueFrom, &op.EachFrom} {
				if *ref == plan.NoBind {
					continue
				}
				src := placed[*ref-1]
				if src.b != b {
					return nil, fmt.Errorf("cross-shard plan: op %d runs on shard %d but binds op %d, which runs on shard %d", len(placed), o, *ref-1, src.b.owner)
				}
				*ref = src.ref
			}
			if b.phase != pi {
				b.plan.Phases = append(b.plan.Phases, nil)
				b.phase = pi
			}
			last := len(b.plan.Phases) - 1
			b.plan.Phases[last] = append(b.plan.Phases[last], op)
			b.flat = append(b.flat, len(placed))
			placed = append(placed, place{b, int32(len(b.flat))})
		}
	}
	return branches, nil
}

// executeCoordinated runs a cross-shard plan as its coordinator.
func (s *Server) executeCoordinated(sess *engine.Session, ss *shardState, m *shard.Map, p *plan.Plan, resp *wire.Response, canceled *atomic.Bool) *wire.Response {
	// split relies on bindings that name earlier-phase ops, which a valid
	// plan guarantees; the engine would refuse an invalid one anyway.
	if err := p.Validate(); err != nil {
		return s.refuse(resp, err.Error())
	}
	branches, err := split(p, m, ss.self)
	if err != nil {
		return s.refuse(resp, err.Error())
	}
	resp.Results = make([]wire.StatementResult, p.NumOps())
	scatter := func(b *branch, results []wire.StatementResult) {
		for j, r := range results {
			if j < len(b.flat) {
				resp.Results[b.flat[j]] = r
			}
		}
	}

	gid := ss.gidFor(s.replEpoch())
	ss.coordinating.Store(gid, struct{}{})
	// A transaction whose commit decision could not be flushed stays marked
	// coordinating forever: its fate is unknowable until this node's next
	// recovery, and the marker keeps decide queries answering "decision
	// pending" so no janitor presumes abort against a record that may have
	// reached disk.
	decisionInDoubt := false
	defer func() {
		if !decisionInDoubt {
			ss.coordinating.Delete(gid)
		}
	}()

	abort := func(reason string, preparedRemote []*branch, localPrepared bool) *wire.Response {
		for _, b := range preparedRemote {
			if pc, err := ss.peer(m, b.owner); err == nil {
				_, _ = pc.call(wire.EncodeDecideRequest(0, gid, wire.DecideAbort))
			}
		}
		if localPrepared {
			_ = s.e.DecidePrepared(gid, false)
		}
		resp.Err = reason
		s.aborted.Add(1)
		return resp
	}

	// Phase 1: prepare.  Remote branches first — their round trips dominate
	// — then the local branch, so a remote no-vote costs no local work.
	var preparedRemote []*branch
	localPrepared := false
	for _, b := range branches {
		if b.owner == ss.self {
			continue
		}
		if canceled != nil && canceled.Load() {
			return abort(engine.ErrPlanCanceled.Error(), preparedRemote, false)
		}
		pc, err := ss.peer(m, b.owner)
		if err != nil {
			return abort(fmt.Sprintf("shard %d unreachable: %v", b.owner, err), preparedRemote, false)
		}
		presp, err := pc.call(wire.EncodePrepareRequest(0, gid, m.Version, &b.plan))
		if err != nil {
			return abort(fmt.Sprintf("prepare on shard %d: %v", b.owner, err), preparedRemote, false)
		}
		// A no vote (op error, or the keys moved and the participant refused
		// them) leaves nothing to abort there.
		scatter(b, presp.Results)
		if !presp.Committed {
			reason := presp.Err
			if reason == "" {
				reason = fmt.Sprintf("shard %d voted no", b.owner)
			}
			return abort(reason, preparedRemote, false)
		}
		preparedRemote = append(preparedRemote, b)
	}
	for _, b := range branches {
		if b.owner != ss.self {
			continue
		}
		results, err := s.run(sess, &b.plan, gid, canceled)
		scatter(b, results)
		if err != nil {
			return abort(err.Error(), preparedRemote, false)
		}
		localPrepared = true
	}

	// Phase 2: decide.  Logging the decision is the global commit point; a
	// crash before it aborts everywhere (presumed abort), a crash after it
	// commits everywhere (participants chase the recovered decision).
	hook("coord-prepared")
	if err := logDecision(s.e, gid); err != nil {
		// The decide record was appended before the flush failed, so it may
		// still become durable (or ride a later flush out before a crash).
		// Sending aborts now could contradict a decision a future recovery
		// will read — permanent cross-shard divergence.  Instead leave every
		// branch prepared and the gid in doubt; recovery replays the log and
		// resolves it the same way for all participants (durable decide
		// record → commit, none → presumed abort).
		decisionInDoubt = true
		resp.Err = fmt.Sprintf("commit decision not durable (%v); outcome unknown until coordinator recovery", err)
		s.aborted.Add(1)
		return resp
	}
	hook("coord-decided")
	if localPrepared {
		_ = s.e.DecidePrepared(gid, true)
	}
	for _, b := range preparedRemote {
		// A decide that fails to send leaves the branch prepared; its
		// janitor will query the durable decision and commit.  The ack to
		// the client does not wait for it.
		if pc, err := ss.peer(m, b.owner); err == nil {
			_, _ = pc.call(wire.EncodeDecideRequest(0, gid, wire.DecideCommit))
		}
	}
	resp.Committed = true
	s.committed.Add(1)
	return resp
}

// executeShardMap answers a SHARD-MAP frame with the current encoded map.
func (s *Server) executeShardMap(id uint64) *wire.Response {
	resp := &wire.Response{ID: id}
	ss := s.sharding.Load()
	if ss == nil {
		resp.Err = "server is not sharded"
		return resp
	}
	resp.Committed = true
	resp.Results = []wire.StatementResult{{Found: true, Value: ss.m.Load().Encode()}}
	return resp
}

// executePrepare is the participant side of phase 1: execute the branch's
// plan, force a prepare record under the frame's gid, and vote.
// Committed=true is a durable yes; anything else is a no (and the branch,
// if it started, has already aborted locally).
func (s *Server) executePrepare(sess *engine.Session, f *wire.Frame, cs session) *wire.Response {
	s.requests.Add(1)
	resp := &wire.Response{ID: f.ID}
	ss := s.sharding.Load()
	if ss == nil {
		resp.Err = "server is not sharded"
		s.aborted.Add(1)
		return resp
	}
	if cs.readOnly {
		resp.Err = "read-only session: prepare refused"
		s.aborted.Add(1)
		return resp
	}
	if tok := s.token.Load(); tok != nil && !cs.authed {
		resp.Err = "prepare requires an authenticated session"
		s.aborted.Add(1)
		return resp
	}
	// Re-check ownership under the map this participant currently holds: a
	// coordinator routing on a stale map must not slip a foreign key in.
	m := ss.m.Load()
	if foreign, _ := m.Placement(f.Plan, ss.self); foreign != ss.self {
		s.aborted.Add(1)
		return wrongShard(resp, m, foreign)
	}
	results, err := s.run(sess, f.Plan, f.GID, nil)
	resp.Results = results
	if err != nil {
		resp.Err = err.Error()
		s.aborted.Add(1)
		return resp
	}
	resp.Committed = true
	s.committed.Add(1)
	return resp
}

// executeDecide handles a DECIDE frame: commit/abort resolves this
// participant's prepared branch; query answers, as coordinator, whether the
// gid was durably decided commit.
func (s *Server) executeDecide(f *wire.Frame, cs session) *wire.Response {
	resp := &wire.Response{ID: f.ID}
	ss := s.sharding.Load()
	if ss == nil {
		resp.Err = "server is not sharded"
		return resp
	}
	if tok := s.token.Load(); tok != nil && !cs.authed {
		resp.Err = "decide requires an authenticated session"
		return resp
	}
	switch f.DecideMode {
	case wire.DecideQuery:
		if _, busy := ss.coordinating.Load(f.GID); busy {
			// Mid-protocol: the fate is not yet fixed, and "no decision"
			// must not be read as presumed abort.  The janitor retries.
			resp.Err = "decision pending"
			return resp
		}
		resp.Committed = s.e.DecidedCommit(f.GID)
		return resp
	case wire.DecideCommit, wire.DecideAbort:
		err := s.e.DecidePrepared(f.GID, f.DecideMode == wire.DecideCommit)
		if err != nil && err != txn.ErrUnknownGID {
			resp.Err = err.Error()
			return resp
		}
		// Unknown gid: already resolved (duplicate decide) — idempotent.
		resp.Committed = true
		return resp
	default:
		resp.Err = fmt.Sprintf("unknown decide mode %d", f.DecideMode)
		return resp
	}
}

// janitor resolves branches stuck in doubt: live prepared transactions
// whose decide frame never arrived, and branches recovered in doubt after a
// restart.  For each it asks the gid's coordinator whether a commit was
// durably decided; no decision means presumed abort.  Gids this node is
// itself coordinating right now are skipped (their protocol is in flight).
func (s *Server) janitor(ss *shardState) {
	tick := time.NewTicker(s.janitorPeriod())
	defer tick.Stop()
	for {
		select {
		case <-ss.stopCh:
			return
		case <-tick.C:
		}
		gids := s.e.PreparedGIDs(inDoubtPatience)
		gids = append(gids, s.e.InDoubtGIDs()...)
		for _, gid := range gids {
			if _, busy := ss.coordinating.Load(gid); busy {
				continue
			}
			s.resolveInDoubt(ss, gid)
		}
	}
}

// resolveInDoubt learns gid's fate from its coordinator and applies it.
func (s *Server) resolveInDoubt(ss *shardState, gid string) {
	coord, ok := coordinatorOf(gid)
	if !ok {
		return
	}
	var commit bool
	if coord == ss.self {
		// This node coordinated gid in a previous life; its own durable
		// decisions are the answer.
		commit = s.e.DecidedCommit(gid)
	} else {
		m := ss.m.Load()
		pc, err := ss.peer(m, coord)
		if err != nil {
			return // coordinator unreachable; stay in doubt and retry
		}
		resp, err := pc.call(wire.EncodeDecideRequest(0, gid, wire.DecideQuery))
		if err != nil || resp.Err != "" {
			return // no answer (or mid-protocol); retry next tick
		}
		commit = resp.Committed
	}
	_ = s.e.DecidePrepared(gid, commit)
}

// peer returns the cached connection to the given shard, dialing if needed.
// A cached connection whose address no longer matches the map (the shard
// moved between processes) is retired and replaced.
func (ss *shardState) peer(m *shard.Map, shardID int) (*peerConn, error) {
	addr := m.AddrOf(shardID)
	if addr == "" {
		return nil, fmt.Errorf("no address for shard %d", shardID)
	}
	if v, ok := ss.peers.Load(shardID); ok {
		pc := v.(*peerConn)
		if pc.addr == addr {
			return pc, nil
		}
		if ss.peers.CompareAndDelete(shardID, v) {
			pc.close()
		}
	}
	pc := &peerConn{addr: addr, token: ss.token, callTimeout: ss.callTimeout, tlsConf: ss.tlsConf}
	if v, loaded := ss.peers.LoadOrStore(shardID, pc); loaded {
		return v.(*peerConn), nil
	}
	return pc, nil
}

// peerConn is a minimal synchronous wire-protocol client for shard-to-shard
// traffic (prepares, decides, queries).  Calls are mutex-serialized — one
// outstanding request per peer — which keeps response matching trivial; the
// janitor and coordinator volumes do not need pipelining.  A failed call
// closes the connection and the next call redials, so a restarted peer is
// picked up transparently.
type peerConn struct {
	addr        string
	token       string
	callTimeout time.Duration
	tlsConf     *tls.Config

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	nextID uint64
}

// deadline returns the per-call deadline (defaulted when the conn was built
// outside shardState, e.g. in tests).
func (p *peerConn) deadline() time.Duration {
	if p.callTimeout > 0 {
		return p.callTimeout
	}
	return defaultPeerCallTimeout
}

func (p *peerConn) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reset()
}

func (p *peerConn) reset() {
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
		p.br = nil
	}
}

// dial connects and completes the handshake.  Caller holds p.mu.
func (p *peerConn) dial() error {
	conn, err := net.DialTimeout("tcp", p.addr, 2*time.Second)
	if err != nil {
		return err
	}
	if p.tlsConf != nil {
		cfg := p.tlsConf
		if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
			if host, _, herr := net.SplitHostPort(p.addr); herr == nil {
				cfg = cfg.Clone()
				cfg.ServerName = host
			}
		}
		// The TLS handshake runs lazily on first write, under the same
		// deadline as the wire handshake below.
		conn = tls.Client(conn, cfg)
	}
	// The handshake runs under the same deadline as the call that needs it;
	// a peer that accepts but never answers must not block forever.
	_ = conn.SetDeadline(time.Now().Add(p.deadline()))
	hello := &wire.Hello{MaxVersion: wire.Version}
	if p.token != "" {
		hello.Token = []byte(p.token)
	}
	if err := wire.WriteFrame(conn, wire.EncodeHello(hello)); err != nil {
		_ = conn.Close()
		return err
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	ackBuf, err := wire.ReadFrame(br)
	if err != nil {
		_ = conn.Close()
		return err
	}
	ack, err := wire.DecodeHelloAck(ackBuf)
	if err != nil {
		_ = conn.Close()
		return err
	}
	if ack.Err != "" {
		_ = conn.Close()
		return fmt.Errorf("peer refused session: %s", ack.Err)
	}
	if ack.Version != wire.Version {
		_ = conn.Close()
		return fmt.Errorf("peer speaks protocol v%d, need v%d", ack.Version, wire.Version)
	}
	p.conn = conn
	p.br = br
	return nil
}

// call sends one frame payload (its leading request ID is rewritten to this
// connection's sequence) and waits for the matching response.
func (p *peerConn) call(payload []byte) (*wire.Response, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		if err := p.dial(); err != nil {
			return nil, err
		}
	}
	p.nextID++
	id := p.nextID
	for i := 0; i < 8; i++ {
		payload[i] = byte(id >> (8 * i))
	}
	// Per-call deadline: a hung peer fails the call (and resets the
	// connection) instead of wedging every caller serialized behind p.mu.
	if err := p.conn.SetDeadline(time.Now().Add(p.deadline())); err != nil {
		p.reset()
		return nil, err
	}
	if err := wire.WriteFrame(p.conn, payload); err != nil {
		p.reset()
		return nil, err
	}
	for {
		buf, err := wire.ReadFrame(p.br)
		if err != nil {
			p.reset()
			return nil, err
		}
		resp, err := wire.DecodeResponse(buf)
		if err != nil {
			p.reset()
			return nil, err
		}
		if resp.ID == id {
			return resp, nil
		}
		// A response for another ID: every failed call resets the
		// connection, so this is peer misbehavior rather than a stale
		// answer — drop it and keep waiting under the deadline.
	}
}
