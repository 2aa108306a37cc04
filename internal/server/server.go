// Package server exposes a PLP engine over TCP using the wire protocol.
//
// Every connection opens with the wire handshake, which checks the protocol
// version and authenticates the optional token.  From then on the
// connection is *pipelined*: one reader goroutine decodes frames, and one
// writer goroutine sends responses back in completion order, matched to
// requests by ID.  That keeps every partition worker of the engine busy
// from a single connection, instead of serializing the connection on one
// request at a time.
//
// Requests run on continuations.  The reader decodes a plan, compiles it
// and submits it to the engine (engine.Session.Submit); the request's
// completion — run by the partition worker that finished it, or by the log
// flusher once its commit is durable — queues the reply on the outbox.  No
// goroutine waits per request.  The reader admits at most ConnQueue
// requests whose reply the writer has not yet taken, so the outbox never
// holds more replies than that and a completion never blocks.  Requests
// that genuinely block get a goroutine each, within the same bound:
// streaming scans, cross-shard coordination, PREPARE and DECIDE, control
// verbs, and every transaction of the Conventional design, whose lock
// waits block the goroutine that runs it.
//
// The writer flushes its buffer only when its outbox drains.  While other
// requests of the connection are still unanswered it first yields once, so
// replies completing together leave in one write(2) instead of one each; a
// connection with one request in flight is flushed at once.  The client's
// writer follows the same rule for requests.
//
// A transaction has one form on the wire and on the server, a plan (package
// plan).  Plan frames and the branches of cross-shard commits take the same
// path — admission checks, shard placement, compilation by the engine,
// execution — so cancellation, retry hints and shard ownership behave
// identically for both.  Pings and control verbs have frames of their own
// and never run as transactions.  The partition manager inside the engine
// does the actual work distribution: the server only hands it plans,
// exactly the role the "partition manager" layer of Section 3.1 plays for
// incoming transactions.
package server

import (
	"bufio"
	"crypto/subtle"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plp/internal/engine"
	"plp/internal/repl"
	"plp/plan"
	"plp/wire"
)

// ErrClosed is returned by Serve after Close has been called.
var ErrClosed = errors.New("server: closed")

// DefaultConnQueue is the per-connection bound on requests in flight: the
// reader stops reading, and backpressure moves to the TCP window, while
// that many requests await their reply or its hand-off to the writer.
const DefaultConnQueue = 64

// ControlHandler serves the wire protocol's control frames — the
// administrative verbs of plpctl.  The online repartitioning controller
// (package repartition) implements it; a server without a handler rejects
// those verbs.
type ControlHandler interface {
	// Control executes one command ("status", "trigger", "shares", ...)
	// with an optional table argument and returns its text output.
	Control(cmd, table string) (string, error)
}

// CheckpointFunc serves the "checkpoint" control verb: take one checkpoint
// now and return a human-readable summary.  It is separate from
// ControlHandler because checkpointing belongs to the durability stack
// (engine.Checkpoint), not to the repartitioning controller, and a durable
// server wants the verb even when -drp is off.
type CheckpointFunc func() (string, error)

// Stats reports server activity.
type Stats struct {
	// Connections is the number of connections accepted so far.
	Connections uint64
	// Handshakes is the number of handshakes accepted.
	Handshakes uint64
	// AuthFailures is the number of sessions refused for a bad token.
	AuthFailures uint64
	// Requests is the number of transactions processed.
	Requests uint64
	// Committed and Aborted split Requests by outcome.
	Committed uint64
	Aborted   uint64
}

// Server serves one engine over a listener.
type Server struct {
	e *engine.Engine

	// ConnQueue overrides the per-connection bound on requests in flight
	// (0 selects DefaultConnQueue).  Set it before Serve.
	ConnQueue int

	// TLSConfig, when set, wraps the listener in TLS.  Set before Listen.
	TLSConfig *tls.Config

	// PeerTLSConfig, when set, wraps the peer connections this server dials
	// (shard prepares, decides, janitor queries) in TLS — the client-side
	// counterpart of the peers' TLSConfig.  Set before SetShardConfig.
	PeerTLSConfig *tls.Config

	// PeerCallTimeout and JanitorPeriod override the shard-peer call
	// deadline (default 3s) and the 2PC janitor's resolution interval
	// (default 250ms); chaos tests tighten them, high-latency links loosen
	// them.  Set before SetShardConfig.
	PeerCallTimeout time.Duration
	JanitorPeriod   time.Duration

	// ReplHeartbeat overrides the idle-stream heartbeat interval on
	// replication connections (default 1s): followers lease the primary's
	// liveness off frame arrival.  Set before Serve.
	ReplHeartbeat time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	connections  atomic.Uint64
	handshakes   atomic.Uint64
	authFailures atomic.Uint64
	requests     atomic.Uint64
	committed    atomic.Uint64
	aborted      atomic.Uint64

	control    atomic.Pointer[ControlHandler]
	checkpoint atomic.Pointer[CheckpointFunc]
	token      atomic.Pointer[string]
	roToken    atomic.Pointer[string]
	sharding   atomic.Pointer[shardState]

	replPrimary  atomic.Pointer[repl.Primary]
	followerMode atomic.Bool
	promote      atomic.Pointer[PromoteFunc]
	replStatus   atomic.Pointer[ReplStatusFunc]
	seedingFn    atomic.Pointer[func() bool]

	// replConns tracks the live replication-subscriber connections so a
	// role transition (promote/demote) can sever them: a follower left
	// subscribed to a demoted ex-primary would otherwise have its lease
	// refreshed forever by heartbeats from a frozen log.
	replConnsMu sync.Mutex
	replConns   map[net.Conn]struct{}
}

// New returns a server for the engine.
func New(e *engine.Engine) *Server {
	return &Server{e: e, conns: make(map[net.Conn]struct{}), replConns: make(map[net.Conn]struct{})}
}

// SetControlHandler installs (or, with nil, removes) the handler behind the
// wire protocol's control frames.
func (s *Server) SetControlHandler(h ControlHandler) {
	if h == nil {
		s.control.Store(nil)
		return
	}
	s.control.Store(&h)
}

// SetCheckpointHandler installs (or, with nil, removes) the function behind
// the "checkpoint" control verb.  Like every control verb it is gated by
// the authentication token when one is set.
func (s *Server) SetCheckpointHandler(fn CheckpointFunc) {
	if fn == nil {
		s.checkpoint.Store(nil)
		return
	}
	s.checkpoint.Store(&fn)
}

// SetAuthToken installs (or, with "", removes) the authentication token.
// With a token set, only sessions whose HELLO presented the matching token
// are authenticated: a wrong token is refused outright, and sessions
// without a token may run data transactions but are refused control verbs.
// Without a token every session is authenticated.  The token is
// snapshotted per connection at handshake time.
func (s *Server) SetAuthToken(token string) {
	if token == "" {
		s.token.Store(nil)
		return
	}
	s.token.Store(&token)
}

// SetReadOnlyToken installs (or, with "", removes) the read-only
// authorization token.  A session whose HELLO presents it is scoped
// read-only: data reads (gets, secondary lookups, scans, read-only plans)
// are served, while write ops and control verbs are refused.  The read-only
// token is an additional credential — it does not change what the main
// token or token-less sessions may do.
func (s *Server) SetReadOnlyToken(token string) {
	if token == "" {
		s.roToken.Store(nil)
		return
	}
	s.roToken.Store(&token)
}

// Stats returns a snapshot of server activity.
func (s *Server) Stats() Stats {
	return Stats{
		Connections:  s.connections.Load(),
		Handshakes:   s.handshakes.Load(),
		AuthFailures: s.authFailures.Load(),
		Requests:     s.requests.Load(),
		Committed:    s.committed.Load(),
		Aborted:      s.aborted.Load(),
	}
}

// Listen starts listening on addr ("host:port"; ":0" picks a free port) and
// returns the bound address.  Serve must be called to accept connections.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if s.TLSConfig != nil {
		ln = tls.NewListener(ln, s.TLSConfig)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return "", ErrClosed
	}
	s.listener = ln
	s.mu.Unlock()
	return ln.Addr().String(), nil
}

// Serve accepts connections until Close is called.  It returns ErrClosed on
// orderly shutdown.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.listener
	s.mu.Unlock()
	if ln == nil {
		return errors.New("server: Serve called before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrClosed
			}
			// Transient accept errors: back off briefly and keep serving.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connections.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes every active connection and waits for the
// per-connection goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	if ss := s.sharding.Load(); ss != nil {
		ss.stop()
	}
	s.wg.Wait()
	return err
}

// session is the per-connection state fixed by the handshake.
type session struct {
	authed   bool
	readOnly bool
}

// serveConn runs the handshake, then hands the connection to the
// replication streamer (when its first frame subscribes) or to the
// pipelined request loop.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// All frame reads go through one buffered reader: under pipelining many
	// frames arrive per TCP segment and the buffer turns them into one
	// syscall.
	br := bufio.NewReaderSize(conn, 64<<10)
	first, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	cs, ok := s.handshake(conn, first)
	if !ok {
		return
	}
	payload, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	if len(payload) > 8 && wire.FrameKind(payload[8]) == wire.FrameReplSubscribe {
		s.serveReplication(conn, br, payload, cs)
		return
	}
	s.servePipelined(conn, br, payload, cs)
}

// handshake answers the connection's first frame, which must be a HELLO
// offering at least wire.Version, and returns the session it establishes.
// Anything else is refused with an erroring HELLO-ACK.
func (s *Server) handshake(conn net.Conn, first []byte) (session, bool) {
	refuse := func(msg string) (session, bool) {
		_ = wire.WriteFrame(conn, wire.EncodeHelloAck(&wire.HelloAck{Version: wire.Version, Err: msg}))
		return session{}, false
	}
	if !wire.IsHello(first) {
		return refuse(fmt.Sprintf("handshake required: the first frame must be a protocol v%d HELLO", wire.Version))
	}
	hello, err := wire.DecodeHello(first)
	if err != nil {
		return refuse(fmt.Sprintf("handshake: %v", err))
	}
	if hello.MaxVersion < wire.Version {
		return refuse(fmt.Sprintf("handshake: client offers protocol v%d, server requires v%d", hello.MaxVersion, wire.Version))
	}
	tok := s.token.Load()
	ro := s.roToken.Load()
	cs := session{authed: tok == nil}
	if (tok != nil || ro != nil) && len(hello.Token) > 0 {
		switch {
		case tok != nil && subtle.ConstantTimeCompare([]byte(*tok), hello.Token) == 1:
			cs.authed = true
		case ro != nil && subtle.ConstantTimeCompare([]byte(*ro), hello.Token) == 1:
			// Read-only scope: data reads only, never control — even on a
			// server whose control verbs are otherwise open.
			cs.readOnly = true
			cs.authed = false
		default:
			s.authFailures.Add(1)
			return refuse("authentication failed")
		}
	}
	// Counted before the ack goes out, so a client that has read it sees
	// its session in Stats.
	s.handshakes.Add(1)
	if err := wire.WriteFrame(conn, wire.EncodeHelloAck(&wire.HelloAck{
		Version: wire.Version, Authenticated: cs.authed, ReadOnly: cs.readOnly})); err != nil {
		return session{}, false
	}
	return cs, true
}

// outMsg is one frame bound for the writer goroutine: either a response to
// encode, or a pre-encoded raw frame (streaming-scan chunks).  A raw frame
// must be freshly allocated by the sender — the writer owns it after
// hand-off.  final marks a request's last frame.
type outMsg struct {
	resp  *wire.Response
	raw   []byte
	final bool
}

// outbox is a connection's queue of frames bound for its writer, and the
// admission bound on the requests in flight.  Queuing never blocks, so a
// request's completion may queue its reply from a partition worker or the
// log flusher; the queue stays bounded because the reader admits a request
// only while fewer than limit admitted requests have not had their last
// frame taken by the writer (unsent), and a stream's chunks are bounded by
// its credit window.
type outbox struct {
	mu     sync.Mutex
	q      []outMsg
	closed bool
	ready  chan struct{} // wakes the writer

	limit int64
	// unsent counts admitted requests whose last frame the writer has not
	// taken; room wakes a reader waiting for it to fall below limit.
	unsent atomic.Int64
	room   chan struct{}
	// unanswered counts admitted requests whose last frame has not been
	// queued.  The writer reads it to decide whether yielding once before
	// a flush can put more replies into the same write.
	unanswered atomic.Int64
	// replies counts the same requests, for the reader's wait at close.
	replies sync.WaitGroup
}

func newOutbox(limit int) *outbox {
	return &outbox{ready: make(chan struct{}, 1), room: make(chan struct{}, 1), limit: int64(limit)}
}

// admit waits until the connection may take one more request, and counts
// it.  Only the reader calls it.
func (o *outbox) admit() {
	for o.unsent.Load() >= o.limit {
		<-o.room
	}
	o.unsent.Add(1)
	o.unanswered.Add(1)
	o.replies.Add(1)
}

// push queues m for the writer.
func (o *outbox) push(m outMsg) {
	o.mu.Lock()
	o.q = append(o.q, m)
	o.mu.Unlock()
	select {
	case o.ready <- struct{}{}:
	default:
	}
}

// reply queues a request's last frame.  The request stops counting as
// unanswered first, so the writer counts only the others.
func (o *outbox) reply(m outMsg) {
	m.final = true
	o.unanswered.Add(-1)
	o.push(m)
	o.replies.Done()
}

// send queues a frame of a request that goes on running (a stream's
// chunk).  The request does not count as unanswered while the frame is
// queued, so a lone stream's chunks are flushed at once.
func (o *outbox) send(m outMsg) {
	o.unanswered.Add(-1)
	o.push(m)
	o.unanswered.Add(1)
}

// abandon ends a request that will send nothing more, because its client
// is gone.
func (o *outbox) abandon() {
	o.unanswered.Add(-1)
	o.taken(1)
	o.replies.Done()
}

// taken releases the admission slots of n requests whose last frame left
// the queue.
func (o *outbox) taken(n int) {
	if n > 0 && o.unsent.Add(-int64(n)) < o.limit {
		select {
		case o.room <- struct{}{}:
		default:
		}
	}
}

// close ends the writer once the queue drains.
func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	select {
	case o.ready <- struct{}{}:
	default:
	}
}

// queued reports whether frames wait in the queue.
func (o *outbox) queued() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.q) > 0
}

// next waits for queued frames and swaps them out for spare, or returns
// nil once the outbox is closed and drained.
func (o *outbox) next(spare []outMsg) []outMsg {
	o.mu.Lock()
	for len(o.q) == 0 && !o.closed {
		o.mu.Unlock()
		<-o.ready
		o.mu.Lock()
	}
	batch := o.q
	o.q = spare[:0]
	o.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	return batch
}

// writeLoop sends the outbox's frames to conn until the outbox is closed.
// Frames go into a buffered writer, flushed only when the outbox drains.
// Before flushing, a writer that has not yielded since its last flush, on a
// connection with another request still unanswered, yields once
// (runtime.Gosched): completions already runnable queue their replies
// meanwhile, and those leave in the same write(2).  With one request in
// flight the writer flushes at once, so a serial connection pays nothing;
// and no reply waits on a slower request, since the yield is one scheduler
// pass, not a wait for the connection to go idle.
func (o *outbox) writeLoop(conn net.Conn) {
	bw := bufio.NewWriterSize(conn, 64<<10)
	broken, yielded := false, false
	fail := func() {
		broken = true
		_ = conn.Close() // unblocks the reader, which winds the pipeline down
	}
	// One encode buffer serves every response of the connection:
	// WriteFrame copies it into the buffered writer before the next reply
	// is encoded, so reuse is safe and steady-state encoding stops
	// allocating per reply.
	var encBuf []byte
	var spare []outMsg
	for {
		batch := o.next(spare)
		if batch == nil {
			return
		}
		finals := 0
		for _, m := range batch {
			if m.final {
				finals++
			}
			if broken {
				continue // keep draining so admission goes on
			}
			payload := m.raw
			if payload == nil {
				encBuf = wire.AppendResponse(encBuf[:0], m.resp)
				payload = encBuf
			}
			if err := wire.WriteFrame(bw, payload); err != nil {
				fail()
			}
		}
		clear(batch)
		spare = batch
		o.taken(finals)
		if broken || o.queued() {
			continue
		}
		if !yielded && o.unanswered.Load() > 0 {
			yielded = true
			runtime.Gosched()
			if o.queued() {
				continue
			}
		}
		yielded = false
		if err := bw.Flush(); err != nil {
			fail()
		}
	}
}

// pipeline is one connection's request loop state.
type pipeline struct {
	s         *Server
	cs        session
	out       *outbox
	done      chan struct{} // closed when the reader loop exits
	inflight  sync.Map      // request ID -> *atomic.Bool (cancel flag)
	scanFlows sync.Map      // request ID -> *scanFlow (open streams)

	// sess submits the connection's non-blocking transactions, which may
	// share one session (engine.Session.Submit).  Requests that block take
	// a session of their own from idle.
	sess *engine.Session
	mu   sync.Mutex
	idle []*engine.Session
}

// request is one admitted request frame: its ID and its cancellation flag,
// set by the reader when a later cancel frame names the ID.
type request struct {
	p        *pipeline
	id       uint64
	hasID    bool
	canceled *atomic.Bool
}

// reply queues the request's response and retires its cancel flag.
func (r *request) reply(resp *wire.Response) {
	r.p.out.reply(outMsg{resp: resp})
	r.forget()
}

// forget retires the request's cancel flag.  It deletes exactly this
// request's flag: a client reusing a request ID makes a plain Delete racy,
// since the older request's completion could reap the flag the reader just
// registered for the newer one, silently dropping a cancel aimed at it.
func (r *request) forget() {
	if r.hasID {
		r.p.inflight.CompareAndDelete(r.id, r.canceled)
	}
}

// session returns an engine session for one blocking request.
func (p *pipeline) session() *engine.Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		sess := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return sess
	}
	return p.s.e.NewSession()
}

// release returns a blocking request's session.
func (p *pipeline) release(sess *engine.Session) {
	p.mu.Lock()
	p.idle = append(p.idle, sess)
	p.mu.Unlock()
}

// servePipelined is the request loop: this goroutine reads, decodes and
// starts requests, whose completions queue their replies on the outbox, and
// a writer goroutine sends them in completion order.  The reader also
// intercepts cancel frames — they must not queue behind the very requests
// they cancel — and flips the named request's flag, which the executing
// transaction polls before every op.
func (s *Server) servePipelined(conn net.Conn, br *bufio.Reader, first []byte, cs session) {
	queue := s.ConnQueue
	if queue <= 0 {
		queue = DefaultConnQueue
	}
	p := &pipeline{s: s, cs: cs, out: newOutbox(queue), done: make(chan struct{}), sess: s.e.NewSession()}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		p.out.writeLoop(conn)
	}()

	payload := first
	for {
		if payload == nil {
			var err error
			payload, err = wire.ReadFrame(br)
			if err != nil {
				break
			}
		}
		if wire.IsScanAckFrame(payload) {
			// Scan credits are intercepted like cancels: they regulate
			// streams already running, so they must never queue behind
			// the very streams they pace.
			creditScan(&p.scanFlows, payload)
			payload = nil
			continue
		}
		if len(payload) > 8 && wire.FrameKind(payload[8]) == wire.FrameCancel {
			// A cancel names an in-flight request by ID.  One for a request
			// already completed (or never seen) is stale and ignored; one
			// for a request still running flips its flag, and the
			// transaction aborts at the next op boundary.  A canceled
			// stream is also woken so a credit-stalled producer notices.
			if id, ok := wire.RequestID(payload); ok {
				if flag, ok := p.inflight.Load(id); ok {
					flag.(*atomic.Bool).Store(true)
				}
				if fl, ok := p.scanFlows.Load(id); ok {
					fl.(*scanFlow).wake()
				}
			}
			payload = nil
			continue
		}
		p.out.admit()
		r := &request{p: p, canceled: &atomic.Bool{}}
		if id, ok := wire.RequestID(payload); ok {
			r.id, r.hasID = id, true
			p.inflight.Store(id, r.canceled)
		}
		s.start(r, payload)
		payload = nil
	}
	close(p.done) // unblock credit-stalled streams: their client is gone
	p.out.replies.Wait()
	p.out.close()
	<-writerDone
	for _, sess := range append(p.idle, p.sess) {
		sess.Close()
	}
}

// start runs one admitted request frame.  A plan that blocks nothing is
// compiled and submitted right here, on the reader; pings and shard-map
// queries are answered here too.  Every other request gets a goroutine of
// its own (see the package documentation).
func (s *Server) start(r *request, payload []byte) {
	p := r.p
	var kind wire.FrameKind
	if len(payload) > 8 {
		kind = wire.FrameKind(payload[8])
	}
	switch kind {
	case wire.FramePlan:
		f, err := wire.DecodeFrameV3(payload)
		if err != nil || s.blocks(f.Plan) {
			break
		}
		s.requests.Add(1)
		s.startTxn(p.sess, &wire.Response{ID: f.ID}, f.Plan, p.cs, r.canceled, r)
		return
	case wire.FramePing, wire.FrameShardMap:
		r.reply(s.handleFrame(nil, payload, p.cs, r.canceled))
		return
	case wire.FrameScan:
		// A streaming scan emits its chunks itself until the stream ends.
		go func() {
			s.streamScan(payload, r.canceled, p.out, &p.scanFlows, p.done)
			r.forget()
		}()
		return
	}
	go func() {
		sess := p.session()
		resp := s.handleFrame(sess, payload, p.cs, r.canceled)
		p.release(sess)
		r.reply(resp)
	}()
}

// blocks reports whether running the plan blocks the goroutine that runs
// it: in the Conventional design, whose lock waits block, and for a plan
// that spans shards, whose coordinator waits for its participants.
func (s *Server) blocks(pl *plan.Plan) bool {
	if s.e.Design() == engine.Conventional {
		return true
	}
	if ss := s.sharding.Load(); ss != nil {
		_, spans := ss.m.Load().Placement(pl, ss.self)
		return spans
	}
	return false
}

// handleFrame decodes one request frame and executes it.  A decode failure
// still echoes the best-effort request ID so ID-matching clients stay in
// sync.
func (s *Server) handleFrame(sess *engine.Session, payload []byte, cs session, canceled *atomic.Bool) *wire.Response {
	f, err := wire.DecodeFrameV3(payload)
	if err != nil {
		id, _ := wire.RequestID(payload)
		return &wire.Response{ID: id, Err: fmt.Sprintf("decode: %v", err)}
	}
	switch f.Kind {
	case wire.FramePlan:
		return s.executePlan(sess, f.ID, f.Plan, cs, canceled)
	case wire.FramePing:
		s.requests.Add(1)
		s.committed.Add(1)
		return &wire.Response{ID: f.ID, Committed: true, Results: []wire.StatementResult{{Found: true, Value: f.Ping}}}
	case wire.FrameControl:
		s.requests.Add(1)
		s.committed.Add(1)
		return &wire.Response{ID: f.ID, Committed: true, Results: []wire.StatementResult{s.executeControl(f.Command, f.Table, cs)}}
	case wire.FrameShardMap:
		return s.executeShardMap(f.ID)
	case wire.FramePrepare:
		if s.followerMode.Load() {
			return &wire.Response{ID: f.ID, Err: wire.FollowerPrefix + ": prepare refused — follower nodes take no transaction branches"}
		}
		return s.executePrepare(sess, f, cs)
	case wire.FrameDecide:
		if s.followerMode.Load() {
			return &wire.Response{ID: f.ID, Err: wire.FollowerPrefix + ": decide refused — follower nodes take no transaction branches"}
		}
		return s.executeDecide(f, cs)
	default:
		// Cancels, streaming scans and their acks are intercepted before
		// handleFrame, and replication frames belong to a subscription; one
		// reaching here came over a transport that should not produce it.
		return &wire.Response{ID: f.ID, Err: fmt.Sprintf("unexpected frame kind %d", f.Kind), Retry: wire.RetryPermanent}
	}
}

// followerRefusal fills resp with a follower-mode refusal.  When the node
// knows a shard map it rides along in the results — after a failover the
// ex-primary's refusals carry the post-promotion replica sets, so a routing
// client adopts the new primary from the refusal itself instead of hunting
// for a member that will answer a refresh.
func (s *Server) followerRefusal(resp *wire.Response, msg string) *wire.Response {
	if m := s.ShardMap(); m != nil {
		resp.Results = []wire.StatementResult{{Value: m.Encode()}}
	}
	return s.refuse(resp, msg)
}

// refuse aborts resp before it runs, for a reason a retry would repeat.
func (s *Server) refuse(resp *wire.Response, msg string) *wire.Response {
	resp.Err = msg
	resp.Retry = wire.RetryPermanent
	s.aborted.Add(1)
	return resp
}

// classifyAbort translates an execution error into the retry hint: lock
// timeouts (deadlock-avoidance aborts) are transient, everything else —
// cancels, validation, data errors — reproduces on retry.
func classifyAbort(err error) wire.RetryHint {
	if err == nil {
		return wire.RetryUnknown
	}
	if engine.IsTransientAbort(err) {
		return wire.RetryTransient
	}
	return wire.RetryPermanent
}

// replier receives a transaction's response.
type replier interface{ reply(*wire.Response) }

// replyChan hands a response to a goroutine waiting for it.
type replyChan chan *wire.Response

func (c replyChan) reply(resp *wire.Response) { c <- resp }

// executePlan runs one plan frame as a single transaction and waits for
// its response.
func (s *Server) executePlan(sess *engine.Session, id uint64, p *plan.Plan, cs session, canceled *atomic.Bool) *wire.Response {
	s.requests.Add(1)
	ch := make(replyChan, 1)
	s.startTxn(sess, &wire.Response{ID: id}, p, cs, canceled, ch)
	return <-ch
}

// startTxn is the one transaction path.  Every plan passes the same checks —
// session scope, replication role, cancellation, shard placement — before
// it is compiled and submitted to the engine (or, when it spans shards,
// before the coordinator splits it into branches), and every abort is
// classified the same way.  r receives the response: from the request's
// completion for a submitted plan, before startTxn returns otherwise.
// startTxn blocks the calling goroutine only where blocks says it does.
func (s *Server) startTxn(sess *engine.Session, resp *wire.Response, p *plan.Plan, cs session, canceled *atomic.Bool, r replier) {
	start := latPlan.sampleStart()
	reply := func(resp *wire.Response) { answer(r, start, resp) }
	writes := p.Writes()
	if cs.readOnly && writes {
		reply(s.refuse(resp, "read-only session: write ops refused"))
		return
	}
	if s.followerMode.Load() {
		if writes {
			reply(s.followerRefusal(resp, wire.FollowerPrefix+": write ops refused — this node replicates a primary (write there, or promote this node)"))
			return
		}
		if s.seeding() {
			// Mid re-seed the engine was wiped and only partially rebuilt: a
			// read here could report "not found" for committed rows.
			reply(s.followerRefusal(resp, wire.FollowerPrefix+": reads refused — this follower is mid re-seed and not yet a consistent replica (read another member)"))
			return
		}
	}
	if canceled != nil && canceled.Load() {
		reply(s.refuse(resp, engine.ErrPlanCanceled.Error()))
		return
	}
	if ss := s.sharding.Load(); ss != nil {
		m := ss.m.Load()
		switch foreign, spans := m.Placement(p, ss.self); {
		case spans:
			reply(s.executeCoordinated(sess, ss, m, p, resp, canceled))
			return
		case foreign != ss.self:
			s.aborted.Add(1)
			reply(wrongShard(resp, m, foreign))
			return
		}
	}
	if len(p.Phases) == 0 {
		// An empty transaction commits without touching the engine.
		resp.Committed = true
		s.committed.Add(1)
		reply(resp)
		return
	}
	results := make([]plan.Result, p.NumOps())
	var hook func() bool
	if canceled != nil {
		hook = canceled.Load
	}
	ereq, finish, err := s.e.CompilePlan(p, results, hook)
	if err != nil {
		reply(s.txnDone(resp, nil, err))
		return
	}
	sess.Submit(ereq, func(_ engine.Result, err error) {
		finish()
		answer(r, start, s.txnDone(resp, results, err))
	})
}

// answer hands a transaction's response to r and closes its latency
// sample.
func answer(r replier, start time.Time, resp *wire.Response) {
	latPlan.observe(start)
	r.reply(resp)
}

// txnDone fills resp with a finished transaction's results and outcome.
func (s *Server) txnDone(resp *wire.Response, results []plan.Result, err error) *wire.Response {
	resp.Results = planResultsToWire(results)
	if err != nil {
		resp.Err = err.Error()
		resp.Retry = classifyAbort(err)
		s.aborted.Add(1)
		return resp
	}
	resp.Committed = true
	s.committed.Add(1)
	return resp
}

// run compiles p and prepares it as gid's branch of a cross-shard commit,
// waiting for the vote.  The results are nil when p did not compile.
func (s *Server) run(sess *engine.Session, p *plan.Plan, gid string, canceled *atomic.Bool) ([]plan.Result, error) {
	results := make([]plan.Result, p.NumOps())
	var hook func() bool
	if canceled != nil {
		hook = canceled.Load
	}
	ereq, finish, err := s.e.CompilePlan(p, results, hook)
	if err != nil {
		return nil, err
	}
	_, err = sess.ExecutePrepare(ereq, gid)
	finish()
	return results, err
}

// planResultsToWire converts per-op plan results to wire statement results,
// one per op in flat phase order.
func planResultsToWire(rs []plan.Result) []wire.StatementResult {
	out := make([]wire.StatementResult, len(rs))
	for i, r := range rs {
		out[i] = wire.StatementResult{Found: r.Found, Value: r.Value, Err: r.Err, Entries: r.Entries}
	}
	return out
}

// executeControl runs one control verb with its optional table argument:
// the "checkpoint" verb through the checkpoint handler, everything else
// through the attached control handler.
func (s *Server) executeControl(cmd, table string, cs session) wire.StatementResult {
	if cs.readOnly {
		return wire.StatementResult{Err: "read-only session: control refused"}
	}
	if !cs.authed {
		return wire.StatementResult{Err: "control requires an authenticated session (connect with the server's -token)"}
	}
	switch cmd {
	case "promote":
		return s.executePromote()
	case "repl status":
		return s.executeReplStatus()
	}
	if s.followerMode.Load() {
		// A follower's log must stay a byte-identical prefix of the
		// primary's, so every verb that could append locally (checkpoint,
		// repartition triggers) is refused until promotion.
		return wire.StatementResult{Err: fmt.Sprintf("%s: control verb %q refused — only \"promote\" and \"repl status\" run on a follower", wire.FollowerPrefix, cmd)}
	}
	if cmd == "checkpoint" {
		cp := s.checkpoint.Load()
		if cp == nil {
			return wire.StatementResult{Err: "server has no checkpoint handler (start plpd with -data-dir or -checkpoint-ms)"}
		}
		out, err := (*cp)()
		if err != nil {
			return wire.StatementResult{Err: err.Error()}
		}
		return wire.StatementResult{Found: true, Value: []byte(out)}
	}
	p := s.control.Load()
	if p == nil {
		return wire.StatementResult{Err: "server has no control handler (start plpd with -drp)"}
	}
	out, err := (*p).Control(cmd, table)
	if err != nil {
		return wire.StatementResult{Err: err.Error()}
	}
	return wire.StatementResult{Found: true, Value: []byte(out)}
}
