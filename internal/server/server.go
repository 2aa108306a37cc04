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
// A request is one pooled object, from the frame read to the reply's
// encoding.  The reader reads each frame's payload into one, decodes the
// plan into the same object (its byte fields alias the payload; table
// names are interned), and compiles it into the object's reusable
// engine.CompiledPlan; the results and the response live there too, and
// the engine's cancel hook and completion are bound to it once, when it is
// made.  The ownership rule: the frame payload and the plan decoded from it
// live until the reply is encoded.  The writer recycles the object right
// after encoding its response, so nothing may keep a slice of a plan's
// keys or values past the reply: the engine copies what it stores (pages,
// log records, the repartitioner's and advisor's histograms, the plan
// cache's shape keys), and the one transaction that outlives its request,
// a prepared branch of a cross-shard commit, runs on a copy of its plan.
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

// outMsg is one frame bound for the writer goroutine: a request whose
// response to encode, or a pre-encoded raw frame (streaming-scan chunks).
// Both are the writer's from hand-off on: a raw frame must be freshly
// allocated by the sender, and a request is recycled by the writer once
// its response is encoded.  final marks a request's last frame.
type outMsg struct {
	req   *request
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
	// One encode buffer serves every response frame of the connection: it
	// is copied into the buffered writer before the next frame, so reuse is
	// safe and steady-state encoding allocates nothing per reply.
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
			if !broken { // once broken, keep draining so admission goes on
				var err error
				if m.req != nil {
					if encBuf, err = wire.AppendResponseFrame(encBuf[:0], &m.req.resp); err == nil {
						_, err = bw.Write(encBuf)
					}
				} else {
					err = wire.WriteFrame(bw, m.raw)
				}
				if err != nil {
					fail()
				}
			}
			if m.req != nil {
				m.req.recycle()
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
	dec       wire.Decoder  // the reader's plan decoder
	scanFlows sync.Map      // request ID -> *scanFlow (open streams)

	// inflight maps the ID of every admitted request to the request, so
	// the reader can flip its cancel flag; imu guards it.
	imu      sync.Mutex
	inflight map[uint64]*request

	// sess submits the connection's non-blocking transactions, which may
	// share one session (engine.Session.Submit).  Requests that block take
	// a session of their own from idle.
	sess *engine.Session
	mu   sync.Mutex
	idle []*engine.Session
}

// request is one request frame and all it owns until its reply is
// encoded: the frame payload; the frame and plan decoded from it, whose
// byte fields alias the payload; the compiled plan; the results and the
// response; and the cancel flag, which the reader sets when a cancel frame
// names the request's ID.  Requests are pooled (requestPool): the reader
// takes one per frame, and the writer puts it back once the response is
// encoded.  A request's functions for the engine — its cancel hook and its
// completion — are bound once, when it is made.
type request struct {
	p        *pipeline
	id       uint64
	hasID    bool
	canceled atomic.Bool
	payload  []byte
	frame    wire.Frame
	plan     plan.Plan
	cp       engine.CompiledPlan
	results  []plan.Result
	resp     wire.Response
	start    time.Time       // the sampled latency start
	sess     *engine.Session // a blocking request's own session

	isCanceled func() bool                        // canceled.Load
	onDone     func(res engine.Result, err error) // txnComplete
}

// maxPooledPayload caps the payload buffer a recycled request keeps, so a
// rare huge frame does not stay pinned in the pool.
const maxPooledPayload = 64 << 10

var requestPool = sync.Pool{New: func() any {
	r := new(request)
	r.isCanceled = r.canceled.Load
	r.onDone = r.txnComplete
	return r
}}

// request takes a request from the pool for the next frame of p.
func (p *pipeline) request() *request {
	r := requestPool.Get().(*request)
	r.p = p
	r.canceled.Store(false)
	return r
}

// recycle drops the request's references to its last transaction's data
// and returns it to the pool.  Only the writer calls it, once the response
// is encoded (or a request that sends no response, once it is done).
func (r *request) recycle() {
	r.p, r.sess, r.id, r.hasID = nil, nil, 0, false
	r.frame = wire.Frame{}
	r.cp.Reset()
	clear(r.results)
	r.results = r.results[:0]
	r.resp = wire.Response{}
	if cap(r.payload) > maxPooledPayload {
		r.payload = nil
	}
	requestPool.Put(r)
}

// admit registers the request under its ID for cancels.
func (r *request) admit() {
	r.id, r.hasID = wire.RequestID(r.payload)
	if r.hasID {
		r.p.imu.Lock()
		r.p.inflight[r.id] = r
		r.p.imu.Unlock()
	}
}

// cancel flips the cancel flag of the in-flight request with the ID, if
// any, and wakes its stream.  A cancel for a request already answered (or
// never seen) is stale and does nothing.
func (p *pipeline) cancel(id uint64) {
	p.imu.Lock()
	if r := p.inflight[id]; r != nil {
		r.canceled.Store(true)
	}
	p.imu.Unlock()
	if fl, ok := p.scanFlows.Load(id); ok {
		fl.(*scanFlow).wake()
	}
}

// reply hands the request, with resp as its response, to the writer; from
// then on the writer owns the request.  It stops being cancelable first,
// and a blocking request's session goes back to the connection.
func (r *request) reply(resp *wire.Response) {
	if resp != &r.resp {
		r.resp = *resp
	}
	r.forget()
	if r.sess != nil {
		r.p.release(r.sess)
		r.sess = nil
	}
	r.p.out.reply(outMsg{req: r})
}

// forget deletes the request from inflight.  It deletes exactly this
// request: a client reusing a request ID makes a plain delete racy, since
// the older request's completion could reap the entry the reader just
// registered for the newer one, silently dropping a cancel aimed at it.
// Deleting under the lock the reader sets flags under also means no cancel
// touches the request once it has been handed on (and, later, reused).
func (r *request) forget() {
	if !r.hasID {
		return
	}
	p := r.p
	p.imu.Lock()
	if p.inflight[r.id] == r {
		delete(p.inflight, r.id)
	}
	p.imu.Unlock()
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
// a writer goroutine sends them in completion order.  Each frame is read
// straight into a pooled request.  The reader also intercepts cancel frames
// — they must not queue behind the very requests they cancel — and flips
// the named request's flag, which the executing transaction polls before
// every op.
func (s *Server) servePipelined(conn net.Conn, br *bufio.Reader, first []byte, cs session) {
	queue := s.ConnQueue
	if queue <= 0 {
		queue = DefaultConnQueue
	}
	p := &pipeline{s: s, cs: cs, out: newOutbox(queue), done: make(chan struct{}),
		inflight: make(map[uint64]*request), sess: s.e.NewSession()}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		p.out.writeLoop(conn)
	}()

	var r *request
	for {
		if r == nil {
			r = p.request()
		}
		if first != nil {
			r.payload = append(r.payload[:0], first...)
			first = nil
		} else {
			var err error
			if r.payload, err = wire.ReadFrameInto(br, r.payload); err != nil {
				r.recycle()
				break
			}
		}
		payload := r.payload
		if wire.IsScanAckFrame(payload) {
			// Scan credits are intercepted like cancels: they regulate
			// streams already running, so they must never queue behind
			// the very streams they pace.
			creditScan(&p.scanFlows, payload)
			continue
		}
		if len(payload) > 8 && wire.FrameKind(payload[8]) == wire.FrameCancel {
			// A cancel names an in-flight request by ID; the transaction
			// aborts at its next op boundary, and a canceled stream is
			// woken so a credit-stalled producer notices.
			if id, ok := wire.RequestID(payload); ok {
				p.cancel(id)
			}
			continue
		}
		p.out.admit()
		r.admit()
		s.start(r)
		r = nil
	}
	close(p.done) // unblock credit-stalled streams: their client is gone
	p.out.replies.Wait()
	p.out.close()
	<-writerDone
	for _, sess := range append(p.idle, p.sess) {
		sess.Close()
	}
}

// start runs one admitted request.  A plan that blocks nothing is decoded,
// compiled and submitted right here, on the reader; pings and shard-map
// queries are answered here too.  Every other request gets a goroutine of
// its own (see the package documentation).  Both kinds of plan take the
// same path from startTxn on, in the same request.
func (s *Server) start(r *request) {
	p := r.p
	var kind wire.FrameKind
	if len(r.payload) > 8 {
		kind = wire.FrameKind(r.payload[8])
	}
	switch kind {
	case wire.FramePlan:
		r.frame.Plan = &r.plan
		if err := p.dec.Decode(&r.frame, r.payload); err != nil {
			r.reply(decodeError(r.payload, err))
			return
		}
		s.requests.Add(1)
		if !s.blocks(r.frame.Plan) {
			s.startTxn(r, p.sess)
			return
		}
		go func() {
			r.sess = p.session()
			s.startTxn(r, r.sess)
		}()
		return
	case wire.FramePing, wire.FrameShardMap:
		r.reply(s.handleFrame(nil, r))
		return
	case wire.FrameScan:
		// A streaming scan emits its chunks itself until the stream ends;
		// its lo and hi bounds alias the payload until then.
		go func() {
			s.streamScan(r.payload, &r.canceled, p.out, &p.scanFlows, p.done)
			r.forget()
			r.recycle()
		}()
		return
	}
	go func() {
		r.sess = p.session()
		r.reply(s.handleFrame(r.sess, r))
	}()
}

// decodeError answers a frame that did not decode.  It still echoes the
// best-effort request ID so ID-matching clients stay in sync.
func decodeError(payload []byte, err error) *wire.Response {
	id, _ := wire.RequestID(payload)
	return &wire.Response{ID: id, Err: fmt.Sprintf("decode: %v", err)}
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

// handleFrame decodes and executes one request frame that is not a plan.
// sess is the request's own session (nil for the frames answered on the
// reader).
func (s *Server) handleFrame(sess *engine.Session, r *request) *wire.Response {
	f := &r.frame
	f.Plan = &r.plan
	if err := (*wire.Decoder)(nil).Decode(f, r.payload); err != nil {
		return decodeError(r.payload, err)
	}
	switch f.Kind {
	case wire.FramePing:
		s.requests.Add(1)
		s.committed.Add(1)
		return &wire.Response{ID: f.ID, Committed: true, Results: []wire.StatementResult{{Found: true, Value: f.Ping}}}
	case wire.FrameControl:
		s.requests.Add(1)
		s.committed.Add(1)
		return &wire.Response{ID: f.ID, Committed: true, Results: []wire.StatementResult{s.executeControl(f.Command, f.Table, r.p.cs)}}
	case wire.FrameShardMap:
		return s.executeShardMap(f.ID)
	case wire.FramePrepare:
		if s.followerMode.Load() {
			return &wire.Response{ID: f.ID, Err: wire.FollowerPrefix + ": prepare refused — follower nodes take no transaction branches"}
		}
		return s.executePrepare(sess, f, r.p.cs)
	case wire.FrameDecide:
		if s.followerMode.Load() {
			return &wire.Response{ID: f.ID, Err: wire.FollowerPrefix + ": decide refused — follower nodes take no transaction branches"}
		}
		return s.executeDecide(f, r.p.cs)
	default:
		// Plans start in start; cancels, streaming scans and their acks
		// are intercepted before handleFrame, and replication frames
		// belong to a subscription; one reaching here came over a
		// transport that should not produce it.
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

// startTxn is the one transaction path.  Every plan passes the same checks —
// session scope, replication role, cancellation, shard placement — before
// it is compiled into the request's CompiledPlan and submitted to the
// engine (or, when it spans shards, before the coordinator splits it into
// branches), and every abort is classified the same way.  The request is
// answered by its completion for a submitted plan, before startTxn returns
// otherwise; either way the caller must not touch r once startTxn has
// submitted or answered it.  startTxn blocks the calling goroutine only
// where blocks says it does.
func (s *Server) startTxn(r *request, sess *engine.Session) {
	r.start = latPlan.sampleStart()
	p, resp := r.frame.Plan, &r.resp
	*resp = wire.Response{ID: r.frame.ID}
	writes := p.Writes()
	if r.p.cs.readOnly && writes {
		r.answer(s.refuse(resp, "read-only session: write ops refused"))
		return
	}
	if s.followerMode.Load() {
		if writes {
			r.answer(s.followerRefusal(resp, wire.FollowerPrefix+": write ops refused — this node replicates a primary (write there, or promote this node)"))
			return
		}
		if s.seeding() {
			// Mid re-seed the engine was wiped and only partially rebuilt: a
			// read here could report "not found" for committed rows.
			r.answer(s.followerRefusal(resp, wire.FollowerPrefix+": reads refused — this follower is mid re-seed and not yet a consistent replica (read another member)"))
			return
		}
	}
	if r.canceled.Load() {
		r.answer(s.refuse(resp, engine.ErrPlanCanceled.Error()))
		return
	}
	if ss := s.sharding.Load(); ss != nil {
		m := ss.m.Load()
		switch foreign, spans := m.Placement(p, ss.self); {
		case spans:
			r.answer(s.executeCoordinated(sess, ss, m, p, resp, &r.canceled))
			return
		case foreign != ss.self:
			s.aborted.Add(1)
			r.answer(wrongShard(resp, m, foreign))
			return
		}
	}
	if len(p.Phases) == 0 {
		// An empty transaction commits without touching the engine.
		resp.Committed = true
		s.committed.Add(1)
		r.answer(resp)
		return
	}
	n := p.NumOps()
	if cap(r.results) < n {
		r.results = make([]plan.Result, n)
	}
	r.results = r.results[:n]
	if err := s.e.CompilePlanInto(&r.cp, p, r.results, r.isCanceled); err != nil {
		r.answer(s.txnDone(resp, nil, err))
		return
	}
	sess.Submit(r.cp.Request(), r.onDone)
}

// txnComplete is a submitted plan's completion.
func (r *request) txnComplete(_ engine.Result, err error) {
	r.cp.Finish()
	r.answer(r.p.s.txnDone(&r.resp, r.results, err))
}

// answer replies with a transaction's response and closes its latency
// sample.
func (r *request) answer(resp *wire.Response) {
	latPlan.observe(r.start)
	r.reply(resp)
}

// txnDone fills resp with a finished transaction's results and outcome.
func (s *Server) txnDone(resp *wire.Response, results []plan.Result, err error) *wire.Response {
	resp.Results = results
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
// waiting for the vote.  The results are nil when p did not compile.  A
// prepared branch outlives the request that carried it — its undo and, on
// a participant, its locks wait for the decision — so it runs on a copy of
// p's byte fields, not on the frame payload the request recycles.
func (s *Server) run(sess *engine.Session, p *plan.Plan, gid string, canceled *atomic.Bool) ([]plan.Result, error) {
	p = clonePlan(p)
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

// clonePlan copies p with every op's byte fields copied too.  Names are
// strings, already immutable, and decoded filters own their arguments.
func clonePlan(p *plan.Plan) *plan.Plan {
	n := p.NumOps()
	size := 0
	for _, ph := range p.Phases {
		for i := range ph {
			op := &ph[i]
			size += len(op.Key) + len(op.Value) + len(op.KeyEnd) + len(op.CondValue) + len(op.MutArg)
		}
	}
	buf := make([]byte, 0, size)
	clone := func(b []byte) []byte {
		if b == nil {
			return nil
		}
		buf = append(buf, b...)
		return buf[len(buf)-len(b) : len(buf) : len(buf)]
	}
	ops := make([]plan.Op, 0, n)
	out := &plan.Plan{Phases: make([][]plan.Op, len(p.Phases))}
	for pi, ph := range p.Phases {
		start := len(ops)
		for i := range ph {
			op := ph[i]
			op.Key, op.Value, op.KeyEnd = clone(op.Key), clone(op.Value), clone(op.KeyEnd)
			op.CondValue, op.MutArg = clone(op.CondValue), clone(op.MutArg)
			ops = append(ops, op)
		}
		out.Phases[pi] = ops[start:len(ops):len(ops)]
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
