// Package client is the Go client for a PLP server (cmd/plpd).
//
// A Client holds one TCP connection.  Dial performs the wire-protocol
// handshake (protocol version plus optional token authentication) and
// starts an asynchronous core: a reader goroutine matches response frames
// to in-flight requests by ID, so any number of goroutines can keep
// requests pipelined on the same connection.  DoAsync submits a
// transaction and returns a Future; DoContext (and every *Context helper)
// blocks on the future honouring the context's deadline or cancellation;
// the plain helpers (Get, Insert, Do, ...) are the same calls with
// context.Background(), so existing callers keep working unchanged.
//
//	c, err := client.Dial("localhost:7070")
//	defer c.Close()
//
//	err = c.Insert("accounts", client.Uint64Key(42), []byte("hello"))
//	val, err := c.Get("accounts", client.Uint64Key(42))
//
//	// Multi-statement transaction (built into a plan, sent as one frame):
//	txn := client.NewTxn().
//		Upsert("accounts", client.Uint64Key(1), []byte("a")).
//		Upsert("accounts", client.Uint64Key(2), []byte("b"))
//	resp, err := c.Do(txn)
//
//	// Pipelining: keep many transactions in flight on one connection.
//	futures := make([]*client.Future, 0, 64)
//	for i := 0; i < 64; i++ {
//		futures = append(futures, c.DoAsync(ctx, client.NewTxn().
//			Upsert("accounts", client.Uint64Key(uint64(i)), []byte("v"))))
//	}
//	for _, f := range futures {
//		if _, err := f.Wait(ctx); err != nil { ... }
//	}
//
//	// Declarative plan: a dependent multi-phase transaction — secondary
//	// probe feeding a routed update — in ONE round trip.
//	b := client.NewPlan()
//	probe := b.LookupSecondary("subscribers", "sub_nbr", secKey).Ref()
//	b.Then().Update("subscribers", nil, newLocation).KeyFrom(probe)
//	results, err := c.DoPlan(b.MustBuild())
//
// Every transaction travels as a plan (package plan): Txn is a builder that
// packs its statements into plan phases, and DoPlan sends a plan built
// directly.  Pings and control verbs have frames of their own.
//
// Cancelling a context abandons the in-flight request (its eventual
// response is discarded) but leaves the connection usable; a transport
// error fails every in-flight request and poisons the client.
package client

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plp/keys"
	"plp/plan"
	"plp/wire"
)

// Errors returned by the client.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("client: closed")
	// ErrAborted is returned when the server aborted the transaction.
	ErrAborted = errors.New("client: transaction aborted")
	// ErrTransient wraps aborts the server tagged as timing-dependent
	// (deadlock-avoidance lock timeouts): retrying the identical request
	// has a fair chance of succeeding.  Test with IsTransient.
	ErrTransient = errors.New("transient")
	// ErrNotFound is returned by Get-style helpers when the key is missing.
	ErrNotFound = errors.New("client: key not found")
	// ErrAuth is returned by Dial when the server refused the token.
	ErrAuth = errors.New("client: authentication failed")
)

// IsTransient reports whether an error is an abort the server tagged as
// transient (the response's retry hint): the caller may retry the identical
// request.  Aborts without a hint report false, so callers treat them as
// permanent, the safe default.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// IsFollowerRefusal reports whether an error means the server is a
// replication follower refusing a write, control verb or transaction
// branch.  Reads still work there; a caller holding the primary's address
// should redirect the refused request (or promote the follower if the
// primary is gone).  It understands the wrapped errors this package
// returns — aborts and control failures carry the server's message.
func IsFollowerRefusal(err error) bool {
	return err != nil && strings.Contains(err.Error(), wire.FollowerPrefix+":")
}

// Uint64Key encodes a uint64 in the engine's order-preserving big-endian
// key format.  It is the shared encoding of package keys, so client keys
// sort and partition exactly as server-side keys do.
func Uint64Key(v uint64) []byte { return keys.Uint64(v) }

// Txn builds a transaction statement by statement.  Each statement becomes
// a plan op as it is added, packed greedily into phases: a statement that
// touches a table+key already in the current phase starts a new phase, so
// the client-visible statement order holds while independent statements
// execute in parallel on different partitions.  A GetBySecondary is the
// paper's pattern for non-partition-aligned indexes: a LookupSecondary
// phase probes the (latched, conventional) secondary index, then a Get
// bound to the probe's result is routed to the partition owning the primary
// key it returned.  The response still carries one result per statement.
type Txn struct {
	p    plan.Plan
	open bool // the last phase takes more ops
	scan bool // a scan was added
	// probes lists, ascending, the flat op index of each GetBySecondary's
	// probe; its bound Get is the next op, and the two share one result.
	probes []int
	// The first phase and its first op live in the Txn itself, so a
	// one-statement transaction is one allocation.
	phase0 [1][]plan.Op
	op0    [1]plan.Op
}

// NewTxn returns an empty transaction builder.
func NewTxn() *Txn { return &Txn{} }

// add appends one statement's op to the open phase, or to a new one when
// the open phase already touches the op's table+key.
func (t *Txn) add(op plan.Op) *Txn {
	last := len(t.p.Phases) - 1
	if t.open {
		for i := range t.p.Phases[last] {
			if o := &t.p.Phases[last][i]; o.Table == op.Table && bytes.Equal(o.Key, op.Key) {
				t.open = false
				break
			}
		}
	}
	if !t.open {
		if t.p.Phases == nil {
			t.p.Phases = t.phase0[:0]
		}
		t.p.Phases = append(t.p.Phases, nil)
		t.open = true
		last++
		if last == 0 {
			t.p.Phases[0] = t.op0[:0]
		}
	}
	t.p.Phases[last] = append(t.p.Phases[last], op)
	return t
}

// Get appends a read of key.
func (t *Txn) Get(table string, key []byte) *Txn {
	return t.add(plan.Op{Kind: plan.Get, Table: table, Key: key})
}

// Insert appends an insert.
func (t *Txn) Insert(table string, key, value []byte) *Txn {
	return t.add(plan.Op{Kind: plan.Insert, Table: table, Key: key, Value: value})
}

// Update appends an update of an existing record.
func (t *Txn) Update(table string, key, value []byte) *Txn {
	return t.add(plan.Op{Kind: plan.Update, Table: table, Key: key, Value: value})
}

// Upsert appends an insert-or-update.
func (t *Txn) Upsert(table string, key, value []byte) *Txn {
	return t.add(plan.Op{Kind: plan.Upsert, Table: table, Key: key, Value: value})
}

// Delete appends a delete.
func (t *Txn) Delete(table string, key []byte) *Txn {
	return t.add(plan.Op{Kind: plan.Delete, Table: table, Key: key})
}

// GetBySecondary appends a read through the named secondary index: a probe
// phase, then a phase reading the primary key the probe found.
func (t *Txn) GetBySecondary(table, index string, secKey []byte) *Txn {
	probe := t.p.NumOps()
	t.probes = append(t.probes, probe)
	t.p.Phases = append(t.p.Phases,
		[]plan.Op{{Kind: plan.LookupSecondary, Table: table, Index: index, Key: secKey}},
		[]plan.Op{{Kind: plan.Get, Table: table, KeyFrom: int32(probe) + 1}})
	t.open = false
	return t
}

// InsertSecondary appends a secondary-index entry insert.
func (t *Txn) InsertSecondary(table, index string, secKey, primaryKey []byte) *Txn {
	return t.add(plan.Op{Kind: plan.InsertSecondary, Table: table, Index: index, Key: secKey, Value: primaryKey})
}

// DeleteSecondary appends a secondary-index entry delete.
func (t *Txn) DeleteSecondary(table, index string, secKey []byte) *Txn {
	return t.add(plan.Op{Kind: plan.DeleteSecondary, Table: table, Index: index, Key: secKey})
}

// Scan appends a bounded range scan of [lo, hi) — nil hi scans to the end —
// returning at most limit records (0 selects the server default).  A scan
// must be the only statement of its transaction; build a plan to mix scans
// with other ops.
func (t *Txn) Scan(table string, lo, hi []byte, limit int) *Txn {
	t.scan = true
	return t.add(plan.Op{Kind: plan.Scan, Table: table, Key: lo, KeyEnd: hi, Limit: uint32(max(limit, 0))})
}

// Len returns the number of statements added so far.
func (t *Txn) Len() int { return t.p.NumOps() - len(t.probes) }

// collapse folds a response's per-op results into one per statement.  The
// two ops of a GetBySecondary share a result: the probe's stands when the
// probe missed or failed, otherwise the bound read's replaces it.  Results
// that are not one per op (a refusal carrying the shard map, or none at
// all) are left as they are.
func (t *Txn) collapse(rs []wire.StatementResult) []wire.StatementResult {
	if len(t.probes) == 0 || len(rs) != t.p.NumOps() {
		return rs
	}
	out, next := rs[:0], 0
	for i := 0; i < len(rs); i++ {
		r := rs[i]
		if next < len(t.probes) && t.probes[next] == i {
			next++
			i++
			if r.Found && r.Err == "" {
				r = rs[i]
			}
		}
		out = append(out, r)
	}
	return out
}

// Future is one in-flight request.  It completes exactly once: with the
// server's response, with a transport error, or with the cancellation
// error of the context that abandoned it.  The response is decoded into
// storage the Future holds, so a small reply costs the client no
// allocation beyond the Future itself.
type Future struct {
	id  uint64
	txn *Txn // folds per-op results into per-statement ones (nil: none)

	wg    sync.WaitGroup // released by complete
	mu    sync.Mutex     // guards done and fired
	done  chan struct{}  // made by the first Done call
	fired bool           // complete has run

	resp *wire.Response // &r once the response has arrived
	err  error

	// The response is decoded into r, its results into results while they
	// fit, and its frame copied into inline while it fits.
	r       wire.Response
	results [2]wire.StatementResult
	inline  [160]byte
}

// newFuture returns an uncompleted future.
func newFuture(t *Txn) *Future {
	f := &Future{txn: t}
	f.wg.Add(1)
	return f
}

// Done returns a channel closed when the future completes.
func (f *Future) Done() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done == nil {
		f.done = make(chan struct{})
		if f.fired {
			close(f.done)
		}
	}
	return f.done
}

// Result blocks until the future completes and returns the response.
// Aborted transactions return the response together with ErrAborted.
func (f *Future) Result() (*wire.Response, error) {
	f.wg.Wait()
	if f.err != nil {
		return nil, f.err
	}
	if !f.resp.Committed {
		if f.resp.Retry == wire.RetryTransient {
			return f.resp, fmt.Errorf("%w (%w): %s", ErrAborted, ErrTransient, f.resp.Err)
		}
		return f.resp, fmt.Errorf("%w: %s", ErrAborted, f.resp.Err)
	}
	return f.resp, nil
}

// decode copies a response frame into the future's storage and decodes it
// there.  Only the client's reader calls it, before completing the future.
func (f *Future) decode(payload []byte) error {
	buf := f.inline[:0]
	if len(payload) > len(f.inline) {
		buf = make([]byte, 0, len(payload))
	}
	buf = append(buf, payload...)
	f.r.Results = f.results[:0]
	return wire.DecodeResponseInto(&f.r, buf)
}

// complete resolves the future.  Callers must guarantee exactly-once (the
// client does, by removing the future from its pending map first).
func (f *Future) complete(resp *wire.Response, err error) {
	if f.txn != nil && resp != nil {
		resp.Results = f.txn.collapse(resp.Results)
	}
	f.resp, f.err = resp, err
	f.mu.Lock()
	f.fired = true
	if f.done != nil {
		close(f.done)
	}
	f.mu.Unlock()
	f.wg.Done()
}

// failed returns a future already completed with err.
func failed(err error) *Future {
	f := newFuture(nil)
	f.complete(nil, err)
	return f
}

// DialOptions configures DialContext.
type DialOptions struct {
	// Token is presented during the handshake; the matching server token
	// authenticates the session for control verbs.
	Token string
	// Timeout bounds the TCP dial and the handshake round trip (0 means
	// 10s).
	Timeout time.Duration
	// TLSConfig, when non-nil, wraps the connection in TLS before the
	// protocol handshake (the server must listen with -tls-cert/-tls-key).
	TLSConfig *tls.Config
	// RetryPolicy, when non-nil, makes DoContext/DoPlanContext transparently
	// retry transactions the server aborted with a transient hint
	// (IsTransient): deadlock-avoidance timeouts that a re-run at a
	// different instant usually dodges.  Only whole-transaction aborts are
	// retried — the failed attempt committed nothing — never transport
	// errors, whose outcome is unknown.
	RetryPolicy *RetryPolicy
}

// RetryPolicy bounds the client's automatic retries of transient aborts.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (values < 2 disable retrying).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 2ms); each
	// further retry doubles it, up to MaxDelay (default 100ms).  The actual
	// sleep is uniformly jittered in [delay/2, delay) so colliding
	// transactions don't re-collide in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// backoff returns the jittered sleep before retry attempt (1-based).
func (p *RetryPolicy) backoff(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 100 * time.Millisecond
	}
	d := base << (attempt - 1)
	if d > maxd || d <= 0 {
		d = maxd
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Client is a connection to a PLP server.
type Client struct {
	conn     net.Conn
	br       *bufio.Reader
	authed   bool
	readOnly bool
	retry    *RetryPolicy

	// Outgoing frames are appended, encoded, to wbuf, the pending write
	// buffer, under wmu; a writer goroutine woken through wready takes the
	// whole buffer and sends it in one write, after yielding once first if
	// another request is unanswered (see writeLoop), so under pipelining
	// many requests leave in a single syscall.  A submitter that finds
	// maxPendingWrite bytes unsent waits on wroom until the writer takes
	// them, or until wquit reports the writer gone.
	wmu        sync.Mutex
	wroom      sync.Cond // on wmu
	wquit      bool
	wbuf       []byte
	wready     chan struct{}
	writerQuit chan struct{}
	quitOnce   sync.Once

	mu      sync.Mutex
	pending map[uint64]*Future
	streams map[uint64]chan *wire.ScanChunk // open streaming scans by ID
	nextID  uint64
	closed  bool
	broken  error // first transport error; poisons the client
	// unanswered mirrors len(pending)+len(streams), stored under mu at
	// every change, so writeLoop reads it without taking mu.
	unanswered atomic.Int64

	readerDone chan struct{}
}

// Dial connects to a PLP server and performs the protocol handshake.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr, nil)
}

// DialTimeout connects with an explicit dial timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return DialContext(context.Background(), addr, &DialOptions{Timeout: timeout})
}

// DialContext connects, performs the protocol handshake and starts the
// client's reader goroutine.  The context bounds the whole connection
// setup.
func DialContext(ctx context.Context, addr string, opts *DialOptions) (*Client, error) {
	var o DialOptions
	if opts != nil {
		o = *opts
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	dctx, cancel := context.WithTimeout(ctx, o.Timeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if o.TLSConfig != nil {
		cfg := o.TLSConfig
		if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
			// Fill the verification name from the dial address so one
			// config serves every member of a cluster.
			if host, _, err := net.SplitHostPort(addr); err == nil {
				cfg = cfg.Clone()
				cfg.ServerName = host
			}
		}
		tconn := tls.Client(conn, cfg)
		if err := tconn.HandshakeContext(dctx); err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("client: tls: %w", err)
		}
		conn = tconn
	}
	c := &Client{
		conn:       conn,
		retry:      o.RetryPolicy,
		br:         bufio.NewReaderSize(conn, 64<<10),
		wready:     make(chan struct{}, 1),
		writerQuit: make(chan struct{}),
		pending:    make(map[uint64]*Future),
		streams:    make(map[uint64]chan *wire.ScanChunk),
		readerDone: make(chan struct{}),
	}
	c.wroom.L = &c.wmu
	if err := c.handshake(dctx, &o); err != nil {
		_ = conn.Close()
		return nil, err
	}
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// handshake sends the HELLO and interprets the server's HELLO-ACK.
func (c *Client) handshake(ctx context.Context, o *DialOptions) error {
	if dl, ok := ctx.Deadline(); ok {
		_ = c.conn.SetDeadline(dl)
		defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	}
	hello := &wire.Hello{MaxVersion: wire.Version, Token: []byte(o.Token)}
	if err := wire.WriteFrame(c.conn, wire.EncodeHello(hello)); err != nil {
		return err
	}
	payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return fmt.Errorf("client: handshake: %w", err)
	}
	ack, err := wire.DecodeHelloAck(payload)
	if err != nil {
		return fmt.Errorf("client: handshake: %w", err)
	}
	if ack.Err != "" {
		if o.Token != "" {
			return fmt.Errorf("%w: %s", ErrAuth, ack.Err)
		}
		return fmt.Errorf("client: handshake refused: %s", ack.Err)
	}
	if ack.Version != wire.Version {
		return fmt.Errorf("client: handshake: server speaks protocol v%d, need v%d", ack.Version, wire.Version)
	}
	c.authed = ack.Authenticated
	c.readOnly = ack.ReadOnly
	return nil
}

// Authenticated reports whether the handshake authenticated the session
// for control commands.
func (c *Client) Authenticated() bool { return c.authed }

// ReadOnly reports whether the session is scoped read-only (the token
// presented at the handshake matched the server's read-only token): write
// ops and control verbs will be refused server-side.
func (c *Client) ReadOnly() bool { return c.readOnly }

// writeLoop sends the pending write buffer whenever a submitter wakes it.
// Before taking the buffer, with a request unanswered besides the newest,
// it yields once (runtime.Gosched): callers already runnable append their
// frames meanwhile, and those leave in the same write(2).  A connection
// with one request in flight sends every frame at once; the yield is one
// scheduler pass, so no frame waits for a slower request.  Two buffers
// alternate, so steady-state sending allocates nothing.
func (c *Client) writeLoop() {
	var spare []byte
	for {
		select {
		case <-c.wready:
		case <-c.writerQuit:
			return
		}
		if c.unanswered.Load() > 1 {
			runtime.Gosched()
		}
		c.wmu.Lock()
		batch := c.wbuf
		c.wbuf = spare[:0]
		c.wmu.Unlock()
		c.wroom.Broadcast()
		if len(batch) > 0 {
			if _, err := c.conn.Write(batch); err != nil {
				c.fail(err)
				return
			}
		}
		spare = batch
		if cap(spare) > maxSpareWriteBuf {
			spare = nil // a burst's buffer is not kept for the quiet after it
		}
	}
}

// maxSpareWriteBuf caps the sent buffer the writer keeps for reuse.
const maxSpareWriteBuf = 1 << 20

// maxPendingWrite bounds the pending write buffer.  A submitter that finds
// this many bytes unsent waits for the writer to take them, so a caller
// pipelining against a server that has stopped reading blocks, as it would
// on a full socket, instead of growing the buffer (and the pending map)
// without limit.  One frame may still take the buffer past the bound.
const maxPendingWrite = 1 << 20

// waitRoomLocked waits, holding c.wmu, until the pending write buffer is
// under maxPendingWrite, and reports false instead once the writer has quit
// (fail() completes, or will complete, every pending future).
func (c *Client) waitRoomLocked() bool {
	for len(c.wbuf) >= maxPendingWrite && !c.wquit {
		c.wroom.Wait()
	}
	return !c.wquit
}

// wake tells the writer the pending buffer holds frames.
func (c *Client) wake() {
	select {
	case c.wready <- struct{}{}:
	default:
	}
}

// countLocked refreshes unanswered after pending or streams changed; the
// caller holds c.mu.
func (c *Client) countLocked() {
	c.unanswered.Store(int64(len(c.pending) + len(c.streams)))
}

// readLoop matches response frames to pending futures by request ID.  Each
// frame is read into one reused buffer; a response is decoded into its
// future's own storage, and a scan chunk, which its stream consumer keeps,
// into a copy.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	var buf []byte
	var stray wire.Response // decodes responses nobody waits for
	for {
		payload, err := wire.ReadFrameInto(c.br, buf)
		buf = payload[:0]
		if err != nil {
			c.fail(err)
			return
		}
		if wire.IsScanChunk(payload) {
			// A streaming-scan chunk: route it to its stream's channel.
			chunk, err := wire.DecodeScanChunk(bytes.Clone(payload))
			if err != nil {
				c.fail(fmt.Errorf("client: bad scan chunk: %w", err))
				return
			}
			c.mu.Lock()
			ch := c.streams[chunk.ID]
			overflow := false
			if ch != nil {
				select {
				case ch <- chunk:
				default:
					overflow = true
				}
			}
			c.mu.Unlock()
			if overflow {
				// The server overran the credit window it agreed to; the
				// stream's framing can no longer be trusted.
				c.fail(fmt.Errorf("client: scan stream %d overran its flow-control window", chunk.ID))
				return
			}
			// A chunk without a stream belongs to an abandoned scan: drop it.
			continue
		}
		id, _ := wire.RequestID(payload)
		c.mu.Lock()
		f := c.pending[id]
		delete(c.pending, id)
		c.countLocked()
		c.mu.Unlock()
		if f == nil {
			// A response to an abandoned (cancelled) request: check it
			// and drop it.
			err = wire.DecodeResponseInto(&stray, payload)
		} else {
			err = f.decode(payload)
		}
		if err != nil {
			err = fmt.Errorf("client: bad response frame: %w", err)
			if f != nil {
				f.complete(nil, err)
			}
			c.fail(err)
			return
		}
		if f != nil {
			f.complete(&f.r, nil)
		}
	}
}

// fail poisons the client with a transport error and completes every
// in-flight future.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		err = ErrClosed
	}
	if c.broken == nil {
		c.broken = err
	} else {
		err = c.broken
	}
	pend := c.pending
	c.pending = make(map[uint64]*Future)
	streams := c.streams
	c.streams = make(map[uint64]chan *wire.ScanChunk)
	c.countLocked()
	c.mu.Unlock()
	c.quitOnce.Do(func() { close(c.writerQuit) })
	c.wmu.Lock()
	c.wquit = true
	c.wmu.Unlock()
	c.wroom.Broadcast() // submitters waiting for room give up
	_ = c.conn.Close()
	for _, f := range pend {
		f.complete(nil, err)
	}
	for _, ch := range streams {
		close(ch) // consumers read the nil chunk as a transport failure
	}
}

// Close terminates the connection, failing any in-flight requests with
// ErrClosed.  It is safe to call more than once.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone // the reader fails remaining futures with ErrClosed
	return err
}

// DoAsync submits the transaction as one plan frame and returns its Future
// without waiting for the response.  The context only gates submission (a
// context already cancelled fails the future immediately); use Future.Wait
// to bound the wait for the response.  A scan sent with other statements
// fails the future without reaching the server.
func (c *Client) DoAsync(ctx context.Context, t *Txn) *Future {
	if t.scan && t.Len() > 1 {
		return failed(fmt.Errorf("%w: scan statements must be sent alone, not inside a transaction", ErrAborted))
	}
	return c.submitPlan(ctx, t, &t.p)
}

// DoPlanAsync submits a declarative plan (package plan) as one transaction
// in one frame and returns its Future.
func (c *Client) DoPlanAsync(ctx context.Context, p *plan.Plan) *Future {
	if err := p.Validate(); err != nil {
		return failed(err)
	}
	return c.submitPlan(ctx, nil, p)
}

// submitPlan registers a future and appends p's frame straight to the
// pending write buffer.  A non-nil t folds the response's results into one
// per statement.
func (c *Client) submitPlan(ctx context.Context, t *Txn, p *plan.Plan) *Future {
	f := c.register(ctx, t)
	if f.id == 0 {
		return f
	}
	c.wmu.Lock()
	if !c.waitRoomLocked() {
		c.wmu.Unlock()
		return f
	}
	var err error
	c.wbuf, err = wire.AppendPlanFrame(c.wbuf, f.id, p)
	c.wmu.Unlock()
	if err != nil {
		// Too large to send: fail this request, not the connection.
		if c.abandon(f) {
			f.complete(nil, err)
		}
		return f
	}
	c.wake()
	return f
}

// submitAsync registers a future and enqueues the frame encode(id) builds.
// A non-nil t folds the response's results into one per statement.
func (c *Client) submitAsync(ctx context.Context, t *Txn, encode func(id uint64) []byte) *Future {
	f := c.register(ctx, t)
	if f.id != 0 {
		c.enqueue(encode(f.id))
	}
	return f
}

// register makes the future of one request and gives it the next request
// ID, registering it as pending; a future that cannot be sent comes back
// completed, with ID 0.
func (c *Client) register(ctx context.Context, t *Txn) *Future {
	f := newFuture(t)
	if err := ctx.Err(); err != nil {
		f.complete(nil, err)
		return f
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		f.complete(nil, ErrClosed)
		return f
	}
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		f.complete(nil, err)
		return f
	}
	c.nextID++
	f.id = c.nextID
	c.pending[f.id] = f
	c.countLocked()
	c.mu.Unlock()
	return f
}

// enqueue appends one frame holding payload to the pending write buffer,
// waiting for room, and wakes the writer.  A payload too large to frame
// poisons the client, as a failed write would.  After a transport failure
// the frame is simply never sent: fail() has already completed (or will
// complete) its future.
func (c *Client) enqueue(payload []byte) {
	c.wmu.Lock()
	if !c.waitRoomLocked() {
		c.wmu.Unlock()
		return
	}
	var err error
	c.wbuf, err = wire.AppendFrame(c.wbuf, payload)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
		return
	}
	c.wake()
}

// Wait blocks until the future completes or the context is done.  A context
// cancellation abandons the request — its eventual response is discarded —
// but leaves the connection usable for other requests.
func (f *Future) Wait(ctx context.Context) (*wire.Response, error) {
	if ctx.Done() == nil { // e.g. context.Background(): plain receive, no select
		return f.Result()
	}
	select {
	case <-f.Done():
		return f.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// abandon detaches the future after a cancellation so its response slot is
// forgotten, and reports whether it was still pending.
func (c *Client) abandon(f *Future) bool {
	c.mu.Lock()
	pending := c.pending[f.id] == f
	if pending {
		delete(c.pending, f.id)
		c.countLocked()
	}
	c.mu.Unlock()
	return pending
}

// cancelInFlight abandons the future and sends a best-effort cancel frame
// so the server aborts the request's transaction instead of completing it
// for nobody.
func (c *Client) cancelInFlight(f *Future) {
	c.abandon(f)
	c.enqueue(wire.EncodeCancelRequest(f.id))
}

// DoContext executes the transaction and returns the server's response,
// honouring the context.  The returned error is non-nil for transport
// failures, cancellations, and aborted transactions (ErrAborted, with the
// server's message appended).  A cancellation also sends a cancel frame
// aborting the server-side transaction.  With a RetryPolicy installed,
// transient aborts are retried under jittered backoff before the error
// surfaces.
func (c *Client) DoContext(ctx context.Context, t *Txn) (*wire.Response, error) {
	return c.do(ctx, func() *Future { return c.DoAsync(ctx, t) })
}

// do submits a request and waits for it, cancelling it server-side when the
// context ends first, and re-submits transient aborts as the retry policy
// allows.
func (c *Client) do(ctx context.Context, submit func() *Future) (*wire.Response, error) {
	for attempt := 1; ; attempt++ {
		f := submit()
		resp, err := f.Wait(ctx)
		if err != nil && errors.Is(err, ctx.Err()) && ctx.Err() != nil {
			c.cancelInFlight(f)
		}
		if !c.shouldRetry(ctx, err, attempt) || !c.backoffWait(ctx, attempt) {
			return resp, err
		}
	}
}

// shouldRetry reports whether the retry policy allows re-running a request
// that failed with err on the given attempt (1-based count of completed
// tries).
func (c *Client) shouldRetry(ctx context.Context, err error, attempt int) bool {
	return c.retry != nil && attempt < c.retry.MaxAttempts &&
		IsTransient(err) && ctx.Err() == nil
}

// backoffWait sleeps the policy's jittered backoff, honouring the context.
func (c *Client) backoffWait(ctx context.Context, attempt int) bool {
	timer := time.NewTimer(c.retry.backoff(attempt))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Do executes the transaction with no deadline; see DoContext.
func (c *Client) Do(t *Txn) (*wire.Response, error) {
	return c.DoContext(context.Background(), t)
}

// NewPlan returns a declarative plan builder (package plan): phases of
// typed ops with bindings, executed server-side as one transaction in one
// round trip.  The same builder drives the in-process ExecutePlan API.
func NewPlan() *plan.Builder { return plan.New() }

// DoPlanContext executes a declarative plan as one transaction in one round
// trip and returns the per-op results, indexed flat in phase order.
// Aborted plans return the results (whose Err fields name the failing ops)
// together with ErrAborted.
func (c *Client) DoPlanContext(ctx context.Context, p *plan.Plan) ([]plan.Result, error) {
	resp, err := c.do(ctx, func() *Future { return c.DoPlanAsync(ctx, p) })
	if resp == nil {
		return nil, err
	}
	return planResultsFromWire(resp), err
}

// DoPlan executes a declarative plan with no deadline; see DoPlanContext.
func (c *Client) DoPlan(p *plan.Plan) ([]plan.Result, error) {
	return c.DoPlanContext(context.Background(), p)
}

// planResultsFromWire converts a response's statement results back to
// per-op plan results.
func planResultsFromWire(resp *wire.Response) []plan.Result {
	out := make([]plan.Result, len(resp.Results))
	for i, r := range resp.Results {
		pr := plan.Result{Found: r.Found, Value: r.Value, Err: r.Err}
		if len(r.Entries) > 0 {
			pr.Entries = make([]plan.Entry, len(r.Entries))
			for j, e := range r.Entries {
				pr.Entries[j] = plan.Entry{Key: e.Key, Value: e.Value}
			}
		}
		out[i] = pr
	}
	return out
}

// Ping checks connectivity; the server echoes the payload.
func (c *Client) Ping(payload []byte) error { return c.PingContext(context.Background(), payload) }

// PingContext checks connectivity under a context.
func (c *Client) PingContext(ctx context.Context, payload []byte) error {
	resp, err := c.do(ctx, func() *Future {
		return c.submitAsync(ctx, nil, func(id uint64) []byte { return wire.EncodePingRequest(id, payload) })
	})
	if err != nil {
		return err
	}
	if len(resp.Results) != 1 || string(resp.Results[0].Value) != string(payload) {
		return fmt.Errorf("client: ping echo mismatch")
	}
	return nil
}

// Get reads one record.  A missing key returns ErrNotFound.
func (c *Client) Get(table string, key []byte) ([]byte, error) {
	return c.GetContext(context.Background(), table, key)
}

// GetContext reads one record under a context.
func (c *Client) GetContext(ctx context.Context, table string, key []byte) ([]byte, error) {
	resp, err := c.DoContext(ctx, NewTxn().Get(table, key))
	if err != nil {
		return nil, err
	}
	res := resp.Results[0]
	if !res.Found {
		return nil, fmt.Errorf("%w: %s/%x", ErrNotFound, table, key)
	}
	return res.Value, nil
}

// GetBySecondary reads one record through a secondary index.
func (c *Client) GetBySecondary(table, index string, secKey []byte) ([]byte, error) {
	return c.GetBySecondaryContext(context.Background(), table, index, secKey)
}

// GetBySecondaryContext reads through a secondary index under a context.
func (c *Client) GetBySecondaryContext(ctx context.Context, table, index string, secKey []byte) ([]byte, error) {
	resp, err := c.DoContext(ctx, NewTxn().GetBySecondary(table, index, secKey))
	if err != nil {
		return nil, err
	}
	res := resp.Results[0]
	if !res.Found {
		return nil, fmt.Errorf("%w: %s.%s/%x", ErrNotFound, table, index, secKey)
	}
	return res.Value, nil
}

// Insert adds one record.
func (c *Client) Insert(table string, key, value []byte) error {
	_, err := c.Do(NewTxn().Insert(table, key, value))
	return err
}

// Update overwrites one record.
func (c *Client) Update(table string, key, value []byte) error {
	_, err := c.Do(NewTxn().Update(table, key, value))
	return err
}

// Upsert inserts or overwrites one record.
func (c *Client) Upsert(table string, key, value []byte) error {
	_, err := c.Do(NewTxn().Upsert(table, key, value))
	return err
}

// Delete removes one record.
func (c *Client) Delete(table string, key []byte) error {
	_, err := c.Do(NewTxn().Delete(table, key))
	return err
}

// DeleteSecondary removes one secondary-index entry.
func (c *Client) DeleteSecondary(table, index string, secKey []byte) error {
	_, err := c.Do(NewTxn().DeleteSecondary(table, index, secKey))
	return err
}

// Scan returns at most limit records of [lo, hi) in key order.  A nil hi
// scans to the end of the table; limit 0 selects the server default.
func (c *Client) Scan(table string, lo, hi []byte, limit int) ([]wire.ScanEntry, error) {
	return c.ScanContext(context.Background(), table, lo, hi, limit)
}

// ScanContext runs a bounded range scan under a context.
func (c *Client) ScanContext(ctx context.Context, table string, lo, hi []byte, limit int) ([]wire.ScanEntry, error) {
	resp, err := c.DoContext(ctx, NewTxn().Scan(table, lo, hi, limit))
	if err != nil {
		return nil, err
	}
	return resp.Results[0].Entries, nil
}

// Control executes one administrative command on the server (the plpctl
// verbs, e.g. "status", "trigger", "shares", "checkpoint") in a control
// frame of its own and returns its text output.
// table is the optional table argument ("" when the command takes none).
// On a token-protected server control requires the session to have
// authenticated with DialOptions.Token.
func (c *Client) Control(cmd, table string) (string, error) {
	return c.ControlContext(context.Background(), cmd, table)
}

// ControlContext executes one administrative command under a context.
func (c *Client) ControlContext(ctx context.Context, cmd, table string) (string, error) {
	resp, err := c.do(ctx, func() *Future {
		return c.submitAsync(ctx, nil, func(id uint64) []byte { return wire.EncodeControlRequest(id, cmd, table) })
	})
	if err != nil {
		return "", err
	}
	res := resp.Results[0]
	if res.Err != "" {
		return "", fmt.Errorf("client: control %s: %s", cmd, res.Err)
	}
	return string(res.Value), nil
}
