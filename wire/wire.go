// Package wire defines the client/server protocol of the PLP network
// front-end (cmd/plpd and package client).
//
// # Frames
//
// Every message is one frame: a 4-byte big-endian length prefix followed by
// that many payload bytes, capped at MaxFrameSize.  Payloads use a compact
// little-endian binary encoding with length-prefixed byte fields.  Only the
// standard library is used.
//
// # The handshake
//
// The client's first frame is a HELLO carrying the protocol version it
// speaks plus an optional authentication token.  The server answers with a
// HELLO-ACK carrying the session's version, whether it is authenticated and
// its scope (full or read-only; read-only sessions are refused write ops and
// control verbs), then both sides switch to request/response frames.  A
// HELLO offering less than Version, or a first frame that is not a HELLO, is
// refused: the server replies with an erroring HELLO-ACK and closes the
// connection.  A client offering more than Version is served at Version.
//
// Requests are pipelined: the client may keep many requests in flight and
// the server completes them out of order, matching responses to requests by
// the client-chosen request ID.
//
// # Payloads
//
// A HELLO is: magic "PLP\xf7HELO", uint32 max version, token bytes, uint32
// reserved flags.  A HELLO-ACK is: magic "PLP\xf7HACK", uint32 version, 1
// authenticated byte, error string (non-empty means the server refused the
// session and will close the connection), 1 scope byte.
//
// A request frame is: uint64 ID, kind byte, then the kind's body.  Kind 1
// (plan) carries the only transaction request: a uint32 phase count, then
// per phase a uint32 op count and that many ops (kind byte; table, index,
// key, value, key-end, cond-value, mut-arg all length-prefixed; uint32
// limit; cond and mut bytes; uint32 key-from, value-from and each-from
// bindings; a length-prefixed predicate encoding, empty when the op has no
// filter): a whole declarative plan (package plan) executed server-side as
// one transaction, one round trip for arbitrarily deep dependency chains.
// Kind 2 (cancel) has no body: the frame's ID is the ID of the request to
// cancel, which aborts that request's server-side transaction; a cancel
// frame receives no response of its own (the canceled request's response
// reports the abort).  The shard (shard.go; a PREPARE is a gid, a map
// version and the plan body above), replication (repl.go) and
// streaming-scan (scanstream.go) kinds continue the numbering; kind 14
// (ping) is a length-prefixed payload the server echoes, and kind 15
// (control) a length-prefixed command and table naming one administrative
// verb, run outside any transaction.  Kind 0 is unassigned and refused.
//
// A response is: uint64 ID, committed byte, transaction error string,
// uint32 result count, then per result: found byte, value, error string, a
// uint32 entry count and that many key/value pairs (scan results); then one
// abort-classification byte (transient vs permanent, for client retry
// policy).  A plan's response carries one result per op in flat phase
// order.
//
// # Authentication
//
// A server started with a token (plpd -token) treats a session as
// authenticated only if its HELLO presented the matching token: a wrong
// token is refused outright, while a missing token yields an
// unauthenticated session that may run data transactions but is refused
// control frames.  A server with no token treats every session as
// authenticated.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"plp/plan"
)

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrShortPayload  = errors.New("wire: truncated payload")
	ErrBadOp         = errors.New("wire: unknown operation")
	ErrBadHello      = errors.New("wire: malformed handshake frame")
)

// MaxFrameSize bounds a single frame (requests and responses).  16 MiB is
// far above anything the engine's 8 KiB pages can produce in one
// transaction but protects the server from corrupt length prefixes.
const MaxFrameSize = 16 << 20

// Version is the protocol version this build speaks, and the lowest it
// accepts.  Version 5 ships WAL frames in REPL-RECORDS, so a cluster that
// mixes builds from before it is refused at the handshake.
const Version uint32 = 5

// FrameKind tags a request frame's body.
type FrameKind uint8

// The request frame kinds.
const (
	// FramePlan carries a whole declarative plan executed as one
	// transaction.
	FramePlan FrameKind = 1
	// FrameCancel aborts the in-flight request whose ID the frame carries.
	// It receives no response of its own.
	FrameCancel FrameKind = 2
	// FramePing is a health check; the server echoes its payload.
	FramePing FrameKind = 14
	// FrameControl runs one administrative command (the plpctl verbs)
	// outside any transaction.  It requires an authenticated session when
	// the server has a token configured.
	FrameControl FrameKind = 15
)

// ScanEntry is one record returned by a scan: the engine's plan.Entry, so
// scan results reach the wire codec without a copy of their headers.
type ScanEntry = plan.Entry

// StatementResult is the outcome of one plan op (or of a ping or control
// frame): the engine's plan.Result, so a transaction's results reach the
// wire codec without a per-reply copy.
type StatementResult = plan.Result

// RetryHint classifies an aborted transaction for the client's retry
// policy, so clients need not string-match error messages.
type RetryHint uint8

// The retry hints.
const (
	// RetryUnknown carries no classification (committed responses).
	RetryUnknown RetryHint = 0
	// RetryTransient marks an abort caused by transient contention —
	// deadlock-avoidance lock timeouts, cross-shard prepare conflicts —
	// that a retry of the identical transaction may well commit.
	RetryTransient RetryHint = 1
	// RetryPermanent marks an abort that will repeat deterministically
	// (validation failures, failed RMW conditions, missing tables):
	// retrying the identical transaction is pointless.
	RetryPermanent RetryHint = 2
)

// Response is the server's reply to one request frame.
type Response struct {
	// ID echoes the request ID.
	ID uint64
	// Committed reports whether the transaction committed.
	Committed bool
	// Err is the transaction-level error message (empty on commit).
	Err string
	// Retry classifies an abort as transient or permanent.
	Retry RetryHint
	// Results holds one entry per plan op, in flat phase order.
	Results []StatementResult
}

// Hello is the first frame of a session, sent by the client.
type Hello struct {
	// MaxVersion is the highest protocol version the client speaks; the
	// server refuses a hello below Version and serves anything above it at
	// Version.
	MaxVersion uint32
	// Token is the optional authentication token.  Sessions that present no
	// token to a token-protected server stay unauthenticated (data
	// transactions only); a wrong token is refused outright.
	Token []byte
}

// HelloAck is the server's reply to a Hello.
type HelloAck struct {
	// Version is the protocol version of the session.
	Version uint32
	// Authenticated reports whether the session may send control frames.
	Authenticated bool
	// Err is non-empty when the server refused the session (bad token,
	// malformed hello); the server closes the connection after sending it.
	Err string
	// ReadOnly reports that the session authenticated with a read-only
	// token: write ops and control verbs are refused.
	ReadOnly bool
}

// Handshake frame magics.
var (
	helloMagic    = [8]byte{'P', 'L', 'P', 0xF7, 'H', 'E', 'L', 'O'}
	helloAckMagic = [8]byte{'P', 'L', 'P', 0xF7, 'H', 'A', 'C', 'K'}
)

// --- binary encoding helpers ---

func appendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendUint32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte { return appendBytes(dst, []byte(s)) }

type reader struct {
	buf []byte
	off int
	err error
	dec *Decoder // interns table and index names; nil copies each
}

func (r *reader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.err = ErrShortPayload
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.err = ErrShortPayload
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.buf) {
		r.err = ErrShortPayload
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// bytes returns the next length-prefixed field *aliasing* the payload
// buffer: decoded messages share their frames' memory, which keeps the hot
// path free of per-field allocations.  A caller that reuses a frame's
// buffer must be done with the message decoded from it first.
func (r *reader) bytes() []byte {
	n := r.uint32()
	if r.err != nil {
		return nil
	}
	if r.off+int(n) > len(r.buf) {
		r.err = ErrShortPayload
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return out
}

func (r *reader) str() string { return string(r.bytes()) }

// name reads a table or index name.  Strings must not alias the payload,
// which a Decoder's caller reuses, so a name is interned through the
// decoder (or copied, without one).
func (r *reader) name() string { return r.dec.intern(r.bytes()) }

// maxInterned and maxInternedLen bound a Decoder's name table, by count
// and by name length.  Names are schema, not data: a connection uses a
// handful of short ones, and any other name is simply copied, so a peer
// sending long or ever-new names pins no memory past its request.
const (
	maxInterned    = 256
	maxInternedLen = 64
)

// Decoder decodes request frames into storage its caller reuses from frame
// to frame (Decode).  It interns short table and index names, so decoding
// a plan over known tables allocates no strings.  The zero value is ready; a
// Decoder serves one goroutine.
type Decoder struct {
	names map[string]string
}

// intern returns the string equal to b, allocating only for a name not seen
// before.  A nil Decoder copies.
func (d *Decoder) intern(b []byte) string {
	if d == nil || len(b) > maxInternedLen {
		return string(b)
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.names == nil {
		d.names = make(map[string]string)
	}
	if len(d.names) < maxInterned {
		d.names[s] = s
	}
	return s
}

// end reports the first decode error, or an error if bytes remain unread:
// a frame whose body carries more than its kind defines is refused, not
// half-read.
func (r *reader) end() error {
	if r.err == nil && r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// --- handshake codec ---

// IsHello reports whether a payload is a handshake HELLO frame.
func IsHello(payload []byte) bool {
	return len(payload) >= 8 && bytes.Equal(payload[:8], helloMagic[:])
}

// IsHelloAck reports whether a payload is a handshake HELLO-ACK frame.
func IsHelloAck(payload []byte) bool {
	return len(payload) >= 8 && bytes.Equal(payload[:8], helloAckMagic[:])
}

// EncodeHello serializes a HELLO payload.
func EncodeHello(h *Hello) []byte {
	out := append([]byte(nil), helloMagic[:]...)
	out = appendUint32(out, h.MaxVersion)
	out = appendBytes(out, h.Token)
	out = appendUint32(out, 0) // reserved flags
	return out
}

// DecodeHello parses a HELLO payload.  Trailing bytes beyond the reserved
// flags are ignored so future versions can extend the frame.
func DecodeHello(payload []byte) (*Hello, error) {
	if !IsHello(payload) {
		return nil, ErrBadHello
	}
	r := &reader{buf: payload, off: 8}
	h := &Hello{MaxVersion: r.uint32()}
	h.Token = r.bytes()
	r.uint32() // reserved flags
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHello, r.err)
	}
	return h, nil
}

// EncodeHelloAck serializes a HELLO-ACK payload.
func EncodeHelloAck(a *HelloAck) []byte {
	out := append([]byte(nil), helloAckMagic[:]...)
	out = appendUint32(out, a.Version)
	authed := byte(0)
	if a.Authenticated {
		authed = 1
	}
	out = append(out, authed)
	out = appendString(out, a.Err)
	scope := byte(0)
	if a.ReadOnly {
		scope = 1
	}
	out = append(out, scope)
	return out
}

// DecodeHelloAck parses a HELLO-ACK payload.
func DecodeHelloAck(payload []byte) (*HelloAck, error) {
	if !IsHelloAck(payload) {
		return nil, ErrBadHello
	}
	r := &reader{buf: payload, off: 8}
	a := &HelloAck{Version: r.uint32()}
	a.Authenticated = r.byteVal() == 1
	a.Err = r.str()
	a.ReadOnly = r.byteVal() == 1
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHello, r.err)
	}
	return a, nil
}

// --- request/response codec ---

// RequestID best-effort decodes the request-ID prefix of a (possibly
// corrupt) request payload so that error responses can still echo the ID
// and ID-matching clients stay in sync.
func RequestID(payload []byte) (uint64, bool) {
	if len(payload) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(payload), true
}

// --- frame codec ---

// Frame is one decoded request frame.
type Frame struct {
	// ID is the request ID (for FrameCancel, the ID of the request to
	// cancel).
	ID uint64
	// Kind tags which body field is set.
	Kind FrameKind
	// Plan is the declarative plan (FramePlan, and the branch of a
	// FramePrepare).
	Plan *plan.Plan
	// Ping is the payload to echo (FramePing).
	Ping []byte
	// Command and Table name the administrative verb and its optional
	// table argument (FrameControl).
	Command string
	Table   string
	// GID is the cross-shard global transaction ID (FramePrepare,
	// FrameDecide).
	GID string
	// MapVersion is the shard-map version the coordinator routed under
	// (FramePrepare); the participant re-checks ownership against its own
	// map before voting.
	MapVersion uint64
	// DecideMode is the decide verb (FrameDecide): DecideAbort,
	// DecideCommit or DecideQuery.
	DecideMode DecideMode
	// StartLSN is the requested stream start (FrameReplSubscribe), or the
	// LSN of the first WAL frame in ReplFrames (FrameReplRecords).
	StartLSN uint64
	// ReplEpoch is the follower's last-known replication epoch
	// (FrameReplSubscribe; 0 = never followed).
	ReplEpoch uint64
	// ReplNode is the subscriber's stable node identity
	// (FrameReplSubscribe; "" from pre-node subscribers).  The primary
	// counts replica-ack quorums per node, not per connection, and evicts a
	// node's previous subscription when it resubscribes.
	ReplNode string
	// ReplFrames holds the WAL frames of a FrameReplRecords batch (opaque
	// to this package; aliases the frame buffer).
	ReplFrames []byte
	// AppliedLSN and DurableLSN are the follower's progress report
	// (FrameReplAck).
	AppliedLSN uint64
	// DurableLSN is the follower's durable horizon (FrameReplAck).
	DurableLSN uint64
	// SeedStart and SeedTarget bound a snapshot re-seed
	// (FrameReplSeedBegin): the stream restarts at SeedStart and the seed
	// phase covers every record below SeedTarget.
	SeedStart uint64
	// SeedTarget is the durable horizon the seed phase runs to
	// (FrameReplSeedBegin).
	SeedTarget uint64
	// Scan is the streaming-scan request (FrameScan).
	Scan *ScanRequest
	// Credit is the number of chunk credits returned (FrameScanAck).
	Credit uint32
}

// minEncodedOpBytes is the smallest possible encoded plan op; hostile
// phase/op counts are clamped against it so they cannot force allocations
// the payload could not physically hold.
const minEncodedOpBytes = 51

// planSize is an upper bound on the encoded size of p's body.
func planSize(p *plan.Plan) int {
	size := 4
	for _, ph := range p.Phases {
		size += 4
		for i := range ph {
			op := &ph[i]
			size += minEncodedOpBytes + len(op.Table) + len(op.Index) + len(op.Key) +
				len(op.Value) + len(op.KeyEnd) + len(op.CondValue) + len(op.MutArg)
		}
	}
	return size
}

// appendPlan appends a plan body: a uint32 phase count, then per phase a
// uint32 op count and each op's fields.
func appendPlan(out []byte, p *plan.Plan) []byte {
	out = appendUint32(out, uint32(len(p.Phases)))
	for _, ph := range p.Phases {
		out = appendUint32(out, uint32(len(ph)))
		for i := range ph {
			op := &ph[i]
			out = append(out, byte(op.Kind))
			out = appendString(out, op.Table)
			out = appendString(out, op.Index)
			out = appendBytes(out, op.Key)
			out = appendBytes(out, op.Value)
			out = appendBytes(out, op.KeyEnd)
			out = appendUint32(out, op.Limit)
			out = append(out, byte(op.Cond), byte(op.Mut))
			out = appendBytes(out, op.CondValue)
			out = appendBytes(out, op.MutArg)
			out = appendUint32(out, uint32(op.KeyFrom))
			out = appendUint32(out, uint32(op.ValueFrom))
			out = appendUint32(out, uint32(op.EachFrom))
			if op.Filter != nil {
				out = appendBytes(out, plan.AppendPredicate(nil, op.Filter))
			} else {
				out = appendUint32(out, 0)
			}
		}
	}
	return out
}

// plan reads a plan body written by appendPlan into p (a fresh plan when p
// is nil), reusing p's phase slice and each phase's op slice.  Hostile
// phase and op counts, and empty phases, are rejected rather than
// allocated.
func (r *reader) plan(p *plan.Plan) (*plan.Plan, error) {
	phases := r.uint32()
	maxOps := uint32(len(r.buf) / minEncodedOpBytes)
	if phases > maxOps {
		return nil, fmt.Errorf("%w: %d phases in a %d-byte frame", ErrShortPayload, phases, len(r.buf))
	}
	if p == nil {
		p = &plan.Plan{}
	}
	// The phase slots beyond the last plan's length still hold op slices
	// of earlier plans: reuse those too.
	phs := p.Phases[:cap(p.Phases)]
	if len(phs) < int(phases) {
		phs = append(phs, make([][]plan.Op, int(phases)-len(phs))...)
	}
	p.Phases = phs[:0]
	for i := uint32(0); i < phases && r.err == nil; i++ {
		n := r.uint32()
		if n > maxOps {
			return nil, fmt.Errorf("%w: %d ops in a %d-byte frame", ErrShortPayload, n, len(r.buf))
		}
		if n == 0 && r.err == nil {
			// Every phase holds an op, which is what bounds the phase count.
			return nil, fmt.Errorf("wire: plan phase %d is empty", i)
		}
		ops := phs[i][:0]
		for j := uint32(0); j < n && r.err == nil; j++ {
			op := plan.Op{Kind: plan.Kind(r.byteVal())}
			op.Table = r.name()
			op.Index = r.name()
			op.Key = r.bytes()
			op.Value = r.bytes()
			op.KeyEnd = r.bytes()
			op.Limit = r.uint32()
			op.Cond = plan.Cond(r.byteVal())
			op.Mut = plan.Mut(r.byteVal())
			op.CondValue = r.bytes()
			op.MutArg = r.bytes()
			op.KeyFrom = int32(r.uint32())
			op.ValueFrom = int32(r.uint32())
			op.EachFrom = int32(r.uint32())
			if fb := r.bytes(); len(fb) > 0 && r.err == nil {
				pred, rest, err := plan.DecodePredicate(fb)
				if err != nil {
					return nil, fmt.Errorf("wire: plan op filter: %w", err)
				}
				if len(rest) != 0 {
					return nil, fmt.Errorf("wire: plan op filter: %d trailing bytes", len(rest))
				}
				op.Filter = pred
			}
			ops = append(ops, op)
		}
		phs[i] = ops
		p.Phases = phs[:i+1]
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

// EncodePlanRequest serializes a plan request payload (without the frame
// header).
func EncodePlanRequest(id uint64, p *plan.Plan) []byte {
	out := appendUint64(make([]byte, 0, 8+1+planSize(p)), id)
	out = append(out, byte(FramePlan))
	return appendPlan(out, p)
}

// AppendPlanFrame appends a whole plan request frame — the length prefix
// and the payload EncodePlanRequest builds — to dst.  A frame over
// MaxFrameSize is not appended: dst comes back as it was, with
// ErrFrameTooLarge.
func AppendPlanFrame(dst []byte, id uint64, p *plan.Plan) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = appendUint64(dst, id)
	dst = append(dst, byte(FramePlan))
	dst = appendPlan(dst, p)
	return endFrame(dst, start)
}

// AppendResponseFrame appends a whole response frame — the length prefix
// and the payload AppendResponse builds — to dst, refusing (dst unchanged,
// ErrFrameTooLarge) one over MaxFrameSize.
func AppendResponseFrame(dst []byte, resp *Response) ([]byte, error) {
	start := len(dst)
	return endFrame(AppendResponse(append(dst, 0, 0, 0, 0), resp), start)
}

// AppendFrame appends one length-prefixed frame holding payload to dst,
// refusing (dst unchanged, ErrFrameTooLarge) a payload over MaxFrameSize.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	return endFrame(append(dst, payload...), start)
}

// endFrame writes the length prefix of the frame that starts at dst[start].
func endFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - 4
	if n > MaxFrameSize {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// EncodeCancelRequest serializes a cancel frame for the request with the
// given ID.
func EncodeCancelRequest(id uint64) []byte {
	out := appendUint64(make([]byte, 0, 9), id)
	return append(out, byte(FrameCancel))
}

// EncodePingRequest serializes a ping frame whose payload the server
// echoes.
func EncodePingRequest(id uint64, payload []byte) []byte {
	out := appendUint64(make([]byte, 0, 8+1+4+len(payload)), id)
	out = append(out, byte(FramePing))
	return appendBytes(out, payload)
}

// EncodeControlRequest serializes a control frame: the command and its
// optional table argument.
func EncodeControlRequest(id uint64, command, table string) []byte {
	out := appendUint64(make([]byte, 0, 8+1+8+len(command)+len(table)), id)
	out = append(out, byte(FrameControl))
	out = appendString(out, command)
	return appendString(out, table)
}

// DecodeFrameV3 parses one request frame, dispatching on its kind.  The
// decoded frame's byte fields alias buf; the plan's structure is *not*
// semantically validated here — the engine's compiler re-validates, so a
// hostile peer gains nothing by skipping the client-side checks.
func DecodeFrameV3(buf []byte) (*Frame, error) {
	f := &Frame{}
	if err := (*Decoder)(nil).Decode(f, buf); err != nil {
		return nil, err
	}
	return f, nil
}

// Decode parses one request frame into f, as DecodeFrameV3 does, but into
// storage the caller owns: when f.Plan is non-nil a plan body is decoded
// into it, reusing its phase and op slices.  Every other field of f is
// reset.  Byte fields alias buf, and table and index names are interned,
// so buf may be reused once the frame is no longer needed.
func (d *Decoder) Decode(f *Frame, buf []byte) error {
	r := &reader{buf: buf, dec: d}
	pl := f.Plan
	*f = Frame{ID: r.uint64()}
	f.Kind = FrameKind(r.byteVal())
	if r.err != nil {
		return r.err
	}
	var err error
	switch f.Kind {
	case FrameCancel:
	case FramePlan:
		f.Plan, err = r.plan(pl)
	case FramePing:
		f.Ping = r.bytes()
	case FrameControl:
		f.Command = r.str()
		f.Table = r.str()
	case FrameShardMap, FramePrepare, FrameDecide:
		f.Plan = pl
		err = decodeShardFrame(f, r)
	case FrameReplSubscribe, FrameReplRecords, FrameReplAck,
		FrameReplSeedBegin, FrameReplSeedEnd, FrameReplHeartbeat:
		err = decodeReplFrame(f, r)
	case FrameScan, FrameScanAck:
		err = decodeScanFrame(f, r)
	default:
		return fmt.Errorf("%w: unknown frame kind %d", ErrBadOp, f.Kind)
	}
	if err != nil {
		return err
	}
	return r.end()
}

// AppendResponse appends the serialized response payload (without the
// frame header) to dst and returns the extended slice.  Servers reuse one
// buffer per connection across replies (AppendResponse(buf[:0], ...)) so
// steady-state response encoding allocates nothing once the buffer has
// grown to the session's working size.
func AppendResponse(dst []byte, resp *Response) []byte {
	size := 8 + 1 + 4 + len(resp.Err) + 4 + 1
	for _, res := range resp.Results {
		size += 1 + 4 + len(res.Value) + 4 + len(res.Err) + 4
		for _, e := range res.Entries {
			size += 4 + len(e.Key) + 4 + len(e.Value)
		}
	}
	if cap(dst)-len(dst) < size {
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}
	out := appendUint64(dst, resp.ID)
	committed := byte(0)
	if resp.Committed {
		committed = 1
	}
	out = append(out, committed)
	out = appendString(out, resp.Err)
	out = appendUint32(out, uint32(len(resp.Results)))
	for _, res := range resp.Results {
		found := byte(0)
		if res.Found {
			found = 1
		}
		out = append(out, found)
		out = appendBytes(out, res.Value)
		out = appendString(out, res.Err)
		out = appendUint32(out, uint32(len(res.Entries)))
		for _, e := range res.Entries {
			out = appendBytes(out, e.Key)
			out = appendBytes(out, e.Value)
		}
	}
	return append(out, byte(resp.Retry))
}

// DecodeResponse parses a response payload.  The returned response's byte
// fields alias buf, which must not be modified or reused afterwards.
func DecodeResponse(buf []byte) (*Response, error) {
	resp := &Response{}
	if err := DecodeResponseInto(resp, buf); err != nil {
		return nil, err
	}
	return resp, nil
}

// DecodeResponseInto parses a response payload into resp, reusing the
// capacity of resp.Results.  Byte fields alias buf.
func DecodeResponseInto(resp *Response, buf []byte) error {
	r := &reader{buf: buf}
	results := resp.Results[:0]
	*resp = Response{ID: r.uint64()}
	resp.Committed = r.byteVal() == 1
	resp.Err = r.str()
	n := r.uint32()
	// Presize bounded by payload capacity (a result is at least 13 bytes).
	if max := uint32(len(buf) / 13); n > 0 && r.err == nil && cap(results) < int(min(n, max)) {
		results = make([]StatementResult, 0, min(n, max))
	}
	for i := uint32(0); i < n && r.err == nil; i++ {
		var res StatementResult
		res.Found = r.byteVal() == 1
		res.Value = r.bytes()
		res.Err = r.str()
		m := r.uint32()
		for j := uint32(0); j < m && r.err == nil; j++ {
			var e ScanEntry
			e.Key = r.bytes()
			e.Value = r.bytes()
			res.Entries = append(res.Entries, e)
		}
		results = append(results, res)
	}
	if len(results) > 0 {
		resp.Results = results
	}
	resp.Retry = RetryHint(r.byteVal())
	return r.err
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame into fresh storage.
func ReadFrame(r io.Reader) ([]byte, error) { return ReadFrameInto(r, nil) }

// ReadFrameInto reads one length-prefixed frame into buf's storage — the
// length prefix too, so nothing escapes per frame — growing it only when
// the frame does not fit, and returns the payload.  On error the returned
// slice still carries buf's storage, empty, for the caller to keep.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, 256)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf[:0], err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameSize {
		return buf[:0], ErrFrameTooLarge
	}
	if uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, 0, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return buf[:0], err
	}
	return payload, nil
}
