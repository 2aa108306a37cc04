// Replication frames: the frame kinds that carry the WAL-shipping
// stream between a primary and its followers.
//
// A follower opens an ordinary authenticated connection and sends
// REPL-SUBSCRIBE as its first frame: the LSN it wants the stream to start
// at (its local durable horizon) and the replication epoch it last
// followed (0 for a fresh follower).  The primary replies with an ordinary
// response whose single result Value is the subscribe ack (primary epoch +
// primary durable LSN, EncodeReplSubscribeAck); a refusal is a response
// whose Err starts with ReplRefusedPrefix.  After a successful subscribe
// the connection leaves request/response mode: the primary pushes
// REPL-RECORDS frames (batches of opaque marshaled WAL records) and the
// follower sends REPL-ACK frames carrying its applied and durable LSNs.
//
// The record blobs are opaque to this package on purpose: wire frames the
// stream, the wal package owns the record encoding, and the two only meet
// in internal/repl.
package wire

import "fmt"

// The replication frame kinds (continuing the FrameKind space).
const (
	// FrameReplSubscribe asks the server to start streaming WAL records.
	FrameReplSubscribe FrameKind = 6
	// FrameReplRecords carries a batch of marshaled WAL records
	// (primary → follower).
	FrameReplRecords FrameKind = 7
	// FrameReplAck reports the follower's applied and durable LSNs
	// (follower → primary).
	FrameReplAck FrameKind = 8
)

// The seed/heartbeat frame kinds (9 and 10 belong to the scan stream).
const (
	// FrameReplSeedBegin opens a snapshot re-seed: the stream that follows
	// starts at SeedStart (the oldest retained LSN on the primary) instead
	// of the LSN the follower asked for, and every record up to SeedTarget
	// belongs to the seed phase.  The follower must discard its local state
	// before applying (primary → follower).
	FrameReplSeedBegin FrameKind = 11
	// FrameReplSeedEnd marks the end of the seed phase: the follower's
	// rebuilt state is now a faithful replica and ordinary streaming
	// resumes on the same connection (primary → follower).
	FrameReplSeedEnd FrameKind = 12
	// FrameReplHeartbeat is an empty keep-alive the primary sends when it
	// has nothing to stream, so followers can lease the primary's liveness
	// off the replication connection (primary → follower).
	FrameReplHeartbeat FrameKind = 13
)

// ReplRefusedPrefix starts every subscription-refusal error message (stale
// epoch, truncated start LSN, no replication configured).
const ReplRefusedPrefix = "repl refused"

// IsReplRefused reports whether an error message is a subscription refusal.
func IsReplRefused(msg string) bool {
	return len(msg) >= len(ReplRefusedPrefix) && msg[:len(ReplRefusedPrefix)] == ReplRefusedPrefix
}

// FollowerPrefix starts every "this node is a follower" refusal: writes,
// control verbs and 2PC traffic are redirected to the primary.
const FollowerPrefix = "follower"

// IsFollowerRefusal reports whether an error message is a follower-mode
// write/control refusal.
func IsFollowerRefusal(msg string) bool {
	return len(msg) >= len(FollowerPrefix) && msg[:len(FollowerPrefix)] == FollowerPrefix
}

// EncodeReplSubscribe serializes a REPL-SUBSCRIBE payload: the LSN the
// stream should start at, the follower's last-known replication epoch
// (0 when it has never followed anyone), and the follower's stable node
// identity.  The node string keys the primary's per-node replica-ack
// accounting: a reconnecting follower evicts its own half-open previous
// subscription instead of counting twice toward the quorum.
func EncodeReplSubscribe(id uint64, startLSN, epoch uint64, node string) []byte {
	out := appendUint64(make([]byte, 0, 8+1+8+8+4+len(node)), id)
	out = append(out, byte(FrameReplSubscribe))
	out = appendUint64(out, startLSN)
	out = appendUint64(out, epoch)
	return appendBytes(out, []byte(node))
}

// EncodeReplRecords serializes a REPL-RECORDS payload from marshaled
// record blobs.  id is a stream sequence number (monotonic per
// connection); the follower echoes nothing — acks are by LSN, not by
// frame.
func EncodeReplRecords(id uint64, blobs [][]byte) []byte {
	size := 8 + 1 + 4
	for _, b := range blobs {
		size += 4 + len(b)
	}
	out := appendUint64(make([]byte, 0, size), id)
	out = append(out, byte(FrameReplRecords))
	out = appendUint32(out, uint32(len(blobs)))
	for _, b := range blobs {
		out = appendBytes(out, b)
	}
	return out
}

// EncodeReplAck serializes a REPL-ACK payload: the follower's applied LSN
// (everything below it is visible to reads) and durable LSN (everything
// below it survives a follower crash).
func EncodeReplAck(id uint64, applied, durable uint64) []byte {
	out := appendUint64(make([]byte, 0, 8+1+8+8), id)
	out = append(out, byte(FrameReplAck))
	out = appendUint64(out, applied)
	return appendUint64(out, durable)
}

// EncodeReplSeedBegin serializes a SEED-BEGIN payload: the LSN the seed
// stream starts at (the primary's oldest retained record) and the durable
// horizon captured when the seed was accepted — everything below it arrives
// during the seed phase.
func EncodeReplSeedBegin(id uint64, seedStart, seedTarget uint64) []byte {
	out := appendUint64(make([]byte, 0, 8+1+8+8), id)
	out = append(out, byte(FrameReplSeedBegin))
	out = appendUint64(out, seedStart)
	return appendUint64(out, seedTarget)
}

// EncodeReplSeedEnd serializes a SEED-END payload.
func EncodeReplSeedEnd(id uint64) []byte {
	out := appendUint64(make([]byte, 0, 9), id)
	return append(out, byte(FrameReplSeedEnd))
}

// EncodeReplHeartbeat serializes an empty keep-alive frame.
func EncodeReplHeartbeat(id uint64) []byte {
	out := appendUint64(make([]byte, 0, 9), id)
	return append(out, byte(FrameReplHeartbeat))
}

// EncodeReplSubscribeAck builds the subscribe-ack blob carried in the
// accepting response's first result Value: the primary's replication epoch
// and its current durable LSN.
func EncodeReplSubscribeAck(epoch, durableLSN uint64) []byte {
	out := appendUint64(make([]byte, 0, 16), epoch)
	return appendUint64(out, durableLSN)
}

// EncodeReplSubscribeAckSeed builds a subscribe-ack blob with the seed
// marker set: the primary accepted the subscription but will re-seed the
// follower (first stream frame is SEED-BEGIN).  Old followers ignore the
// trailing byte — DecodeReplSubscribeAck tolerates it — and then fail on
// the unknown SEED-BEGIN frame kind, which is the correct hard stop for a
// mixed-version pair.
func EncodeReplSubscribeAckSeed(epoch, durableLSN uint64) []byte {
	out := appendUint64(make([]byte, 0, 17), epoch)
	out = appendUint64(out, durableLSN)
	return append(out, 1)
}

// ReplSubscribeAckSeeded reports whether a subscribe-ack blob carries the
// seed marker.
func ReplSubscribeAckSeeded(buf []byte) bool {
	return len(buf) > 16 && buf[16] == 1
}

// DecodeReplSubscribeAck parses a subscribe-ack blob.
func DecodeReplSubscribeAck(buf []byte) (epoch, durableLSN uint64, err error) {
	r := &reader{buf: buf}
	epoch = r.uint64()
	durableLSN = r.uint64()
	if r.err != nil {
		return 0, 0, r.err
	}
	return epoch, durableLSN, nil
}

// decodeReplFrame parses the body of a REPL-SUBSCRIBE, REPL-RECORDS or
// REPL-ACK frame; the reader is positioned just past the kind byte.
func decodeReplFrame(f *Frame, r *reader) error {
	switch f.Kind {
	case FrameReplSubscribe:
		f.StartLSN = r.uint64()
		f.ReplEpoch = r.uint64()
		if r.off < len(r.buf) {
			// The node identity was appended in a later wire revision;
			// frames from pre-node subscribers simply end here.
			f.ReplNode = r.str()
		}
	case FrameReplRecords:
		n := r.uint32()
		// Hostile-count guard: every blob costs at least its 4-byte length
		// prefix, so a frame of len(buf) bytes cannot hold more than
		// len(buf)/4 blobs.
		if max := uint32(len(r.buf) / 4); n > max {
			return fmt.Errorf("%w: %d record blobs in a %d-byte frame", ErrShortPayload, n, len(r.buf))
		}
		blobs := make([][]byte, 0, n)
		for i := uint32(0); i < n && r.err == nil; i++ {
			blobs = append(blobs, r.bytes())
		}
		f.ReplRecords = blobs
	case FrameReplAck:
		f.AppliedLSN = r.uint64()
		f.DurableLSN = r.uint64()
	case FrameReplSeedBegin:
		f.SeedStart = r.uint64()
		f.SeedTarget = r.uint64()
	case FrameReplSeedEnd, FrameReplHeartbeat:
	default:
		return fmt.Errorf("%w: unknown repl frame kind %d", ErrBadOp, f.Kind)
	}
	return r.err
}
