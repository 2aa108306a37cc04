// Streaming scans: the SCAN / SCAN-CHUNK / SCAN-ACK frames.
//
// A bounded scan op returns everything in one reply, which caps how much a
// scan can return by what fits in one frame and buffers the whole result
// server-side.  A streaming scan instead sends one FrameScan request and
// receives the matching rows as a sequence of SCAN-CHUNK frames, each
// carrying a bounded number of entries, until a final chunk closes the
// stream.
//
// Flow control is credit-based per request ID: the server may have at most
// `window` unacknowledged chunks outstanding; the client returns one credit
// per consumed chunk with a FrameScanAck.  A slow client therefore stalls
// only its own scan's production, not the connection (other pipelined
// requests keep flowing).  A FrameCancel naming the scan's request ID stops
// chunk production server-side; the stream then ends with a final chunk
// reporting the cancellation.
//
// Chunk frames travel on a response stream whose frames are otherwise
// untagged, so they carry an 8-byte magic prefix ("PLP\xf7SCNK") the client
// sniffs the same way the handshake sniffs HELLO-ACK: an ordinary response
// would need that exact request ID to collide, which sequential-ID clients
// never produce.
package wire

import (
	"bytes"
	"fmt"

	"plp/plan"
)

// The streaming-scan frame kinds (continuing the FrameKind space).
const (
	// FrameScan opens a streaming scan; the rows arrive as SCAN-CHUNK
	// frames matched to the request ID.
	FrameScan FrameKind = 9
	// FrameScanAck returns flow-control credits for an open scan.  Like
	// FrameCancel it receives no response of its own.
	FrameScanAck FrameKind = 10
)

// scanChunkMagic prefixes every SCAN-CHUNK frame.
var scanChunkMagic = [8]byte{'P', 'L', 'P', 0xF7, 'S', 'C', 'N', 'K'}

// Streaming-scan defaults, applied by the server when a field is 0.
const (
	// DefaultScanChunkEntries is the default per-chunk entry cap.
	DefaultScanChunkEntries = 256
	// MaxScanChunkEntries caps the per-chunk entry count a client may
	// request.
	MaxScanChunkEntries = 4096
	// DefaultScanWindow is the default flow-control window, in chunks.
	DefaultScanWindow = 8
	// MaxScanWindow caps the window a client may request.
	MaxScanWindow = 64
)

// ScanRequest is the body of a FrameScan: a range scan of [Lo, Hi) —
// nil Hi scans to the end — streamed back in chunks.
type ScanRequest struct {
	// Table names the table to scan.
	Table string
	// Lo is the inclusive lower bound.
	Lo []byte
	// Hi is the exclusive upper bound (nil scans to the end).
	Hi []byte
	// Limit caps the total entries returned across all chunks (0 selects
	// the server's streaming default, which is far above the one-reply
	// scan's).
	Limit uint32
	// ChunkEntries caps the entries per chunk (0 selects
	// DefaultScanChunkEntries).
	ChunkEntries uint32
	// Window is the initial flow-control credit in chunks (0 selects
	// DefaultScanWindow).
	Window uint32
	// Filter, when non-nil, is pushed down into the partition workers:
	// only rows passing it are returned (and counted against Limit).
	Filter *plan.Predicate
}

// ScanChunk is one SCAN-CHUNK frame: a bounded slice of a streaming scan's
// result.
type ScanChunk struct {
	// ID echoes the scan's request ID.
	ID uint64
	// Final marks the stream's last chunk.
	Final bool
	// Err is the scan error that ended the stream (final chunks only;
	// empty on success).
	Err string
	// Entries holds this chunk's records in key order.
	Entries []ScanEntry
}

// EncodeScanRequest serializes a FrameScan payload (without the frame
// header).
func EncodeScanRequest(id uint64, sc *ScanRequest) []byte {
	size := 8 + 1 + 4 + len(sc.Table) + 4 + len(sc.Lo) + 4 + len(sc.Hi) + 4 + 4 + 4 + 4
	out := appendUint64(make([]byte, 0, size+64), id)
	out = append(out, byte(FrameScan))
	out = appendString(out, sc.Table)
	out = appendBytes(out, sc.Lo)
	out = appendBytes(out, sc.Hi)
	out = appendUint32(out, sc.Limit)
	out = appendUint32(out, sc.ChunkEntries)
	out = appendUint32(out, sc.Window)
	if sc.Filter != nil {
		out = appendBytes(out, plan.AppendPredicate(nil, sc.Filter))
	} else {
		out = appendUint32(out, 0)
	}
	return out
}

// EncodeScanAck serializes a FrameScanAck payload returning `credit` chunk
// credits to the scan with the given request ID.
func EncodeScanAck(id uint64, credit uint32) []byte {
	out := appendUint64(make([]byte, 0, 13), id)
	out = append(out, byte(FrameScanAck))
	return appendUint32(out, credit)
}

// decodeScanFrame parses the body of a FrameScan or FrameScanAck (the ID
// and kind are already consumed by r).
func decodeScanFrame(f *Frame, r *reader) error {
	switch f.Kind {
	case FrameScan:
		sc := &ScanRequest{}
		sc.Table = r.str()
		sc.Lo = r.bytes()
		sc.Hi = r.bytes()
		sc.Limit = r.uint32()
		sc.ChunkEntries = r.uint32()
		sc.Window = r.uint32()
		fb := r.bytes()
		if r.err != nil {
			return r.err
		}
		if len(fb) > 0 {
			p, rest, err := plan.DecodePredicate(fb)
			if err != nil {
				return fmt.Errorf("wire: scan filter: %w", err)
			}
			if len(rest) != 0 {
				return fmt.Errorf("wire: scan filter: %d trailing bytes", len(rest))
			}
			sc.Filter = p
		}
		f.Scan = sc
		return nil
	case FrameScanAck:
		f.Credit = r.uint32()
		return r.err
	default:
		return fmt.Errorf("%w: unknown scan frame kind %d", ErrBadOp, f.Kind)
	}
}

// IsScanChunk reports whether a payload is a SCAN-CHUNK frame.
func IsScanChunk(payload []byte) bool {
	return len(payload) >= 8 && bytes.Equal(payload[:8], scanChunkMagic[:])
}

// IsScanAckFrame reports whether a request payload is a FrameScanAck,
// without a full decode — the server's connection reader intercepts acks
// (like cancels) ahead of the execution queue so credits arrive even while
// every worker is busy.
func IsScanAckFrame(payload []byte) bool {
	return len(payload) >= 9 && FrameKind(payload[8]) == FrameScanAck
}

// AppendScanChunk appends the serialized chunk to dst and returns the
// extended slice.  Unlike responses, every chunk must be encoded into its
// own buffer (the writer goroutine owns it after hand-off).
func AppendScanChunk(dst []byte, c *ScanChunk) []byte {
	size := 8 + 8 + 1 + 4 + len(c.Err) + 4
	for _, e := range c.Entries {
		size += 4 + len(e.Key) + 4 + len(e.Value)
	}
	if cap(dst)-len(dst) < size {
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}
	out := append(dst, scanChunkMagic[:]...)
	out = appendUint64(out, c.ID)
	flags := byte(0)
	if c.Final {
		flags = 1
	}
	out = append(out, flags)
	out = appendString(out, c.Err)
	out = appendUint32(out, uint32(len(c.Entries)))
	for _, e := range c.Entries {
		out = appendBytes(out, e.Key)
		out = appendBytes(out, e.Value)
	}
	return out
}

// DecodeScanChunk parses a SCAN-CHUNK payload.  The returned chunk's byte
// fields alias buf, which must not be modified or reused afterwards.
func DecodeScanChunk(buf []byte) (*ScanChunk, error) {
	if !IsScanChunk(buf) {
		return nil, fmt.Errorf("%w: not a scan chunk", ErrBadOp)
	}
	r := &reader{buf: buf, off: 8}
	c := &ScanChunk{ID: r.uint64()}
	c.Final = r.byteVal()&1 != 0
	c.Err = r.str()
	n := r.uint32()
	// Presize bounded by payload capacity (an entry is at least 8 bytes),
	// so a hostile count cannot force a huge allocation.
	if max := uint32(len(buf) / 8); n > 0 && r.err == nil {
		c.Entries = make([]ScanEntry, 0, min(n, max))
	}
	for i := uint32(0); i < n && r.err == nil; i++ {
		var e ScanEntry
		e.Key = r.bytes()
		e.Value = r.bytes()
		c.Entries = append(c.Entries, e)
	}
	if r.err != nil {
		return nil, r.err
	}
	return c, nil
}
