// Streaming scans: server side of the SCAN / SCAN-CHUNK / SCAN-ACK
// exchange.  A FrameScan runs on a goroutine of its own, holding one of
// its connection's in-flight slots for the stream's lifetime, and produces
// chunks by repeatedly asking the engine
// for the next cursor-bounded slice, so each chunk runs on the partition
// worker owning the cursor and the scan never holds a worker for longer
// than one chunk.  Production is credit-paced: the connection reader
// intercepts SCAN-ACK frames (like cancels, they must not wait behind the
// work they regulate) and tops up the stream's credits, so a client that
// stops consuming stalls only its own stream.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"plp/internal/engine"
	"plp/plan"
	"plp/wire"
)

// DefaultStreamScanLimit caps a streaming scan that asked for no limit.
// Streams exist to move bulk data, so the default is far above the
// one-reply scan's — but still finite, as a backstop against a stream
// nobody ends.
const DefaultStreamScanLimit = 1 << 22

// scanFlow is one open stream's flow-control state, shared between the
// producing stream goroutine and the connection reader that credits it.
type scanFlow struct {
	credits atomic.Int64
	notify  chan struct{}
}

func newScanFlow(window int64) *scanFlow {
	fl := &scanFlow{notify: make(chan struct{}, 1)}
	fl.credits.Store(window)
	return fl
}

// wake nudges the producer; called by the reader after crediting the flow
// or flipping the stream's cancel flag.
func (fl *scanFlow) wake() {
	select {
	case fl.notify <- struct{}{}:
	default:
	}
}

// creditScan handles an intercepted SCAN-ACK: it adds the returned credits
// to the named stream's flow, if it is still open.
func creditScan(flows *sync.Map, payload []byte) {
	f, err := wire.DecodeFrameV3(payload)
	if err != nil {
		return // a malformed ack regulates nothing
	}
	if v, ok := flows.Load(f.ID); ok {
		fl := v.(*scanFlow)
		fl.credits.Add(int64(f.Credit))
		fl.wake()
	}
}

// streamScan runs one streaming scan on a goroutine of its own, emitting
// chunks through the connection's outbox until the range is exhausted, the
// limit is met, the client cancels, or the connection dies.  The final
// chunk is the stream's reply; the ones before it are sent while it runs.
func (s *Server) streamScan(payload []byte, canceled *atomic.Bool, out *outbox, flows *sync.Map, connDone <-chan struct{}) {
	s.requests.Add(1)
	emitFinal := func(errMsg string) {
		out.reply(outMsg{raw: wire.AppendScanChunk(nil, &wire.ScanChunk{
			ID: mustRequestID(payload), Final: true, Err: errMsg})})
	}
	f, err := wire.DecodeFrameV3(payload)
	if err != nil || f.Scan == nil {
		s.aborted.Add(1)
		emitFinal(fmt.Sprintf("scan: bad frame: %v", err))
		return
	}
	sc := f.Scan
	if sc.Table == "" {
		s.aborted.Add(1)
		emitFinal("scan: missing table")
		return
	}
	if s.followerMode.Load() && s.seeding() {
		s.aborted.Add(1)
		emitFinal(wire.FollowerPrefix + ": scan refused — this follower is mid re-seed and not yet a consistent replica (read another member)")
		return
	}
	var flt *plan.Filter
	if sc.Filter != nil {
		if flt, err = sc.Filter.Compile(); err != nil {
			s.aborted.Add(1)
			emitFinal(fmt.Sprintf("scan: %v", err))
			return
		}
	}
	limit := int(sc.Limit)
	if limit <= 0 || limit > DefaultStreamScanLimit {
		limit = DefaultStreamScanLimit
	}
	chunkEntries := int(sc.ChunkEntries)
	if chunkEntries <= 0 {
		chunkEntries = wire.DefaultScanChunkEntries
	} else if chunkEntries > wire.MaxScanChunkEntries {
		chunkEntries = wire.MaxScanChunkEntries
	}
	window := int64(sc.Window)
	if window <= 0 {
		window = wire.DefaultScanWindow
	} else if window > wire.MaxScanWindow {
		window = wire.MaxScanWindow
	}
	isCanceled := func() bool { return canceled != nil && canceled.Load() }

	fl := newScanFlow(window)
	flows.Store(f.ID, fl)
	defer flows.Delete(f.ID)

	cursor := sc.Lo
	sent := 0
	for {
		for fl.credits.Load() <= 0 {
			if isCanceled() {
				s.aborted.Add(1)
				emitFinal(engine.ErrPlanCanceled.Error())
				return
			}
			select {
			case <-fl.notify:
			case <-connDone:
				out.abandon()
				return // connection gone; there is nobody to send to
			}
		}
		if isCanceled() {
			s.aborted.Add(1)
			emitFinal(engine.ErrPlanCanceled.Error())
			return
		}
		start := latScanChunk.sampleStart()
		maxEntries := chunkEntries
		if rem := limit - sent; rem < maxEntries {
			maxEntries = rem
		}
		res, err := s.e.ScanChunk(sc.Table, cursor, sc.Hi, flt, maxEntries, isCanceled)
		if err != nil {
			s.aborted.Add(1)
			emitFinal(fmt.Sprintf("scan: %v", err))
			return
		}
		sent += len(res.Entries)
		chunk := &wire.ScanChunk{ID: f.ID, Final: res.Done || sent >= limit, Entries: res.Entries}
		fl.credits.Add(-1)
		m := outMsg{raw: wire.AppendScanChunk(nil, chunk)}
		if chunk.Final {
			out.reply(m)
		} else {
			out.send(m)
		}
		latScanChunk.observe(start)
		if chunk.Final {
			s.committed.Add(1)
			return
		}
		cursor = res.Next
	}
}

// mustRequestID extracts the best-effort request ID from a frame payload.
func mustRequestID(payload []byte) uint64 {
	id, _ := wire.RequestID(payload)
	return id
}
