// Replication endpoint: a follower's connection is an ordinary wire
// session whose first post-handshake frame is a REPL-SUBSCRIBE.  The
// connection then leaves the request/response pipeline for a dedicated
// full-duplex loop — a streamer goroutine pushes durable log batches, the
// connection goroutine consumes progress acks — until either side drops.
package server

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"plp/internal/repl"
	"plp/internal/wal"
	"plp/wire"
)

// DefaultReplHeartbeat is the idle-stream heartbeat interval (see
// Server.ReplHeartbeat).
const DefaultReplHeartbeat = time.Second

// replHeartbeat returns the configured heartbeat interval.
func (s *Server) replHeartbeat() time.Duration {
	if s.ReplHeartbeat > 0 {
		return s.ReplHeartbeat
	}
	return DefaultReplHeartbeat
}

// PromoteFunc serves the "promote" control verb on a follower: sever the
// stream, fence the old primary's lineage, start accepting writes, and
// return a human-readable summary.
type PromoteFunc func() (string, error)

// ReplStatusFunc serves the "repl status" control verb: a human-readable
// (JSON) snapshot of this node's replication role and progress.
type ReplStatusFunc func() (string, error)

// SetReplPrimary installs (or, with nil, removes) the replication hub that
// accepts follower subscriptions on this server.  Changing the hub is a
// role transition, so every live subscriber stream is severed: the
// followers reconnect, resubscribe, and discover the node's new role
// instead of leasing liveness off heartbeats from a frozen log.
func (s *Server) SetReplPrimary(p *repl.Primary) {
	s.replPrimary.Store(p)
	s.replConnsMu.Lock()
	for c := range s.replConns {
		_ = c.Close()
	}
	s.replConnsMu.Unlock()
}

// ReplPrimary returns the installed replication hub, or nil.
func (s *Server) ReplPrimary() *repl.Primary { return s.replPrimary.Load() }

// replEpoch returns the replication epoch of the installed hub, 0 when the
// node is not a primary.
func (s *Server) replEpoch() uint64 {
	if p := s.replPrimary.Load(); p != nil {
		return p.Epoch()
	}
	return 0
}

// SetFollowerMode flips the server's follower stance.  A follower serves
// reads (gets, secondary lookups, scans, read-only plans) from its
// replicated state but refuses every write op, transaction branch and
// log-appending control verb: its log must remain a byte-identical prefix
// of the primary's.
func (s *Server) SetFollowerMode(on bool) {
	s.followerMode.Store(on)
}

// FollowerMode reports the server's follower stance.
func (s *Server) FollowerMode() bool { return s.followerMode.Load() }

// SetSeedingFunc installs (or, with nil, removes) the callback reporting
// whether this follower is inside an incomplete snapshot re-seed.  While
// it reports true the server refuses data reads too — the engine was
// wiped and only partially rebuilt, so serving from it would return "not
// found" for committed rows — and routing clients fall through to the
// primary or a healthy replica.
func (s *Server) SetSeedingFunc(fn func() bool) {
	if fn == nil {
		s.seedingFn.Store(nil)
		return
	}
	s.seedingFn.Store(&fn)
}

// seeding reports whether an incomplete re-seed makes local reads unsafe.
func (s *Server) seeding() bool {
	fn := s.seedingFn.Load()
	return fn != nil && (*fn)()
}

// SetPromoteHandler installs (or, with nil, removes) the function behind
// the "promote" control verb.
func (s *Server) SetPromoteHandler(fn PromoteFunc) {
	if fn == nil {
		s.promote.Store(nil)
		return
	}
	s.promote.Store(&fn)
}

// SetReplStatusHandler installs (or, with nil, removes) the function behind
// the "repl status" control verb.
func (s *Server) SetReplStatusHandler(fn ReplStatusFunc) {
	if fn == nil {
		s.replStatus.Store(nil)
		return
	}
	s.replStatus.Store(&fn)
}

// executePromote runs the "promote" control verb.
func (s *Server) executePromote() wire.StatementResult {
	fn := s.promote.Load()
	if fn == nil {
		return wire.StatementResult{Err: "this node is not a follower (nothing to promote)"}
	}
	out, err := (*fn)()
	if err != nil {
		return wire.StatementResult{Err: err.Error()}
	}
	return wire.StatementResult{Found: true, Value: []byte(out)}
}

// executeReplStatus runs the "repl status" control verb.
func (s *Server) executeReplStatus() wire.StatementResult {
	fn := s.replStatus.Load()
	if fn == nil {
		return wire.StatementResult{Err: "this node has no replication role (start plpd with -data-dir, or -follow)"}
	}
	out, err := (*fn)()
	if err != nil {
		return wire.StatementResult{Err: err.Error()}
	}
	return wire.StatementResult{Found: true, Value: []byte(out)}
}

// serveReplication owns a follower's connection after its REPL-SUBSCRIBE
// frame.  The subscribe response carries either a refusal in Err or the
// primary's epoch and durable horizon; on acceptance the connection splits
// into the record streamer (its own goroutine) and the ack reader (this
// goroutine), and closes when either direction fails.
func (s *Server) serveReplication(conn net.Conn, br *bufio.Reader, payload []byte, cs session) {
	id, _ := wire.RequestID(payload)
	refuse := func(msg string) {
		resp := &wire.Response{ID: id, Err: msg}
		_ = wire.WriteFrame(conn, wire.AppendResponse(nil, resp))
	}
	f, err := wire.DecodeFrameV3(payload)
	if err != nil {
		refuse(fmt.Sprintf("decode: %v", err))
		return
	}
	// Receiving the write stream reveals every row of the database:
	// subscription is write-privileged, like control verbs.
	if !cs.authed {
		refuse(wire.ReplRefusedPrefix + ": subscription requires an authenticated session (connect with the primary's -token)")
		return
	}
	p := s.replPrimary.Load()
	if p == nil {
		refuse(wire.ReplRefusedPrefix + ": this server does not accept replication subscriptions (no durable log, or follower not yet promoted)")
		return
	}
	sub, err := p.SubscribeOrSeed(wal.LSN(f.StartLSN), f.ReplEpoch, f.ReplNode, conn.RemoteAddr().String())
	if err != nil {
		refuse(err.Error())
		return
	}
	defer sub.Close()

	// Track the stream so a promote/demote transition can sever it (see
	// SetReplPrimary).
	s.replConnsMu.Lock()
	s.replConns[conn] = struct{}{}
	s.replConnsMu.Unlock()
	defer func() {
		s.replConnsMu.Lock()
		delete(s.replConns, conn)
		s.replConnsMu.Unlock()
	}()
	if s.replPrimary.Load() != p {
		// The role flipped between subscribing and registering the conn;
		// the sweep in SetReplPrimary may have missed this stream.
		return
	}

	seedStart, seedTarget, seeding := sub.Seeding()
	ackBlob := wire.EncodeReplSubscribeAck(p.Epoch(), uint64(p.DurableLSN()))
	if seeding {
		ackBlob = wire.EncodeReplSubscribeAckSeed(p.Epoch(), uint64(p.DurableLSN()))
	}
	accept := &wire.Response{ID: id, Committed: true, Results: []wire.StatementResult{{
		Found: true, Value: ackBlob,
	}}}
	if err := wire.WriteFrame(conn, wire.AppendResponse(nil, accept)); err != nil {
		return
	}

	stop := make(chan struct{})
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		bw := bufio.NewWriterSize(conn, 64<<10)
		var seq uint64
		send := func(payload []byte) bool {
			if err := wire.WriteFrame(bw, payload); err != nil {
				_ = conn.Close() // unblock the ack reader
				return false
			}
			if err := bw.Flush(); err != nil {
				_ = conn.Close()
				return false
			}
			return true
		}
		if seeding {
			seq++
			if !send(wire.EncodeReplSeedBegin(seq, uint64(seedStart), uint64(seedTarget))) {
				return
			}
			if seedTarget <= seedStart {
				// Empty retained log: nothing to seed, the follower just
				// adopts the primary's lineage and streams from here.
				seeding = false
				seq++
				if !send(wire.EncodeReplSeedEnd(seq)) {
					return
				}
			}
		}
		// Next blocks until durable records exist, so it runs in its own
		// pump goroutine: the select below keeps heartbeats flowing while
		// the log is idle.  Next returns on stop, and the pump with it.
		type batch struct {
			repl.Batch
			err error
		}
		batches := make(chan batch)
		go func() {
			for {
				b, err := sub.Next(stop)
				select {
				case batches <- batch{b, err}:
					if err != nil {
						return
					}
				case <-stop:
					return
				}
			}
		}()
		hb := time.NewTicker(s.replHeartbeat())
		defer hb.Stop()
		for {
			select {
			case <-stop:
				return
			case <-hb.C:
				seq++
				if !send(wire.EncodeReplHeartbeat(seq)) {
					return
				}
			case b := <-batches:
				if b.err != nil {
					// A cursor error (e.g. the retained prefix truncated out
					// from under a parked subscription) must sever the
					// connection, or the ack reader — and the follower —
					// would block on a silently dead stream.
					_ = conn.Close()
					return
				}
				seq++
				if !send(wire.EncodeReplRecords(seq, uint64(b.First), b.Frames)) {
					return
				}
				if seeding && b.End >= seedTarget {
					seeding = false
					seq++
					if !send(wire.EncodeReplSeedEnd(seq)) {
						return
					}
				}
			}
		}
	}()

	for {
		ackPayload, err := wire.ReadFrame(br)
		if err != nil {
			break
		}
		af, err := wire.DecodeFrameV3(ackPayload)
		if err != nil || af.Kind != wire.FrameReplAck {
			break
		}
		sub.UpdateAck(af.AppliedLSN, af.DurableLSN)
	}
	sub.Close() // release the retention pin before the streamer drains
	close(stop)
	_ = conn.Close()
	<-streamDone
}
