// Sharding frames: the frame kinds that carry the cross-process shard
// map and the two-phase commit traffic between plpd processes.
//
// A SHARD-MAP frame asks the server for its current shard map; the reply is
// an ordinary response whose single result Value holds the map in its text
// encoding (package shard).  PREPARE ships one branch of a cross-shard
// transaction to a participant: the branch's plan executes there and the
// participant votes by committing the response (Committed=true is a durable
// yes).  DECIDE delivers the coordinator's verdict for a gid — or, in query
// mode, asks the coordinator whether it durably decided commit, which is
// how a participant stuck in doubt after a crash chases the decision.
//
// Wrong-shard routing errors travel as ordinary transaction errors whose
// message starts with WrongShardPrefix; the server appends its current map
// to the refusing response so one round trip both rejects and refreshes.
package wire

import (
	"fmt"

	"plp/plan"
)

// The sharding frame kinds (continuing the FrameKind space of wire.go).
const (
	// FrameShardMap requests the server's current shard map.
	FrameShardMap FrameKind = 3
	// FramePrepare executes one branch of a cross-shard transaction and
	// votes on its commit.
	FramePrepare FrameKind = 4
	// FrameDecide delivers (or queries) the coordinator's commit decision.
	FrameDecide FrameKind = 5
)

// DecideMode is the verb of a FrameDecide.
type DecideMode uint8

// Decide modes.
const (
	// DecideAbort tells the participant to roll the prepared branch back.
	DecideAbort DecideMode = 0
	// DecideCommit tells the participant to commit the prepared branch.
	DecideCommit DecideMode = 1
	// DecideQuery asks the receiver, as coordinator, whether it durably
	// decided to commit the gid; the response's Committed reports it.
	DecideQuery DecideMode = 2
)

// WrongShardPrefix starts every routing-refusal error message.  The rest of
// the message is human-readable; the refusing response carries the server's
// current encoded shard map in Results[0].Value so the client can refresh
// and re-route without an extra round trip.
const WrongShardPrefix = "wrong shard"

// IsWrongShard reports whether a transaction error message is a routing
// refusal.
func IsWrongShard(msg string) bool {
	return len(msg) >= len(WrongShardPrefix) && msg[:len(WrongShardPrefix)] == WrongShardPrefix
}

// EncodeShardMapRequest serializes a SHARD-MAP request payload.
func EncodeShardMapRequest(id uint64) []byte {
	out := appendUint64(make([]byte, 0, 9), id)
	return append(out, byte(FrameShardMap))
}

// EncodePrepareRequest serializes a PREPARE payload: the branch's gid, the
// shard-map version the coordinator routed under, and the branch's plan
// (the plan frame's body encoding).
func EncodePrepareRequest(id uint64, gid string, mapVersion uint64, p *plan.Plan) []byte {
	out := appendUint64(make([]byte, 0, 8+1+4+len(gid)+8+planSize(p)), id)
	out = append(out, byte(FramePrepare))
	out = appendString(out, gid)
	out = appendUint64(out, mapVersion)
	return appendPlan(out, p)
}

// EncodeDecideRequest serializes a DECIDE payload for the given gid.
func EncodeDecideRequest(id uint64, gid string, mode DecideMode) []byte {
	out := appendUint64(make([]byte, 0, 8+1+4+len(gid)+1), id)
	out = append(out, byte(FrameDecide))
	out = appendString(out, gid)
	return append(out, byte(mode))
}

// decodeShardFrame parses the body of a SHARD-MAP, PREPARE or DECIDE frame;
// the reader is positioned just past the kind byte.
func decodeShardFrame(f *Frame, r *reader) error {
	switch f.Kind {
	case FrameShardMap:
		return nil
	case FramePrepare:
		f.GID = r.str()
		f.MapVersion = r.uint64()
		p, err := r.plan(f.Plan)
		if err != nil {
			return err
		}
		if f.GID == "" {
			return fmt.Errorf("%w: prepare without gid", ErrShortPayload)
		}
		f.Plan = p
		return nil
	case FrameDecide:
		f.GID = r.str()
		f.DecideMode = DecideMode(r.byteVal())
		if r.err != nil {
			return r.err
		}
		if f.GID == "" {
			return fmt.Errorf("%w: decide without gid", ErrShortPayload)
		}
		if f.DecideMode > DecideQuery {
			return fmt.Errorf("%w: decide mode %d", ErrBadOp, f.DecideMode)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown shard frame kind %d", ErrBadOp, f.Kind)
	}
}
