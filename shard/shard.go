// Package shard defines the cross-process shard map: a versioned, static
// assignment of key ranges to plpd processes, layered over the same
// order-preserving key encoding (package keys) that drives in-process
// partitioning.
//
// A Map carries a monotonically increasing version and an ordered list of
// shards.  Each shard owns the contiguous key range [previous shard's End,
// its own End); the last shard's End is nil, meaning the range is open to
// the top of the keyspace.  The same map covers every table — cross-process
// sharding splits the keyspace, not the schema — so a key's owner is a pure
// function of the map and the key bytes, computable identically by clients,
// coordinators and participants.  Map.Placement extends it to whole plans
// (package plan), so clients route and servers check by one rule.
//
// The map is distributed as a small text file (see Parse/Encode) loaded by
// plpd at startup (-shard-map/-shard-id) and fetched by clients over the
// wire (the shard-map frame).  The version exists so a later controller can
// move ranges: a process or client holding a map with a lower version than
// the one a server answers with must refresh and re-route, mirroring the
// epoch-checked mis-route forwarding the in-process executor already does
// for moved partitions.
package shard

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"plp/keys"
	"plp/plan"
)

// Shard is one plpd process and the key range it owns.
type Shard struct {
	// ID identifies the shard; gids and wrong-shard errors name shards by
	// it.  IDs must be unique but need not be dense.
	ID int
	// Addr is the shard's plpd listen address ("host:port").
	Addr string
	// End is the exclusive upper bound of the shard's key range; nil on the
	// last shard means the range is open-ended.  The lower bound is the
	// previous shard's End (nil on the first shard).
	End []byte
	// Replicas lists the shard's followers.  Addr remains the primary —
	// the only address that accepts writes; replicas serve reads and stand
	// by for promotion.  May be empty (unreplicated shard).
	Replicas []Replica
}

// Replica is one follower of a shard's primary.
type Replica struct {
	// ID identifies the replica within its shard (unique per shard).
	ID int
	// Addr is the follower's plpd listen address ("host:port").
	Addr string
}

// Map is a versioned assignment of the keyspace to shards.
type Map struct {
	// Version increases on every reassignment; higher versions win.
	Version uint64
	// Shards are ordered by key range, ascending.
	Shards []Shard
}

// Validate checks structural invariants: at least one shard, unique IDs,
// non-empty addresses, strictly ascending boundaries, and exactly one
// open-ended (last) shard.
func (m *Map) Validate() error {
	if m == nil || len(m.Shards) == 0 {
		return fmt.Errorf("shard: map has no shards")
	}
	seen := make(map[int]struct{}, len(m.Shards))
	for i, s := range m.Shards {
		if s.Addr == "" {
			return fmt.Errorf("shard: shard %d has no address", s.ID)
		}
		if _, dup := seen[s.ID]; dup {
			return fmt.Errorf("shard: duplicate shard id %d", s.ID)
		}
		seen[s.ID] = struct{}{}
		rseen := make(map[int]struct{}, len(s.Replicas))
		for _, r := range s.Replicas {
			if r.Addr == "" {
				return fmt.Errorf("shard: shard %d replica %d has no address", s.ID, r.ID)
			}
			if _, dup := rseen[r.ID]; dup {
				return fmt.Errorf("shard: shard %d has duplicate replica id %d", s.ID, r.ID)
			}
			rseen[r.ID] = struct{}{}
		}
		last := i == len(m.Shards)-1
		if last {
			if s.End != nil {
				return fmt.Errorf("shard: last shard %d must be open-ended", s.ID)
			}
			continue
		}
		if s.End == nil {
			return fmt.Errorf("shard: non-final shard %d is open-ended", s.ID)
		}
		if i > 0 && keys.Compare(m.Shards[i-1].End, s.End) >= 0 {
			return fmt.Errorf("shard: boundaries not ascending at shard %d", s.ID)
		}
	}
	return nil
}

// Owner returns the ID of the shard owning key.
func (m *Map) Owner(key []byte) int {
	i := sort.Search(len(m.Shards)-1, func(i int) bool {
		return keys.Compare(key, m.Shards[i].End) < 0
	})
	return m.Shards[i].ID
}

// OpOwner returns the shard op runs on, for a plan received by shard self.
// A point op whose key the plan carries runs on that key's owner.
// Secondary-index ops and scans stay on the shard that received the plan
// (secondary indexes are shard-local), as do ops keyed at execution time by
// a binding or a fan-out.
func (m *Map) OpOwner(op *plan.Op, self int) int {
	switch op.Kind {
	case plan.Get, plan.Insert, plan.Update, plan.Upsert, plan.Delete, plan.ReadModifyWrite:
		if op.KeyFrom == plan.NoBind && op.EachFrom == plan.NoBind {
			return m.Owner(op.Key)
		}
	}
	return self
}

// Placement is the one shard-ownership rule, shared by the servers that
// check plans and the clients that route them.  foreign is the first shard
// other than self that owns one of p's ops (self when there is none); spans
// reports that p's ops fall on more than one shard.  So a plan received by
// self runs there when foreign == self, belongs to shard foreign when
// !spans, and otherwise needs a cross-shard commit, which any shard owning
// one of its ops can coordinate.
func (m *Map) Placement(p *plan.Plan, self int) (foreign int, spans bool) {
	foreign = self
	local := false
	for _, ph := range p.Phases {
		for i := range ph {
			switch o := m.OpOwner(&ph[i], self); {
			case o == self:
				local = true
			case foreign == self:
				foreign = o
			case o != foreign:
				spans = true
			}
		}
	}
	return foreign, spans || (local && foreign != self)
}

// ByID returns the shard with the given ID.
func (m *Map) ByID(id int) (Shard, bool) {
	for _, s := range m.Shards {
		if s.ID == id {
			return s, true
		}
	}
	return Shard{}, false
}

// AddrOf returns the address of the shard with the given ID ("" if absent).
func (m *Map) AddrOf(id int) string {
	s, ok := m.ByID(id)
	if !ok {
		return ""
	}
	return s.Addr
}

// Range returns the key range [lo, hi) owned by the shard with the given
// ID; nil bounds are open.
func (m *Map) Range(id int) (lo, hi []byte, ok bool) {
	for i, s := range m.Shards {
		if s.ID != id {
			continue
		}
		if i > 0 {
			lo = m.Shards[i-1].End
		}
		return lo, s.End, true
	}
	return nil, nil, false
}

// Promote rewrites the map for a failover in shard shardID: the replica at
// addr becomes the shard's primary, the old primary takes the promoted
// replica's slot (so a revived old primary re-seeds as a follower), and the
// version is bumped so the new map wins everywhere it propagates.  It is a
// no-op error if addr is not one of the shard's replicas.
func (m *Map) Promote(shardID int, addr string) error {
	for i := range m.Shards {
		s := &m.Shards[i]
		if s.ID != shardID {
			continue
		}
		for j := range s.Replicas {
			if s.Replicas[j].Addr != addr {
				continue
			}
			s.Addr, s.Replicas[j].Addr = s.Replicas[j].Addr, s.Addr
			m.Version++
			return nil
		}
		return fmt.Errorf("shard: %s is not a replica of shard %d", addr, shardID)
	}
	return fmt.Errorf("shard: no shard %d", shardID)
}

// Clone returns a deep copy of the map.
func (m *Map) Clone() *Map {
	out := &Map{Version: m.Version, Shards: make([]Shard, len(m.Shards))}
	for i, s := range m.Shards {
		out.Shards[i] = Shard{ID: s.ID, Addr: s.Addr}
		if s.End != nil {
			out.Shards[i].End = append([]byte(nil), s.End...)
		}
		if len(s.Replicas) > 0 {
			out.Shards[i].Replicas = append([]Replica(nil), s.Replicas...)
		}
	}
	return out
}

// encodeBound renders a range bound for the text format: "-" for open,
// a decimal uint64 when the bound is an 8-byte uint64 key, hex otherwise.
func encodeBound(b []byte) string {
	if b == nil {
		return "-"
	}
	if len(b) == 8 {
		if v, err := keys.DecodeUint64(b); err == nil {
			return strconv.FormatUint(v, 10)
		}
	}
	return "0x" + hex.EncodeToString(b)
}

// parseBound parses a range bound: "-" is open, "0x<hex>" is raw key bytes,
// a plain decimal is encoded as a uint64 key.
func parseBound(s string) ([]byte, error) {
	if s == "-" {
		return nil, nil
	}
	if rest, ok := strings.CutPrefix(s, "0x"); ok {
		b, err := hex.DecodeString(rest)
		if err != nil {
			return nil, fmt.Errorf("shard: bad hex bound %q: %v", s, err)
		}
		return b, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("shard: bad bound %q (want '-', 0x<hex> or uint64)", s)
	}
	return keys.Uint64(v), nil
}

// Encode renders the map in its text file format:
//
//	version 1
//	shard 0 127.0.0.1:7070 500000
//	shard 1 127.0.0.1:7071 -
//
// Each shard line is "shard <id> <addr> <end>"; <end> is the exclusive
// upper bound of the shard's range ("-" on the last, open-ended shard;
// plain decimals are uint64 keys, 0x-prefixed hex is raw key bytes).
// A "replica <shard-id> <replica-id> <addr>" line attaches a follower to a
// previously declared shard.
func (m *Map) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "version %d\n", m.Version)
	for _, s := range m.Shards {
		fmt.Fprintf(&b, "shard %d %s %s\n", s.ID, s.Addr, encodeBound(s.End))
		for _, r := range s.Replicas {
			fmt.Fprintf(&b, "replica %d %d %s\n", s.ID, r.ID, r.Addr)
		}
	}
	return b.Bytes()
}

// Parse reads a map in the Encode text format.  Blank lines and #-comments
// are ignored.  The parsed map is validated.
func Parse(data []byte) (*Map, error) {
	m := &Map{}
	sawVersion := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "version":
			if len(fields) != 2 {
				return nil, fmt.Errorf("shard: line %d: want 'version <n>'", line)
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("shard: line %d: bad version: %v", line, err)
			}
			m.Version = v
			sawVersion = true
		case "shard":
			if len(fields) != 4 {
				return nil, fmt.Errorf("shard: line %d: want 'shard <id> <addr> <end>'", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("shard: line %d: bad shard id: %v", line, err)
			}
			end, err := parseBound(fields[3])
			if err != nil {
				return nil, fmt.Errorf("shard: line %d: %v", line, err)
			}
			m.Shards = append(m.Shards, Shard{ID: id, Addr: fields[2], End: end})
		case "replica":
			if len(fields) != 4 {
				return nil, fmt.Errorf("shard: line %d: want 'replica <shard-id> <replica-id> <addr>'", line)
			}
			sid, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("shard: line %d: bad shard id: %v", line, err)
			}
			rid, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("shard: line %d: bad replica id: %v", line, err)
			}
			placed := false
			for i := range m.Shards {
				if m.Shards[i].ID == sid {
					m.Shards[i].Replicas = append(m.Shards[i].Replicas, Replica{ID: rid, Addr: fields[3]})
					placed = true
					break
				}
			}
			if !placed {
				return nil, fmt.Errorf("shard: line %d: replica references undeclared shard %d", line, sid)
			}
		default:
			return nil, fmt.Errorf("shard: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawVersion {
		return nil, fmt.Errorf("shard: missing 'version' line")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseFile loads and parses a map file.
func ParseFile(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}
