// Package plan defines declarative transaction flow graphs: transactions as
// phases of typed, introspectable operations with explicit data
// dependencies, the programmatic form of the paper's Section 3.1 "directed
// graphs of actions".
//
// A Plan is the single transaction representation of the system.  The same
// value executes in-process (engine.Session.ExecutePlan), travels whole over
// the wire as the one transaction request frame (package wire, package
// client), and is compiled by the engine into the native phased request
// that all five execution designs run.  Unlike the closure-based Action API, a Plan
// carries no Go code — every operation, condition and mutation is data — so
// a networked client gets the exact transaction surface an embedded caller
// has, in one round trip, stored-procedure style.
//
// # Phases and dependencies
//
// Ops within one phase are independent and may execute in parallel on
// different partition workers; phases execute in order.  A later op can bind
// its key or value to the result of an earlier-phase op (KeyFrom /
// ValueFrom), which is how the classic non-partition-aligned secondary probe
// is expressed: phase 1 looks the primary key up in the secondary index,
// phase 2 routes the record access by whatever key the probe produced.
//
//	b := plan.New()
//	probe := b.LookupSecondary("subscribers", "sub_nbr", secKey).Ref()
//	b.Then().Update("subscribers", nil, newLocation).KeyFrom(probe)
//	p, err := b.Build()
//
// If the op a binding refers to did not find its key, the dependent op is
// skipped (its result has Found=false) rather than aborting the transaction
// — the TATP GetSubscriberData shape.
//
// # Read-modify-write
//
// ReadModifyWrite evaluates a condition against the current record and
// applies a mutation server-side, removing the last reason networked
// clients needed a closure (or a read round trip) for TATP UpdateLocation
// or the TPC-B account/teller/branch updates:
//
//	b.Add("accounts", key, +42)                  // fetch-add an int64 record
//	b.AppendBytes("audit", key, entry)           // append to a record
//	b.CompareAndSet("cfg", key, expect, newVal)  // classic CAS
//
// A failed condition aborts the whole transaction (every design decides
// identically), so multi-op plans stay atomic.
package plan

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind identifies one operation type.
type Kind uint8

// The operation kinds.
const (
	// Get reads the record under Key.  A missing key is not an error: the
	// result has Found=false.
	Get Kind = iota + 1
	// Insert adds a record; a duplicate key aborts the transaction.
	Insert
	// Update overwrites an existing record; a missing key aborts.
	Update
	// Upsert inserts or overwrites.
	Upsert
	// Delete removes a record; deleting a missing key aborts.
	Delete
	// LookupSecondary resolves Key through the secondary index named by
	// Index and returns the stored primary key as the result Value.  A
	// missing entry is not an error (Found=false); ops bound to the result
	// are then skipped.
	LookupSecondary
	// InsertSecondary adds a secondary-index entry mapping Key to Value
	// (the primary key).
	InsertSecondary
	// DeleteSecondary removes the secondary-index entry under Key; removing
	// a missing entry is not an error.
	DeleteSecondary
	// Scan performs a bounded range scan of [Key, KeyEnd) — nil KeyEnd
	// scans to the end — returning at most Limit records in the result's
	// Entries.  Inside a plan, scans execute within the transaction and may
	// share a phase with any other read ops (each partition scans its own
	// clipped sub-range in parallel).
	Scan
	// ReadModifyWrite reads the record under Key, evaluates Cond against
	// it, applies Mut to produce the new record, writes it back (insert or
	// update as needed) and returns the new record as the result Value.  A
	// failed condition aborts the transaction.
	ReadModifyWrite

	maxKind = ReadModifyWrite
)

// String returns the op mnemonic.
func (k Kind) String() string {
	switch k {
	case Get:
		return "GET"
	case Insert:
		return "INSERT"
	case Update:
		return "UPDATE"
	case Upsert:
		return "UPSERT"
	case Delete:
		return "DELETE"
	case LookupSecondary:
		return "LOOKUPSEC"
	case InsertSecondary:
		return "INSSEC"
	case DeleteSecondary:
		return "DELSEC"
	case Scan:
		return "SCAN"
	case ReadModifyWrite:
		return "RMW"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// Valid reports whether the kind is defined.
func (k Kind) Valid() bool { return k >= Get && k <= maxKind }

// Writes reports whether the op kind modifies the database.  Read-only
// sessions are refused plans containing any writing op.
func (k Kind) Writes() bool {
	switch k {
	case Insert, Update, Upsert, Delete, InsertSecondary, DeleteSecondary, ReadModifyWrite:
		return true
	default:
		return false
	}
}

// Cond is a ReadModifyWrite precondition, evaluated against the current
// record before the mutation is applied.
type Cond uint8

// The conditions.
const (
	// CondNone applies the mutation unconditionally (a missing record
	// mutates the empty value and is inserted).
	CondNone Cond = iota
	// CondExists requires the record to exist.
	CondExists
	// CondNotExists requires the record to be absent.
	CondNotExists
	// CondValueEquals requires the record to exist and equal CondValue.
	CondValueEquals
)

// String returns the condition mnemonic.
func (c Cond) String() string {
	switch c {
	case CondNone:
		return "none"
	case CondExists:
		return "exists"
	case CondNotExists:
		return "not-exists"
	case CondValueEquals:
		return "value-equals"
	default:
		return fmt.Sprintf("cond(%d)", uint8(c))
	}
}

// Mut is a ReadModifyWrite mutation producing the new record from the old.
type Mut uint8

// The mutations.
const (
	// MutSet replaces the record with MutArg.
	MutSet Mut = iota
	// MutAddInt64 treats the record as a big-endian two's-complement int64
	// (a missing record is 0), adds the int64 encoded in MutArg and stores
	// the 8-byte result.  An existing record that is not exactly 8 bytes
	// aborts the transaction.
	MutAddInt64
	// MutAppend appends MutArg to the record (a missing record is empty).
	MutAppend
	// MutAddInt64At adds a delta to a big-endian int64 field inside a
	// larger record: MutArg is FieldArg(offset, Int64(delta)).  The record
	// must exist and reach offset+8 bytes.  This is what lets fixed-layout
	// workload rows (TPC-B balances, TATP locations) take the declarative
	// path without shipping whole records.
	MutAddInt64At
	// MutSetFieldAt overwrites a byte range inside a larger record: MutArg
	// is FieldArg(offset, newBytes).  The record must exist and reach
	// offset+len(newBytes) bytes.
	MutSetFieldAt
)

// String returns the mutation mnemonic.
func (m Mut) String() string {
	switch m {
	case MutSet:
		return "set"
	case MutAddInt64:
		return "add-int64"
	case MutAppend:
		return "append"
	case MutAddInt64At:
		return "add-int64-at"
	case MutSetFieldAt:
		return "set-field-at"
	default:
		return fmt.Sprintf("mut(%d)", uint8(m))
	}
}

// NoBind marks an unbound KeyFrom/ValueFrom.  Bindings are 1-based (the
// binding value is the flat op index plus one) so the zero Op binds
// nothing.
const NoBind int32 = 0

// Op is one typed operation of a plan.  The zero value is invalid; use the
// Builder (or fill the fields and Validate).
type Op struct {
	// Kind selects the operation.
	Kind Kind
	// Table names the target table.
	Table string
	// Index names the secondary index (secondary ops only).
	Index string
	// Key is the primary key — the secondary key for secondary ops, the
	// inclusive lower bound for Scan.  Ignored when KeyFrom binds.
	Key []byte
	// Value is the record image for writes (the primary key for
	// InsertSecondary).  Ignored when ValueFrom binds.
	Value []byte
	// KeyEnd is Scan's exclusive upper bound (nil scans to the end).
	KeyEnd []byte
	// Limit caps the records a Scan returns (0 selects the default).
	Limit uint32
	// Cond is the ReadModifyWrite precondition.
	Cond Cond
	// CondValue is the expected record for CondValueEquals.
	CondValue []byte
	// Mut is the ReadModifyWrite mutation.
	Mut Mut
	// MutArg is the mutation argument (new record, encoded delta, suffix).
	MutArg []byte
	// KeyFrom, when not NoBind, names an earlier-phase op (as 1 + its flat
	// index in phase order; use Builder.Ref) whose result Value supplies
	// this op's Key — and its routing key, which is the whole point: the
	// engine routes this op by a key produced at execution time.
	KeyFrom int32
	// ValueFrom, when not NoBind, names an earlier-phase op (1-based, like
	// KeyFrom) whose result Value supplies this op's Value — or, for
	// ReadModifyWrite, its mutation argument MutArg.
	ValueFrom int32
	// EachFrom, when not NoBind, names an earlier-phase Scan op (1-based,
	// like KeyFrom): this op executes once per entry the scan returned,
	// keyed (and routed) by the entry's key — the read-filter-update
	// fan-out.  Valid for Update, Upsert, Delete and ReadModifyWrite; the
	// op's Result carries one Entries element per executed record.
	EachFrom int32
	// Filter, valid on Scan ops only, restricts the entries the scan
	// returns to rows passing the predicate.  The engine compiles it into
	// a closure-free evaluator that runs inside the partition workers, so
	// non-matching rows are dropped where they live.
	Filter *Predicate
}

// Plan is one transaction: phases of ops.  Ops within a phase are
// independent and may run in parallel; phases run in order.
type Plan struct {
	Phases [][]Op
}

// NumOps returns the total op count (the length of the result slice).
func (p *Plan) NumOps() int {
	n := 0
	for _, ph := range p.Phases {
		n += len(ph)
	}
	return n
}

// Writes reports whether any op of the plan modifies the database.
func (p *Plan) Writes() bool {
	for _, ph := range p.Phases {
		for i := range ph {
			if ph[i].Kind.Writes() {
				return true
			}
		}
	}
	return false
}

// Validate checks the plan's static structure: defined kinds, named tables,
// bindings that refer to earlier phases, and phase-mates that do not write
// the same key.  The engine re-validates before compiling, so a hostile
// wire peer cannot skip these checks.
func (p *Plan) Validate() error {
	if p.NumOps() == 0 {
		return fmt.Errorf("plan: empty plan")
	}
	flat := 0
	phaseStart := 0
	// kinds holds the kind of every op validated so far, for bindings.  A
	// plan of a few ops keeps it on the stack.
	var kindsBuf [16]Kind
	kinds := kindsBuf[:0]
	for pi, ph := range p.Phases {
		if len(ph) == 0 {
			return fmt.Errorf("plan: phase %d is empty", pi)
		}
		// A large phase finds phase-mates on the same key through a map; a
		// small one compares pairs, allocating nothing.
		var touched map[string]Kind
		if len(ph) > pairwisePhaseOps {
			touched = make(map[string]Kind, len(ph))
		}
		for oi := range ph {
			op := &ph[oi]
			if !op.Kind.Valid() {
				return fmt.Errorf("plan: op %d: invalid kind %d", flat, uint8(op.Kind))
			}
			if op.Table == "" {
				return fmt.Errorf("plan: op %d (%v): missing table", flat, op.Kind)
			}
			switch op.Kind {
			case LookupSecondary, InsertSecondary, DeleteSecondary:
				if op.Index == "" {
					return fmt.Errorf("plan: op %d (%v): missing index", flat, op.Kind)
				}
			case ReadModifyWrite:
				if op.Cond == CondValueEquals && op.CondValue == nil {
					return fmt.Errorf("plan: op %d: value-equals condition with nil expected value", flat)
				}
				if op.Mut == MutAddInt64 && op.ValueFrom == NoBind && len(op.MutArg) != 8 {
					return fmt.Errorf("plan: op %d: add-int64 delta must be 8 bytes (use plan.Int64)", flat)
				}
				if op.Mut == MutAddInt64At && op.ValueFrom == NoBind && len(op.MutArg) != 12 {
					return fmt.Errorf("plan: op %d: add-int64-at needs a 12-byte offset+delta (use plan.FieldArg)", flat)
				}
				if op.Mut == MutSetFieldAt && op.ValueFrom == NoBind && len(op.MutArg) < 5 {
					return fmt.Errorf("plan: op %d: set-field-at needs an offset and at least one byte (use plan.FieldArg)", flat)
				}
				if op.Mut > MutSetFieldAt {
					return fmt.Errorf("plan: op %d: invalid mutation %d", flat, uint8(op.Mut))
				}
				if op.Cond > CondValueEquals {
					return fmt.Errorf("plan: op %d: invalid condition %d", flat, uint8(op.Cond))
				}
			case Scan:
				if op.KeyFrom != NoBind {
					return fmt.Errorf("plan: op %d: scans cannot bind their key", flat)
				}
				if op.Filter != nil {
					if err := op.Filter.Validate(); err != nil {
						return fmt.Errorf("plan: op %d: %w", flat, err)
					}
				}
			}
			if op.Filter != nil && op.Kind != Scan {
				return fmt.Errorf("plan: op %d (%v): filters are valid on scans only", flat, op.Kind)
			}
			if op.EachFrom != NoBind {
				switch op.Kind {
				case Update, Upsert, Delete, ReadModifyWrite:
				default:
					return fmt.Errorf("plan: op %d (%v): per-entry fan-out is valid for UPDATE/UPSERT/DELETE/RMW only", flat, op.Kind)
				}
				if op.KeyFrom != NoBind || op.ValueFrom != NoBind {
					return fmt.Errorf("plan: op %d (%v): per-entry fan-out cannot combine with key/value bindings", flat, op.Kind)
				}
				if op.EachFrom < 0 || int(op.EachFrom-1) >= phaseStart {
					return fmt.Errorf("plan: op %d (%v): fan-out over op %d, which is not in an earlier phase", flat, op.Kind, op.EachFrom-1)
				}
				if kinds[op.EachFrom-1] != Scan {
					return fmt.Errorf("plan: op %d (%v): fan-out over op %d, which is not a scan", flat, op.Kind, op.EachFrom-1)
				}
			}
			for _, bind := range [2]int32{op.KeyFrom, op.ValueFrom} {
				if bind == NoBind {
					continue
				}
				if bind < 0 || int(bind-1) >= phaseStart {
					return fmt.Errorf("plan: op %d (%v): binding to op %d, which is not in an earlier phase", flat, op.Kind, bind-1)
				}
				// A Scan has no single result value to bind to (its output
				// is the entry list; fan out over it with EachFrom instead).
				if kinds[bind-1] == Scan {
					return fmt.Errorf("plan: op %d (%v): binding to op %d, which is a scan", flat, op.Kind, bind-1)
				}
			}
			// Two phase-mates writing the same statically-known key would
			// race (ops within a phase run in parallel).
			if staticKey(op) {
				if touched != nil {
					k := op.Table + "\x00" + op.Index + "\x00" + string(op.Key)
					prev, dup := touched[k]
					if dup && (op.Kind.Writes() || prev.Writes()) {
						return dupWrite(flat, op)
					}
					if !dup || op.Kind.Writes() {
						touched[k] = op.Kind
					}
				} else {
					for i := range ph[:oi] {
						prev := &ph[i]
						if staticKey(prev) && prev.Table == op.Table && prev.Index == op.Index &&
							bytes.Equal(prev.Key, op.Key) && (op.Kind.Writes() || prev.Kind.Writes()) {
							return dupWrite(flat, op)
						}
					}
				}
			}
			kinds = append(kinds, op.Kind)
			flat++
		}
		phaseStart = flat
	}
	return nil
}

// pairwisePhaseOps is the phase size up to which Validate compares
// phase-mates' keys pairwise instead of through a map.
const pairwisePhaseOps = 16

// staticKey reports whether the op touches a key known before execution,
// which the same-phase duplicate-write check compares.
func staticKey(op *Op) bool {
	return op.KeyFrom == NoBind && op.EachFrom == NoBind && op.Kind != Scan
}

// dupWrite is Validate's error for two phase-mates on one key, one writing.
func dupWrite(flat int, op *Op) error {
	return fmt.Errorf("plan: op %d (%v): writes a key already touched in the same phase; move it to a later phase", flat, op.Kind)
}

// Entry is one record returned by a Scan op.
type Entry struct {
	// Key is the record's primary key.
	Key []byte
	// Value is the record image.
	Value []byte
}

// Result is the outcome of one op, indexed flat in phase order.
type Result struct {
	// Found reports whether a read found its key (for Scan, whether any
	// record matched; for writes and RMW, whether the op executed).
	Found bool
	// Value is the read result: the record for Get, the primary key for
	// LookupSecondary, the new record for ReadModifyWrite.
	Value []byte
	// Entries holds a Scan's records in key order — or, for an op fanned
	// out with EachFrom, one element per executed record (Key is the
	// record key; Value is the new record for RMW/Upsert/Update).
	Entries []Entry
	// Err is the op's error message when the op aborted the transaction
	// (empty otherwise).
	Err string
}

// Int64 encodes a big-endian two's-complement int64, the record format of
// MutAddInt64 and its delta encoding.
func Int64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// DecodeInt64 decodes a record written by MutAddInt64.
func DecodeInt64(b []byte) (int64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("plan: int64 record must be 8 bytes, got %d", len(b))
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

// FieldArg encodes the MutArg of the field mutations (MutAddInt64At,
// MutSetFieldAt): a 4-byte big-endian record offset followed by the field
// bytes (the 8-byte delta for MutAddInt64At, the replacement bytes for
// MutSetFieldAt).
func FieldArg(offset uint32, field []byte) []byte {
	out := make([]byte, 4+len(field))
	binary.BigEndian.PutUint32(out, offset)
	copy(out[4:], field)
	return out
}

// DecodeFieldArg splits a FieldArg back into offset and field bytes.  The
// field aliases the argument.
func DecodeFieldArg(arg []byte) (offset uint32, field []byte, err error) {
	if len(arg) < 5 {
		return 0, nil, fmt.Errorf("plan: field arg must be offset plus at least one byte, got %d", len(arg))
	}
	return binary.BigEndian.Uint32(arg), arg[4:], nil
}
