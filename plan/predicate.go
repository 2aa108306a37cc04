// Predicates: typed filter trees pushed down into scans.
//
// A Predicate describes a row filter as data — comparisons over the raw
// record bytes (or an int64 field at a fixed offset), prefix matches, and
// AND/OR/NOT combinations — so it can travel over the wire inside a plan
// and execute inside the partition workers where the rows live.  Compile
// lowers the tree into a Filter, a flat postfix program whose Eval runs
// closure-free and allocation-free on the scan hot path.
package plan

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// PredKind identifies one predicate node type.
type PredKind uint8

// The predicate node kinds.
const (
	// PredCmp compares a field of the record (or key) against Arg using
	// the Cmp operator.
	PredCmp PredKind = iota + 1
	// PredPrefix tests whether the field starts with Arg.
	PredPrefix
	// PredAnd is true when every child is true.
	PredAnd
	// PredOr is true when any child is true.
	PredOr
	// PredNot negates its single child.
	PredNot

	maxPredKind = PredNot
)

// CmpOp is a PredCmp comparison operator.
type CmpOp uint8

// The comparison operators.  Raw-byte fields compare lexicographically
// (bytes.Compare); Int64 fields compare as signed integers.
const (
	CmpEq CmpOp = iota + 1
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe

	maxCmpOp = CmpGe
)

// String returns the operator mnemonic.
func (c CmpOp) String() string {
	switch c {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return fmt.Sprintf("cmp(%d)", uint8(c))
	}
}

// Structural limits, enforced by Validate and by the wire decoder so a
// hostile peer cannot ship unbounded trees.
const (
	// MaxPredNodes caps the total node count of one predicate tree.
	MaxPredNodes = 1024
	// MaxPredDepth caps the nesting depth.
	MaxPredDepth = 32
	// maxFilterStack is the fixed evaluation stack of a compiled Filter.
	// Validate rejects trees whose postfix evaluation could exceed it.
	maxFilterStack = 64
)

// Predicate is one node of a filter tree.  Leaves (PredCmp, PredPrefix)
// select a field of the row and test it; interior nodes combine children.
//
// Field selection: the source is the record value, or the key when OnKey is
// set.  The field is source[Offset:Offset+Length] (Length 0 takes the rest
// of the source).  When Int64 is set the field is the 8-byte big-endian
// two's-complement integer at Offset — the MutAddInt64 record format — and
// Arg must be 8 bytes (use plan.Int64).
//
// A row whose source is too short to contain the field fails the leaf test
// (the leaf is false; NOT of it is true).  This "missing field is false"
// rule keeps evaluation total over arbitrary stored bytes.
type Predicate struct {
	// Kind selects the node type.
	Kind PredKind
	// Cmp is the comparison operator (PredCmp only; a prefix test ignores
	// it, in evaluation and in the plan cache's shape key alike).
	Cmp CmpOp
	// OnKey selects the record key as the field source instead of the value.
	OnKey bool
	// Int64 interprets the field as an 8-byte big-endian signed integer.
	Int64 bool
	// Offset is the field's byte offset into the source.
	Offset uint32
	// Length is the field's byte length; 0 takes the rest of the source
	// (ignored for Int64 fields, which are always 8 bytes).
	Length uint32
	// Arg is the comparison operand (PredCmp) or prefix (PredPrefix).
	Arg []byte
	// Kids are the children (PredAnd/PredOr: one or more; PredNot: one).
	Kids []*Predicate
}

// --- constructors -----------------------------------------------------------

// ValueCmp compares the whole record value against arg.
func ValueCmp(op CmpOp, arg []byte) *Predicate {
	return &Predicate{Kind: PredCmp, Cmp: op, Arg: arg}
}

// ValueEq is ValueCmp(CmpEq, arg).
func ValueEq(arg []byte) *Predicate { return ValueCmp(CmpEq, arg) }

// FieldCmp compares the record bytes [off, off+length) against arg
// (length 0 takes the rest of the record).
func FieldCmp(off, length uint32, op CmpOp, arg []byte) *Predicate {
	return &Predicate{Kind: PredCmp, Cmp: op, Offset: off, Length: length, Arg: arg}
}

// Int64Cmp compares the 8-byte big-endian signed integer at off against v.
func Int64Cmp(off uint32, op CmpOp, v int64) *Predicate {
	return &Predicate{Kind: PredCmp, Cmp: op, Int64: true, Offset: off, Arg: Int64(v)}
}

// KeyCmp compares the whole record key against arg.
func KeyCmp(op CmpOp, arg []byte) *Predicate {
	return &Predicate{Kind: PredCmp, Cmp: op, OnKey: true, Arg: arg}
}

// ValuePrefix tests whether the record value starts with prefix.
func ValuePrefix(prefix []byte) *Predicate {
	return &Predicate{Kind: PredPrefix, Arg: prefix}
}

// KeyPrefix tests whether the record key starts with prefix.
func KeyPrefix(prefix []byte) *Predicate {
	return &Predicate{Kind: PredPrefix, OnKey: true, Arg: prefix}
}

// And is true when every child predicate is true.
func And(kids ...*Predicate) *Predicate { return &Predicate{Kind: PredAnd, Kids: kids} }

// Or is true when any child predicate is true.
func Or(kids ...*Predicate) *Predicate { return &Predicate{Kind: PredOr, Kids: kids} }

// Not negates p.
func Not(p *Predicate) *Predicate { return &Predicate{Kind: PredNot, Kids: []*Predicate{p}} }

// --- validation -------------------------------------------------------------

// Validate checks the tree's structure: defined kinds and operators, arity,
// 8-byte args for Int64 comparisons, no Int64 flag on prefix tests (which
// read raw bytes), and the node/depth/stack limits that bound hostile
// input.
func (p *Predicate) Validate() error {
	nodes := 0
	_, err := p.validate(&nodes, 1)
	return err
}

// validate returns the postfix evaluation stack need of the subtree.
func (p *Predicate) validate(nodes *int, depth int) (int, error) {
	if p == nil {
		return 0, fmt.Errorf("plan: nil predicate node")
	}
	if depth > MaxPredDepth {
		return 0, fmt.Errorf("plan: predicate deeper than %d", MaxPredDepth)
	}
	if *nodes++; *nodes > MaxPredNodes {
		return 0, fmt.Errorf("plan: predicate has more than %d nodes", MaxPredNodes)
	}
	switch p.Kind {
	case PredCmp:
		if p.Cmp < CmpEq || p.Cmp > maxCmpOp {
			return 0, fmt.Errorf("plan: invalid comparison operator %d", uint8(p.Cmp))
		}
		if p.Int64 && len(p.Arg) != 8 {
			return 0, fmt.Errorf("plan: int64 predicate arg must be 8 bytes (use plan.Int64), got %d", len(p.Arg))
		}
		if len(p.Kids) != 0 {
			return 0, fmt.Errorf("plan: comparison predicate with children")
		}
		return 1, nil
	case PredPrefix:
		if p.Int64 {
			return 0, fmt.Errorf("plan: prefix predicate on an int64 field")
		}
		if len(p.Kids) != 0 {
			return 0, fmt.Errorf("plan: prefix predicate with children")
		}
		return 1, nil
	case PredAnd, PredOr:
		if len(p.Kids) == 0 {
			return 0, fmt.Errorf("plan: %s predicate with no children", p.Kind.mnemonic())
		}
		need := 0
		for i, k := range p.Kids {
			kn, err := k.validate(nodes, depth+1)
			if err != nil {
				return 0, err
			}
			// Evaluating child i keeps i earlier results on the stack.
			if i+kn > need {
				need = i + kn
			}
		}
		if need > maxFilterStack {
			return 0, fmt.Errorf("plan: predicate needs evaluation stack %d > %d; nest %s nodes instead of widening",
				need, maxFilterStack, p.Kind.mnemonic())
		}
		return need, nil
	case PredNot:
		if len(p.Kids) != 1 {
			return 0, fmt.Errorf("plan: NOT predicate must have exactly one child, got %d", len(p.Kids))
		}
		return p.Kids[0].validate(nodes, depth+1)
	default:
		return 0, fmt.Errorf("plan: invalid predicate kind %d", uint8(p.Kind))
	}
}

func (k PredKind) mnemonic() string {
	switch k {
	case PredCmp:
		return "CMP"
	case PredPrefix:
		return "PREFIX"
	case PredAnd:
		return "AND"
	case PredOr:
		return "OR"
	case PredNot:
		return "NOT"
	default:
		return fmt.Sprintf("PRED(%d)", uint8(k))
	}
}

// --- wire encoding ----------------------------------------------------------

// AppendPredicate appends the preorder wire encoding of p to dst.  The
// format is stable and versioned by the plan-frame version of package wire.
func AppendPredicate(dst []byte, p *Predicate) []byte {
	dst = append(dst, byte(p.Kind))
	switch p.Kind {
	case PredCmp, PredPrefix:
		var flags byte
		if p.OnKey {
			flags |= 1
		}
		if p.Int64 {
			flags |= 2
		}
		dst = append(dst, byte(p.Cmp), flags)
		dst = binary.BigEndian.AppendUint32(dst, p.Offset)
		dst = binary.BigEndian.AppendUint32(dst, p.Length)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Arg)))
		dst = append(dst, p.Arg...)
	case PredAnd, PredOr, PredNot:
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Kids)))
		for _, k := range p.Kids {
			dst = AppendPredicate(dst, k)
		}
	}
	return dst
}

// DecodePredicate decodes one predicate tree from buf, returning the
// remaining bytes.  Structural limits are enforced during decoding, before
// any tree is built, so hostile sizes fail fast.
func DecodePredicate(buf []byte) (*Predicate, []byte, error) {
	nodes := 0
	return decodePredicate(buf, &nodes, 1)
}

func decodePredicate(buf []byte, nodes *int, depth int) (*Predicate, []byte, error) {
	if depth > MaxPredDepth {
		return nil, nil, fmt.Errorf("plan: predicate deeper than %d", MaxPredDepth)
	}
	if *nodes++; *nodes > MaxPredNodes {
		return nil, nil, fmt.Errorf("plan: predicate has more than %d nodes", MaxPredNodes)
	}
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("plan: truncated predicate")
	}
	p := &Predicate{Kind: PredKind(buf[0])}
	buf = buf[1:]
	switch p.Kind {
	case PredCmp, PredPrefix:
		if len(buf) < 2+4+4+4 {
			return nil, nil, fmt.Errorf("plan: truncated predicate leaf")
		}
		p.Cmp = CmpOp(buf[0])
		flags := buf[1]
		p.OnKey = flags&1 != 0
		p.Int64 = flags&2 != 0
		p.Offset = binary.BigEndian.Uint32(buf[2:])
		p.Length = binary.BigEndian.Uint32(buf[6:])
		argLen := binary.BigEndian.Uint32(buf[10:])
		buf = buf[14:]
		if uint64(argLen) > uint64(len(buf)) {
			return nil, nil, fmt.Errorf("plan: predicate arg length %d exceeds frame", argLen)
		}
		if argLen > 0 {
			p.Arg = append([]byte(nil), buf[:argLen]...)
		}
		buf = buf[argLen:]
	case PredAnd, PredOr, PredNot:
		if len(buf) < 2 {
			return nil, nil, fmt.Errorf("plan: truncated predicate node")
		}
		n := int(binary.BigEndian.Uint16(buf))
		buf = buf[2:]
		if n > len(buf) { // each child needs at least one byte
			return nil, nil, fmt.Errorf("plan: predicate child count %d exceeds frame", n)
		}
		p.Kids = make([]*Predicate, 0, n)
		for i := 0; i < n; i++ {
			kid, rest, err := decodePredicate(buf, nodes, depth+1)
			if err != nil {
				return nil, nil, err
			}
			p.Kids = append(p.Kids, kid)
			buf = rest
		}
	default:
		return nil, nil, fmt.Errorf("plan: invalid predicate kind %d", uint8(p.Kind))
	}
	return p, buf, nil
}

// --- compiled form ----------------------------------------------------------

// filter instruction opcodes.
const (
	fiCmp uint8 = iota + 1
	fiPrefix
	fiAnd
	fiOr
	fiNot
)

// filterInst is one postfix instruction of a compiled Filter.
type filterInst struct {
	op    uint8
	cmp   CmpOp
	onKey bool
	i64   bool
	off   uint32
	ln    uint32
	n     int32 // child count for fiAnd/fiOr
	arg   []byte
	// width > 0 marks a fixed-width comparison: the field and arg are both
	// width bytes (at most 8), so they compare as big-endian unsigned
	// integers.  argU is arg decoded and XORed with flip, which is the sign
	// bit for int64 fields (turning a signed compare into an unsigned one)
	// and 0 for raw bytes.
	width uint8
	flip  uint64
	argU  uint64
}

// bindArg sets the instruction's argument and, where the comparison is
// fixed-width, its decoded form.  The width depends on the argument's
// length, so a rebound argument re-derives it.
func (in *filterInst) bindArg(arg []byte) {
	in.arg, in.width, in.flip, in.argU = arg, 0, 0, 0
	if in.op != fiCmp {
		return
	}
	switch {
	case in.i64:
		in.width, in.flip = 8, 1<<63
	case in.ln != 0 && int(in.ln) == len(arg) && len(arg) <= 8:
		in.width = uint8(len(arg))
	default:
		return
	}
	in.argU = beUint(arg) ^ in.flip
}

// Filter is a compiled predicate: a flat postfix program evaluated with a
// fixed-size stack, no closures and no per-row allocation.  A comparison
// whose field and argument have the same width of at most 8 bytes (every
// Int64 comparison, and a FieldCmp whose length equals its argument's)
// compiles to one unsigned-integer compare against the argument decoded at
// Compile or Rebind.  A Filter is immutable after Compile and safe for
// concurrent use by many partition workers.
type Filter struct {
	prog []filterInst
}

// Compile validates the tree and lowers it into a Filter.  A nil predicate
// compiles to a nil Filter, which matches every row.
func (p *Predicate) Compile() (*Filter, error) {
	if p == nil {
		return nil, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := &Filter{prog: make([]filterInst, 0, 8)}
	f.emit(p)
	return f, nil
}

func (f *Filter) emit(p *Predicate) {
	switch p.Kind {
	case PredCmp:
		in := filterInst{op: fiCmp, cmp: p.Cmp, onKey: p.OnKey, i64: p.Int64,
			off: p.Offset, ln: p.Length}
		in.bindArg(p.Arg)
		f.prog = append(f.prog, in)
	case PredPrefix:
		f.prog = append(f.prog, filterInst{op: fiPrefix, onKey: p.OnKey,
			off: p.Offset, ln: p.Length, arg: p.Arg})
	case PredAnd, PredOr:
		for _, k := range p.Kids {
			f.emit(k)
		}
		op := fiAnd
		if p.Kind == PredOr {
			op = fiOr
		}
		f.prog = append(f.prog, filterInst{op: op, n: int32(len(p.Kids))})
	case PredNot:
		f.emit(p.Kids[0])
		f.prog = append(f.prog, filterInst{op: fiNot})
	}
}

// Template returns a copy of the filter with every argument cleared, for
// caching compiled filters by structural shape: the copy pins no argument
// bytes (which may alias a network frame) and is instantiated per call with
// Rebind.
func (f *Filter) Template() *Filter {
	if f == nil {
		return nil
	}
	t := &Filter{prog: make([]filterInst, len(f.prog))}
	copy(t.prog, f.prog)
	for i := range t.prog {
		t.prog[i].bindArg(nil)
	}
	return t
}

// Rebind instantiates a cached filter template into dst with the argument
// bytes of p, which must have the same structure the template was compiled
// from.  dst's program storage is reused, so rebinding into the same dst
// again allocates nothing once it has held a program this long.  Every
// structural property is re-verified against the template during the walk
// — a mismatch (or an invalid argument, such as a non-8-byte int64 operand)
// returns an error so callers fall back to a full Compile.  Rebind performs
// no validation passes, which is what a plan-cache hit pays instead of
// Validate+Compile.
func (f *Filter) Rebind(dst *Filter, p *Predicate) error {
	if f == nil || p == nil || dst == nil {
		return fmt.Errorf("plan: rebind of nil filter or predicate")
	}
	dst.prog = append(dst.prog[:0], f.prog...)
	i := 0
	if err := rebindNode(dst.prog, &i, p, 1); err != nil {
		return err
	}
	if i != len(dst.prog) {
		return fmt.Errorf("plan: rebind consumed %d of %d instructions", i, len(dst.prog))
	}
	return nil
}

func rebindNode(prog []filterInst, i *int, p *Predicate, depth int) error {
	if p == nil || depth > MaxPredDepth {
		return fmt.Errorf("plan: rebind structure mismatch")
	}
	mismatch := func() error { return fmt.Errorf("plan: rebind structure mismatch at instruction %d", *i) }
	switch p.Kind {
	case PredCmp, PredPrefix:
		if *i >= len(prog) {
			return mismatch()
		}
		in := &prog[*i]
		wantOp := fiCmp
		if p.Kind == PredPrefix {
			wantOp = fiPrefix
		}
		// A prefix test has no operator: emit drops p.Cmp there, and so
		// do this check and AppendShape.
		if in.op != wantOp || (wantOp == fiCmp && in.cmp != p.Cmp) || in.onKey != p.OnKey ||
			in.i64 != p.Int64 || in.off != p.Offset || in.ln != p.Length {
			return mismatch()
		}
		if p.Int64 && len(p.Arg) != 8 {
			return fmt.Errorf("plan: int64 predicate arg must be 8 bytes, got %d", len(p.Arg))
		}
		in.bindArg(p.Arg)
		*i++
		return nil
	case PredAnd, PredOr:
		for _, k := range p.Kids {
			if err := rebindNode(prog, i, k, depth+1); err != nil {
				return err
			}
		}
		if *i >= len(prog) {
			return mismatch()
		}
		in := &prog[*i]
		wantOp := fiAnd
		if p.Kind == PredOr {
			wantOp = fiOr
		}
		if in.op != wantOp || int(in.n) != len(p.Kids) {
			return mismatch()
		}
		*i++
		return nil
	case PredNot:
		if len(p.Kids) != 1 {
			return fmt.Errorf("plan: rebind structure mismatch")
		}
		if err := rebindNode(prog, i, p.Kids[0], depth+1); err != nil {
			return err
		}
		if *i >= len(prog) || prog[*i].op != fiNot {
			return mismatch()
		}
		*i++
		return nil
	default:
		return fmt.Errorf("plan: rebind of invalid predicate kind %d", uint8(p.Kind))
	}
}

// AppendShape appends a structural fingerprint of the predicate to dst:
// everything except the argument bytes, which are the per-call parameters a
// plan cache substitutes.  Two predicates with equal shapes rebind against
// each other's compiled form.
func AppendShape(dst []byte, p *Predicate) []byte {
	if p == nil {
		return append(dst, 0)
	}
	dst = append(dst, byte(p.Kind))
	switch p.Kind {
	case PredCmp, PredPrefix:
		var flags byte
		if p.OnKey {
			flags |= 1
		}
		if p.Int64 {
			flags |= 2
		}
		cmp := p.Cmp
		if p.Kind == PredPrefix {
			cmp = 0 // a prefix test ignores its operator byte
		}
		dst = append(dst, byte(cmp), flags)
		dst = binary.BigEndian.AppendUint32(dst, p.Offset)
		dst = binary.BigEndian.AppendUint32(dst, p.Length)
	case PredAnd, PredOr, PredNot:
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Kids)))
		for _, k := range p.Kids {
			dst = AppendShape(dst, k)
		}
	}
	return dst
}

// Eval reports whether the row (key, val) passes the filter.  A nil Filter
// passes everything.  A filter of one comparison or prefix test, the common
// pushed-down case, runs that test directly without the stack machine.
func (f *Filter) Eval(key, val []byte) bool {
	if f == nil {
		return true
	}
	if len(f.prog) == 1 {
		return f.prog[0].test(key, val)
	}
	var st [maxFilterStack]bool
	sp := 0
	for i := range f.prog {
		in := &f.prog[i]
		switch in.op {
		case fiCmp, fiPrefix:
			st[sp] = in.test(key, val)
			sp++
		case fiAnd:
			r := true
			for j := sp - int(in.n); j < sp; j++ {
				r = r && st[j]
			}
			sp -= int(in.n)
			st[sp] = r
			sp++
		case fiOr:
			r := false
			for j := sp - int(in.n); j < sp; j++ {
				r = r || st[j]
			}
			sp -= int(in.n)
			st[sp] = r
			sp++
		case fiNot:
			st[sp-1] = !st[sp-1]
		}
	}
	return st[0]
}

// test evaluates a leaf instruction (fiCmp or fiPrefix) on the row.
func (in *filterInst) test(key, val []byte) bool {
	if in.width > 0 {
		src := val
		if in.onKey {
			src = key
		}
		end := uint64(in.off) + uint64(in.width)
		if end > uint64(len(src)) {
			return false
		}
		return cmpUint(in.cmp, beUint(src[in.off:end])^in.flip, in.argU)
	}
	f, ok := field(in, key, val)
	if !ok {
		return false
	}
	if in.op == fiPrefix {
		return bytes.HasPrefix(f, in.arg)
	}
	return cmpHolds(in.cmp, bytes.Compare(f, in.arg))
}

// field extracts the instruction's field from the row; ok is false when the
// source is too short ("missing field is false").
func field(in *filterInst, key, val []byte) ([]byte, bool) {
	src := val
	if in.onKey {
		src = key
	}
	off := uint64(in.off)
	if off > uint64(len(src)) {
		return nil, false
	}
	if in.ln == 0 {
		return src[off:], true
	}
	end := off + uint64(in.ln)
	if end > uint64(len(src)) {
		return nil, false
	}
	return src[off:end], true
}

// beUint decodes b (at most 8 bytes) as a big-endian unsigned integer.
// Equal-length byte strings order like their decoded values.
func beUint(b []byte) uint64 {
	switch len(b) {
	case 8:
		return binary.BigEndian.Uint64(b)
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

func cmpUint(op CmpOp, a, b uint64) bool {
	switch op {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	default:
		return false
	}
}

func cmpHolds(op CmpOp, c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	default:
		return false
	}
}
