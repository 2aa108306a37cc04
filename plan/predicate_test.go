package plan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// naiveEval is an independent reference implementation of predicate
// semantics: a direct recursive tree walk, deliberately sharing no code
// with the compiled Filter.  The property test below checks the two agree
// on random trees and random rows.
func naiveEval(p *Predicate, key, val []byte) bool {
	src := val
	if p.OnKey {
		src = key
	}
	extract := func() ([]byte, bool) {
		if p.Int64 {
			if int(p.Offset) > len(src) || len(src)-int(p.Offset) < 8 {
				return nil, false
			}
			return src[p.Offset : p.Offset+8], true
		}
		if int(p.Offset) > len(src) {
			return nil, false
		}
		if p.Length == 0 {
			return src[p.Offset:], true
		}
		if int(p.Offset)+int(p.Length) > len(src) {
			return nil, false
		}
		return src[p.Offset : p.Offset+p.Length], true
	}
	switch p.Kind {
	case PredCmp:
		f, ok := extract()
		if !ok {
			return false
		}
		var c int
		if p.Int64 {
			a := int64(binary.BigEndian.Uint64(f))
			b := int64(binary.BigEndian.Uint64(p.Arg))
			switch {
			case a < b:
				c = -1
			case a > b:
				c = 1
			}
		} else {
			c = bytes.Compare(f, p.Arg)
		}
		switch p.Cmp {
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
		}
		return false
	case PredPrefix:
		f, ok := extract()
		return ok && bytes.HasPrefix(f, p.Arg)
	case PredAnd:
		for _, k := range p.Kids {
			if !naiveEval(k, key, val) {
				return false
			}
		}
		return true
	case PredOr:
		for _, k := range p.Kids {
			if naiveEval(k, key, val) {
				return true
			}
		}
		return false
	case PredNot:
		return !naiveEval(p.Kids[0], key, val)
	}
	return false
}

// edgeBytes are the byte values where signed and unsigned orders part, and
// their neighbours.
var edgeBytes = []byte{0x00, 0x01, 0x7f, 0x80, 0x81, 0xfe, 0xff}

// randBytes returns n bytes over the full byte range, half of them edge
// values so that equal bytes and sign-bit differences both turn up.
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		if rng.Intn(2) == 0 {
			b[i] = edgeBytes[rng.Intn(len(edgeBytes))]
		} else {
			b[i] = byte(rng.Intn(256))
		}
	}
	return b
}

// randInt64Arg returns an 8-byte int64 operand: a small signed value or
// any 8 bytes.
func randInt64Arg(rng *rand.Rand) []byte {
	if rng.Intn(2) == 0 {
		return Int64(int64(rng.Intn(16) - 8))
	}
	return randBytes(rng, 8)
}

// randLeafArg returns an operand for a raw-byte leaf of the given field
// length: usually exactly that wide (the fixed-width compare), otherwise
// 0–9 bytes.
func randLeafArg(rng *rand.Rand, length uint32) []byte {
	if length != 0 && rng.Intn(3) != 0 {
		return randBytes(rng, int(length))
	}
	return randBytes(rng, rng.Intn(10))
}

// randPredicate generates a random valid predicate tree.
func randPredicate(rng *rand.Rand, depth int) *Predicate {
	kind := rng.Intn(5)
	if depth >= 4 {
		kind = rng.Intn(2) // leaves only
	}
	switch kind {
	case 0: // cmp
		p := &Predicate{
			Kind:   PredCmp,
			Cmp:    CmpOp(1 + rng.Intn(int(maxCmpOp))),
			OnKey:  rng.Intn(2) == 0,
			Offset: uint32(rng.Intn(10)),
		}
		if rng.Intn(3) == 0 {
			p.Int64 = true
			p.Arg = randInt64Arg(rng)
		} else {
			p.Length = uint32(rng.Intn(10)) // 0 = rest
			p.Arg = randLeafArg(rng, p.Length)
		}
		return p
	case 1: // prefix
		p := &Predicate{
			Kind:   PredPrefix,
			OnKey:  rng.Intn(2) == 0,
			Offset: uint32(rng.Intn(6)),
			Length: uint32(rng.Intn(6)),
		}
		p.Arg = randLeafArg(rng, p.Length)
		return p
	case 2, 3: // and/or
		k := PredAnd
		if kind == 3 {
			k = PredOr
		}
		n := 1 + rng.Intn(3)
		kids := make([]*Predicate, n)
		for i := range kids {
			kids[i] = randPredicate(rng, depth+1)
		}
		return &Predicate{Kind: k, Kids: kids}
	default: // not
		return &Predicate{Kind: PredNot, Kids: []*Predicate{randPredicate(rng, depth+1)}}
	}
}

// reArg returns a copy of p with the same shape and fresh arguments, whose
// widths may differ from p's, as a plan-cache hit rebinds them.
func reArg(rng *rand.Rand, p *Predicate) *Predicate {
	q := *p
	q.Kids = nil
	for _, k := range p.Kids {
		q.Kids = append(q.Kids, reArg(rng, k))
	}
	switch {
	case p.Kind == PredCmp && p.Int64:
		q.Arg = randInt64Arg(rng)
	case p.Kind == PredCmp || p.Kind == PredPrefix:
		q.Arg = randLeafArg(rng, p.Length)
	}
	return &q
}

// randRow returns a random key and value in which, for about half of p's
// leaves, the leaf's operand is planted at its field's offset, sometimes
// with one byte moved by one, so equality and its neighbours are tested.
func randRow(rng *rand.Rand, p *Predicate) (key, val []byte) {
	key, val = randBytes(rng, rng.Intn(20)), randBytes(rng, rng.Intn(24))
	var plant func(p *Predicate)
	plant = func(p *Predicate) {
		for _, k := range p.Kids {
			plant(k)
		}
		if (p.Kind != PredCmp && p.Kind != PredPrefix) || rng.Intn(2) == 0 {
			return
		}
		src := val
		if p.OnKey {
			src = key
		}
		if int(p.Offset) > len(src) {
			return
		}
		n := copy(src[p.Offset:], p.Arg)
		if n > 0 && rng.Intn(2) == 0 {
			src[int(p.Offset)+rng.Intn(n)] += byte(rng.Intn(3)) - 1
		}
	}
	plant(p)
	return key, val
}

// TestFilterMatchesNaiveReference is the property test: compiled
// evaluation and the naive recursive reference must agree on random trees
// over random rows, including short rows that miss fields, bytes over the
// full range and fixed-width fields of 1–9 bytes.  Each trial also rebinds
// the compiled filter, and its template, to a same-shaped predicate with
// fresh arguments, and checks those against the reference too.
func TestFilterMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		p := randPredicate(rng, 0)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid predicate: %v", trial, err)
		}
		f, err := p.Compile()
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		q := reArg(rng, p)
		rebound, fromTemplate := new(Filter), new(Filter)
		if err := f.Rebind(rebound, q); err != nil {
			t.Fatalf("trial %d: rebind: %v", trial, err)
		}
		if err := f.Template().Rebind(fromTemplate, q); err != nil {
			t.Fatalf("trial %d: rebind of the template: %v", trial, err)
		}
		for _, c := range []struct {
			name string
			p    *Predicate
			f    *Filter
		}{{"compiled", p, f}, {"rebound", q, rebound}, {"template rebound", q, fromTemplate}} {
			for row := 0; row < 20; row++ {
				key, val := randRow(rng, c.p)
				want := naiveEval(c.p, key, val)
				if got := c.f.Eval(key, val); got != want {
					t.Fatalf("trial %d: %s=%v naive=%v\npred=%s\nkey=%x val=%x",
						trial, c.name, got, want, predString(c.p), key, val)
				}
			}
		}
	}
}

// predString renders a predicate tree for failure messages.
func predString(p *Predicate) string {
	if len(p.Kids) == 0 {
		return fmt.Sprintf("%s(op=%v key=%v i64=%v off=%d len=%d arg=%x)",
			p.Kind.mnemonic(), p.Cmp, p.OnKey, p.Int64, p.Offset, p.Length, p.Arg)
	}
	var b strings.Builder
	b.WriteString(p.Kind.mnemonic() + "(")
	for i, k := range p.Kids {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(predString(k))
	}
	return b.String() + ")"
}

// FuzzFilterEval checks a compiled filter, and its template rebound to the
// same predicate, against naiveEval on arbitrary predicates and rows.
// Fixed-width fields (a FieldCmp whose length equals its operand's, and
// Int64 fields) compile to an integer compare, so a sign or width slip in
// it shows here.
func FuzzFilterEval(f *testing.F) {
	var msc [4]byte
	binary.BigEndian.PutUint32(msc[:], 1<<32/100+1)
	for _, p := range []*Predicate{
		FieldCmp(2, 4, CmpLt, msc[:]),
		FieldCmp(0, 1, CmpGe, []byte{0x80}),
		Int64Cmp(1, CmpLe, -3),
		And(KeyCmp(CmpNe, []byte{0xff, 0}), Not(ValuePrefix([]byte{0x7f}))),
		// A prefix leaf carrying an operator byte, which evaluation ignores.
		{Kind: PredPrefix, Cmp: CmpGt, Offset: 1, Arg: []byte{0x80}},
	} {
		f.Add(AppendPredicate(nil, p), []byte{0, 0x80, 1}, []byte{0xff, 0x80, 0, 0, 0, 0, 1, 2, 3, 0x7f})
	}
	f.Fuzz(func(t *testing.T, enc, key, val []byte) {
		p, _, err := DecodePredicate(enc)
		if err != nil {
			return
		}
		flt, err := p.Compile()
		if err != nil {
			return
		}
		want := naiveEval(p, key, val)
		if got := flt.Eval(key, val); got != want {
			t.Fatalf("compiled=%v naive=%v\npred=%s\nkey=%x val=%x", got, want, predString(p), key, val)
		}
		// The template rebound to the predicate it came from must take it.
		rebound := new(Filter)
		if err := flt.Template().Rebind(rebound, p); err != nil {
			t.Fatalf("template rebind: %v\npred=%s", err, predString(p))
		}
		if got := rebound.Eval(key, val); got != want {
			t.Fatalf("template rebound=%v naive=%v\npred=%s\nkey=%x val=%x", got, want, predString(p), key, val)
		}
	})
}

// TestPrefixOperatorByteIgnored checks the three places that read a prefix
// leaf agree that its operator byte means nothing: two prefix leaves that
// differ only in it have one shape, a template compiled from one rebinds to
// the other, and both evaluate like the reference.
func TestPrefixOperatorByteIgnored(t *testing.T) {
	plain := &Predicate{Kind: PredPrefix, Offset: 1, Arg: []byte{0x80}}
	withOp := &Predicate{Kind: PredPrefix, Cmp: CmpGt, Offset: 1, Arg: []byte{0x7f}}
	if a, b := AppendShape(nil, plain), AppendShape(nil, withOp); !bytes.Equal(a, b) {
		t.Fatalf("shapes differ: %x vs %x", a, b)
	}
	f, err := plain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rebound := new(Filter)
	if err := f.Template().Rebind(rebound, withOp); err != nil {
		t.Fatalf("rebind to a prefix leaf with an operator byte: %v", err)
	}
	for _, val := range [][]byte{nil, {0}, {0, 0x7f}, {1, 0x7f, 2}, {1, 0x80}} {
		if got, want := rebound.Eval(nil, val), naiveEval(withOp, nil, val); got != want {
			t.Fatalf("val=%x: rebound=%v naive=%v", val, got, want)
		}
	}
}

// TestPredicateEncodeDecodeRoundTrip checks the wire form reproduces the
// tree exactly (including the compiled behaviour).
func TestPredicateEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		p := randPredicate(rng, 0)
		enc := AppendPredicate(nil, p)
		got, rest, err := DecodePredicate(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(rest) != 0 {
			t.Fatalf("trial %d: %d trailing bytes", trial, len(rest))
		}
		if !predEqual(p, got) {
			t.Fatalf("trial %d: roundtrip mismatch:\nin:  %+v\nout: %+v", trial, p, got)
		}
	}
}

func predEqual(a, b *Predicate) bool {
	if a.Kind != b.Kind || a.Cmp != b.Cmp || a.OnKey != b.OnKey ||
		a.Int64 != b.Int64 || a.Offset != b.Offset || a.Length != b.Length {
		return false
	}
	// Encoding normalizes nil and empty args to absent.
	if !bytes.Equal(a.Arg, b.Arg) {
		return false
	}
	if len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !predEqual(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

// TestPredicateDecodeHostile checks the decoder's structural limits.
func TestPredicateDecodeHostile(t *testing.T) {
	// Claimed child count far beyond the buffer.
	enc := []byte{byte(PredAnd), 0xff, 0xff}
	if _, _, err := DecodePredicate(enc); err == nil {
		t.Fatal("oversized child count decoded")
	}
	// Arg length beyond the buffer.
	leaf := AppendPredicate(nil, ValueEq([]byte("x")))
	binary.BigEndian.PutUint32(leaf[11:], 1<<30)
	if _, _, err := DecodePredicate(leaf); err == nil {
		t.Fatal("oversized arg length decoded")
	}
	// Deep nesting beyond MaxPredDepth.
	deep := ValueEq(nil)
	for i := 0; i < MaxPredDepth+2; i++ {
		deep = Not(deep)
	}
	if _, _, err := DecodePredicate(AppendPredicate(nil, deep)); err == nil {
		t.Fatal("over-deep tree decoded")
	}
	if err := deep.Validate(); err == nil {
		t.Fatal("over-deep tree validated")
	}
	// Truncation at every prefix length must error, not panic.
	full := AppendPredicate(nil, And(ValueEq([]byte("ab")), Not(KeyPrefix([]byte("k")))))
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodePredicate(full[:i]); err == nil {
			t.Fatalf("truncated encoding (%d/%d bytes) decoded", i, len(full))
		}
	}
}

// TestPredicateValidation covers op-level filter/fan-out validation.
func TestPredicateValidation(t *testing.T) {
	// Filter on a non-scan op is rejected.
	p := &Plan{Phases: [][]Op{{{Kind: Get, Table: "t", Key: []byte("k"), Filter: ValueEq(nil)}}}}
	if err := p.Validate(); err == nil {
		t.Fatal("filter on GET validated")
	}
	// Fan-out over a non-scan is rejected.
	p = &Plan{Phases: [][]Op{
		{{Kind: Get, Table: "t", Key: []byte("k")}},
		{{Kind: Delete, Table: "t", EachFrom: 1}},
	}}
	if err := p.Validate(); err == nil {
		t.Fatal("fan-out over GET validated")
	}
	// Fan-out over a same-phase scan is rejected.
	p = &Plan{Phases: [][]Op{{
		{Kind: Scan, Table: "t"},
		{Kind: Delete, Table: "t", EachFrom: 1},
	}}}
	if err := p.Validate(); err == nil {
		t.Fatal("same-phase fan-out validated")
	}
	// The valid shape: scan, then fan-out.
	p = &Plan{Phases: [][]Op{
		{{Kind: Scan, Table: "t", Filter: ValueEq([]byte("x"))}},
		{{Kind: Delete, Table: "t", EachFrom: 1}},
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid fan-out plan rejected: %v", err)
	}
	// Builder surface.
	b := New()
	scan := b.Scan("t", nil, nil, 10).Where(Int64Cmp(0, CmpGt, 5)).Ref()
	b.Then().Add("t", nil, 1).ForEach(scan)
	built, err := b.Build()
	if err != nil {
		t.Fatalf("builder fan-out plan: %v", err)
	}
	if !reflect.DeepEqual(built.Phases[1][0].EachFrom, int32(1)) {
		t.Fatalf("ForEach did not bind: %+v", built.Phases[1][0])
	}
}
