package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"plp/internal/catalog"
	"plp/internal/keyenc"
	"plp/plan"
)

// ----------------------------------------------------------------------
// Declarative-plan differential trace.
//
// Every trace operation exists in two representations with identical
// semantics: a declarative plan (the typed Op surface) and a closure-based
// request (the native Action escape hatch).  The trace runs through all
// five designs on both surfaces — 10 engines — and every combination must
// converge to the identical final state with identical commit/abort
// counts.  A second variant replays the same comparison on disk-backed
// engines with a mid-trace checkpoint, a post-checkpoint rebalance and a
// crash/recover, so declarative plans are also proven equivalent under
// recovery.
// ----------------------------------------------------------------------

const (
	planDiffTable    = "sub"
	planDiffIndex    = "nbr"
	planDiffKeyspace = 400
	planDiffOps      = 700
)

// planDiffSecKey is the deterministic secondary key of primary key k.
func planDiffSecKey(k uint64) []byte { return []byte(fmt.Sprintf("nbr-%05d", k)) }

// buildPlanTrace generates the deterministic trace.
func buildPlanTrace() []diffOp {
	rng := rand.New(rand.NewSource(31415))
	var ops []diffOp
	for i := 0; i < planDiffOps; i++ {
		k := uint64(rng.Intn(planDiffKeyspace) + 1)
		val := []byte(fmt.Sprintf("p-%06d", i))
		switch rng.Intn(12) {
		case 0, 1:
			ops = append(ops, diffOp{kind: "insert", keys: []uint64{k}, val: val})
		case 2:
			ops = append(ops, diffOp{kind: "delete", keys: []uint64{k}})
		case 3:
			ops = append(ops, diffOp{kind: "upsert", keys: []uint64{k}, val: val})
		case 4:
			ops = append(ops, diffOp{kind: "update", keys: []uint64{k}, val: val})
		case 5:
			ops = append(ops, diffOp{kind: "add", keys: []uint64{k, uint64(rng.Intn(100))}})
		case 6:
			ops = append(ops, diffOp{kind: "addx", keys: []uint64{k, uint64(rng.Intn(100))}})
		case 7:
			ops = append(ops, diffOp{kind: "append", keys: []uint64{k}, val: val})
		case 8:
			ops = append(ops, diffOp{kind: "cas", keys: []uint64{k, uint64(rng.Intn(4))}, val: val})
		case 9:
			ops = append(ops, diffOp{kind: "probe", keys: []uint64{k}, val: val})
		case 10:
			lo := uint64(rng.Intn(planDiffKeyspace-10) + 1)
			ops = append(ops, diffOp{kind: "scan", keys: []uint64{lo, lo + 40, k}})
		case 11:
			ops = append(ops, diffOp{kind: "rebalance", keys: []uint64{uint64(rng.Intn(planDiffKeyspace-2) + 2)}})
		}
	}
	return ops
}

// planDiffSchema creates the trace's table (partitioned, with a
// non-aligned secondary index).
func planDiffSchema(t *testing.T, e *Engine) {
	t.Helper()
	boundaries := [][]byte{
		keyenc.Uint64Key(planDiffKeyspace/4 + 1),
		keyenc.Uint64Key(planDiffKeyspace/2 + 1),
		keyenc.Uint64Key(3*planDiffKeyspace/4 + 1),
	}
	if _, err := e.CreateTable(catalog.TableDef{
		Name:        planDiffTable,
		Boundaries:  boundaries,
		Secondaries: []catalog.SecondaryDef{{Name: planDiffIndex}},
	}); err != nil {
		t.Fatal(err)
	}
}

// seedPlanDiff installs the secondary entries for the even keys — as one
// committed transaction on each surface, so the seeds are logged and
// survive the durable variant's crash.
func seedPlanDiff(t *testing.T, sess *Session, usePlans bool) {
	t.Helper()
	if usePlans {
		b := plan.New()
		for k := uint64(2); k <= planDiffKeyspace; k += 2 {
			b.InsertSecondary(planDiffTable, planDiffIndex, planDiffSecKey(k), keyenc.Uint64Key(k))
		}
		if _, err := sess.ExecutePlan(b.MustBuild()); err != nil {
			t.Fatalf("seed: %v", err)
		}
		return
	}
	req := &Request{}
	var actions []Action
	for k := uint64(2); k <= planDiffKeyspace; k += 2 {
		sk, pk := planDiffSecKey(k), keyenc.Uint64Key(k)
		actions = append(actions, Action{Table: planDiffTable, Key: sk, Exec: func(c *Ctx) error {
			return c.InsertSecondary(planDiffTable, planDiffIndex, sk, pk)
		}})
	}
	req.Phases = [][]Action{actions}
	if _, err := sess.Execute(req); err != nil {
		t.Fatalf("seed: %v", err)
	}
}

// applyPlanDiffOp executes one trace op through the declarative plan
// surface (usePlans) or through semantically identical closures.
func applyPlanDiffOp(e *Engine, sess *Session, i int, op diffOp, usePlans bool) {
	key := keyenc.Uint64Key(op.keys[0])
	switch op.kind {
	case "rebalance":
		_, _ = e.Rebalance(planDiffTable, 1+i%3, key)
		return
	case "scan":
		lo, hi := keyenc.Uint64Key(op.keys[0]), keyenc.Uint64Key(op.keys[1])
		point := keyenc.Uint64Key(op.keys[2])
		if usePlans {
			_, _ = sess.ExecutePlan(plan.New().
				Scan(planDiffTable, lo, hi, 16).
				Get(planDiffTable, point).
				MustBuild())
			return
		}
		_, _ = sess.Execute(NewRequest(Action{Table: planDiffTable, Key: point, Exec: func(c *Ctx) error {
			_, err := c.Read(planDiffTable, point)
			if errors.Is(err, ErrNotFound) {
				return nil
			}
			return err
		}}))
		return
	}

	if usePlans {
		b := plan.New()
		switch op.kind {
		case "insert":
			b.Insert(planDiffTable, key, op.val)
		case "delete":
			b.Delete(planDiffTable, key)
		case "upsert":
			b.Upsert(planDiffTable, key, op.val)
		case "update":
			b.Update(planDiffTable, key, op.val)
		case "add":
			b.Add(planDiffTable, key, int64(op.keys[1]))
		case "addx":
			b.AddExisting(planDiffTable, key, int64(op.keys[1]))
		case "append":
			b.AppendBytes(planDiffTable, key, op.val)
		case "cas":
			b.CompareAndSet(planDiffTable, key, plan.Int64(int64(op.keys[1])), op.val)
		case "probe":
			probe := b.LookupSecondary(planDiffTable, planDiffIndex, planDiffSecKey(op.keys[0])).Ref()
			b.Then().Update(planDiffTable, nil, op.val).KeyFrom(probe)
		}
		_, _ = sess.ExecutePlan(b.MustBuild())
		return
	}

	// Closure equivalents, replicating the plan semantics exactly.
	rmw := func(cond plan.Cond, condVal []byte, mut plan.Mut, arg []byte) *Request {
		return NewRequest(Action{Table: planDiffTable, Key: key, Exec: func(c *Ctx) error {
			_, err := execReadModifyWrite(c, &plan.Op{
				Kind: plan.ReadModifyWrite, Table: planDiffTable,
				Cond: cond, CondValue: condVal, Mut: mut, MutArg: arg,
				KeyFrom: plan.NoBind, ValueFrom: plan.NoBind,
			}, key, arg)
			return err
		}})
	}
	var req *Request
	switch op.kind {
	case "insert":
		val := op.val
		req = NewRequest(Action{Table: planDiffTable, Key: key, Exec: func(c *Ctx) error {
			return c.Insert(planDiffTable, key, val)
		}})
	case "delete":
		req = NewRequest(Action{Table: planDiffTable, Key: key, Exec: func(c *Ctx) error {
			return c.Delete(planDiffTable, key)
		}})
	case "upsert":
		val := op.val
		req = NewRequest(Action{Table: planDiffTable, Key: key, Exec: func(c *Ctx) error {
			return c.Upsert(planDiffTable, key, val)
		}})
	case "update":
		val := op.val
		req = NewRequest(Action{Table: planDiffTable, Key: key, Exec: func(c *Ctx) error {
			return c.Update(planDiffTable, key, val)
		}})
	case "add":
		req = rmw(plan.CondNone, nil, plan.MutAddInt64, plan.Int64(int64(op.keys[1])))
	case "addx":
		req = rmw(plan.CondExists, nil, plan.MutAddInt64, plan.Int64(int64(op.keys[1])))
	case "append":
		req = rmw(plan.CondNone, nil, plan.MutAppend, op.val)
	case "cas":
		req = rmw(plan.CondValueEquals, plan.Int64(int64(op.keys[1])), plan.MutSet, op.val)
	case "probe":
		sk, val := planDiffSecKey(op.keys[0]), op.val
		var pk []byte
		req = NewRequest(Action{Table: planDiffTable, Key: sk, Exec: func(c *Ctx) error {
			got, err := c.LookupSecondary(planDiffTable, planDiffIndex, sk)
			if errors.Is(err, ErrNotFound) {
				return nil
			}
			if err != nil {
				return err
			}
			pk = got
			return nil
		}})
		req.AddPhase(Action{Table: planDiffTable, Key: sk, KeyFn: func() []byte {
			if pk != nil {
				return pk
			}
			return sk
		}, Exec: func(c *Ctx) error {
			if pk == nil {
				return nil
			}
			return c.Update(planDiffTable, pk, val)
		}})
	}
	_, _ = sess.Execute(req)
}

// runPlanDiffTrace runs the whole trace on a fresh in-memory engine.
func runPlanDiffTrace(t *testing.T, design Design, trace []diffOp, usePlans bool) (map[uint64]string, uint64, uint64) {
	t.Helper()
	e := New(Options{Design: design, Partitions: 4, SLI: design == Conventional})
	defer e.Close()
	planDiffSchema(t, e)
	sess := e.NewSession()
	defer sess.Close()
	seedPlanDiff(t, sess, usePlans)
	for i, op := range trace {
		applyPlanDiffOp(e, sess, i, op, usePlans)
	}
	state := dumpState(t, e, design, planDiffTable)
	st := e.TxnStats()
	return state, st.Committed, st.Aborted
}

// runDurablePlanDiffTrace is the disk-backed variant: checkpoint mid-way,
// rebalance after the checkpoint, crash without Close, recover into a fresh
// engine, finish the trace.
func runDurablePlanDiffTrace(t *testing.T, design Design, trace []diffOp, usePlans bool) (map[uint64]string, uint64, uint64) {
	t.Helper()
	dir := t.TempDir()
	open := func() *Engine {
		e, err := Open(Options{Design: design, Partitions: 4, SLI: design == Conventional, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		planDiffSchema(t, e)
		return e
	}
	mid := len(trace) / 2
	cp := mid / 2

	e := open()
	sess := e.NewSession()
	seedPlanDiff(t, sess, usePlans)
	for i, op := range trace[:mid] {
		applyPlanDiffOp(e, sess, i, op, usePlans)
		if i == cp {
			if _, err := e.Checkpoint(); err != nil {
				t.Fatalf("%v: checkpoint: %v", design, err)
			}
		}
	}
	// A post-checkpoint rebalance, then crash before any further traffic
	// (see runDurableTrace2 for the shape's rationale).
	cur, err := e.Boundaries(planDiffTable)
	if err != nil {
		t.Fatal(err)
	}
	lo, lerr := keyenc.DecodeUint64(cur[0])
	hi, herr := keyenc.DecodeUint64(cur[2])
	if lerr != nil || herr != nil {
		t.Fatalf("%v: undecodable boundaries", design)
	}
	if target := (lo + hi) / 2; target > lo && target < hi {
		if _, err := e.Rebalance(planDiffTable, 2, keyenc.Uint64Key(target)); err != nil {
			t.Fatalf("%v: pre-crash rebalance: %v", design, err)
		}
	}
	// Crash: abandon without Close.

	re := open()
	if _, err := re.Recover(); err != nil {
		t.Fatalf("%v: recover: %v", design, err)
	}
	sess2 := re.NewSession()
	for i, op := range trace[mid:] {
		applyPlanDiffOp(re, sess2, mid+i, op, usePlans)
	}
	state := dumpState(t, re, design, planDiffTable)
	st := re.TxnStats()
	e.Close()
	re.Close()
	return state, st.Committed, st.Aborted
}

// comparePlanDiff asserts every (design, surface) combination agrees with
// the reference.
func comparePlanDiff(t *testing.T, results []planDiffResult) {
	t.Helper()
	ref := results[0]
	if len(ref.state) == 0 {
		t.Fatal("trace left the reference combination with an empty table; the test is vacuous")
	}
	if ref.aborted == 0 {
		t.Fatal("trace produced no aborts in the reference combination")
	}
	for _, r := range results[1:] {
		if r.committed != ref.committed || r.aborted != ref.aborted {
			t.Errorf("%s: committed/aborted %d/%d, want %d/%d (as %s)",
				r.label, r.committed, r.aborted, ref.committed, ref.aborted, ref.label)
		}
		if len(r.state) != len(ref.state) {
			t.Errorf("%s: %d rows, want %d (as %s)", r.label, len(r.state), len(ref.state), ref.label)
		}
		for k, v := range ref.state {
			if got, ok := r.state[k]; !ok {
				t.Errorf("%s: key %d missing", r.label, k)
			} else if got != v {
				t.Errorf("%s: key %d = %q, want %q", r.label, k, got, v)
			}
		}
		for k := range r.state {
			if _, ok := ref.state[k]; !ok {
				t.Errorf("%s: extra key %d", r.label, k)
			}
		}
	}
}

type planDiffResult struct {
	label     string
	state     map[uint64]string
	committed uint64
	aborted   uint64
}

func TestDifferentialPlansAllDesigns(t *testing.T) {
	trace := buildPlanTrace()
	var results []planDiffResult
	for _, d := range AllDesigns() {
		for _, usePlans := range []bool{true, false} {
			surface := "closures"
			if usePlans {
				surface = "plans"
			}
			state, committed, aborted := runPlanDiffTrace(t, d, trace, usePlans)
			results = append(results, planDiffResult{
				label: fmt.Sprintf("%v/%s", d, surface), state: state,
				committed: committed, aborted: aborted,
			})
		}
	}
	comparePlanDiff(t, results)
}

func TestDifferentialPlansCrashRecover(t *testing.T) {
	trace := buildPlanTrace()
	var results []planDiffResult
	for _, d := range AllDesigns() {
		for _, usePlans := range []bool{true, false} {
			surface := "closures"
			if usePlans {
				surface = "plans"
			}
			state, committed, aborted := runDurablePlanDiffTrace(t, d, trace, usePlans)
			results = append(results, planDiffResult{
				label: fmt.Sprintf("%v/%s", d, surface), state: state,
				committed: committed, aborted: aborted,
			})
		}
	}
	comparePlanDiff(t, results)
}
