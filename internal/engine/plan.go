// Compilation of declarative plans (package plan) into native phased
// requests.  This is the partition-manager half of the paper's Section 3.1
// flow graphs: every typed op becomes a routable action, bindings become
// execution-time routing keys (the KeyFn mechanism), and scans expand into
// one per-partition action executed inside the transaction by the workers
// that own the sub-ranges.
package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"plp/internal/lock"
	"plp/plan"
)

// Plan-scan bounds.  They also bound a client.Txn scan, which travels as a
// one-scan plan.
const (
	// DefaultPlanScanLimit is applied when a plan Scan asks for no limit.
	DefaultPlanScanLimit = 1024
	// MaxPlanScanLimit caps any plan Scan, protecting the server from a
	// scan that would materialize an entire table into one response frame.
	MaxPlanScanLimit = 65536
)

// ErrPlanCanceled aborts a compiled plan whose cancel hook fired (the wire
// server's cancel frame, or a context cancellation in-process).
var ErrPlanCanceled = errors.New("engine: plan canceled")

// IsTransientAbort reports whether an execution error describes a
// timing-dependent abort — one a client may retry verbatim with a fair
// chance of success.  Today that is exactly the lock-wait timeout (the
// deadlock-avoidance abort): a retry re-queues behind whichever transaction
// won the conflict.  Cancellations, validation failures and data errors are
// permanent — retrying the identical request reproduces them.
func IsTransientAbort(err error) bool {
	return errors.Is(err, lock.ErrTimeout)
}

// planScanState accumulates one Scan op's per-partition entries; the
// compile finisher merges them into key order.  Fragments run concurrently
// on different workers, so entries AND the first error are recorded under
// the mutex — the shared results slot is written only by the finisher.
type planScanState struct {
	idx    int // flat op index
	limit  int
	mu     sync.Mutex
	ents   []plan.Entry
	errMsg string
	sorted bool
}

// fail records the first fragment error.
func (st *planScanState) fail(msg string) {
	st.mu.Lock()
	if st.errMsg == "" {
		st.errMsg = msg
	}
	st.mu.Unlock()
}

// final returns the scan's merged result: entries sorted into key order and
// truncated to the limit, or the first fragment error.  The merge happens
// once — callers before the finisher (a later phase fanning out over the
// scan) and the finisher itself see the same slice.  Only call after the
// scan's phase has completed (phases are barriers, so any later-phase
// caller satisfies this).
func (st *planScanState) final() ([]plan.Entry, string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.errMsg != "" {
		return nil, st.errMsg
	}
	if !st.sorted {
		sort.Slice(st.ents, func(i, j int) bool { return bytes.Compare(st.ents[i].Key, st.ents[j].Key) < 0 })
		if len(st.ents) > st.limit {
			st.ents = st.ents[:st.limit]
		}
		st.sorted = true
	}
	return st.ents, ""
}

// planEachState accumulates the per-entry outcomes of an op fanned out over
// a scan (plan.Op.EachFrom).  Entry actions run concurrently on different
// workers, so outcomes and the first error are recorded under the mutex.
type planEachState struct {
	idx    int            // flat op index
	src    *planScanState // the scan whose entries this op fans out over
	mu     sync.Mutex
	ents   []plan.Entry
	errMsg string
}

func (st *planEachState) fail(msg string) {
	st.mu.Lock()
	if st.errMsg == "" {
		st.errMsg = msg
	}
	st.mu.Unlock()
}

// CompilePlan translates a declarative plan into a native phased Request
// writing per-op outcomes into results (which must have at least
// p.NumOps() slots).  canceled, when non-nil, is polled before every op —
// a true return aborts the transaction with ErrPlanCanceled.  The returned
// finish func must be called exactly once, once Execute returns (committed
// or aborted): it merges the per-partition scan fragments — entries or
// first error — into the results slice, which the fragments never touch
// directly, and then gives the compiled request back to the engine, so the
// Request must not be used after it.
//
// CompilePlan is CompilePlanInto on a CompiledPlan taken from a pool, to
// which finish returns it.  On a plan-cache hit (plancache.go) it skips
// validation and filter compilation and copies the plan's parameters into
// the pooled slots: a plan without scans or fan-out allocates nothing once
// the pool holds a CompiledPlan that has compiled one of its size.  A
// miss validates the plan and compiles its filters, allocating as it goes.
func (e *Engine) CompilePlan(p *plan.Plan, results []plan.Result, canceled func() bool) (*Request, func(), error) {
	c := compiledPool.Get().(*CompiledPlan)
	if c.finishRelease == nil {
		c.finishRelease = c.finishAndRelease
	}
	if err := e.CompilePlanInto(c, p, results, canceled); err != nil {
		c.release()
		return nil, nil, err
	}
	return &c.req, c.finishRelease, nil
}

// compiledPool holds the CompiledPlans of CompilePlan's callers between
// plans.
var compiledPool = sync.Pool{New: func() any { return new(CompiledPlan) }}

// finishAndRelease is CompilePlan's finish.
func (c *CompiledPlan) finishAndRelease() {
	c.Finish()
	c.release()
}

// release returns a pooled CompiledPlan.
func (c *CompiledPlan) release() {
	c.Reset()
	compiledPool.Put(c)
}

// CompiledPlan is a plan compiled for one execution — the Request the
// engine runs and the per-op slots its actions work through — kept for
// reuse.  CompilePlanInto rebinds it to the next plan in place: each point
// op's slot (its parameters, and its Exec and KeyFn, bound once when the
// slot is made), the action and phase slices, the filters and the
// shape-key scratch are all reused.  Recompile it only after its Request
// has completed and Finish has run.
type CompiledPlan struct {
	req      Request
	results  []plan.Result
	canceled func() bool
	// finishRelease is finishAndRelease, bound once per pooled
	// CompiledPlan.
	finishRelease func()

	slots   []*opSlot // point-op slots, in the order their ops compile
	acts    []Action  // every phase's actions, back to back
	ends    []int     // the end of each phase in acts
	phases  [][]Action
	scans   []*planScanState
	eaches  []*planEachState
	filters []plan.Filter  // rebound filter storage, by flat op index
	flts    []*plan.Filter // each op's compiled filter, by flat op index
	key     []byte         // the plan's shape key
}

// Request returns the compiled request, for Session.Submit or Execute.
func (c *CompiledPlan) Request() *Request { return &c.req }

// opSlot is one compiled point op: a copy of the op (its parameters alias
// the plan's), its flat index, and its action's functions, bound once per
// slot so that a compile allocates no closure.
type opSlot struct {
	c        *CompiledPlan
	op       plan.Op
	idx      int
	keySrc   int    // the op whose result routes this one (KeyFn)
	fallback []byte // the routing key while that result is empty
	exec     func(*Ctx) error
	keyFn    func() []byte
}

// CompilePlanInto compiles p into c, as CompilePlan does, reusing c's
// storage.  A plan whose shape is cached (plancache.go) skips validation
// and filter compilation: the hit formats the shape key into c's scratch,
// rebinds each cached filter template into c's filter storage, and copies
// each op's parameters into its slot.  With c warm — it has compiled a plan
// of as many phases, ops and filter instructions before — a hit on a plan
// without scans or fan-out allocates nothing.
func (e *Engine) CompilePlanInto(c *CompiledPlan, p *plan.Plan, results []plan.Result, canceled func() bool) error {
	n := p.NumOps()
	if len(results) < n {
		return fmt.Errorf("engine: results slice holds %d of %d ops", len(results), n)
	}
	c.Reset()
	c.results, c.canceled = results, canceled
	if err := e.planFilters(c, p); err != nil {
		return err
	}
	// scanByFlat maps a Scan op's flat index to its state, for EachFrom.
	var scanByFlat map[int]*planScanState
	var expand []func() []Action
	flat, points := 0, 0
	for pi, ph := range p.Phases {
		var dyn []func(key []byte) Action // per-entry action makers for EachFrom ops
		var dynStates []*planEachState
		for oi := range ph {
			op := &ph[oi]
			idx := flat
			flat++
			if _, err := e.Table(op.Table); err != nil {
				return fmt.Errorf("plan: op %d: %v", idx, err)
			}
			if op.Kind == plan.Scan {
				acts, st, err := e.compilePlanScan(*op, idx, c.flts[idx], results, canceled)
				if err != nil {
					return err
				}
				c.acts = append(c.acts, acts...)
				c.scans = append(c.scans, st)
				if scanByFlat == nil {
					scanByFlat = make(map[int]*planScanState)
				}
				scanByFlat[idx] = st
				continue
			}
			if op.EachFrom != plan.NoBind {
				src := scanByFlat[bindSource(op.EachFrom)]
				if src == nil {
					return fmt.Errorf("plan: op %d: fan-out source %d is not a compiled scan", idx, op.EachFrom-1)
				}
				st := &planEachState{idx: idx, src: src}
				c.eaches = append(c.eaches, st)
				dynStates = append(dynStates, st)
				dyn = append(dyn, e.compilePlanEach(*op, st, canceled))
				continue
			}
			c.acts = append(c.acts, e.pointAction(c.slot(points), op, idx))
			points++
		}
		c.ends = append(c.ends, len(c.acts))
		if len(dyn) > 0 {
			if expand == nil {
				expand = make([]func() []Action, len(p.Phases))
			}
			expand[pi] = expandEach(dyn, dynStates)
		}
	}
	// The phases are cut from acts only now: appending a scan's actions may
	// have moved it.
	start := 0
	for _, end := range c.ends {
		c.phases = append(c.phases, c.acts[start:end:end])
		start = end
	}
	c.req = Request{Phases: c.phases, Expand: expand}
	return nil
}

// Reset drops c's references to the last plan's data — its actions, scan
// states and results — and empties c's slices, keeping their storage.
// CompilePlanInto resets c itself; a holder that keeps c idle resets it so
// that c pins nothing meanwhile.
func (c *CompiledPlan) Reset() {
	clear(c.acts)
	clear(c.phases)
	clear(c.scans)
	clear(c.eaches)
	c.acts, c.ends, c.phases = c.acts[:0], c.ends[:0], c.phases[:0]
	c.scans, c.eaches = c.scans[:0], c.eaches[:0]
	c.req = Request{}
	c.results, c.canceled = nil, nil
}

// slot returns the i-th point-op slot, making it (and binding its
// functions) the first time.
func (c *CompiledPlan) slot(i int) *opSlot {
	if i == len(c.slots) {
		s := &opSlot{c: c}
		s.exec, s.keyFn = s.run, s.routingKey
		c.slots = append(c.slots, s)
	}
	return c.slots[i]
}

// Finish merges the plan's scan and fan-out outcomes into the results; call
// it once the request has completed (see CompilePlan).
func (c *CompiledPlan) Finish() {
	results := c.results
	for _, st := range c.scans {
		ents, errMsg := st.final()
		if errMsg != "" {
			results[st.idx] = plan.Result{Err: errMsg}
			continue
		}
		results[st.idx] = plan.Result{Found: len(ents) > 0, Entries: ents}
	}
	for _, st := range c.eaches {
		st.mu.Lock()
		if st.errMsg != "" {
			results[st.idx] = plan.Result{Err: st.errMsg}
		} else {
			sort.Slice(st.ents, func(i, j int) bool { return bytes.Compare(st.ents[i].Key, st.ents[j].Key) < 0 })
			results[st.idx] = plan.Result{Found: len(st.ents) > 0, Entries: st.ents}
		}
		st.mu.Unlock()
	}
}

// planFilters resolves the plan's compiled filters through the shape cache
// into c.flts, indexed by flat op index (nil for ops without a filter): a
// hit rebinds the cached templates into c's filter storage with this
// plan's arguments (no validation passes, no compiles); a miss — or a
// fingerprint collision surfacing as a rebind mismatch — runs the full
// Validate+Compile and caches the argument-free templates.
func (e *Engine) planFilters(c *CompiledPlan, p *plan.Plan) error {
	n := p.NumOps()
	c.flts = resize(c.flts, n)
	c.key = appendPlanShape(c.key[:0], p)
	if shape := e.planShapes.get(c.key); shape != nil {
		if err := c.rebindShape(shape, p); err == nil {
			planCacheHitCount.Add(1)
			return nil
		}
		// Collision or invalid per-call filter argument: take the cold path,
		// which re-validates from scratch (and rejects truly invalid plans).
		clear(c.flts)
	}
	planCacheMissCount.Add(1)
	if err := p.Validate(); err != nil {
		return err
	}
	planCompileCount.Add(1)
	templates := make([]*plan.Filter, n)
	flat := 0
	for _, ph := range p.Phases {
		for oi := range ph {
			if f := ph[oi].Filter; f != nil {
				compiled, err := f.Compile()
				if err != nil {
					return fmt.Errorf("plan: op %d: %w", flat, err)
				}
				c.flts[flat] = compiled
				templates[flat] = compiled.Template()
			}
			flat++
		}
	}
	e.planShapes.put(string(c.key), &planShape{filters: templates})
	return nil
}

// rebindShape instantiates a cached shape's filter templates with the
// plan's per-call filter arguments, into c's filter storage.
func (c *CompiledPlan) rebindShape(shape *planShape, p *plan.Plan) error {
	n := p.NumOps()
	if len(shape.filters) != n {
		return fmt.Errorf("plan: cached shape holds %d ops, plan has %d", len(shape.filters), n)
	}
	if cap(c.filters) < n {
		c.filters = make([]plan.Filter, n)
	}
	c.filters = c.filters[:n]
	flat := 0
	for _, ph := range p.Phases {
		for oi := range ph {
			tmpl, pred := shape.filters[flat], ph[oi].Filter
			if (tmpl == nil) != (pred == nil) {
				return fmt.Errorf("plan: cached shape filter mismatch at op %d", flat)
			}
			if tmpl != nil {
				if err := tmpl.Rebind(&c.filters[flat], pred); err != nil {
					return err
				}
				c.flts[flat] = &c.filters[flat]
			}
			flat++
		}
	}
	return nil
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// expandEach returns the phase expander materializing per-entry actions for
// the phase's EachFrom ops.  It runs when the phase dispatches — the source
// scans' phases have completed, so their entry lists are final — and emits
// one action per scan entry, routed by the entry's key.
func expandEach(dyn []func(key []byte) Action, states []*planEachState) func() []Action {
	return func() []Action {
		var acts []Action
		for i := range dyn {
			ents, errMsg := states[i].src.final()
			if errMsg != "" {
				// The source scan failed, so the transaction is already
				// aborting; produce nothing for this op.
				continue
			}
			for _, ent := range ents {
				acts = append(acts, dyn[i](ent.Key))
			}
		}
		return acts
	}
}

// compilePlanEach returns the per-entry action maker for an op fanned out
// over a scan (plan.Op.EachFrom).  The expander calls it once per scan
// entry at phase-dispatch time; each action routes by the entry's key and
// executes the op against it.  Validation restricts fan-out to
// Update/Upsert/Delete/ReadModifyWrite without other bindings, so the op's
// static Value/MutArg are the only value inputs.
func (e *Engine) compilePlanEach(op plan.Op, st *planEachState, canceled func() bool) func(key []byte) Action {
	return func(key []byte) Action {
		return Action{
			Table: op.Table,
			Key:   key,
			Exec: func(c *Ctx) error {
				if canceled != nil && canceled() {
					st.fail(ErrPlanCanceled.Error())
					return ErrPlanCanceled
				}
				res, err := execPlanOp(c, &op, key, op.Value)
				if err != nil {
					st.fail(err.Error())
					return err
				}
				st.mu.Lock()
				st.ents = append(st.ents, plan.Entry{Key: key, Value: res.Value})
				st.mu.Unlock()
				return nil
			},
		}
	}
}

// bindSource resolves a 1-based binding to its flat source index.
func bindSource(bind int32) int { return int(bind) - 1 }

// pointAction binds one point op (not a scan, not fanned out) into slot s
// and returns its routable action.
//
// An op on a secondary index that is not partition-aligned does not route
// by its key, which is a secondary key: no worker owns such an index
// (catalog creates it latched and single-rooted).  A probe or a delete
// runs inline, where its phase is dispatched; an insert routes by the
// primary key it carries, so it lands where the row it indexes lives.  An
// op on a partition-aligned index routes by its key like any other.
func (e *Engine) pointAction(s *opSlot, op *plan.Op, idx int) Action {
	s.op, s.idx = *op, idx
	a := Action{Table: op.Table, Key: op.Key, Exec: s.exec}
	keyFrom := op.KeyFrom
	switch op.Kind {
	case plan.LookupSecondary, plan.InsertSecondary, plan.DeleteSecondary:
		if e.partitionAligned(op.Table, op.Index) {
			break
		}
		if op.Kind == plan.InsertSecondary {
			a.Key, keyFrom = op.Value, op.ValueFrom
		} else {
			a.Inline, keyFrom = true, plan.NoBind
		}
	}
	s.fallback = nil
	if keyFrom != plan.NoBind {
		// The routing key is produced by an earlier phase: exactly the
		// secondary-probe pattern KeyFn exists for.
		s.keySrc, s.fallback = bindSource(keyFrom), a.Key
		a.KeyFn = s.keyFn
	}
	return a
}

// routingKey is the slot's KeyFn: the bound source op's result, or the
// static key while that result is empty.
func (s *opSlot) routingKey() []byte {
	if v := s.c.results[s.keySrc].Value; len(v) > 0 {
		return v
	}
	return s.fallback
}

// run is the slot's Exec: it resolves the op's bindings against the
// results of earlier phases and executes it.
func (s *opSlot) run(c *Ctx) error {
	results, op, idx := s.c.results, &s.op, s.idx
	if canceled := s.c.canceled; canceled != nil && canceled() {
		results[idx].Err = ErrPlanCanceled.Error()
		return ErrPlanCanceled
	}
	key := op.Key
	if op.KeyFrom != plan.NoBind {
		src := bindSource(op.KeyFrom)
		if !results[src].Found {
			// The op this one depends on missed; skip, don't abort.
			results[idx] = plan.Result{}
			return nil
		}
		key = results[src].Value
	}
	val := op.Value
	if op.ValueFrom != plan.NoBind {
		src := bindSource(op.ValueFrom)
		if !results[src].Found {
			results[idx] = plan.Result{}
			return nil
		}
		val = results[src].Value
	}
	res, err := execPlanOp(c, op, key, val)
	if err != nil {
		results[idx] = plan.Result{Err: err.Error()}
		return err
	}
	results[idx] = res
	return nil
}

// partitionAligned reports whether the table's named secondary index is
// partition-aligned.  An unknown index counts as aligned: the op then
// routes as before and fails at execution with the usual error.
func (e *Engine) partitionAligned(table, index string) bool {
	tbl, err := e.Table(table)
	if err != nil {
		return true
	}
	for _, sec := range tbl.Def.Secondaries {
		if sec.Name == index {
			return sec.PartitionAligned
		}
	}
	return true
}

// execPlanOp performs one typed op through the design-aware data-access
// layer.  val is the op's value after ValueFrom binding (the mutation
// argument, for ReadModifyWrite).
func execPlanOp(c *Ctx, op *plan.Op, key, val []byte) (plan.Result, error) {
	switch op.Kind {
	case plan.Get:
		rec, err := c.Read(op.Table, key)
		if errors.Is(err, ErrNotFound) {
			return plan.Result{}, nil
		}
		if err != nil {
			return plan.Result{}, err
		}
		return plan.Result{Found: true, Value: rec}, nil
	case plan.Insert:
		return plan.Result{Found: true}, c.Insert(op.Table, key, val)
	case plan.Update:
		return plan.Result{Found: true}, c.Update(op.Table, key, val)
	case plan.Upsert:
		return plan.Result{Found: true}, c.Upsert(op.Table, key, val)
	case plan.Delete:
		return plan.Result{Found: true}, c.Delete(op.Table, key)
	case plan.LookupSecondary:
		pk, err := c.LookupSecondary(op.Table, op.Index, key)
		if errors.Is(err, ErrNotFound) {
			return plan.Result{}, nil
		}
		if err != nil {
			return plan.Result{}, err
		}
		return plan.Result{Found: true, Value: pk}, nil
	case plan.InsertSecondary:
		return plan.Result{Found: true}, c.InsertSecondary(op.Table, op.Index, key, val)
	case plan.DeleteSecondary:
		return plan.Result{Found: true}, c.DeleteSecondary(op.Table, op.Index, key)
	case plan.ReadModifyWrite:
		return execReadModifyWrite(c, op, key, val)
	default:
		return plan.Result{}, fmt.Errorf("plan: unsupported op %v", op.Kind)
	}
}

// execReadModifyWrite evaluates the condition against the current record
// and applies the mutation, all inside the transaction.  The exclusive lock
// is taken up front: in the Conventional design a read-then-upgrade would
// deadlock as soon as two RMWs race on a hot key.  The record is located
// once (one index descent and, on heap tables, one heap read) and written
// back over the same RID.  A field mutation logs only the bytes it changed;
// every other mutation logs the whole new record.  arg is the mutation
// argument after ValueFrom binding.
func execReadModifyWrite(c *Ctx, op *plan.Op, key, arg []byte) (plan.Result, error) {
	if op.ValueFrom == plan.NoBind {
		arg = op.MutArg
	}
	row, err := c.locate(op.Table, key)
	if err != nil {
		return plan.Result{}, err
	}
	cur, found := row.cur, row.found
	switch op.Cond {
	case plan.CondNone:
	case plan.CondExists:
		if !found {
			return plan.Result{}, fmt.Errorf("rmw: %s/%x does not exist", op.Table, key)
		}
	case plan.CondNotExists:
		if found {
			return plan.Result{}, fmt.Errorf("rmw: %s/%x already exists", op.Table, key)
		}
	case plan.CondValueEquals:
		if !found || !bytes.Equal(cur, op.CondValue) {
			return plan.Result{}, fmt.Errorf("rmw: %s/%x compare failed", op.Table, key)
		}
	default:
		return plan.Result{}, fmt.Errorf("rmw: invalid condition %d", uint8(op.Cond))
	}
	var next []byte
	var off, n int // the changed bytes of a field mutation; n == 0 for whole-record writes
	switch op.Mut {
	case plan.MutSet:
		next = arg
	case plan.MutAddInt64:
		delta, derr := plan.DecodeInt64(arg)
		if derr != nil {
			return plan.Result{}, fmt.Errorf("rmw: %v", derr)
		}
		var old int64
		if found {
			if old, derr = plan.DecodeInt64(cur); derr != nil {
				return plan.Result{}, fmt.Errorf("rmw: %s/%x: %v", op.Table, key, derr)
			}
		}
		next = plan.Int64(old + delta)
	case plan.MutAppend:
		next = append(append([]byte(nil), cur...), arg...)
	case plan.MutAddInt64At:
		at, field, aerr := plan.DecodeFieldArg(arg)
		if aerr != nil {
			return plan.Result{}, fmt.Errorf("rmw: %v", aerr)
		}
		delta, derr := plan.DecodeInt64(field)
		if derr != nil {
			return plan.Result{}, fmt.Errorf("rmw: add-int64-at delta: %v", derr)
		}
		if !found || uint64(len(cur)) < uint64(at)+8 {
			return plan.Result{}, fmt.Errorf("rmw: %s/%x: no int64 field at offset %d (record %d bytes)",
				op.Table, key, at, len(cur))
		}
		next = append([]byte(nil), cur...)
		old := int64(binary.BigEndian.Uint64(next[at:]))
		binary.BigEndian.PutUint64(next[at:], uint64(old+delta))
		off, n = int(at), 8
	case plan.MutSetFieldAt:
		at, field, aerr := plan.DecodeFieldArg(arg)
		if aerr != nil {
			return plan.Result{}, fmt.Errorf("rmw: %v", aerr)
		}
		if !found || uint64(len(cur)) < uint64(at)+uint64(len(field)) {
			return plan.Result{}, fmt.Errorf("rmw: %s/%x: no %d-byte field at offset %d (record %d bytes)",
				op.Table, key, len(field), at, len(cur))
		}
		next = append([]byte(nil), cur...)
		copy(next[at:], field)
		off, n = int(at), len(field)
	default:
		return plan.Result{}, fmt.Errorf("rmw: invalid mutation %d", uint8(op.Mut))
	}
	if found {
		err = c.rewrite(row, next, off, n)
	} else {
		err = c.Insert(op.Table, key, next)
	}
	if err != nil {
		return plan.Result{}, err
	}
	return plan.Result{Found: true, Value: next}, nil
}

// compilePlanScan expands a Scan op into one action per routing partition
// whose range intersects [Key, KeyEnd).  Each action runs on the worker
// owning the partition and scans only the partition's own clipped
// sub-range — the Section 3.3 distributed scan, but inside the transaction,
// which is what lets a plan phase mix scans with point reads.  Like
// Engine.ScanRange, the limit applies per partition; the finisher sorts the
// union and truncates to the globally smallest keys.
//
// flt, when non-nil, is the op's compiled predicate filter: it runs inside
// the owning worker against each visited record, and only matching entries
// are copied out or counted against the limit — the pushdown that keeps
// non-matching rows off the action results entirely.
func (e *Engine) compilePlanScan(op plan.Op, idx int, flt *plan.Filter, results []plan.Result, canceled func() bool) ([]Action, *planScanState, error) {
	rt, ok := e.routing[op.Table]
	if !ok {
		return nil, nil, fmt.Errorf("plan: op %d: no routing table for %q", idx, op.Table)
	}
	limit := int(op.Limit)
	if limit <= 0 || limit > MaxPlanScanLimit {
		if op.Limit > MaxPlanScanLimit {
			limit = MaxPlanScanLimit
		} else {
			limit = DefaultPlanScanLimit
		}
	}
	st := &planScanState{idx: idx, limit: limit}
	var actions []Action
	parts := rt.numPartitions()
	for p := 0; p < parts; p++ {
		plo, phi := rt.rangeOf(p)
		clo, _, intersects := clipRange(plo, phi, op.Key, op.KeyEnd)
		if !intersects {
			continue
		}
		part := p
		// Route by the clipped lower bound: a nil bound (partition 0, open
		// scan) routes to partition 0, exactly where it belongs.
		actions = append(actions, Action{
			Table: op.Table,
			Key:   clo,
			Exec: func(c *Ctx) error {
				if canceled != nil && canceled() {
					st.fail(ErrPlanCanceled.Error())
					return ErrPlanCanceled
				}
				// Re-read the partition range at execution time: a boundary
				// move affecting this worker pair-quiesces it first, so the
				// range is stable for the duration of the scan.
				lo, hi := rt.rangeOf(part)
				lo, hi, ok := clipRange(lo, hi, op.Key, op.KeyEnd)
				if !ok {
					return nil
				}
				var local entryBuf
				err := c.ReadRange(op.Table, lo, hi, func(k, rec []byte) bool {
					if flt != nil && !flt.Eval(k, rec) {
						return true
					}
					local.add(k, rec)
					return local.len() < limit
				})
				if err != nil {
					st.fail(err.Error())
					return err
				}
				st.mu.Lock()
				st.ents = append(st.ents, local.entries()...)
				st.mu.Unlock()
				return nil
			},
		})
	}
	return actions, st, nil
}

// ExecutePlan compiles and executes one declarative plan as a single
// transaction and returns the per-op results, indexed flat in phase order.
// A nil error means the transaction committed; on abort the returned
// results carry the failing ops' error messages.
func (s *Session) ExecutePlan(p *plan.Plan) ([]plan.Result, error) {
	return s.ExecutePlanCanceled(p, nil)
}

// ExecutePlanCanceled is ExecutePlan with a cancel hook, polled before
// every op; a true return aborts the transaction with ErrPlanCanceled.
func (s *Session) ExecutePlanCanceled(p *plan.Plan, canceled func() bool) ([]plan.Result, error) {
	results := make([]plan.Result, p.NumOps())
	req, finish, err := s.e.CompilePlan(p, results, canceled)
	if err != nil {
		return nil, err
	}
	_, execErr := s.Execute(req)
	finish()
	return results, execErr
}
