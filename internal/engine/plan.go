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
// finish func must be called once Execute returns (committed or aborted):
// it merges the per-partition scan fragments — entries or first error —
// into the results slice, which the fragments never touch directly.
//
// Compilation consults the engine's plan-shape cache (plancache.go): a plan
// structurally identical to one compiled before skips validation and filter
// compilation, paying only the per-call action build.
func (e *Engine) CompilePlan(p *plan.Plan, results []plan.Result, canceled func() bool) (*Request, func(), error) {
	if len(results) < p.NumOps() {
		return nil, nil, fmt.Errorf("engine: results slice holds %d of %d ops", len(results), p.NumOps())
	}
	filters, err := e.planFilters(p)
	if err != nil {
		return nil, nil, err
	}
	req := &Request{Phases: make([][]Action, 0, len(p.Phases))}
	var scans []*planScanState
	var eaches []*planEachState
	// scanByFlat maps a Scan op's flat index to its state, for EachFrom.
	var scanByFlat map[int]*planScanState
	flat := 0
	for _, ph := range p.Phases {
		actions := make([]Action, 0, len(ph))
		var dyn []func(key []byte) Action // per-entry action makers for EachFrom ops
		var dynStates []*planEachState
		for oi := range ph {
			op := ph[oi]
			idx := flat
			flat++
			if _, err := e.Table(op.Table); err != nil {
				return nil, nil, fmt.Errorf("plan: op %d: %v", idx, err)
			}
			if op.Kind == plan.Scan {
				acts, st, err := e.compilePlanScan(op, idx, filters[idx], results, canceled)
				if err != nil {
					return nil, nil, err
				}
				actions = append(actions, acts...)
				scans = append(scans, st)
				if scanByFlat == nil {
					scanByFlat = make(map[int]*planScanState)
				}
				scanByFlat[idx] = st
				continue
			}
			if op.EachFrom != plan.NoBind {
				src := scanByFlat[bindSource(op.EachFrom)]
				if src == nil {
					return nil, nil, fmt.Errorf("plan: op %d: fan-out source %d is not a compiled scan", idx, op.EachFrom-1)
				}
				st := &planEachState{idx: idx, src: src}
				eaches = append(eaches, st)
				dynStates = append(dynStates, st)
				dyn = append(dyn, e.compilePlanEach(op, st, canceled))
				continue
			}
			actions = append(actions, e.compilePlanOp(op, idx, results, canceled))
		}
		req.Phases = append(req.Phases, actions)
		if len(dyn) > 0 {
			if req.Expand == nil {
				req.Expand = make([]func() []Action, len(p.Phases))
			}
			pi := len(req.Phases) - 1
			req.Expand[pi] = expandEach(dyn, dynStates)
		}
	}
	finish := func() {
		for _, st := range scans {
			ents, errMsg := st.final()
			if errMsg != "" {
				results[st.idx] = plan.Result{Err: errMsg}
				continue
			}
			results[st.idx] = plan.Result{Found: len(ents) > 0, Entries: ents}
		}
		for _, st := range eaches {
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
	return req, finish, nil
}

// planFilters resolves the plan's compiled filters through the shape cache:
// a hit rebinds the cached templates with this plan's arguments (no
// validation passes, no compiles); a miss — or a fingerprint collision
// surfacing as a rebind mismatch — runs the full Validate+Compile and
// caches the argument-free templates.  The returned slice is indexed by
// flat op index (nil for ops without a filter).
func (e *Engine) planFilters(p *plan.Plan) ([]*plan.Filter, error) {
	key := string(appendPlanShape(make([]byte, 0, 256), p))
	if shape := e.planShapes.get(key); shape != nil {
		filters, err := rebindShape(shape, p)
		if err == nil {
			planCacheHitCount.Add(1)
			return filters, nil
		}
		// Collision or invalid per-call filter argument: take the cold path,
		// which re-validates from scratch (and rejects truly invalid plans).
	}
	planCacheMissCount.Add(1)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	planCompileCount.Add(1)
	filters := make([]*plan.Filter, p.NumOps())
	templates := make([]*plan.Filter, p.NumOps())
	flat := 0
	for _, ph := range p.Phases {
		for oi := range ph {
			if f := ph[oi].Filter; f != nil {
				compiled, err := f.Compile()
				if err != nil {
					return nil, fmt.Errorf("plan: op %d: %w", flat, err)
				}
				filters[flat] = compiled
				templates[flat] = compiled.Template()
			}
			flat++
		}
	}
	e.planShapes.put(key, &planShape{filters: templates})
	return filters, nil
}

// rebindShape instantiates a cached shape's filter templates with the
// plan's per-call filter arguments.
func rebindShape(shape *planShape, p *plan.Plan) ([]*plan.Filter, error) {
	if len(shape.filters) != p.NumOps() {
		return nil, fmt.Errorf("plan: cached shape holds %d ops, plan has %d", len(shape.filters), p.NumOps())
	}
	filters := make([]*plan.Filter, p.NumOps())
	flat := 0
	for _, ph := range p.Phases {
		for oi := range ph {
			tmpl, pred := shape.filters[flat], ph[oi].Filter
			if (tmpl == nil) != (pred == nil) {
				return nil, fmt.Errorf("plan: cached shape filter mismatch at op %d", flat)
			}
			if tmpl != nil {
				f, err := tmpl.Rebind(pred)
				if err != nil {
					return nil, err
				}
				filters[flat] = f
			}
			flat++
		}
	}
	return filters, nil
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
				res, err := execPlanOp(c, op, key, op.Value)
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

// compilePlanOp compiles one non-scan op into a routable action.
//
// An op on a secondary index that is not partition-aligned does not route
// by its key, which is a secondary key: no worker owns such an index
// (catalog creates it latched and single-rooted).  A probe or a delete
// runs inline, where its phase is dispatched; an insert routes by the
// primary key it carries, so it lands where the row it indexes lives.  An
// op on a partition-aligned index routes by its key like any other.
func (e *Engine) compilePlanOp(op plan.Op, idx int, results []plan.Result, canceled func() bool) Action {
	a := Action{Table: op.Table, Key: op.Key}
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
	if keyFrom != plan.NoBind {
		src, fallback := bindSource(keyFrom), a.Key
		// The routing key is produced by an earlier phase: exactly the
		// secondary-probe pattern KeyFn exists for.
		a.KeyFn = func() []byte {
			if v := results[src].Value; len(v) > 0 {
				return v
			}
			return fallback
		}
	}
	a.Exec = func(c *Ctx) error {
		if canceled != nil && canceled() {
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
	return a
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
func execPlanOp(c *Ctx, op plan.Op, key, val []byte) (plan.Result, error) {
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
func execReadModifyWrite(c *Ctx, op plan.Op, key, arg []byte) (plan.Result, error) {
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
