// Server-side plan cache: compiled plan shapes keyed by structure.
//
// Workloads execute the same few plan shapes with different parameters —
// TATP's seven transactions, TPC-B's one — so the per-execution cost of
// validating the plan and compiling its predicate filters is paid for the
// same structure over and over.  The cache maps a structural fingerprint
// (kinds, tables, indexes, bindings, conditions, mutations, filter shapes —
// everything except keys, values and filter arguments, which are the
// parameters) to the validated shape's compiled filter templates.  A hit
// skips Plan.Validate and every Filter compile; the filters are
// instantiated for the call's arguments with Filter.Rebind, which
// re-verifies structure as it walks, so a fingerprint collision degrades to
// a cold compile instead of misexecution.
//
// What a hit does NOT re-check: Validate's parameter-dependent lints (the
// same-phase duplicate-write-key check, static mutation-argument lengths).
// Those guard plan authoring, not engine safety — duplicate keys route to
// the same partition and execute serially there, and bad mutation arguments
// abort at execution time with the same transaction outcome.
package engine

import (
	"encoding/binary"
	"expvar"
	"sync"

	"plp/plan"
)

// Plan-cache counters, exported process-wide via expvar (they appear on the
// plpd -pprof /debug/vars endpoint automatically).  planCompileCount is the
// acceptance counter: repeated executions of a cached shape must not move
// it.
var (
	planCacheHitCount   = expvar.NewInt("plp_plan_cache_hits")
	planCacheMissCount  = expvar.NewInt("plp_plan_cache_misses")
	planCompileCount    = expvar.NewInt("plp_plan_compiles")
	planCacheEvictCount = expvar.NewInt("plp_plan_cache_evictions")
)

// PlanCacheCounters returns the process-wide plan-cache counters (hits,
// misses, full compiles), primarily for tests and operator tooling; the
// same values are published via expvar.
func PlanCacheCounters() (hits, misses, compiles int64) {
	return planCacheHitCount.Value(), planCacheMissCount.Value(), planCompileCount.Value()
}

// planCacheCap bounds the cache.  Shapes are program text, not data: real
// workloads have dozens at most, so the bound only guards against a client
// generating unbounded distinct structures.
const planCacheCap = 512

// planShape is one cached compiled shape: the per-op filter templates (nil
// for ops without a filter), indexed flat in phase order.  The shape's
// structural validity was established by the cold path's Plan.Validate.
type planShape struct {
	filters []*plan.Filter
}

// planCache is the engine's shape cache.  A plain mutex-guarded map:
// lookups are two orders of magnitude cheaper than the compile they skip,
// and eviction (arbitrary victim) only triggers past planCacheCap distinct
// shapes.
type planCache struct {
	mu sync.Mutex
	m  map[string]*planShape
}

func newPlanCache() *planCache {
	return &planCache{m: make(map[string]*planShape)}
}

// get looks key up without converting it to a string (the compiler's
// map-index form allocates nothing).
func (c *planCache) get(key []byte) *planShape {
	c.mu.Lock()
	s := c.m[string(key)]
	c.mu.Unlock()
	return s
}

func (c *planCache) put(key string, s *planShape) {
	c.mu.Lock()
	if _, dup := c.m[key]; !dup && len(c.m) >= planCacheCap {
		for k := range c.m {
			delete(c.m, k)
			planCacheEvictCount.Add(1)
			break
		}
	}
	c.m[key] = s
	c.mu.Unlock()
}

// Len returns the number of cached shapes (for tests and stats).
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// appendPlanShape appends the plan's structural fingerprint to dst.  It
// covers everything Plan.Validate's structural checks depend on — phase
// layout, op kinds, tables, indexes, bindings, conditions, mutations and
// filter shapes — and excludes the parameters (keys, bounds, values,
// filter arguments, limits).
func appendPlanShape(dst []byte, p *plan.Plan) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Phases)))
	for _, ph := range p.Phases {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(ph)))
		for i := range ph {
			op := &ph[i]
			dst = append(dst, byte(op.Kind), byte(op.Cond), byte(op.Mut))
			dst = binary.BigEndian.AppendUint32(dst, uint32(op.KeyFrom))
			dst = binary.BigEndian.AppendUint32(dst, uint32(op.ValueFrom))
			dst = binary.BigEndian.AppendUint32(dst, uint32(op.EachFrom))
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(op.Table)))
			dst = append(dst, op.Table...)
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(op.Index)))
			dst = append(dst, op.Index...)
			dst = plan.AppendShape(dst, op.Filter)
		}
	}
	return dst
}
