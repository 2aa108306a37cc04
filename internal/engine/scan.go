// Distributed table scans (Section 3.3: "In PLP a heap file scan is
// distributed to the partition-owning threads and performed in parallel").
package engine

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"plp/internal/dora"
	"plp/plan"
)

// ScanVisitor is called once per record during a parallel scan.  partition
// is the logical partition that executed the visit (-1 when the scan ran
// inline on the calling goroutine).  Visits from different partitions run
// concurrently, so the visitor must be safe for concurrent use.  key and rec
// point into pinned pages and are valid only until the visitor returns; it
// must not modify them and copies what it keeps.
type ScanVisitor func(partition int, key, rec []byte)

// ParallelScanStats reports how a ScanTableParallel call executed.
type ParallelScanStats struct {
	// Records is the number of records visited.
	Records int
	// Partitions is the number of partition workers that participated
	// (1 for an inline scan).
	Partitions int
	// Distributed reports whether the scan ran on the partition workers.
	Distributed bool
}

// ScanTableParallel visits every record of the table.  In the partitioned
// designs each partition worker scans its own key range through its own
// (latch-free, for PLP) sub-tree and heap pages, exactly as Section 3.3
// describes for heap file scans; in the Conventional design the scan runs
// inline on the calling goroutine.  The visitor may be called concurrently.
func (e *Engine) ScanTableParallel(table string, visit ScanVisitor) (ParallelScanStats, error) {
	return e.ScanRange(table, nil, nil, 0, visit)
}

// ScanRange visits records with lo <= key < hi (nil bounds are open),
// bounded by limit (<= 0 means no limit).  Each partition whose key range
// intersects [lo, hi) scans its own clipped range on its owning worker, so
// — like ScanTableParallel — visits from different partitions run
// concurrently and the visitor must be safe for concurrent use.  The limit
// applies per partition: every partition visits at most the `limit`
// smallest keys of its own sub-range, so the union always contains the
// `limit` globally smallest keys of the range; callers wanting exactly
// those must sort the visited records and truncate (package server does,
// for wire-level scans).  Each worker re-reads its partition's range at
// execution time — a boundary move affecting a worker pair-quiesces it
// first, so the range cannot change mid-scan — which makes scans
// concurrent with online repartitioning memory-safe but fuzzy: records
// adjacent to a boundary that moves mid-scan may be missed or visited
// twice.
func (e *Engine) ScanRange(table string, lo, hi []byte, limit int, visit ScanVisitor) (ParallelScanStats, error) {
	var st ParallelScanStats
	if _, err := e.Table(table); err != nil {
		return st, err
	}
	rt, ok := e.routing[table]
	if !ok {
		return st, fmt.Errorf("engine: no routing table for %q", table)
	}

	if e.pool == nil {
		// Conventional: inline scan of the requested key range, in key
		// order, so the limit is exact.
		ctx := &Ctx{eng: e, partition: -1, loading: true}
		n := 0
		err := ctx.ReadRange(table, lo, hi, func(k, rec []byte) bool {
			visit(-1, k, rec)
			n++
			return limit <= 0 || n < limit
		})
		st.Records = n
		st.Partitions = 1
		return st, err
	}

	// One scan task per routing partition, executed by the worker that owns
	// it (the same worker-selection rule request execution uses).  The
	// partition's range is read on the worker itself: any boundary move
	// affecting the worker quiesces it first, so the range is stable for
	// the duration of the scan and the worker never traverses a latch-free
	// sub-tree it does not own.  Partitions whose range misses [lo, hi)
	// return immediately.
	//
	// When a worker owns several partitions (parts > pool size), its scan
	// tasks ride in one batch — the same per-worker batching phase
	// dispatch uses — so a wide scan costs one channel operation per worker
	// instead of one per partition.
	parts := rt.numPartitions()
	errs := make([]error, parts)
	var total, scanned atomic.Int64
	var wg sync.WaitGroup
	items := make([]scanItem, parts)
	for p := 0; p < parts; p++ {
		items[p] = scanItem{
			e: e, rt: rt, table: table, lo: lo, hi: hi, limit: limit,
			visit: visit, slot: p, errs: errs, wg: &wg,
			total: &total, scanned: &scanned,
		}
	}
	workers := e.pool.Size()
	for widx := 0; widx < workers && widx < parts; widx++ {
		ts := dora.GetTasks()
		for p := widx; p < parts; p += workers {
			*ts = append(*ts, &items[p])
		}
		wg.Add(len(*ts))
		enqueue(e.pool.Worker(widx), ts, false)
	}
	wg.Wait()
	st.Records = int(total.Load())
	for p := 0; p < parts; p++ {
		if errs[p] != nil {
			return st, errs[p]
		}
	}
	st.Partitions = int(scanned.Load())
	st.Distributed = true
	return st, nil
}

// scanItem is one partition's share of a distributed scan.  It implements
// dora.Runner so per-worker batches allocate no closures, mirroring
// batchItem on the request path.
type scanItem struct {
	e              *Engine
	rt             *routingTable
	table          string
	lo, hi         []byte
	limit          int
	visit          ScanVisitor
	slot           int
	errs           []error
	wg             *sync.WaitGroup
	total, scanned *atomic.Int64
}

// RunTask scans the partition's clipped key range on its owning worker.
func (it *scanItem) RunTask(worker *dora.Worker) {
	defer it.wg.Done()
	plo, phi := it.rt.rangeOf(it.slot)
	clo, chi, ok := clipRange(plo, phi, it.lo, it.hi)
	if !ok {
		return
	}
	it.scanned.Add(1)
	ctx := &Ctx{eng: it.e, worker: worker, partition: worker.ID(), loading: true}
	n := 0
	it.errs[it.slot] = ctx.ReadRange(it.table, clo, chi, func(k, rec []byte) bool {
		it.visit(worker.ID(), k, rec)
		n++
		return it.limit <= 0 || n < it.limit
	})
	it.total.Add(int64(n))
}

// fail reports the partition's scan as not run.
func (it *scanItem) fail(err error) {
	it.errs[it.slot] = err
	it.wg.Done()
}

// Chunked-scan bounds.  A chunk visits at most scanChunkExamineBudget
// records even when a selective filter matches few of them, so a single
// chunk call bounds its occupancy of the owning worker regardless of
// selectivity — low-selectivity streams may carry empty non-final chunks.
const (
	// DefaultScanChunkEntries is the per-chunk entry cap applied when the
	// caller asks for none.
	DefaultScanChunkEntries = 256
	// MaxScanChunkEntries caps any chunk.
	MaxScanChunkEntries    = 4096
	scanChunkExamineBudget = 32768
)

// ScanChunkResult is one chunk of a cursor-driven streaming scan.
type ScanChunkResult struct {
	// Entries holds the chunk's matching records, in key order.
	Entries []plan.Entry
	// Next is the cursor for the following chunk; meaningless when Done.
	Next []byte
	// Done reports that the scan range is exhausted.
	Done bool
	// Scanned is the number of records examined, matching or not.
	Scanned int
}

// ScanChunk runs one chunk of a streaming scan over [cursor, hi): it visits
// records in key order on the worker owning the cursor's partition and
// returns at most maxEntries entries matching flt (nil matches everything),
// plus the cursor where the next chunk must resume.  A chunk never crosses
// a partition boundary — the next chunk re-routes to the next owner — and
// never examines more than scanChunkExamineBudget records, so each call
// occupies its worker for a bounded slice of time no matter how selective
// the filter is; callers must therefore treat an empty chunk with Done
// unset as progress, not exhaustion.  A nil cursor starts at the beginning
// of the range.  canceled, when non-nil, is polled before each record; a
// true return abandons the chunk with ErrPlanCanceled.
//
// Per examined record the chunk pays one visit from the index leaf loop
// (see catalog.Table.AscendRecords), flt's evaluation, and a copy only for
// a record that matches; the resume key is copied once, when the chunk
// stops early.
//
// Chunks run outside any transaction (like ScanRange), so the table may
// change between chunks.  A boundary move does not disturb a stream: each
// chunk resumes at its cursor, on whichever worker owns the cursor when
// the chunk runs, so a stream over a table nobody writes returns every
// record exactly once, in key order, while boundaries move.
func (e *Engine) ScanChunk(table string, cursor, hi []byte, flt *plan.Filter, maxEntries int, canceled func() bool) (ScanChunkResult, error) {
	if _, err := e.Table(table); err != nil {
		return ScanChunkResult{}, err
	}
	if _, ok := e.routing[table]; !ok {
		return ScanChunkResult{}, fmt.Errorf("engine: no routing table for %q", table)
	}
	if maxEntries <= 0 {
		maxEntries = DefaultScanChunkEntries
	} else if maxEntries > MaxScanChunkEntries {
		maxEntries = MaxScanChunkEntries
	}
	if cursor != nil && hi != nil && bytes.Compare(cursor, hi) >= 0 {
		return ScanChunkResult{Done: true}, nil
	}

	if e.pool == nil {
		// Conventional: the whole table is one "partition" scanned inline.
		ctx := &Ctx{eng: e, partition: -1, loading: true}
		return scanChunkRange(ctx, table, nil, nil, cursor, hi, flt, maxEntries, canceled)
	}

	// Route the chunk to the worker owning the cursor's partition.
	it := &chunkItem{
		e: e, table: table, r: e.routeOf(table, cursor), hi: hi, flt: flt,
		max: maxEntries, canceled: canceled, done: make(chan struct{}),
	}
	enqueue(e.pool.Worker(it.r.part), one(it), false)
	<-it.done
	return it.res, it.err
}

// chunkItem is one streaming-scan chunk dispatched to a partition worker;
// its route's key is the cursor.
type chunkItem struct {
	e        *Engine
	table    string
	r        route
	hi       []byte
	flt      *plan.Filter
	max      int
	canceled func() bool
	res      ScanChunkResult
	err      error
	done     chan struct{}
}

// RunTask scans the chunk on the owning worker, after the ownership check:
// a chunk whose cursor now belongs to another partition forwards itself to
// its current owner.
func (it *chunkItem) RunTask(worker *dora.Worker) {
	if !it.r.owns() {
		it.r = it.e.routeOf(it.table, it.r.key)
		enqueue(it.e.pool.Worker(it.r.part), one(it), true)
		return
	}
	defer close(it.done)
	plo, phi := it.r.rt.rangeOf(it.r.part)
	ctx := &Ctx{eng: it.e, worker: worker, partition: worker.ID(), loading: true}
	it.res, it.err = scanChunkRange(ctx, it.table, plo, phi, it.r.key, it.hi, it.flt, it.max, it.canceled)
}

// fail reports the chunk as not run.
func (it *chunkItem) fail(err error) {
	it.err = err
	close(it.done)
}

// scanChunkRange scans one chunk within the partition range [plo, phi)
// intersected with the request range [cursor, hi), computing the follow-up
// cursor: the successor of the last examined key when the chunk filled its
// entry or examine budget, the partition's upper bound when the partition
// is exhausted but the range is not, or Done.
func scanChunkRange(ctx *Ctx, table string, plo, phi, cursor, hi []byte, flt *plan.Filter, max int, canceled func() bool) (ScanChunkResult, error) {
	var res ScanChunkResult
	clo, chi, ok := clipRange(plo, phi, cursor, hi)
	if !ok {
		// The cursor's partition no longer intersects the range: the
		// request's hi fell at or below the cursor, so the scan is done.
		res.Done = true
		return res, nil
	}
	var matched entryBuf
	wasCanceled := false
	err := ctx.ReadRange(table, clo, chi, func(k, rec []byte) bool {
		if canceled != nil && canceled() {
			wasCanceled = true
			return false
		}
		res.Scanned++
		if flt.Eval(k, rec) {
			matched.add(k, rec)
		}
		if matched.len() >= max || res.Scanned >= scanChunkExamineBudget {
			// Resume at the smallest key above the last examined one.
			res.Next = append(append(make([]byte, 0, len(k)+1), k...), 0)
			return false
		}
		return true
	})
	res.Entries = matched.entries()
	if err != nil {
		return res, err
	}
	if wasCanceled {
		return res, ErrPlanCanceled
	}
	if res.Next != nil {
		return res, nil
	}
	switch {
	case chi == nil:
		// Open upper bound: nothing above this partition.
		res.Done = true
	case hi != nil && bytes.Compare(chi, hi) >= 0:
		// The clip was the request's own upper bound.
		res.Done = true
	default:
		// Partition exhausted; the next chunk starts at its upper bound,
		// which the routing table maps to the next partition.
		res.Next = append([]byte(nil), chi...)
	}
	return res, nil
}

// entryBuf collects copies of scanned entries in one byte buffer, so n
// kept entries cost O(log n) allocations instead of two each.
type entryBuf struct {
	buf  []byte
	ends []int // end offset in buf of each key and each value, alternating
}

// add appends copies of key and value.
func (b *entryBuf) add(key, value []byte) {
	b.buf = append(b.buf, key...)
	b.ends = append(b.ends, len(b.buf))
	b.buf = append(b.buf, value...)
	b.ends = append(b.ends, len(b.buf))
}

// len returns the number of entries added.
func (b *entryBuf) len() int { return len(b.ends) / 2 }

// entries returns the added entries in order, each slice capped to its own
// bytes of the shared buffer; nil when there are none.
func (b *entryBuf) entries() []plan.Entry {
	if len(b.ends) == 0 {
		return nil
	}
	out := make([]plan.Entry, b.len())
	start := 0
	for i := range out {
		ke, ve := b.ends[2*i], b.ends[2*i+1]
		out[i] = plan.Entry{Key: b.buf[start:ke:ke], Value: b.buf[ke:ve:ve]}
		start = ve
	}
	return out
}

// clipRange intersects the partition range [plo, phi) with the requested
// range [lo, hi); nil bounds are open.  ok is false when the intersection
// is empty.
func clipRange(plo, phi, lo, hi []byte) (clo, chi []byte, ok bool) {
	clo = plo
	if lo != nil && (clo == nil || bytes.Compare(lo, clo) > 0) {
		clo = lo
	}
	chi = phi
	if hi != nil && (chi == nil || bytes.Compare(hi, chi) < 0) {
		chi = hi
	}
	if clo != nil && chi != nil && bytes.Compare(clo, chi) >= 0 {
		return nil, nil, false
	}
	return clo, chi, true
}
