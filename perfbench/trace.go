package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer.  Spans of one operation share Txn;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Txn    uint64 `json:"txn,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, which is how the untraced run measures the end-to-end metrics.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id allocates a span ID, so a parent's ID is known before its children run.
func (t *tracer) id() uint64 { return t.nextID.Add(1) }

// add records finished spans; hot loops buffer locally and add once.
func (t *tracer) add(s ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// region runs fn inside a span named name under parent and returns fn's
// error.  fn receives the span's ID to parent its own children.
func (t *tracer) region(name string, parent uint64, fn func(id uint64) error) error {
	if t == nil {
		return fn(0)
	}
	id := t.id()
	start := t.now()
	err := fn(id)
	t.add(span{ID: id, Parent: parent, Name: name, Start: start, End: t.now()})
	return err
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Name  string
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus the time children cover
}

// selfTimes computes, per span name, the total and self time.  A span's
// self time is its duration minus the part of its interval covered by the
// union of its children's intervals; overlapping (parallel) children are
// not counted twice, and a child sticking out of its parent counts only
// inside it.  The result is sorted by descending self time.
func selfTimes(spans []span) []selfStat {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := make(map[string]*selfStat)
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			agg[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s.Start, s.End, children[s.ID]))
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
