// Package advisor implements the workload-analysis tooling sketched in
// Appendix E of the paper.
//
// PLP partitions each table by a subset of its columns.  Secondary indexes
// that do not embed those columns ("non-partition-aligned" indexes) cannot
// be partitioned: they are accessed like conventional latched indexes and
// every probe costs an extra hop to the partition-owning thread.  The paper
// notes that the authors "have implemented tools that help the application
// developer and the DBA to avoid having workloads with very frequent such
// index accesses" — this package is that tool for this reproduction:
//
//   - a Tracker observes which indexes a workload actually uses and how
//     often, and flags tables whose traffic goes predominantly through
//     non-partition-aligned indexes;
//   - it detects partition skew from the observed key distribution and
//     suggests either rebalancing (the online controller in package
//     repartition does that while traffic runs) or better initial
//     boundaries;
//   - RecommendBoundaries turns an observed key sample into equal-weight
//     partition boundaries that can be fed straight into TableDef.
//
// The tracker is a passive, client-side component: it never hooks into the
// engine's execution path, so using it costs nothing on the hot path.
package advisor

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"plp/internal/engine"
)

// Severity grades a finding.
type Severity int

// Severities, from least to most pressing.
const (
	Info Severity = iota
	Warning
	Critical
)

// String returns the severity label.
func (s Severity) String() string {
	switch s {
	case Info:
		return "INFO"
	case Warning:
		return "WARNING"
	case Critical:
		return "CRITICAL"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Finding is one piece of advice.
type Finding struct {
	// Severity of the finding.
	Severity Severity
	// Table the finding concerns.
	Table string
	// Index the finding concerns ("" for table-level findings).
	Index string
	// Partition is the overloaded partition for skew findings (the one a
	// split or boundary move should shed load from); -1 otherwise.
	Partition int
	// Share is the fraction of the table's observed accesses behind the
	// finding (non-aligned index share, hottest partition share, ...).
	Share float64
	// Message is the human-readable recommendation.
	Message string
}

// String renders the finding.
func (f Finding) String() string {
	target := f.Table
	if f.Index != "" {
		target += "." + f.Index
	}
	return fmt.Sprintf("[%s] %s: %s", f.Severity, target, f.Message)
}

// Report is the result of analyzing the observed accesses.
type Report struct {
	// TotalAccesses is the number of observed index accesses.
	TotalAccesses uint64
	// Tables summarises per-table access counts.
	Tables []TableSummary
	// Findings holds the recommendations, most severe first.
	Findings []Finding
}

// TableSummary describes the observed access mix of one table.
type TableSummary struct {
	Table string
	// Primary is the number of accesses routed through the primary
	// (partition-aligned) index.
	Primary uint64
	// Aligned is the number of accesses through partition-aligned secondary
	// indexes.
	Aligned uint64
	// NonAligned is the number of accesses through non-partition-aligned
	// secondary indexes.
	NonAligned uint64
	// PartitionShares is the observed load share per logical partition.
	PartitionShares []float64
}

// Total returns the table's total observed accesses.
func (t TableSummary) Total() uint64 { return t.Primary + t.Aligned + t.NonAligned }

// String renders the report as a small text document.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "advisor report: %d observed index accesses\n", r.TotalAccesses)
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "  table %-16s primary=%-8d aligned=%-8d non-aligned=%-8d", t.Table, t.Primary, t.Aligned, t.NonAligned)
		if len(t.PartitionShares) > 0 {
			b.WriteString(" partition shares:")
			for _, s := range t.PartitionShares {
				fmt.Fprintf(&b, " %4.1f%%", 100*s)
			}
		}
		b.WriteByte('\n')
	}
	if len(r.Findings) == 0 {
		b.WriteString("  no findings: the workload is partition-friendly\n")
		return b.String()
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f.String())
	}
	return b.String()
}

// Thresholds used to grade findings.  They are package-level constants so
// the report text and the tests agree on the grading.
const (
	// NonAlignedWarnShare is the non-aligned access share that produces a
	// Warning finding.
	NonAlignedWarnShare = 0.10
	// NonAlignedCriticalShare produces a Critical finding.
	NonAlignedCriticalShare = 0.30
	// SkewWarnRatio is the hottest-partition share over fair share above
	// which a skew Warning is produced.
	SkewWarnRatio = 1.5
	// SkewCriticalRatio produces a Critical skew finding.
	SkewCriticalRatio = 2.5
)

// perIndex tracks one secondary index's observed accesses.
type perIndex struct {
	accesses uint64
	aligned  bool
}

// perTable tracks one table's observed accesses.
type perTable struct {
	primary    uint64
	secondary  map[string]*perIndex
	partitions []uint64
	keySample  map[string]uint64
	maxSample  int
}

// Tracker accumulates index-access observations for one engine.
type Tracker struct {
	e *engine.Engine

	mu     sync.Mutex
	tables map[string]*perTable
}

// NewTracker returns a tracker bound to the engine (used to look up index
// alignment metadata and partition routing).
func NewTracker(e *engine.Engine) *Tracker {
	return &Tracker{e: e, tables: make(map[string]*perTable)}
}

// tableStats returns (creating if needed) the per-table accumulator.
func (t *Tracker) tableStats(table string) *perTable {
	ts, ok := t.tables[table]
	if !ok {
		parts := t.e.Options().Partitions
		ts = &perTable{
			secondary:  make(map[string]*perIndex),
			partitions: make([]uint64, parts),
			keySample:  make(map[string]uint64),
			maxSample:  16384,
		}
		t.tables[table] = ts
	}
	return ts
}

// ObservePrimary records one access through the table's primary index.
func (t *Tracker) ObservePrimary(table string, key []byte) {
	p := t.e.PartitionFor(table, key)
	t.mu.Lock()
	ts := t.tableStats(table)
	ts.primary++
	if p >= 0 && p < len(ts.partitions) {
		ts.partitions[p]++
	}
	if _, ok := ts.keySample[string(key)]; ok || len(ts.keySample) < ts.maxSample {
		ts.keySample[string(key)]++
	}
	t.mu.Unlock()
}

// ObserveSecondary records one access through the named secondary index.
// Alignment is looked up in the catalog; unknown indexes count as
// non-aligned (the conservative assumption).
func (t *Tracker) ObserveSecondary(table, index string) {
	aligned := false
	if tbl, err := t.e.Table(table); err == nil {
		for _, def := range tbl.Def.Secondaries {
			if def.Name == index {
				aligned = def.PartitionAligned
				break
			}
		}
	}
	t.mu.Lock()
	ts := t.tableStats(table)
	pi, ok := ts.secondary[index]
	if !ok {
		pi = &perIndex{aligned: aligned}
		ts.secondary[index] = pi
	}
	pi.accesses++
	t.mu.Unlock()
}

// Report analyzes the observations and returns the findings.
func (t *Tracker) Report() *Report {
	t.mu.Lock()
	defer t.mu.Unlock()

	r := &Report{}
	names := make([]string, 0, len(t.tables))
	for name := range t.tables {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		ts := t.tables[name]
		sum := TableSummary{Table: name, Primary: ts.primary}
		for _, pi := range ts.secondary {
			if pi.aligned {
				sum.Aligned += pi.accesses
			} else {
				sum.NonAligned += pi.accesses
			}
		}
		var partTotal uint64
		for _, c := range ts.partitions {
			partTotal += c
		}
		if partTotal > 0 {
			sum.PartitionShares = make([]float64, len(ts.partitions))
			for i, c := range ts.partitions {
				sum.PartitionShares[i] = float64(c) / float64(partTotal)
			}
		}
		r.TotalAccesses += sum.Total()
		r.Tables = append(r.Tables, sum)

		total := sum.Total()
		if total == 0 {
			continue
		}

		// Non-aligned secondary index findings, per index.
		indexNames := make([]string, 0, len(ts.secondary))
		for idx := range ts.secondary {
			indexNames = append(indexNames, idx)
		}
		sort.Strings(indexNames)
		for _, idx := range indexNames {
			pi := ts.secondary[idx]
			if pi.aligned {
				continue
			}
			share := float64(pi.accesses) / float64(total)
			if share < NonAlignedWarnShare {
				continue
			}
			sev := Warning
			if share >= NonAlignedCriticalShare {
				sev = Critical
			}
			r.Findings = append(r.Findings, Finding{
				Severity:  sev,
				Table:     name,
				Index:     idx,
				Partition: -1,
				Share:     share,
				Message: fmt.Sprintf("%.0f%% of the table's accesses probe the non-partition-aligned index %q; "+
					"these probes are latched and need an extra hop to the owning partition. "+
					"Add the partitioning columns to the index key, or repartition the table on this index's columns.",
					100*share, idx),
			})
		}

		// Partition-skew findings.
		if len(sum.PartitionShares) > 1 && partTotal > 0 {
			fair := 1.0 / float64(len(sum.PartitionShares))
			hot, hotShare := 0, 0.0
			for i, s := range sum.PartitionShares {
				if s > hotShare {
					hot, hotShare = i, s
				}
			}
			ratio := hotShare / fair
			if ratio >= SkewWarnRatio {
				sev := Warning
				if ratio >= SkewCriticalRatio {
					sev = Critical
				}
				r.Findings = append(r.Findings, Finding{
					Severity:  sev,
					Table:     name,
					Partition: hot,
					Share:     hotShare,
					Message: fmt.Sprintf("partition %d receives %.0f%% of the primary-key accesses (%.1fx its fair share); "+
						"attach the repartitioning controller or split the hot range (boundary suggestion: RecommendBoundaries).",
						hot, 100*hotShare, ratio),
				})
			}
		}
	}

	// Most severe findings first; stable within a severity.
	sort.SliceStable(r.Findings, func(i, j int) bool { return r.Findings[i].Severity > r.Findings[j].Severity })
	return r
}

// RecommendBoundaries returns parts-1 boundary keys that split the observed
// key weight of the table into equal-load ranges, ready to be used as
// TableDef.Boundaries for a better initial partitioning.  It returns nil
// when fewer than parts distinct keys were observed.
func (t *Tracker) RecommendBoundaries(table string, parts int) [][]byte {
	t.mu.Lock()
	ts, ok := t.tables[table]
	if !ok {
		t.mu.Unlock()
		return nil
	}
	type kc struct {
		key   []byte
		count uint64
	}
	keys := make([]kc, 0, len(ts.keySample))
	var weight uint64
	for k, c := range ts.keySample {
		keys = append(keys, kc{key: []byte(k), count: c})
		weight += c
	}
	t.mu.Unlock()

	if parts < 2 || len(keys) < parts || weight == 0 {
		return nil
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i].key, keys[j].key) < 0 })

	out := make([][]byte, 0, parts-1)
	var cum uint64
	next := 1
	for i, e := range keys {
		cum += e.count
		for next < parts && float64(cum) >= float64(weight)*float64(next)/float64(parts) {
			// The boundary is the key *after* the quantile position so the
			// quantile key itself stays in the lower range.
			if i+1 < len(keys) {
				out = append(out, append([]byte(nil), keys[i+1].key...))
			}
			next++
		}
	}
	if len(out) != parts-1 {
		return nil
	}
	return out
}

// RecommendBoundaries is the standalone form: it computes equal-weight
// boundaries from an explicit key sample (each key counted once).
func RecommendBoundaries(keys [][]byte, parts int) [][]byte {
	if parts < 2 || len(keys) < parts {
		return nil
	}
	sorted := make([][]byte, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	out := make([][]byte, 0, parts-1)
	for i := 1; i < parts; i++ {
		idx := i * len(sorted) / parts
		out = append(out, append([]byte(nil), sorted[idx]...))
	}
	return out
}
