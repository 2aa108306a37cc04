package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"plp/internal/keyenc"
	"plp/plan"
)

// rowValue builds a test record: an int64 "balance" field at offset 0
// followed by a fixed textual tail, so predicates can compare both the
// numeric field and raw bytes.
func rowValue(balance int64, i uint64) []byte {
	return append(plan.Int64(balance), []byte(fmt.Sprintf("row-%06d", i))...)
}

// loadRows inserts n rows keyed 1..n with balance i%97.
func loadQueryRows(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	l := e.NewLoader()
	for i := uint64(1); i <= n; i++ {
		if err := l.Insert("sub", keyenc.Uint64Key(i), rowValue(int64(i%97), i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanFilterPushdownDifferential is the cross-design differential for
// predicate pushdown: on every design, a filtered scan must return exactly
// the rows an unfiltered scan returns after client-side filtering with the
// same predicate.
func TestPlanFilterPushdownDifferential(t *testing.T) {
	preds := []struct {
		name string
		p    func() *plan.Predicate
	}{
		{"int64-eq", func() *plan.Predicate { return plan.Int64Cmp(0, plan.CmpEq, 7) }},
		{"int64-range", func() *plan.Predicate {
			return plan.And(plan.Int64Cmp(0, plan.CmpGe, 30), plan.Int64Cmp(0, plan.CmpLt, 40))
		}},
		{"key-and-not", func() *plan.Predicate {
			return plan.And(
				plan.KeyCmp(plan.CmpLt, keyenc.Uint64Key(400)),
				plan.Not(plan.Int64Cmp(0, plan.CmpEq, 0)),
			)
		}},
		{"prefix-or", func() *plan.Predicate {
			return plan.Or(
				plan.FieldCmp(8, 10, plan.CmpEq, []byte("row-000042")),
				plan.Int64Cmp(0, plan.CmpEq, 96),
			)
		}},
	}
	for _, d := range AllDesigns() {
		t.Run(d.String(), func(t *testing.T) {
			e, sess := planTestEngine(t, d)
			loadQueryRows(t, e, 800)
			for _, pc := range preds {
				t.Run(pc.name, func(t *testing.T) {
					pushed, err := sess.ExecutePlan(plan.New().
						Scan("sub", nil, nil, 0).Where(pc.p()).MustBuild())
					if err != nil {
						t.Fatalf("pushed scan: %v", err)
					}
					raw, err := sess.ExecutePlan(plan.New().
						Scan("sub", nil, nil, 0).MustBuild())
					if err != nil {
						t.Fatalf("raw scan: %v", err)
					}
					flt, err := pc.p().Compile()
					if err != nil {
						t.Fatal(err)
					}
					var want []plan.Entry
					for _, ent := range raw[0].Entries {
						if flt.Eval(ent.Key, ent.Value) {
							want = append(want, ent)
						}
					}
					got := pushed[0].Entries
					if len(got) != len(want) {
						t.Fatalf("pushdown returned %d entries, client-side filter %d", len(got), len(want))
					}
					if len(want) == 0 {
						t.Fatal("degenerate predicate: matched nothing")
					}
					for i := range want {
						if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
							t.Fatalf("entry %d: pushdown %x/%q, client %x/%q",
								i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
						}
					}
				})
			}
		})
	}
}

// TestPlanFilterCountsMatchesOnly checks the limit interacts with the
// filter the useful way round: the limit bounds matching rows, not
// examined rows.
func TestPlanFilterCountsMatchesOnly(t *testing.T) {
	e, sess := planTestEngine(t, PLPLeaf)
	loadQueryRows(t, e, 800)
	// balance==7 hits keys 7, 104, 201, ... — sparse.  A limit of 3 must
	// still find 3 of them even though hundreds of rows sit in between.
	res, err := sess.ExecutePlan(plan.New().
		Scan("sub", nil, nil, 3).Where(plan.Int64Cmp(0, plan.CmpEq, 7)).MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Entries) != 3 {
		t.Fatalf("filtered limited scan returned %d entries, want 3", len(res[0].Entries))
	}
}

// TestScanChunkIteration drives the cursor API across partition boundaries
// on a partitioned design and inline on Conventional: chunks must cover
// every row exactly once, in key order, within the per-chunk entry cap.
func TestScanChunkIteration(t *testing.T) {
	for _, d := range []Design{Conventional, PLPLeaf} {
		t.Run(d.String(), func(t *testing.T) {
			e, _ := planTestEngine(t, d)
			loadQueryRows(t, e, 1000)
			var got []plan.Entry
			var cursor []byte
			chunks := 0
			for {
				res, err := e.ScanChunk("sub", cursor, nil, nil, 64, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Entries) > 64 {
					t.Fatalf("chunk holds %d entries, cap is 64", len(res.Entries))
				}
				got = append(got, res.Entries...)
				chunks++
				if chunks > 10000 {
					t.Fatal("stream does not terminate")
				}
				if res.Done {
					break
				}
				cursor = res.Next
			}
			if len(got) != 1000 {
				t.Fatalf("stream yielded %d rows, want 1000", len(got))
			}
			for i := 1; i < len(got); i++ {
				if bytes.Compare(got[i-1].Key, got[i].Key) >= 0 {
					t.Fatalf("keys out of order at %d: %x then %x", i, got[i-1].Key, got[i].Key)
				}
			}
		})
	}
}

// TestScanChunkFilterAndBounds checks pushdown and the [cursor, hi) bound
// on the chunk API.
func TestScanChunkFilterAndBounds(t *testing.T) {
	e, _ := planTestEngine(t, PLPRegular)
	loadQueryRows(t, e, 1000)
	flt, err := plan.Int64Cmp(0, plan.CmpEq, 13).Compile()
	if err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	var cursor []byte = keyenc.Uint64Key(100)
	hi := keyenc.Uint64Key(900)
	scanned := 0
	for {
		res, err := e.ScanChunk("sub", cursor, hi, flt, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range res.Entries {
			keys = append(keys, ent.Key)
		}
		scanned += res.Scanned
		if res.Done {
			break
		}
		cursor = res.Next
	}
	// balance==13 within [100, 900): keys 110, 207, 304, ... (i%97 == 13).
	var want [][]byte
	for i := uint64(100); i < 900; i++ {
		if i%97 == 13 {
			want = append(want, keyenc.Uint64Key(i))
		}
	}
	if len(keys) != len(want) {
		t.Fatalf("filtered stream yielded %d keys, want %d", len(keys), len(want))
	}
	for i := range want {
		if !bytes.Equal(keys[i], want[i]) {
			t.Fatalf("key %d: %x, want %x", i, keys[i], want[i])
		}
	}
	if scanned < 800 {
		t.Fatalf("stream examined %d rows, expected the full 800-row range", scanned)
	}
	// A cursor at or past hi is immediately Done.
	res, err := e.ScanChunk("sub", hi, hi, nil, 0, nil)
	if err != nil || !res.Done || len(res.Entries) != 0 {
		t.Fatalf("cursor==hi chunk: %+v, %v; want empty Done", res, err)
	}
}

// TestScanChunkCancel checks a chunk abandons mid-scan when its cancel
// hook fires.
func TestScanChunkCancel(t *testing.T) {
	e, _ := planTestEngine(t, PLPLeaf)
	loadQueryRows(t, e, 500)
	calls := 0
	_, err := e.ScanChunk("sub", nil, nil, nil, 4096, func() bool {
		calls++
		return calls > 10
	})
	if !errors.Is(err, ErrPlanCanceled) {
		t.Fatalf("err %v, want ErrPlanCanceled", err)
	}
}

// TestPlanFanOut checks EachFrom: a later phase op runs once per entry of a
// filtered scan, inside the same transaction.
func TestPlanFanOut(t *testing.T) {
	for _, d := range []Design{Conventional, PLPLeaf} {
		t.Run(d.String(), func(t *testing.T) {
			e, sess := planTestEngine(t, d)
			// Pure int64 rows: the fan-out Add mutates them in place.
			l := e.NewLoader()
			for i := uint64(1); i <= 300; i++ {
				if err := l.Insert("sub", keyenc.Uint64Key(i), plan.Int64(int64(i%97))); err != nil {
					t.Fatal(err)
				}
			}

			// Credit 1000 to every row with balance 5 (keys 5, 102, 199, 296).
			b := plan.New()
			s := b.Scan("sub", nil, nil, 0).Where(plan.Int64Cmp(0, plan.CmpEq, 5)).Ref()
			b.Then().Add("sub", nil, 1000).ForEach(s)
			res, err := sess.ExecutePlan(b.MustBuild())
			if err != nil {
				t.Fatal(err)
			}
			if len(res[0].Entries) != 4 {
				t.Fatalf("scan matched %d rows, want 4", len(res[0].Entries))
			}
			if len(res[1].Entries) != 4 || !res[1].Found {
				t.Fatalf("fan-out produced %d outcomes (found=%v), want 4", len(res[1].Entries), res[1].Found)
			}
			for _, ent := range res[1].Entries {
				v, err := plan.DecodeInt64(ent.Value)
				if err != nil || v != 1005 {
					t.Fatalf("fan-out outcome for %x: %d (%v), want 1005", ent.Key, v, err)
				}
			}
			check, err := sess.ExecutePlan(plan.New().Get("sub", keyenc.Uint64Key(102)).MustBuild())
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := plan.DecodeInt64(check[0].Value); v != 1005 {
				t.Fatalf("row 102 after fan-out add: %d, want 1005", v)
			}

			// Delete fan-out: remove every row the same filter now misses
			// (balance was rewritten to 1005), so first re-match on 1005.
			b2 := plan.New()
			s2 := b2.Scan("sub", nil, nil, 0).Where(plan.Int64Cmp(0, plan.CmpEq, 1005)).Ref()
			b2.Then().Delete("sub", nil).ForEach(s2)
			if _, err := sess.ExecutePlan(b2.MustBuild()); err != nil {
				t.Fatal(err)
			}
			after, err := sess.ExecutePlan(plan.New().
				Scan("sub", nil, nil, 0).Where(plan.Int64Cmp(0, plan.CmpEq, 1005)).MustBuild())
			if err != nil {
				t.Fatal(err)
			}
			if len(after[0].Entries) != 0 {
				t.Fatalf("%d rows survived the fan-out delete", len(after[0].Entries))
			}
			// An empty match set fans out to zero actions without error.
			b3 := plan.New()
			s3 := b3.Scan("sub", nil, nil, 0).Where(plan.Int64Cmp(0, plan.CmpEq, 7777)).Ref()
			b3.Then().Delete("sub", nil).ForEach(s3)
			res3, err := sess.ExecutePlan(b3.MustBuild())
			if err != nil {
				t.Fatal(err)
			}
			if res3[1].Found || len(res3[1].Entries) != 0 {
				t.Fatalf("empty fan-out result %+v, want none", res3[1])
			}
		})
	}
}

// TestPlanCacheReuse checks the shape cache: repeated executions of one
// shape with different parameters compile exactly once, and the rebound
// filters really do carry the new arguments.
func TestPlanCacheReuse(t *testing.T) {
	e, sess := planTestEngine(t, PLPLeaf)
	loadQueryRows(t, e, 400)

	mk := func(lo, hi uint64, balance int64) *plan.Plan {
		return plan.New().
			Scan("sub", keyenc.Uint64Key(lo), keyenc.Uint64Key(hi), 0).
			Where(plan.Int64Cmp(0, plan.CmpEq, balance)).
			MustBuild()
	}
	_, _, c0 := PlanCacheCounters()
	cold, err := sess.ExecutePlan(mk(1, 400, 5))
	if err != nil {
		t.Fatal(err)
	}
	h1, _, c1 := PlanCacheCounters()
	if c1 != c0+1 {
		t.Fatalf("cold run compiled %d times, want 1", c1-c0)
	}
	for i := 0; i < 5; i++ {
		if _, err := sess.ExecutePlan(mk(1, 400, int64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	h2, _, c2 := PlanCacheCounters()
	if c2 != c1 {
		t.Fatalf("cached runs compiled %d more times, want 0", c2-c1)
	}
	if h2 < h1+5 {
		t.Fatalf("cached runs produced %d hits, want >= 5", h2-h1)
	}
	// The hit path must honor each call's own filter argument: balance 5
	// and balance 10 match different rows (i%97: 5→{5,102,199,296}=4 in
	// [1,400); 10→{10,107,204,301}=4 but different keys).
	hot, err := sess.ExecutePlan(mk(1, 400, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(hot[0].Entries) != len(cold[0].Entries) {
		t.Fatalf("hit-path scan returned %d entries, cold run %d", len(hot[0].Entries), len(cold[0].Entries))
	}
	for i := range hot[0].Entries {
		if !bytes.Equal(hot[0].Entries[i].Key, cold[0].Entries[i].Key) {
			t.Fatalf("hit-path entry %d diverges from cold run", i)
		}
	}
	other, err := sess.ExecutePlan(mk(1, 400, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(other[0].Entries) == 0 ||
		bytes.Equal(other[0].Entries[0].Key, hot[0].Entries[0].Key) {
		t.Fatal("rebound filter did not pick up the new argument")
	}
	// A structurally different plan (extra op) is a separate shape.
	p2 := plan.New().
		Scan("sub", keyenc.Uint64Key(1), keyenc.Uint64Key(400), 0).
		Where(plan.Int64Cmp(0, plan.CmpEq, 5)).
		Get("sub", keyenc.Uint64Key(3)).
		MustBuild()
	if _, err := sess.ExecutePlan(p2); err != nil {
		t.Fatal(err)
	}
	_, _, c3 := PlanCacheCounters()
	if c3 != c2+1 {
		t.Fatalf("new shape compiled %d times, want 1", c3-c2)
	}
	if e.planShapes.Len() < 2 {
		t.Fatalf("cache holds %d shapes, want >= 2", e.planShapes.Len())
	}
}

// TestPlanCachePrefixOperatorByte checks that a prefix filter carrying an
// operator byte, which evaluation ignores, hits the plan cache like any
// other shape: the second plan of the shape compiles nothing, and both
// return exactly the rows whose field starts with their prefix.
func TestPlanCachePrefixOperatorByte(t *testing.T) {
	e, sess := planTestEngine(t, PLPLeaf)
	loadQueryRows(t, e, 400)

	all, err := sess.ExecutePlan(plan.New().Scan("sub", nil, nil, 1000).MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	run := func(prefix string) {
		t.Helper()
		pred := &plan.Predicate{Kind: plan.PredPrefix, Cmp: plan.CmpGt, Offset: 8, Arg: []byte(prefix)}
		res, err := sess.ExecutePlan(plan.New().Scan("sub", nil, nil, 1000).Where(pred).MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for _, ent := range all[0].Entries {
			if len(ent.Value) >= 8 && bytes.HasPrefix(ent.Value[8:], []byte(prefix)) {
				want = append(want, ent.Key)
			}
		}
		got := res[0].Entries
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("prefix %q: %d rows, want %d", prefix, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].Key, want[i]) {
				t.Fatalf("prefix %q: row %d is %x, want %x", prefix, i, got[i].Key, want[i])
			}
		}
	}
	run("row-0001")
	_, _, c1 := PlanCacheCounters()
	run("row-0002")
	if _, _, c2 := PlanCacheCounters(); c2 != c1 {
		t.Fatalf("the second plan of a cached prefix shape compiled %d times, want 0", c2-c1)
	}
}
