package tatp

import (
	"errors"
	"math/rand"
	"testing"

	"plp/internal/engine"
	"plp/internal/keyenc"
)

func setupEngine(t *testing.T, design engine.Design, subscribers int) (*engine.Engine, *Workload) {
	t.Helper()
	e := engine.New(engine.Options{Design: design, Partitions: 4, SLI: design == engine.Conventional})
	t.Cleanup(func() { _ = e.Close() })
	w := New(Config{Subscribers: subscribers, Partitions: 4, Mix: MixStandard})
	if err := w.Setup(e); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return e, w
}

func TestSubscriberMarshalRoundTrip(t *testing.T) {
	s := Subscriber{SID: 42, SubNbr: SubNbrOf(42), MSCLocation: 7, VLRLocation: 9}
	s.BitFields[3] = true
	s.HexFields[5] = 0xA
	s.ByteFields[9] = 0xFF
	got, err := UnmarshalSubscriber(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.SID != 42 || got.SubNbr != SubNbrOf(42) || !got.BitFields[3] ||
		got.HexFields[5] != 0xA || got.ByteFields[9] != 0xFF || got.VLRLocation != 9 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := UnmarshalSubscriber([]byte{1, 2}); err == nil {
		t.Fatal("short record accepted")
	}
}

func TestKeyOrderingMatchesIDOrder(t *testing.T) {
	if keyenc.Compare(SubscriberKey(5), SubscriberKey(6)) >= 0 {
		t.Fatal("subscriber key order broken")
	}
	if keyenc.Compare(CallForwardingKey(5, 1, 0), CallForwardingKey(5, 1, 8)) >= 0 {
		t.Fatal("call forwarding key order broken")
	}
	if keyenc.Compare(CallForwardingKey(5, 1, 16), CallForwardingKey(5, 2, 0)) >= 0 {
		t.Fatal("sf_type must dominate start_time")
	}
}

func TestLoadPopulatesAllTables(t *testing.T) {
	e, w := setupEngine(t, engine.PLPLeaf, 200)
	l := e.NewLoader()
	// Every subscriber is present and resolvable via the secondary index.
	for sid := uint64(1); sid <= 200; sid += 13 {
		rec, err := l.Read(TableSubscriber, SubscriberKey(sid))
		if err != nil {
			t.Fatalf("subscriber %d: %v", sid, err)
		}
		sub, err := UnmarshalSubscriber(rec)
		if err != nil || sub.SID != sid {
			t.Fatalf("subscriber %d decode: %+v %v", sid, sub, err)
		}
	}
	if err := w.Verify(e); err != nil {
		t.Fatal(err)
	}
	// Access-info rows exist for every subscriber (at least ai_type 1).
	if _, err := l.Read(TableAccessInfo, AccessInfoKey(1, 1)); err != nil {
		t.Fatalf("access info missing: %v", err)
	}
}

func TestStandardMixRunsOnAllDesigns(t *testing.T) {
	for _, design := range engine.AllDesigns() {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			e, w := setupEngine(t, design, 300)
			sess := e.NewSession()
			defer sess.Close()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 300; i++ {
				req := w.NextRequest(rng)
				if _, err := sess.Execute(req); err != nil && !errors.Is(err, engine.ErrAborted) {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			if e.TxnStats().Committed == 0 {
				t.Fatal("nothing committed")
			}
			if err := w.Verify(e); err != nil {
				t.Fatalf("verify: %v", err)
			}
		})
	}
}

func TestAllMixesGenerateValidRequests(t *testing.T) {
	e, _ := setupEngine(t, engine.Logical, 200)
	sess := e.NewSession()
	defer sess.Close()
	rng := rand.New(rand.NewSource(3))
	for _, mix := range []Mix{MixStandard, MixGetSubscriberData, MixInsertDeleteCallFwd, MixBalanceProbe, MixUpdateLocation} {
		w := New(Config{Subscribers: 200, Partitions: 4, Mix: mix})
		if w.Name() == "" {
			t.Fatal("mix has no name")
		}
		for i := 0; i < 50; i++ {
			req := w.NextRequest(rng)
			if req.NumActions() == 0 {
				t.Fatalf("mix %v generated an empty request", mix)
			}
			if _, err := sess.Execute(req); err != nil && !errors.Is(err, engine.ErrAborted) {
				t.Fatalf("mix %v: %v", mix, err)
			}
		}
	}
}

func TestUpdateLocationChangesVLR(t *testing.T) {
	e, w := setupEngine(t, engine.PLPRegular, 100)
	sess := e.NewSession()
	defer sess.Close()
	rng := rand.New(rand.NewSource(5))
	before, _ := e.NewLoader().Read(TableSubscriber, SubscriberKey(10))
	subBefore, _ := UnmarshalSubscriber(before)
	var changed bool
	for i := 0; i < 20 && !changed; i++ {
		if _, err := sess.Execute(w.UpdateLocation(rng, 10)); err != nil {
			t.Fatal(err)
		}
		after, _ := e.NewLoader().Read(TableSubscriber, SubscriberKey(10))
		subAfter, _ := UnmarshalSubscriber(after)
		changed = subAfter.VLRLocation != subBefore.VLRLocation
	}
	if !changed {
		t.Fatal("UpdateLocation never changed the VLR location")
	}
}

func TestInsertDeleteCallForwardingRoundTrip(t *testing.T) {
	e, w := setupEngine(t, engine.PLPLeaf, 100)
	sess := e.NewSession()
	defer sess.Close()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		var req *engine.Request
		if i%2 == 0 {
			req = w.InsertCallForwarding(rng, uint64(1+i%100))
		} else {
			req = w.DeleteCallForwarding(rng, uint64(1+i%100))
		}
		if _, err := sess.Execute(req); err != nil && !errors.Is(err, engine.ErrAborted) {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := w.Verify(e); err != nil {
		t.Fatal(err)
	}
}

func TestSkewBiasesSubscriberChoice(t *testing.T) {
	w := New(Config{Subscribers: 10000, Partitions: 1})
	w.SetSkew(0.10, 0.50)
	rng := rand.New(rand.NewSource(1))
	hot := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if w.randomSID(rng) <= 1000 {
			hot++
		}
	}
	// Expect roughly 50% + 10%*50% = 55% of draws in the hot range.
	if hot < draws*45/100 || hot > draws*65/100 {
		t.Fatalf("hot fraction %d/%d outside expected band", hot, draws)
	}
}

func TestBoundariesCoverKeySpace(t *testing.T) {
	w := New(Config{Subscribers: 1000, Partitions: 4})
	b := w.Boundaries()
	if len(b) != 3 {
		t.Fatalf("expected 3 boundaries, got %d", len(b))
	}
	for i := 1; i < len(b); i++ {
		if keyenc.Compare(b[i-1], b[i]) >= 0 {
			t.Fatal("boundaries not increasing")
		}
	}
	if UniformBoundaries(100, 1) != nil {
		t.Fatal("single partition should have no boundaries")
	}
}

func TestUpdateLocationPlanPatchesOnlyVLR(t *testing.T) {
	e, w := setupEngine(t, engine.PLPLeaf, 50)
	sess := e.NewSession()
	defer sess.Close()
	l := e.NewLoader()
	before, err := l.Read(TableSubscriber, SubscriberKey(7))
	if err != nil {
		t.Fatal(err)
	}
	subBefore, _ := UnmarshalSubscriber(before)
	want := subBefore.VLRLocation + 12345
	if _, err := sess.ExecutePlan(w.UpdateLocationPlan(7, want)); err != nil {
		t.Fatalf("plan: %v", err)
	}
	after, err := l.Read(TableSubscriber, SubscriberKey(7))
	if err != nil {
		t.Fatal(err)
	}
	subAfter, _ := UnmarshalSubscriber(after)
	if subAfter.VLRLocation != want {
		t.Fatalf("VLR location = %d, want %d", subAfter.VLRLocation, want)
	}
	// Everything except the 4-byte VLR field must be untouched.
	subAfter.VLRLocation = subBefore.VLRLocation
	if string(subAfter.Marshal()) != string(before) {
		t.Fatal("plan modified bytes outside the VLR location field")
	}
}

// TestUpdateLocationLogBytes is the log-volume gate on TATP: an
// UpdateLocation logs its 4-byte VLR location as a patch and commits, two
// records whose frames carry a type byte and two uvarints each, so it logs
// at most 48 bytes.  A fixed 37-byte header per record takes it to about
// 107 bytes.
func TestUpdateLocationLogBytes(t *testing.T) {
	const txns, bound = 200, 48.0
	e, w := setupEngine(t, engine.PLPLeaf, 1000)
	sess := e.NewSession()
	defer sess.Close()
	rng := rand.New(rand.NewSource(1))
	bytes0, appends0 := e.Log().Stats().BytesLogged, e.Log().Stats().Appends
	for i := 0; i < txns; i++ {
		if _, err := sess.ExecutePlan(w.UpdateLocationPlan(uint64(1+rng.Intn(1000)), rng.Uint32())); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	st := e.Log().Stats()
	if appends := st.Appends - appends0; appends != 2*txns {
		t.Fatalf("%d log records for %d UpdateLocations, want an update and a commit each", appends, txns)
	}
	perTxn := float64(st.BytesLogged-bytes0) / txns
	t.Logf("UpdateLocation logs %.1f bytes per transaction", perTxn)
	if perTxn > bound {
		t.Fatalf("UpdateLocation logs %.1f bytes per transaction, want <= %.0f", perTxn, bound)
	}
}

func TestGetSubscriberDataPlanFindsRow(t *testing.T) {
	e, w := setupEngine(t, engine.Conventional, 50)
	sess := e.NewSession()
	defer sess.Close()
	results, err := sess.ExecutePlan(w.GetSubscriberDataPlan(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Found {
		t.Fatalf("expected one found result, got %+v", results)
	}
	sub, err := UnmarshalSubscriber(results[0].Value)
	if err != nil || sub.SID != 9 {
		t.Fatalf("wrong row back: %+v %v", sub, err)
	}
}

func TestNextPlanCoversPlanMixes(t *testing.T) {
	e, _ := setupEngine(t, engine.PLPRegular, 50)
	rng := rand.New(rand.NewSource(5))
	for _, mix := range []Mix{MixGetSubscriberData, MixBalanceProbe, MixUpdateLocation} {
		w := New(Config{Subscribers: 50, Partitions: 4, Mix: mix})
		sess := e.NewSession()
		for i := 0; i < 20; i++ {
			p := w.NextPlan(rng)
			if p == nil {
				t.Fatalf("mix %v: nil plan", mix)
			}
			if _, err := sess.ExecutePlan(p); err != nil && !errors.Is(err, engine.ErrAborted) {
				t.Fatalf("mix %v: %v", mix, err)
			}
		}
		sess.Close()
	}
	if w := New(Config{Subscribers: 50, Partitions: 4, Mix: MixStandard}); w.NextPlan(rng) != nil {
		t.Fatal("standard mix should have no plan path yet")
	}
}
