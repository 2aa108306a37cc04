package repartition

import (
	"bytes"
	"fmt"
	"testing"

	"plp/internal/keyenc"
)

func TestAgingHistogramObserveAndSnapshot(t *testing.T) {
	h := NewAgingHistogram(4, 0)
	for i := 0; i < 10; i++ {
		h.Observe(0, keyenc.Uint64Key(1))
	}
	for i := 0; i < 5; i++ {
		h.Observe(2, keyenc.Uint64Key(100))
	}
	h.Observe(-1, keyenc.Uint64Key(7)) // out-of-range partition: key still tracked
	h.Observe(99, keyenc.Uint64Key(7))

	snap := h.Snapshot()
	if snap.WindowObservations != 17 {
		t.Fatalf("window observations = %d, want 17", snap.WindowObservations)
	}
	if snap.PartitionLoads[0] != 10 || snap.PartitionLoads[2] != 5 {
		t.Fatalf("partition loads = %v", snap.PartitionLoads)
	}
	if len(snap.Keys) != 3 {
		t.Fatalf("tracked keys = %d, want 3", len(snap.Keys))
	}
	// Keys are sorted.
	for i := 1; i < len(snap.Keys); i++ {
		if bytes.Compare(snap.Keys[i-1].Key, snap.Keys[i].Key) >= 0 {
			t.Fatalf("snapshot keys not sorted")
		}
	}
}

func TestAgingHistogramDecayDropsColdKeys(t *testing.T) {
	h := NewAgingHistogram(2, 0)
	for i := 0; i < 100; i++ {
		h.Observe(0, keyenc.Uint64Key(1))
	}
	h.Observe(1, keyenc.Uint64Key(2)) // weight 1: one aging at 0.25 drops it below 0.5
	h.Age(0.25)

	snap := h.Snapshot()
	if snap.WindowObservations != 0 {
		t.Fatalf("window not reset by Age: %d", snap.WindowObservations)
	}
	if got := snap.PartitionLoads[0]; got != 25 {
		t.Fatalf("aged load = %v, want 25", got)
	}
	if len(snap.Keys) != 1 || !bytes.Equal(snap.Keys[0].Key, keyenc.Uint64Key(1)) {
		t.Fatalf("cold key not dropped: %d keys tracked", len(snap.Keys))
	}
}

func TestAgingHistogramTracksShiftingHotSpot(t *testing.T) {
	// A hot spot on key A fades after it moves to key B and aging runs.
	h := NewAgingHistogram(2, 0)
	a, b := keyenc.Uint64Key(10), keyenc.Uint64Key(20)
	for i := 0; i < 1000; i++ {
		h.Observe(0, a)
	}
	for period := 0; period < 8; period++ {
		h.Age(0.5)
		for i := 0; i < 1000; i++ {
			h.Observe(1, b)
		}
	}
	snap := h.Snapshot()
	var wa, wb float64
	for _, kw := range snap.Keys {
		if bytes.Equal(kw.Key, a) {
			wa = kw.Weight
		}
		if bytes.Equal(kw.Key, b) {
			wb = kw.Weight
		}
	}
	if wa*10 > wb {
		t.Fatalf("old hot spot did not fade: weight(A)=%v weight(B)=%v", wa, wb)
	}
	if snap.PartitionLoads[1] < 10*snap.PartitionLoads[0] {
		t.Fatalf("partition loads did not follow the hot spot: %v", snap.PartitionLoads)
	}
}

func TestAgingHistogramBoundedKeys(t *testing.T) {
	h := NewAgingHistogram(1, 8)
	for i := 0; i < 100; i++ {
		h.Observe(0, []byte(fmt.Sprintf("key-%03d", i)))
	}
	if snap := h.Snapshot(); len(snap.Keys) != 8 {
		t.Fatalf("tracked keys = %d, want cap 8", len(snap.Keys))
	}
}
