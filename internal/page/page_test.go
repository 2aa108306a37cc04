package page

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewPageEmpty(t *testing.T) {
	p := New(1, KindHeap)
	if p.ID() != 1 || p.Kind() != KindHeap {
		t.Fatalf("header mismatch: %+v", p.Header())
	}
	if p.NumRecords() != 0 || p.NumSlots() != 0 {
		t.Fatal("new page not empty")
	}
	if p.FreeSpace() <= 0 || p.FreeSpace() > Size {
		t.Fatalf("weird free space %d", p.FreeSpace())
	}
}

// TestPageOccupiesSize checks that a Page, header included, is exactly Size
// bytes, so the allocator hands out one 8 KiB block per page.
func TestPageOccupiesSize(t *testing.T) {
	if got := unsafe.Sizeof(Page{}); got != Size {
		t.Fatalf("sizeof(Page) = %d, want %d", got, Size)
	}
	p := New(1, KindHeap)
	if _, err := p.Add(make([]byte, MaxRecordSize)); err != nil {
		t.Fatalf("max-size record rejected: %v", err)
	}
	if p.FreeSpace() != 0 {
		t.Fatalf("free space %d after a max-size record", p.FreeSpace())
	}
}

func TestStableSlotAddGetDelete(t *testing.T) {
	p := New(1, KindHeap)
	var slots []uint16
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("record-%02d", i))
		slot, err := p.Add(rec)
		if err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
		slots = append(slots, slot)
	}
	for i, slot := range slots {
		rec, err := p.Get(slot)
		if err != nil {
			t.Fatalf("Get %d: %v", slot, err)
		}
		if want := fmt.Sprintf("record-%02d", i); string(rec) != want {
			t.Fatalf("slot %d: got %q want %q", slot, rec, want)
		}
	}
	// Delete even slots; odd slots must keep their numbers and contents.
	for i := 0; i < 50; i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 50; i += 2 {
		rec, err := p.Get(slots[i])
		if err != nil {
			t.Fatalf("odd slot %d unreadable after deletes: %v", slots[i], err)
		}
		if want := fmt.Sprintf("record-%02d", i); string(rec) != want {
			t.Fatalf("slot %d corrupted: %q", slots[i], rec)
		}
	}
	if _, err := p.Get(slots[0]); err == nil {
		t.Fatal("deleted slot still readable")
	}
	if err := p.Delete(slots[0]); err == nil {
		t.Fatal("double delete not detected")
	}
	// Adding reuses tombstoned slots.
	slot, err := p.Add([]byte("reused"))
	if err != nil {
		t.Fatal(err)
	}
	if int(slot) >= 50 {
		t.Fatalf("expected tombstone reuse, got fresh slot %d", slot)
	}
}

// TestAddReusesTombstones checks Add's slot choice on both of its paths:
// while the page holds tombstones Add reuses the lowest one, and once it
// holds none, including after a Set that moved a record within the page,
// Add appends a fresh slot.
func TestAddReusesTombstones(t *testing.T) {
	p := New(1, KindHeap)
	add := func(rec string) uint16 {
		t.Helper()
		slot, err := p.Add([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		return slot
	}
	for i := 0; i < 10; i++ {
		add(fmt.Sprintf("rec-%d", i))
	}
	for _, s := range []uint16{7, 3} {
		if err := p.Delete(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []uint16{3, 7, 10} {
		if got := add("again"); got != want {
			t.Fatalf("Add took slot %d, want %d", got, want)
		}
	}
	if err := p.Set(5, bytes.Repeat([]byte("g"), 100)); err != nil {
		t.Fatal(err)
	}
	if got := add("after set"); got != 11 {
		t.Fatalf("Add after a growing Set took slot %d, want 11", got)
	}
	if p.NumRecords() != 12 || p.NumSlots() != 12 {
		t.Fatalf("%d records in %d slots, want 12 in 12", p.NumRecords(), p.NumSlots())
	}
}

// TestHasRoomForAgreesWithAdd packs the slot directory and the record data
// to within 2 bytes of each other, frees a record, and checks that
// HasRoomFor promises exactly the room Add then finds: the 4-byte slot a
// new record needs comes out of the freed bytes.
func TestHasRoomForAgreesWithAdd(t *testing.T) {
	build := func() *Page {
		p := New(1, KindHeap)
		if _, err := p.Add(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		// Leave dataLow 2 bytes past the end of a 2-slot directory.
		if _, err := p.Add(make([]byte, dataSize-100-2*slotSize-2)); err != nil {
			t.Fatal(err)
		}
		if err := p.Delete(0); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, n := range []int{97, 98, 99, 100} {
		p := build()
		room := p.HasRoomFor(n)
		_, err := p.Add(make([]byte, n))
		if room != (err == nil) {
			t.Fatalf("%d bytes: HasRoomFor says %v, Add returns %v", n, room, err)
		}
	}
}

func TestSetGrowAndShrink(t *testing.T) {
	p := New(1, KindHeap)
	slot, err := p.Add([]byte("aaaa"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Set(slot, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	rec, _ := p.Get(slot)
	if string(rec) != "bb" {
		t.Fatalf("got %q", rec)
	}
	if err := p.Set(slot, bytes.Repeat([]byte("c"), 500)); err != nil {
		t.Fatal(err)
	}
	rec, _ = p.Get(slot)
	if len(rec) != 500 || rec[0] != 'c' {
		t.Fatalf("grow failed: len=%d", len(rec))
	}
}

func TestPageFull(t *testing.T) {
	p := New(1, KindHeap)
	rec := make([]byte, 1000)
	added := 0
	for {
		if _, err := p.Add(rec); err != nil {
			break
		}
		added++
	}
	if added < 7 || added > 8 {
		t.Fatalf("expected 7-8 1000-byte records on an 8KiB page, got %d", added)
	}
	if _, err := p.Add(make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	// After deleting one record the space is reusable (via compaction).
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Add(rec); err != nil {
		t.Fatalf("re-add after delete: %v", err)
	}
}

func TestPositionalInsertShifts(t *testing.T) {
	p := New(1, KindIndexLeaf)
	// Insert in reverse order at position 0 each time; the page should end
	// up sorted ascending.
	for i := 9; i >= 0; i-- {
		if err := p.InsertAt(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		rec, err := p.GetAt(i)
		if err != nil || rec[0] != byte(i) {
			t.Fatalf("pos %d: rec=%v err=%v", i, rec, err)
		}
	}
	// Remove the middle and verify the shift.
	if err := p.RemoveAt(5); err != nil {
		t.Fatal(err)
	}
	rec, _ := p.GetAt(5)
	if rec[0] != 6 {
		t.Fatalf("after RemoveAt, pos 5 = %d", rec[0])
	}
	if p.NumSlots() != 9 {
		t.Fatalf("NumSlots=%d", p.NumSlots())
	}
	if err := p.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 3 {
		t.Fatalf("after Truncate NumSlots=%d", p.NumSlots())
	}
}

func TestSetAtAndBounds(t *testing.T) {
	p := New(1, KindIndexLeaf)
	if err := p.InsertAt(1, []byte("x")); err == nil {
		t.Fatal("insert past end accepted")
	}
	if err := p.InsertAt(0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := p.SetAt(0, []byte("defghij")); err != nil {
		t.Fatal(err)
	}
	rec, _ := p.GetAt(0)
	if string(rec) != "defghij" {
		t.Fatalf("got %q", rec)
	}
	if _, err := p.GetAt(5); err == nil {
		t.Fatal("out-of-range GetAt accepted")
	}
	if err := p.RemoveAt(5); err == nil {
		t.Fatal("out-of-range RemoveAt accepted")
	}
}

func TestRIDEncoding(t *testing.T) {
	r := RID{Page: 123456, Slot: 789}
	dec, err := DecodeRID(EncodeRID(r))
	if err != nil || dec != r {
		t.Fatalf("round trip failed: %v %v", dec, err)
	}
	if !r.Valid() || (RID{}).Valid() {
		t.Fatal("validity check broken")
	}
	if _, err := DecodeRID([]byte{1, 2, 3}); err == nil {
		t.Fatal("short RID accepted")
	}
}

func TestKindPredicates(t *testing.T) {
	if !KindIndexLeaf.IsIndex() || !KindIndexInterior.IsIndex() || !KindRouting.IsIndex() {
		t.Fatal("index kinds misclassified")
	}
	if KindHeap.IsIndex() || KindCatalog.IsIndex() {
		t.Fatal("non-index kinds misclassified")
	}
	for k := KindFree; k <= KindMetadata; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty label", k)
		}
	}
}

// TestPropertyStableSlots drives random Add/Delete/Set sequences against a
// map model.
func TestPropertyStableSlots(t *testing.T) {
	f := func(seed int64, opCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(1, KindHeap)
		model := map[uint16][]byte{}
		for i := 0; i < int(opCount); i++ {
			switch rng.Intn(3) {
			case 0:
				rec := make([]byte, 1+rng.Intn(64))
				rng.Read(rec)
				slot, err := p.Add(rec)
				if err != nil {
					continue
				}
				if _, exists := model[slot]; exists {
					return false // reused a live slot
				}
				model[slot] = append([]byte(nil), rec...)
			case 1:
				for slot := range model {
					if err := p.Delete(slot); err != nil {
						return false
					}
					delete(model, slot)
					break
				}
			case 2:
				for slot := range model {
					rec := make([]byte, 1+rng.Intn(64))
					rng.Read(rec)
					if err := p.Set(slot, rec); err != nil {
						break
					}
					model[slot] = append([]byte(nil), rec...)
					break
				}
			}
		}
		if p.NumRecords() != len(model) {
			return false
		}
		for slot, want := range model {
			got, err := p.Get(slot)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
