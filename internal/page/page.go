// Package page implements the fixed-size slotted database page that every
// storage structure in the system (heap files, B+Tree nodes, catalog pages,
// and the MRBTree routing page) is built from.
//
// Pages are 8 KiB, matching the configuration used in the PLP paper.  A page
// contains a header, a slot directory that grows forward from the header,
// and record data that grows backward from the end of the page.  Two slot
// disciplines are supported:
//
//   - Stable slots (Add/Delete/Get/Set): a record keeps its slot number for
//     its whole life, so record IDs (RIDs) that reference it stay valid.
//     Heap pages use this discipline.
//   - Positional slots (InsertAt/RemoveAt/GetAt/SetAt): the slot directory is
//     an ordered sequence and insertions shift later entries.  B+Tree nodes
//     use this discipline to keep their entries sorted.
//
// A page never mixes the two disciplines.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Size is the size of every database page in bytes (8 KiB, as in the paper).
const Size = 8192

// headerSize is the number of bytes of each page taken by the header and the
// slot bookkeeping fields.
const headerSize = 64

// dataSize is the number of bytes left for the slot directory and the record
// data, so that a whole Page occupies exactly Size bytes of memory.
const dataSize = Size - headerSize

// slotSize is the size of one slot directory entry: 2 bytes offset +
// 2 bytes length.
const slotSize = 4

// tombstoneOffset marks a deleted stable slot.
const tombstoneOffset = 0xFFFF

// ID identifies a page within the database file.
type ID uint64

// InvalidID is the zero, never-allocated page ID.
const InvalidID ID = 0

// String formats a page ID.
func (id ID) String() string { return fmt.Sprintf("page(%d)", uint64(id)) }

// Kind classifies pages for latch accounting and consistency checks.
type Kind uint8

// Page kinds.
const (
	KindFree Kind = iota
	KindHeap
	KindIndexLeaf
	KindIndexInterior
	KindRouting // MRBTree partition (routing) page
	KindCatalog
	KindMetadata
)

// String returns a short label for the kind.
func (k Kind) String() string {
	switch k {
	case KindFree:
		return "free"
	case KindHeap:
		return "heap"
	case KindIndexLeaf:
		return "leaf"
	case KindIndexInterior:
		return "interior"
	case KindRouting:
		return "routing"
	case KindCatalog:
		return "catalog"
	case KindMetadata:
		return "metadata"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsIndex reports whether the kind is an index page kind.
func (k Kind) IsIndex() bool {
	return k == KindIndexLeaf || k == KindIndexInterior || k == KindRouting
}

// RID is a record identifier: the page holding the record plus its stable
// slot within that page.
type RID struct {
	Page ID
	Slot uint16
}

// InvalidRID is the zero RID.
var InvalidRID = RID{}

// Valid reports whether the RID references an allocated page.
func (r RID) Valid() bool { return r.Page != InvalidID }

// String formats a RID.
func (r RID) String() string { return fmt.Sprintf("rid(%d,%d)", uint64(r.Page), r.Slot) }

// RIDSize is the length of a RID's encoding.
const RIDSize = 10

// EncodeRID encodes a RID into a fixed RIDSize-byte representation.
func EncodeRID(r RID) []byte {
	buf := make([]byte, RIDSize)
	PutRID(buf, r)
	return buf
}

// PutRID writes r's RIDSize-byte encoding into the start of b.
func PutRID(b []byte, r RID) {
	binary.BigEndian.PutUint64(b[0:8], uint64(r.Page))
	binary.BigEndian.PutUint16(b[8:10], r.Slot)
}

// DecodeRID decodes a RID previously encoded with EncodeRID.
func DecodeRID(b []byte) (RID, error) {
	if len(b) < RIDSize {
		return RID{}, fmt.Errorf("page: short RID encoding (%d bytes)", len(b))
	}
	return RID{
		Page: ID(binary.BigEndian.Uint64(b[0:8])),
		Slot: binary.BigEndian.Uint16(b[8:10]),
	}, nil
}

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("page: not enough free space")
	ErrNoSuchSlot  = errors.New("page: no such slot")
	ErrSlotDeleted = errors.New("page: slot is deleted")
	ErrTooLarge    = errors.New("page: record larger than a page")
)

// MaxRecordSize is the largest record that fits on an empty page.
const MaxRecordSize = dataSize - slotSize

// Header holds the page metadata.
type Header struct {
	ID    ID
	Kind  Kind
	LSN   uint64 // page LSN: LSN of the last log record that modified the page
	Prev  ID     // previous sibling (B+Tree leaf chains, heap page chains)
	Next  ID     // next sibling
	Owner uint64 // logical owner: partition id for PLP heap pages, index id for index pages
	Extra uint64 // kind-specific field (e.g. leftmost child of an interior node, tree level)
}

// Page is an in-memory 8 KiB slotted page.
type Page struct {
	hdr      Header
	nslots   uint16         // number of slot directory entries (including tombstones)
	nrecords uint16         // number of live records
	dataLow  uint16         // lowest byte offset used by record data (records grow down)
	garbage  uint16         // bytes occupied by deleted record data (reclaimable by compaction)
	buf      [dataSize]byte // slot directory, free space, record data
}

// New returns an initialized page of the given kind and id.
func New(id ID, kind Kind) *Page {
	p := &Page{}
	p.Reset(id, kind)
	return p
}

// Reset reinitializes the page in place, discarding all records.
func (p *Page) Reset(id ID, kind Kind) {
	p.hdr = Header{ID: id, Kind: kind}
	p.nslots = 0
	p.nrecords = 0
	p.dataLow = dataSize
	p.garbage = 0
}

// Header returns a copy of the page header.
func (p *Page) Header() Header { return p.hdr }

// ID returns the page's ID.
func (p *Page) ID() ID { return p.hdr.ID }

// Kind returns the page's kind.
func (p *Page) Kind() Kind { return p.hdr.Kind }

// LSN returns the page LSN.
func (p *Page) LSN() uint64 { return p.hdr.LSN }

// Prev returns the previous sibling page ID.
func (p *Page) Prev() ID { return p.hdr.Prev }

// Next returns the next sibling page ID.
func (p *Page) Next() ID { return p.hdr.Next }

// SetPrev sets the previous sibling page ID.
func (p *Page) SetPrev(id ID) { p.hdr.Prev = id }

// SetNext sets the next sibling page ID.
func (p *Page) SetNext(id ID) { p.hdr.Next = id }

// Owner returns the logical owner tag of the page.
func (p *Page) Owner() uint64 { return p.hdr.Owner }

// SetOwner sets the logical owner tag of the page.
func (p *Page) SetOwner(o uint64) { p.hdr.Owner = o }

// Extra returns the kind-specific extra header field.
func (p *Page) Extra() uint64 { return p.hdr.Extra }

// SetExtra sets the kind-specific extra header field.
func (p *Page) SetExtra(v uint64) { p.hdr.Extra = v }

// NumSlots returns the number of slot directory entries, including
// tombstones left behind by stable-slot deletions.
func (p *Page) NumSlots() int { return int(p.nslots) }

// NumRecords returns the number of live records on the page.
func (p *Page) NumRecords() int { return int(p.nrecords) }

// slotRef returns the offset/length pair stored in slot i.
func (p *Page) slotRef(i int) (off, length uint16) {
	base := i * slotSize
	off = binary.LittleEndian.Uint16(p.buf[base:])
	length = binary.LittleEndian.Uint16(p.buf[base+2:])
	return off, length
}

// setSlotRef stores the offset/length pair into slot i.
func (p *Page) setSlotRef(i int, off, length uint16) {
	base := i * slotSize
	binary.LittleEndian.PutUint16(p.buf[base:], off)
	binary.LittleEndian.PutUint16(p.buf[base+2:], length)
}

// slotDirEnd returns the byte offset just past the slot directory.
func (p *Page) slotDirEnd() int { return int(p.nslots) * slotSize }

// ContiguousFreeSpace returns the number of bytes available between the slot
// directory and the record data without compaction, accounting for the slot
// entry a new record would need.
func (p *Page) ContiguousFreeSpace() int {
	free := int(p.dataLow) - p.slotDirEnd() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// FreeSpace returns the number of bytes that would be available for a new
// record after compaction (including the garbage left by deleted records).
func (p *Page) FreeSpace() int {
	free := int(p.dataLow) + int(p.garbage) - p.slotDirEnd() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// HasRoomFor reports whether a record of n bytes fits on the page (possibly
// after compaction).
func (p *Page) HasRoomFor(n int) bool {
	if n > MaxRecordSize {
		return false
	}
	return p.FreeSpace() >= n
}

// writeRecordData copies rec into the record data area and returns its
// offset.  The caller must have ensured there is room (compacting first if
// needed).
func (p *Page) writeRecordData(rec []byte) uint16 {
	off := int(p.dataLow) - len(rec)
	copy(p.buf[off:], rec)
	p.dataLow = uint16(off)
	return uint16(off)
}

// ensureRoom makes sure a record of n bytes plus one slot entry fits
// contiguously, compacting the page if necessary.  It returns ErrPageFull if
// even compaction cannot make room.
func (p *Page) ensureRoom(n int) error {
	if n > MaxRecordSize {
		return ErrTooLarge
	}
	if p.ContiguousFreeSpace() >= n {
		return nil
	}
	if p.FreeSpace() < n {
		return ErrPageFull
	}
	p.compact()
	if p.ContiguousFreeSpace() < n {
		return ErrPageFull
	}
	return nil
}

// compact rewrites the record data area to squeeze out garbage left by
// deleted or shrunk records.  Slot numbers are preserved.
func (p *Page) compact() {
	var scratch [dataSize]byte
	writePos := dataSize
	for i := 0; i < int(p.nslots); i++ {
		off, length := p.slotRef(i)
		if off == tombstoneOffset || length == 0 && off == 0 {
			continue
		}
		writePos -= int(length)
		copy(scratch[writePos:], p.buf[off:off+length])
		p.setSlotRef(i, uint16(writePos), length)
	}
	copy(p.buf[writePos:], scratch[writePos:])
	p.dataLow = uint16(writePos)
	p.garbage = 0
}

//
// Stable-slot discipline (heap pages).
//

// Add stores rec in the first free stable slot (reusing tombstones) and
// returns the slot number.  A page with no tombstone, where every slot
// holds a live record, appends a slot without scanning the directory.
func (p *Page) Add(rec []byte) (uint16, error) {
	if err := p.ensureRoom(len(rec)); err != nil {
		return 0, err
	}
	slot := int(p.nslots)
	if p.nrecords < p.nslots {
		for i := 0; i < int(p.nslots); i++ {
			if off, _ := p.slotRef(i); off == tombstoneOffset {
				slot = i
				break
			}
		}
	}
	if slot == int(p.nslots) {
		p.nslots++
	}
	off := p.writeRecordData(rec)
	p.setSlotRef(slot, off, uint16(len(rec)))
	p.nrecords++
	return uint16(slot), nil
}

// Get returns the record stored in the stable slot.  The returned slice
// aliases the page buffer and must not be modified or retained after the
// page latch is released.
func (p *Page) Get(slot uint16) ([]byte, error) {
	if int(slot) >= int(p.nslots) {
		return nil, ErrNoSuchSlot
	}
	off, length := p.slotRef(int(slot))
	if off == tombstoneOffset {
		return nil, ErrSlotDeleted
	}
	return p.buf[off : off+length], nil
}

// Set replaces the record in the stable slot with rec, keeping the slot
// number stable.
func (p *Page) Set(slot uint16, rec []byte) error {
	if int(slot) >= int(p.nslots) {
		return ErrNoSuchSlot
	}
	off, length := p.slotRef(int(slot))
	if off == tombstoneOffset {
		return ErrSlotDeleted
	}
	if int(length) >= len(rec) {
		// Overwrite in place; excess bytes become garbage.
		copy(p.buf[off:], rec)
		p.setSlotRef(int(slot), off, uint16(len(rec)))
		p.garbage += length - uint16(len(rec))
		return nil
	}
	// Need to relocate within the page.
	p.garbage += length
	p.setSlotRef(int(slot), tombstoneOffset, 0)
	p.nrecords--
	if err := p.ensureRoom(len(rec)); err != nil {
		// Roll back the tombstone so the caller still sees the old record.
		p.garbage -= length
		p.setSlotRef(int(slot), off, length)
		p.nrecords++
		return err
	}
	// ensureRoom may have compacted; the old data is gone but the slot is a
	// tombstone so compaction skipped it correctly.
	newOff := p.writeRecordData(rec)
	p.setSlotRef(int(slot), newOff, uint16(len(rec)))
	p.nrecords++
	return nil
}

// Delete tombstones the stable slot.  The slot number is not reused until a
// later Add, and never renumbered, so other RIDs remain valid.
func (p *Page) Delete(slot uint16) error {
	if int(slot) >= int(p.nslots) {
		return ErrNoSuchSlot
	}
	off, length := p.slotRef(int(slot))
	if off == tombstoneOffset {
		return ErrSlotDeleted
	}
	p.setSlotRef(int(slot), tombstoneOffset, 0)
	p.garbage += length
	p.nrecords--
	return nil
}

// LiveSlots returns the slot numbers of all live records, in slot order.
func (p *Page) LiveSlots() []uint16 {
	out := make([]uint16, 0, p.nrecords)
	for i := 0; i < int(p.nslots); i++ {
		if off, _ := p.slotRef(i); off != tombstoneOffset {
			out = append(out, uint16(i))
		}
	}
	return out
}

//
// Positional-slot discipline (B+Tree nodes, routing pages).
//

// InsertAt inserts rec at position pos, shifting later slots up by one.
// pos may equal NumSlots to append.
func (p *Page) InsertAt(pos int, rec []byte) error {
	buf, err := p.InsertSpace(pos, len(rec))
	if err != nil {
		return err
	}
	copy(buf, rec)
	return nil
}

// InsertSpace inserts an n-byte record at position pos, as InsertAt does,
// and returns its bytes for the caller to fill in place, so a caller that
// builds a record from parts writes it into the page without building it
// elsewhere first.  The slice aliases the page buffer.
func (p *Page) InsertSpace(pos, n int) ([]byte, error) {
	if pos < 0 || pos > int(p.nslots) {
		return nil, ErrNoSuchSlot
	}
	if err := p.ensureRoom(n); err != nil {
		return nil, err
	}
	// Shift slot entries [pos, nslots) up by one.
	end := p.slotDirEnd()
	base := pos * slotSize
	copy(p.buf[base+slotSize:end+slotSize], p.buf[base:end])
	off := int(p.dataLow) - n
	p.dataLow = uint16(off)
	p.nslots++
	p.setSlotRef(pos, uint16(off), uint16(n))
	p.nrecords++
	return p.buf[off : off+n : off+n], nil
}

// RemoveAt removes the record at position pos, shifting later slots down.
func (p *Page) RemoveAt(pos int) error {
	if pos < 0 || pos >= int(p.nslots) {
		return ErrNoSuchSlot
	}
	_, length := p.slotRef(pos)
	p.garbage += length
	base := pos * slotSize
	end := p.slotDirEnd()
	copy(p.buf[base:], p.buf[base+slotSize:end])
	p.nslots--
	p.nrecords--
	return nil
}

// GetAt returns the record at position pos.  The returned slice aliases the
// page buffer.
func (p *Page) GetAt(pos int) ([]byte, error) {
	if pos < 0 || pos >= int(p.nslots) {
		return nil, ErrNoSuchSlot
	}
	off, length := p.slotRef(pos)
	if off == tombstoneOffset {
		return nil, ErrSlotDeleted
	}
	return p.buf[off : off+length], nil
}

// SetAt replaces the record at position pos.
func (p *Page) SetAt(pos int, rec []byte) error {
	if pos < 0 || pos >= int(p.nslots) {
		return ErrNoSuchSlot
	}
	off, length := p.slotRef(pos)
	if int(length) >= len(rec) {
		copy(p.buf[off:], rec)
		p.setSlotRef(pos, off, uint16(len(rec)))
		p.garbage += length - uint16(len(rec))
		return nil
	}
	p.garbage += length
	p.setSlotRef(pos, 0, 0)
	if err := p.ensureRoom(len(rec)); err != nil {
		p.garbage -= length
		p.setSlotRef(pos, off, length)
		return err
	}
	newOff := p.writeRecordData(rec)
	p.setSlotRef(pos, newOff, uint16(len(rec)))
	return nil
}

// Truncate removes all slots at positions >= pos (used when splitting
// B+Tree nodes).
func (p *Page) Truncate(pos int) error {
	if pos < 0 || pos > int(p.nslots) {
		return ErrNoSuchSlot
	}
	for i := pos; i < int(p.nslots); i++ {
		_, length := p.slotRef(i)
		p.garbage += length
	}
	removed := int(p.nslots) - pos
	p.nslots = uint16(pos)
	p.nrecords -= uint16(removed)
	return nil
}

// UsedBytes returns the number of payload bytes occupied by live records.
func (p *Page) UsedBytes() int {
	var used int
	for i := 0; i < int(p.nslots); i++ {
		off, length := p.slotRef(i)
		if off != tombstoneOffset {
			used += int(length)
		}
	}
	return used
}
