// Node-level helpers: the layout of B+Tree entries inside slotted pages and
// the binary searches over them.
//
// Leaf entries are encoded as
//
//	[2-byte key length][key][2-byte value length][value]
//
// and interior entries as
//
//	[2-byte key length][key][8-byte child page ID]
//
// Interior nodes follow the "entry key is the lower bound of the child's key
// range" convention: entry i's child covers keys in [key_i, key_{i+1}).  The
// leftmost entry of the leftmost node on each level carries the empty key,
// which orders before every real key.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"plp/internal/page"
)

// MaxKeySize bounds key length so that interior-node "safety" checks can use
// a conservative entry-size bound during latch crabbing.
const MaxKeySize = 1024

// MaxValueSize bounds leaf values so that a handful of entries always fit on
// a page.
const MaxValueSize = 2000

// maxInteriorEntry is the worst-case encoded size of an interior entry.
const maxInteriorEntry = 2 + MaxKeySize + 8

// encodeLeafEntry builds a leaf entry.
func encodeLeafEntry(key, value []byte) []byte {
	buf := make([]byte, 2+len(key)+2+len(value))
	copy(putLeafKey(buf, key, len(value)), value)
	return buf
}

// putLeafKey writes the key and both lengths of a leaf entry whose value is
// vlen bytes into buf, which holds exactly the entry, and returns the
// value's bytes for the caller to fill.
func putLeafKey(buf, key []byte, vlen int) []byte {
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(key)))
	copy(buf[2:], key)
	binary.LittleEndian.PutUint16(buf[2+len(key):], uint16(vlen))
	return buf[4+len(key):]
}

// decodeLeafEntry splits a leaf entry into key and value.  The returned
// slices alias the entry buffer.
func decodeLeafEntry(buf []byte) (key, value []byte, err error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("btree: short leaf entry (%d bytes)", len(buf))
	}
	kl := int(binary.LittleEndian.Uint16(buf[0:]))
	if len(buf) < 2+kl+2 {
		return nil, nil, fmt.Errorf("btree: corrupt leaf entry")
	}
	key = buf[2 : 2+kl]
	vl := int(binary.LittleEndian.Uint16(buf[2+kl:]))
	if len(buf) < 4+kl+vl {
		return nil, nil, fmt.Errorf("btree: corrupt leaf entry value")
	}
	value = buf[4+kl : 4+kl+vl]
	return key, value, nil
}

// encodeInteriorEntry builds an interior entry.
func encodeInteriorEntry(key []byte, child page.ID) []byte {
	buf := make([]byte, 2+len(key)+8)
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(key)))
	copy(buf[2:], key)
	binary.LittleEndian.PutUint64(buf[2+len(key):], uint64(child))
	return buf
}

// decodeInteriorEntry splits an interior entry into key and child pointer.
func decodeInteriorEntry(buf []byte) (key []byte, child page.ID, err error) {
	if len(buf) < 10 {
		return nil, 0, fmt.Errorf("btree: short interior entry (%d bytes)", len(buf))
	}
	kl := int(binary.LittleEndian.Uint16(buf[0:]))
	if len(buf) < 2+kl+8 {
		return nil, 0, fmt.Errorf("btree: corrupt interior entry")
	}
	key = buf[2 : 2+kl]
	child = page.ID(binary.LittleEndian.Uint64(buf[2+kl:]))
	return key, child, nil
}

// isLeaf reports whether the node page is a leaf.
func isLeaf(p *page.Page) bool { return p.Kind() == page.KindIndexLeaf }

// nodeLevel returns the node's level (0 for leaves).
func nodeLevel(p *page.Page) int { return int(p.Extra()) }

// setNodeLevel records the node's level in the page header.
func setNodeLevel(p *page.Page, level int) { p.SetExtra(uint64(level)) }

// leafKeyAt returns the key of the leaf entry at position i.
func leafKeyAt(p *page.Page, i int) ([]byte, error) {
	buf, err := p.GetAt(i)
	if err != nil {
		return nil, err
	}
	k, _, err := decodeLeafEntry(buf)
	return k, err
}

// leafEntryAt returns the key and value of the leaf entry at position i.
func leafEntryAt(p *page.Page, i int) (key, value []byte, err error) {
	buf, err := p.GetAt(i)
	if err != nil {
		return nil, nil, err
	}
	return decodeLeafEntry(buf)
}

// interiorEntryAt returns the key and child of the interior entry at
// position i.
func interiorEntryAt(p *page.Page, i int) (key []byte, child page.ID, err error) {
	buf, err := p.GetAt(i)
	if err != nil {
		return nil, 0, err
	}
	return decodeInteriorEntry(buf)
}

// leafSearch finds the position of key in the leaf.  It returns the position
// of the first entry >= key and whether that entry's key equals key.
func leafSearch(p *page.Page, key []byte) (pos int, found bool, err error) {
	lo, hi := 0, p.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		k, kerr := leafKeyAt(p, mid)
		if kerr != nil {
			return 0, false, kerr
		}
		switch bytes.Compare(k, key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true, nil
		default:
			hi = mid
		}
	}
	return lo, false, nil
}

// interiorSearch returns the position of the entry whose child covers key:
// the largest i with key_i <= key, or 0 when key orders before every entry
// (only possible transiently on the leftmost path).
func interiorSearch(p *page.Page, key []byte) (int, error) {
	n := p.NumSlots()
	lo, hi := 0, n
	// Find the first entry with key_i > key; answer is the one before it.
	for lo < hi {
		mid := (lo + hi) / 2
		k, _, kerr := interiorEntryAt(p, mid)
		if kerr != nil {
			return 0, kerr
		}
		if bytes.Compare(k, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, nil
	}
	return lo - 1, nil
}

// interiorInsertPos returns the position at which a separator key should be
// inserted to keep entries sorted.
func interiorInsertPos(p *page.Page, key []byte) (int, error) {
	n := p.NumSlots()
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		k, _, kerr := interiorEntryAt(p, mid)
		if kerr != nil {
			return 0, kerr
		}
		if bytes.Compare(k, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// nodeFull reports whether the node cannot take one more entry of the given
// encoded size without splitting, honouring the artificial slot limit used
// by tests to force deep trees.
func nodeFull(p *page.Page, entrySize, maxSlots int) bool {
	if maxSlots > 0 && p.NumSlots() >= maxSlots {
		return true
	}
	return !p.HasRoomFor(entrySize)
}

// interiorSafe reports whether an interior node can absorb one more
// separator without itself splitting (the "safe node" test used to release
// ancestor latches during crabbing).
func interiorSafe(p *page.Page, maxSlots int) bool {
	return !nodeFull(p, maxInteriorEntry, maxSlots)
}
