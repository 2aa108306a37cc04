// Package logrec defines the payload format of logical log records.
//
// The write-ahead log (package wal) frames records and assigns LSNs but is
// agnostic about payload contents.  A frame carries a record's type,
// transaction ID and payload length in a header of a few bytes (a type
// byte and two uvarints) and closes with a CRC; everything else a record
// says is in its payload, so the formats below are most of what a log
// holds.  Structural records (RecSMO, RecRepartition) are no longer
// written; logs of earlier builds carry them, with the page a split or
// repartition started at as a uvarint payload, and analysis skips them.
//
// The engine logs data modifications logically — one record per
// Insert/Update/Delete naming the table, the key and the record image
// after the change — which is what makes logical restart recovery
// (package recovery) possible: the log alone is sufficient to rebuild the
// database contents, in the spirit of the logical logging schemes the
// paper builds on (Aether [Johnson et al., PVLDB 2010] consolidates the
// buffer; the record contents stay logical).
//
// Modification records are redo-only, as in value logging for
// memory-resident engines (SiloR [Zheng et al., OSDI 2014]).  No reader of
// the log needs a before-image:
//
//   - the buffer pool is memory-resident and no-steal, so an uncommitted
//     change never reaches stable storage and never has to be undone there;
//   - a transaction that aborts while running undoes its changes through
//     in-memory closures that keep the old record themselves;
//   - recovery replays only the transactions whose commit record is in the
//     log and skips the losers' records, so a crash never needs undo either.
//
// An update that changes a few bytes of a record logs only those bytes, as
// a patch at an offset (see Modification.At).
//
// Payloads are encoded with a small length-prefixed binary format; no
// reflection, no allocation beyond the output buffer.
package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by payload decoding.
var (
	ErrShort    = errors.New("logrec: truncated payload")
	ErrVersion  = errors.New("logrec: unknown payload version")
	ErrTrailing = errors.New("logrec: trailing bytes after payload")
	ErrPatch    = errors.New("logrec: patch does not fit the record")
)

// Payload versions.  Checkpoint payloads are still written at version 1;
// modification payloads moved to version 2 when they dropped the
// before-image and gained patches.  No log holds a version 1 modification
// any more: the logs that did are in a segment format package wal refuses
// to open, so DecodeModification reads version 2 only.
const (
	payloadVersion      = 1
	modificationVersion = 2
)

// Modification is the redo payload of an insert, update or delete record.
type Modification struct {
	// Table is the table the modification applies to.
	Table string
	// Index is the secondary index the modification applies to; empty for
	// primary-table modifications.
	Index string
	// Key is the primary key of the affected record (or the secondary key,
	// when Index is set).
	Key []byte
	// At says what After is.  At == 0: After is the whole record image
	// after the modification (nil for deletes).  At == k > 0: After is a
	// patch that overwrites bytes [k-1, k-1+len(After)) of the existing
	// record, whose other bytes and length stay as they are.
	At uint64
	// After is the record image, or the patch, after the modification.
	After []byte
}

// PatchAt returns the At value of a patch starting at byte offset off.
func PatchAt(off int) uint64 { return uint64(off) + 1 }

// IsPatch reports whether After is a patch rather than a whole record.
func (m *Modification) IsPatch() bool { return m.At != 0 }

// Apply returns the record that results from applying m to cur, the
// current record.  A whole image is returned as is; a patch is applied to
// a copy of cur, which is never modified.  A patch that reaches beyond the
// end of cur fails with ErrPatch.
func (m *Modification) Apply(cur []byte) ([]byte, error) {
	if !m.IsPatch() {
		return m.After, nil
	}
	off := m.At - 1
	if off > uint64(len(cur)) || uint64(len(m.After)) > uint64(len(cur))-off {
		return nil, fmt.Errorf("%w: %d bytes at offset %d of a %d-byte record", ErrPatch, len(m.After), off, len(cur))
	}
	out := append([]byte(nil), cur...)
	copy(out[off:], m.After)
	return out, nil
}

// appendBytes writes a uint32 length prefix followed by b (version 1).
func appendBytes(dst, b []byte) []byte {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(b)))
	dst = append(dst, l[:]...)
	return append(dst, b...)
}

// readBytes consumes one uint32-prefixed field (version 1) and copies it.
func readBytes(src []byte) (field, rest []byte, err error) {
	if len(src) < 4 {
		return nil, nil, ErrShort
	}
	n := binary.LittleEndian.Uint32(src)
	src = src[4:]
	if uint32(len(src)) < n {
		return nil, nil, ErrShort
	}
	if n == 0 {
		return nil, src, nil
	}
	return append([]byte(nil), src[:n]...), src[n:], nil
}

// appendUvarintBytes writes a uvarint length prefix followed by b.
func appendUvarintBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// readUvarint consumes one uvarint.
func readUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, ErrShort
	}
	return v, src[n:], nil
}

// readUvarintBytes consumes one uvarint-prefixed field without copying it.
func readUvarintBytes(src []byte) (field, rest []byte, err error) {
	n, src, err := readUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(src)) < n {
		return nil, nil, ErrShort
	}
	return src[:n], src[n:], nil
}

// EncodeModification serializes m into a version 2 log payload: the
// version byte, Table, Index and Key each behind a uvarint length, At as a
// uvarint, and After behind a uvarint length.
func EncodeModification(m Modification) []byte {
	n := 1 + 4*binary.MaxVarintLen32 + binary.MaxVarintLen64 + len(m.Table) + len(m.Index) + len(m.Key) + len(m.After)
	out := make([]byte, 0, n)
	out = append(out, modificationVersion)
	out = binary.AppendUvarint(out, uint64(len(m.Table)))
	out = append(out, m.Table...)
	out = binary.AppendUvarint(out, uint64(len(m.Index)))
	out = append(out, m.Index...)
	out = appendUvarintBytes(out, m.Key)
	out = binary.AppendUvarint(out, m.At)
	return appendUvarintBytes(out, m.After)
}

// DecodeModification parses a modification payload in the layout
// EncodeModification writes.  The result does not alias payload.
func DecodeModification(payload []byte) (Modification, error) {
	var m Modification
	if len(payload) < 1 {
		return m, ErrShort
	}
	if payload[0] != modificationVersion {
		return m, fmt.Errorf("%w: %d", ErrVersion, payload[0])
	}
	table, rest, err := readUvarintBytes(payload[1:])
	if err != nil {
		return m, err
	}
	index, rest, err := readUvarintBytes(rest)
	if err != nil {
		return m, err
	}
	key, rest, err := readUvarintBytes(rest)
	if err != nil {
		return m, err
	}
	if m.At, rest, err = readUvarint(rest); err != nil {
		return m, err
	}
	after, rest, err := readUvarintBytes(rest)
	if err != nil {
		return m, err
	}
	if len(rest) != 0 {
		return m, ErrTrailing
	}
	m.Table, m.Index = string(table), string(index)
	m.Key, m.After = clone(key), clone(after)
	return m, nil
}

// clone copies b, returning nil for an empty b.
func clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// IsModificationPayload reports whether the payload looks like an encoded
// Modification (as opposed to a legacy bare-key payload).  Recovery uses it
// to skip records produced by components that log only structural events.
func IsModificationPayload(payload []byte) bool {
	_, err := DecodeModification(payload)
	return err == nil
}

// CheckpointChunk is one piece of a checkpoint: a snapshot of a contiguous
// run of records of one table.  A checkpoint is a sequence of chunk records
// followed by an End record; recovery replays the chunks of the most recent
// complete checkpoint and then the log tail after its begin LSN.
type CheckpointChunk struct {
	// Table is the table the chunk belongs to.
	Table string
	// Index is the secondary index the chunk belongs to; empty for the
	// table's primary contents.
	Index string
	// Keys and Values hold the snapshot entries, pairwise.
	Keys   [][]byte
	Values [][]byte
}

// CheckpointEnd marks a complete checkpoint.
type CheckpointEnd struct {
	// BeginLSN is the LSN of the checkpoint's first chunk record.  Replay of
	// the log tail starts after this LSN for records already reflected in the
	// snapshot, and from the snapshot's own chunk records otherwise.
	BeginLSN uint64
	// Chunks is the number of chunk records forming the checkpoint.
	Chunks int
	// Tables is the number of tables captured.
	Tables int
}

// Checkpoint payload type tags.
const (
	checkpointChunkTag byte = 0x10
	checkpointEndTag   byte = 0x11
	checkpointMetaTag  byte = 0x12
)

// TableBoundaries records one table's routing boundaries at checkpoint
// time.
type TableBoundaries struct {
	// Table is the table name.
	Table string
	// Boundaries are the routing boundaries (len = partitions-1), sorted.
	Boundaries [][]byte
}

// CheckpointMeta is the non-data state captured alongside a checkpoint's
// table snapshots: the partition boundaries each table's routing had at the
// moment of the checkpoint (online repartitioning moves them away from the
// schema's initial values, and a restarted engine must resume from the
// moved ones) and an opaque snapshot of the repartitioning controller's
// histogram state, so the controller does not restart cold.
type CheckpointMeta struct {
	// Tables holds the per-table routing boundaries.
	Tables []TableBoundaries
	// Controller is the opaque controller-state blob (see package
	// repartition), or nil when no controller was attached.
	Controller []byte
}

// EncodeCheckpointChunk serializes a checkpoint chunk.
func EncodeCheckpointChunk(c CheckpointChunk) []byte {
	out := []byte{payloadVersion, checkpointChunkTag}
	out = appendBytes(out, []byte(c.Table))
	out = appendBytes(out, []byte(c.Index))
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(c.Keys)))
	out = append(out, n[:]...)
	for i := range c.Keys {
		out = appendBytes(out, c.Keys[i])
		out = appendBytes(out, c.Values[i])
	}
	return out
}

// ChunkEncoder builds a checkpoint chunk payload one entry at a time,
// copying each key and value once, straight into the payload.  The bytes
// are those EncodeCheckpointChunk produces for the same chunk.
type ChunkEncoder struct {
	buf []byte
	n   uint32
	at  int // offset of the entry count
}

// NewChunkEncoder starts the chunk of table (and of index, for a secondary
// index's chunk) in a new buffer of capacity size, a guess at the payload's
// final length.
func NewChunkEncoder(table, index string, size int) ChunkEncoder {
	buf := make([]byte, 0, max(size, 2+4+len(table)+4+len(index)+4))
	buf = append(buf, payloadVersion, checkpointChunkTag)
	buf = appendString(buf, table)
	buf = appendString(buf, index)
	return ChunkEncoder{buf: append(buf, 0, 0, 0, 0), at: len(buf)}
}

// Add appends one entry.
func (e *ChunkEncoder) Add(key, value []byte) {
	e.buf = appendBytes(e.buf, key)
	e.buf = appendBytes(e.buf, value)
	e.n++
}

// Entries returns the number of entries added.
func (e *ChunkEncoder) Entries() int { return int(e.n) }

// Payload writes the entry count and returns the encoded chunk.  The
// encoder must not be used afterwards.
func (e *ChunkEncoder) Payload() []byte {
	binary.LittleEndian.PutUint32(e.buf[e.at:], e.n)
	return e.buf
}

// appendString writes a uint32 length prefix followed by s (version 1).
func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// EncodeCheckpointEnd serializes a checkpoint end marker.
func EncodeCheckpointEnd(e CheckpointEnd) []byte {
	out := make([]byte, 2+8+4+4)
	out[0] = payloadVersion
	out[1] = checkpointEndTag
	binary.LittleEndian.PutUint64(out[2:], e.BeginLSN)
	binary.LittleEndian.PutUint32(out[10:], uint32(e.Chunks))
	binary.LittleEndian.PutUint32(out[14:], uint32(e.Tables))
	return out
}

// DecodeCheckpointChunk parses a chunk payload.  The boolean result is false
// when the payload is not a chunk (for example an end marker).
func DecodeCheckpointChunk(payload []byte) (CheckpointChunk, bool, error) {
	var c CheckpointChunk
	if len(payload) < 2 {
		return c, false, ErrShort
	}
	if payload[0] != payloadVersion {
		return c, false, fmt.Errorf("%w: %d", ErrVersion, payload[0])
	}
	if payload[1] != checkpointChunkTag {
		return c, false, nil
	}
	rest := payload[2:]
	field, rest, err := readBytes(rest)
	if err != nil {
		return c, false, err
	}
	c.Table = string(field)
	if field, rest, err = readBytes(rest); err != nil {
		return c, false, err
	}
	c.Index = string(field)
	if len(rest) < 4 {
		return c, false, ErrShort
	}
	n := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	c.Keys = make([][]byte, 0, n)
	c.Values = make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		var k, v []byte
		if k, rest, err = readBytes(rest); err != nil {
			return c, false, err
		}
		if v, rest, err = readBytes(rest); err != nil {
			return c, false, err
		}
		c.Keys = append(c.Keys, k)
		c.Values = append(c.Values, v)
	}
	return c, true, nil
}

// EncodeCheckpointMeta serializes a checkpoint meta payload.
func EncodeCheckpointMeta(m CheckpointMeta) []byte {
	out := []byte{payloadVersion, checkpointMetaTag}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(m.Tables)))
	out = append(out, n[:]...)
	for _, t := range m.Tables {
		out = appendBytes(out, []byte(t.Table))
		binary.LittleEndian.PutUint32(n[:], uint32(len(t.Boundaries)))
		out = append(out, n[:]...)
		for _, b := range t.Boundaries {
			out = appendBytes(out, b)
		}
	}
	out = appendBytes(out, m.Controller)
	return out
}

// DecodeCheckpointMeta parses a meta payload.  The boolean result is false
// when the payload is not a meta record.
func DecodeCheckpointMeta(payload []byte) (CheckpointMeta, bool, error) {
	var m CheckpointMeta
	if len(payload) < 2 {
		return m, false, ErrShort
	}
	if payload[0] != payloadVersion {
		return m, false, fmt.Errorf("%w: %d", ErrVersion, payload[0])
	}
	if payload[1] != checkpointMetaTag {
		return m, false, nil
	}
	rest := payload[2:]
	if len(rest) < 4 {
		return m, false, ErrShort
	}
	nt := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	var field []byte
	var err error
	for i := uint32(0); i < nt; i++ {
		var t TableBoundaries
		if field, rest, err = readBytes(rest); err != nil {
			return m, false, err
		}
		t.Table = string(field)
		if len(rest) < 4 {
			return m, false, ErrShort
		}
		nb := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		for j := uint32(0); j < nb; j++ {
			var b []byte
			if b, rest, err = readBytes(rest); err != nil {
				return m, false, err
			}
			t.Boundaries = append(t.Boundaries, b)
		}
		m.Tables = append(m.Tables, t)
	}
	if m.Controller, _, err = readBytes(rest); err != nil {
		return m, false, err
	}
	return m, true, nil
}

// DecodeCheckpointEnd parses an end-marker payload.  The boolean result is
// false when the payload is not an end marker.
func DecodeCheckpointEnd(payload []byte) (CheckpointEnd, bool, error) {
	var e CheckpointEnd
	if len(payload) < 2 {
		return e, false, ErrShort
	}
	if payload[0] != payloadVersion {
		return e, false, fmt.Errorf("%w: %d", ErrVersion, payload[0])
	}
	if payload[1] != checkpointEndTag {
		return e, false, nil
	}
	if len(payload) < 2+8+4+4 {
		return e, false, ErrShort
	}
	e.BeginLSN = binary.LittleEndian.Uint64(payload[2:])
	e.Chunks = int(binary.LittleEndian.Uint32(payload[10:]))
	e.Tables = int(binary.LittleEndian.Uint32(payload[14:]))
	return e, true, nil
}
