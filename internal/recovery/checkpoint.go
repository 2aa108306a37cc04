// Checkpointing: bounding the log tail that restart recovery must replay.
package recovery

import (
	"sync"
	"time"

	"plp/internal/btree"
	"plp/internal/catalog"
	"plp/internal/logrec"
	"plp/internal/wal"
)

// DefaultChunkEntries is the number of snapshot entries packed into one
// checkpoint log record when the caller does not specify a chunk size.
const DefaultChunkEntries = 256

// System is the slice of an engine checkpointing needs.  It is satisfied by
// *engine.Engine; recovery deliberately does not import the engine package,
// so the engine can in turn build its Checkpoint/Recover methods on this
// package without an import cycle.
type System interface {
	// Log returns the system's write-ahead log.
	Log() wal.Log
	// ActiveTxns returns the number of in-flight transactions.
	ActiveTxns() int
	// Quiesce runs fn while every partition worker is parked at a barrier.
	Quiesce(fn func()) error
	// Catalog returns the system's table catalog.
	Catalog() *catalog.Catalog
	// Boundaries returns a copy of the table's current routing boundaries.
	Boundaries(table string) ([][]byte, error)
}

// StateSource is optionally implemented by a System whose operational
// subsystems carry state worth checkpointing beyond the table contents —
// concretely, the repartitioning controller's aging histograms.  The blob
// is opaque to recovery: it is stored in the checkpoint's meta record and
// handed back verbatim after a restart.
type StateSource interface {
	// CheckpointState returns the opaque state blob, or nil.
	CheckpointState() []byte
}

// CheckpointStats reports what one Checkpoint call captured.
type CheckpointStats struct {
	// BeginLSN and EndLSN delimit the checkpoint records in the log.
	BeginLSN wal.LSN
	EndLSN   wal.LSN
	// Tables is the number of tables captured (secondary indexes included
	// with their table).
	Tables int
	// Entries is the total number of key/value entries captured.
	Entries int
	// Chunks is the number of checkpoint chunk records written.
	Chunks int
	// Duration is the wall-clock time the system was quiesced.
	Duration time.Duration
}

// Checkpoint captures a transactionally consistent snapshot of every table
// and secondary index of the system into its log, followed by a meta record
// holding each table's routing boundaries (and, when the system implements
// StateSource, the controller-state blob) and the end marker.  The
// partition workers are quiesced for the duration (the same mechanism
// repartitioning uses), and the call fails with ErrActiveTxns if
// transactions are in flight — the caller is responsible for pausing its
// clients first.
//
// chunkEntries controls how many entries each checkpoint record carries;
// zero selects DefaultChunkEntries.
func Checkpoint(sys System, chunkEntries int) (CheckpointStats, error) {
	var st CheckpointStats
	if sys.Log() == nil {
		return st, ErrNoLog
	}
	if sys.ActiveTxns() > 0 {
		return st, ErrActiveTxns
	}
	if chunkEntries <= 0 {
		chunkEntries = DefaultChunkEntries
	}
	log := sys.Log()
	start := time.Now()

	var snapErr error
	err := sys.Quiesce(func() {
		first := true
		append1 := func(payload []byte) wal.LSN {
			lsn := log.Append(&wal.Record{Type: wal.RecCheckpoint, Payload: payload})
			if first {
				st.BeginLSN = lsn
				first = false
			}
			return lsn
		}
		emit := func(payload []byte, entries int) {
			append1(payload)
			st.Chunks++
			st.Entries += entries
		}

		var meta logrec.CheckpointMeta
		for _, tbl := range sys.Catalog().Tables() {
			st.Tables++
			if bs, berr := sys.Boundaries(tbl.Def.Name); berr == nil {
				meta.Tables = append(meta.Tables, logrec.TableBoundaries{Table: tbl.Def.Name, Boundaries: bs})
			}
			// A table's logical contents: key → record image.
			primary := func(fn btree.ScanFunc) error { return tbl.AscendRecords(nil, nil, nil, fn) }
			if err := snapshot(tbl.Def.Name, "", primary, chunkEntries, emit); err != nil {
				snapErr = err
				return
			}
			// Each secondary index: secondary key → primary key.
			for name, idx := range tbl.Secondaries {
				index := func(fn btree.ScanFunc) error { return idx.Ascend(nil, fn) }
				if err := snapshot(tbl.Def.Name, name, index, chunkEntries, emit); err != nil {
					snapErr = err
					return
				}
			}
		}
		if ss, ok := sys.(StateSource); ok {
			meta.Controller = ss.CheckpointState()
		}
		append1(logrec.EncodeCheckpointMeta(meta))
		end := logrec.CheckpointEnd{
			BeginLSN: uint64(st.BeginLSN),
			Chunks:   st.Chunks,
			Tables:   st.Tables,
		}
		st.EndLSN = append1(logrec.EncodeCheckpointEnd(end))
		log.Flush(st.EndLSN)
	})
	if err == nil {
		err = snapErr
	}
	st.Duration = time.Since(start)
	return st, err
}

// snapshot packs the entries ascend visits into checkpoint chunks of
// chunkEntries entries and hands each chunk's payload to emit.  Every key
// and value is copied once, straight into the payload, and every chunk gets
// a buffer of its own, sized from the previous chunk: the log keeps the
// payload it is handed.
func snapshot(table, index string, ascend func(btree.ScanFunc) error, chunkEntries int, emit func(payload []byte, entries int)) error {
	size := chunkEntries * 32   // the first chunk's guess; later ones use the last chunk's length
	var enc logrec.ChunkEncoder // empty until the chunk's first entry
	flush := func() {
		if enc.Entries() == 0 {
			return
		}
		payload := enc.Payload()
		size = len(payload) + len(payload)/32
		emit(payload, enc.Entries())
		enc = logrec.ChunkEncoder{}
	}
	err := ascend(func(k, v []byte) bool {
		if enc.Entries() == 0 {
			enc = logrec.NewChunkEncoder(table, index, size)
		}
		enc.Add(k, v)
		if enc.Entries() >= chunkEntries {
			flush()
		}
		return true
	})
	if err != nil {
		return err
	}
	flush()
	return nil
}

// Checkpointer periodically checkpoints an engine in the background.  It
// skips rounds where transactions are in flight rather than blocking the
// workload; OLTP systems checkpoint opportunistically for exactly this
// reason.
type Checkpointer struct {
	e        System
	interval time.Duration
	truncate bool

	mu        sync.Mutex
	stop      chan struct{}
	done      chan struct{}
	taken     int
	skipped   int
	truncated int
	lastStats CheckpointStats
	lastErr   error
}

// NewCheckpointer returns a checkpointer for the system.  interval must be
// positive.
func NewCheckpointer(e System, interval time.Duration) *Checkpointer {
	if interval <= 0 {
		interval = time.Second
	}
	return &Checkpointer{e: e, interval: interval}
}

// SetTruncate makes the checkpointer truncate the log prefix that precedes
// each successful checkpoint, reclaiming space that restart recovery no
// longer needs.  Call it before Start.
func (c *Checkpointer) SetTruncate(v bool) {
	c.mu.Lock()
	c.truncate = v
	c.mu.Unlock()
}

// Start launches the background checkpoint loop.  Calling Start twice is a
// no-op until Stop is called.
func (c *Checkpointer) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.loop(c.stop, c.done)
}

// Stop terminates the background loop and waits for it to exit.
func (c *Checkpointer) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// loop is the background body.
func (c *Checkpointer) loop(stop chan struct{}, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(c.interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			c.Trigger()
		}
	}
}

// Trigger attempts one checkpoint immediately.  It returns true when a
// checkpoint was taken, false when it was skipped because transactions were
// active.
func (c *Checkpointer) Trigger() bool {
	st, err := Checkpoint(c.e, 0)
	c.mu.Lock()
	truncate := c.truncate
	if err != nil {
		c.lastErr = err
		c.skipped++
		c.mu.Unlock()
		return false
	}
	c.lastErr = nil
	c.lastStats = st
	c.taken++
	c.mu.Unlock()

	if truncate && st.BeginLSN != wal.InvalidLSN {
		dropped := c.e.Log().Truncate(st.BeginLSN)
		c.mu.Lock()
		c.truncated += dropped
		c.mu.Unlock()
	}
	return true
}

// Stats returns how many checkpoints were taken and skipped, the stats of
// the most recent successful one, and the most recent error.
func (c *Checkpointer) Stats() (taken, skipped int, last CheckpointStats, lastErr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.taken, c.skipped, c.lastStats, c.lastErr
}

// TruncatedRecords returns how many log records the checkpointer has
// reclaimed via truncation.
func (c *Checkpointer) TruncatedRecords() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.truncated
}
