package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plp/internal/catalog"
	"plp/internal/keyenc"
	"plp/internal/page"
)

// TestRebalanceUnderConcurrentTraffic hammers a table from several sessions
// while partition boundaries move back and forth, asserting that no rows
// are lost or duplicated, no transaction fails, and (under -race) that the
// pair-quiesce protocol keeps latch-free page access race-free.
func TestRebalanceUnderConcurrentTraffic(t *testing.T) {
	const (
		rows     = 4000
		sessions = 4
		moves    = 60
	)
	for _, design := range []Design{Logical, PLPRegular, PLPPartition, PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			e := New(Options{Design: design, Partitions: 4})
			defer e.Close()
			boundaries := [][]byte{keyenc.Uint64Key(1001), keyenc.Uint64Key(2001), keyenc.Uint64Key(3001)}
			if _, err := e.CreateTable(catalog.TableDef{Name: "t", Boundaries: boundaries}); err != nil {
				t.Fatal(err)
			}
			l := e.NewLoader()
			for k := uint64(1); k <= rows; k++ {
				if err := l.Insert("t", keyenc.Uint64Key(k), []byte(fmt.Sprintf("val-%06d", k))); err != nil {
					t.Fatal(err)
				}
			}

			var stop atomic.Bool
			var ops atomic.Uint64
			errCh := make(chan error, sessions)
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					sess := e.NewSession()
					defer sess.Close()
					rng := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						k := uint64(rng.Intn(rows) + 1)
						key := keyenc.Uint64Key(k)
						var a Action
						if rng.Intn(4) == 0 {
							val := []byte(fmt.Sprintf("upd-%06d", k))
							a = Action{Table: "t", Key: key, Exec: func(c *Ctx) error {
								return c.Update("t", key, val)
							}}
						} else {
							a = Action{Table: "t", Key: key, Exec: func(c *Ctx) error {
								_, err := c.Read("t", key)
								return err
							}}
						}
						if _, err := sess.Execute(NewRequest(a)); err != nil {
							errCh <- fmt.Errorf("session traffic failed: %w", err)
							return
						}
						ops.Add(1)
					}
				}(int64(s + 1))
			}

			// Oscillate every boundary through its own corridor while the
			// sessions run; each move quiesces only the affected pair.
			rng := rand.New(rand.NewSource(99))
			applied := 0
			for i := 0; i < moves; i++ {
				idx := 1 + i%3
				var lo, hi int
				switch idx {
				case 1:
					lo, hi = 500, 1500
				case 2:
					lo, hi = 1600, 2600
				default:
					lo, hi = 2700, 3700
				}
				b := uint64(lo + rng.Intn(hi-lo))
				if _, err := e.Rebalance("t", idx, keyenc.Uint64Key(b)); err != nil {
					t.Fatalf("rebalance %d (boundary %d -> %d): %v", i, idx, b, err)
				}
				applied++
			}
			stop.Store(true)
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			if applied != moves {
				t.Fatalf("applied %d of %d moves", applied, moves)
			}
			if ops.Load() == 0 {
				t.Fatal("no traffic executed during the moves")
			}

			// Differential check: exactly the loaded keys, each exactly once.
			next := uint64(1)
			err := l.ReadRange("t", nil, nil, func(key, rec []byte) bool {
				k, derr := keyenc.DecodeUint64(key)
				if derr != nil {
					t.Fatalf("bad key: %v", derr)
				}
				if k != next {
					t.Fatalf("key sequence broken at %d (want %d): row lost or duplicated", k, next)
				}
				next++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != rows+1 {
				t.Fatalf("scanned %d rows, want %d", next-1, rows)
			}
			tbl, err := e.Table("t")
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.Primary.CheckInvariants(); err != nil {
				t.Fatalf("index invariants violated: %v", err)
			}
			if aborted := e.TxnStats().Aborted; aborted != 0 {
				t.Fatalf("%d transactions aborted", aborted)
			}
		})
	}
}

// TestQuiescePairLeavesOthersRunning checks that a boundary move parks only
// the affected partition pair: while partitions 0 and 1 are quiesced by a
// move, a worker outside the pair must still execute actions.
func TestQuiescePairLeavesOthersRunning(t *testing.T) {
	e := New(Options{Design: PLPLeaf, Partitions: 4})
	defer e.Close()
	boundaries := [][]byte{keyenc.Uint64Key(1001), keyenc.Uint64Key(2001), keyenc.Uint64Key(3001)}
	if _, err := e.CreateTable(catalog.TableDef{Name: "t", Boundaries: boundaries}); err != nil {
		t.Fatal(err)
	}
	l := e.NewLoader()
	for k := uint64(1); k <= 4000; k += 100 {
		if err := l.Insert("t", keyenc.Uint64Key(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Hold partitions 0 and 1 quiesced and prove partition 3 still works.
	release := make(chan struct{})
	held := make(chan struct{})
	go func() {
		_ = e.pool.QuiesceWorkers([]int{0, 1}, func() {
			close(held)
			<-release
		})
	}()
	<-held

	done := make(chan error, 1)
	go func() {
		sess := e.NewSession()
		defer sess.Close()
		key := keyenc.Uint64Key(3501) // partition 3
		_, err := sess.Execute(NewRequest(Action{Table: "t", Key: key, Exec: func(c *Ctx) error {
			_, err := c.Read("t", key)
			return err
		}}))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("read outside the quiesced pair failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("action outside the quiesced pair blocked: quiesce is not pair-scoped")
	}
	close(release)
}

// checkLeafPages fails t unless every heap page of tbl holds records of one
// partition only and its owner tag names a node of that partition's
// sub-tree (the leaf whose insert placed the records, or the interior node
// a root split made of it): the invariant that makes PLP-Leaf's heap latch-free, since then
// only that partition's worker reads, writes or inserts on the page.
func checkLeafPages(t *testing.T, e *Engine, tbl *catalog.Table, when string) {
	t.Helper()
	nodePart := make(map[uint64]int)
	for p := 0; p < tbl.Primary.NumPartitions(); p++ {
		sub, err := tbl.Primary.PartitionTree(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Pages(func(id page.ID) { nodePart[uint64(id)] = p }); err != nil {
			t.Fatal(err)
		}
	}
	owners := make(map[page.ID]int) // heap page -> partition of its records
	if err := tbl.Primary.Ascend(nil, func(k, v []byte) bool {
		rid, _ := page.DecodeRID(v)
		p := e.PartitionFor(tbl.Def.Name, k)
		if prev, ok := owners[rid.Page]; ok && prev != p {
			t.Fatalf("%s, heap page %v holds records of partitions %d and %d", when, rid.Page, prev, p)
		}
		owners[rid.Page] = p
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for pid, p := range owners {
		tag, err := tbl.Heap.OwnerOf(pid)
		if err != nil {
			t.Fatal(err)
		}
		if lp, ok := nodePart[tag]; !ok || lp != p {
			t.Fatalf("%s, heap page %v holds records of partition %d but its tag %d names no node of its sub-tree", when, pid, p, tag)
		}
	}
}

// TestRebalanceKeepsLeafPagesInOnePartition checks PLP-Leaf's heap-page
// invariant (see checkLeafPages) across boundary moves, and after records
// outgrow their pages and move.  A leaf split moves no heap records, so
// without re-homing a leaf's pages keep records of keys that a moved
// boundary hands to the next partition; and a record that outgrows its
// page must land on a page of the leaf that covers it now, not on one of
// the tag of the page it left.
func TestRebalanceKeepsLeafPagesInOnePartition(t *testing.T) {
	const rows = 4000
	e := New(Options{Design: PLPLeaf, Partitions: 4})
	defer e.Close()
	boundaries := [][]byte{keyenc.Uint64Key(1001), keyenc.Uint64Key(2001), keyenc.Uint64Key(3001)}
	if _, err := e.CreateTable(catalog.TableDef{Name: "t", Boundaries: boundaries}); err != nil {
		t.Fatal(err)
	}
	l := e.NewLoader()
	for k := uint64(1); k <= rows; k++ {
		if err := l.Insert("t", keyenc.Uint64Key(k), []byte(fmt.Sprintf("val-%06d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	moves := []struct {
		idx int
		to  uint64
	}{{1, 1500}, {2, 2600}, {1, 900}, {2, 1700}, {1, 1200}, {2, 2300}, {3, 2900}}
	for i, m := range moves {
		st, err := e.Rebalance("t", m.idx, keyenc.Uint64Key(m.to))
		if err != nil {
			t.Fatalf("move %d of boundary %d to %d: %v", i, m.idx, m.to, err)
		}
		moved += st.RecordsMoved
		checkLeafPages(t, e, tbl, fmt.Sprintf("after move %d", i))
	}
	if moved == 0 {
		t.Fatal("no record moved; the boundary moves should have split some leaves' pages")
	}
	// Grow every record past the room left on its page, so that most of
	// them relocate.
	grown := func(k uint64) string { return fmt.Sprintf("val-%06d-%0120d", k, k) }
	for k := uint64(1); k <= rows; k++ {
		if err := l.Update("t", keyenc.Uint64Key(k), []byte(grown(k))); err != nil {
			t.Fatalf("grow key %d: %v", k, err)
		}
	}
	checkLeafPages(t, e, tbl, "after growing every record")
	for k := uint64(1); k <= rows; k++ {
		rec, err := l.Read("t", keyenc.Uint64Key(k))
		if err != nil || string(rec) != grown(k) {
			t.Fatalf("key %d: %q, %v", k, rec, err)
		}
	}
}

// TestRebalanceClusteredTable checks that a boundary move on a clustered
// table, whose primary values are records and which has no heap, re-homes
// nothing and loses no row on the designs that re-home heap records.
func TestRebalanceClusteredTable(t *testing.T) {
	const rows = 4000
	for _, design := range []Design{PLPPartition, PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			e := New(Options{Design: design, Partitions: 4})
			defer e.Close()
			boundaries := [][]byte{keyenc.Uint64Key(1001), keyenc.Uint64Key(2001), keyenc.Uint64Key(3001)}
			if _, err := e.CreateTable(catalog.TableDef{Name: "c", Clustered: true, Boundaries: boundaries}); err != nil {
				t.Fatal(err)
			}
			l := e.NewLoader()
			for k := uint64(1); k <= rows; k++ {
				if err := l.Insert("c", keyenc.Uint64Key(k), []byte(fmt.Sprintf("val-%06d", k))); err != nil {
					t.Fatal(err)
				}
			}
			for _, to := range []uint64{1500, 700} {
				st, err := e.Rebalance("c", 1, keyenc.Uint64Key(to))
				if err != nil {
					t.Fatalf("move boundary 1 to %d: %v", to, err)
				}
				if st.RecordsMoved != 0 {
					t.Fatalf("move boundary 1 to %d moved %d records of a clustered table", to, st.RecordsMoved)
				}
			}
			for k := uint64(1); k <= rows; k++ {
				rec, err := l.Read("c", keyenc.Uint64Key(k))
				if err != nil || string(rec) != fmt.Sprintf("val-%06d", k) {
					t.Fatalf("key %d: %q, %v", k, rec, err)
				}
			}
		})
	}
}

// TestBoundaryOscillationKeepsRows moves one boundary back and forth 2,000
// times on the PLP designs, whose moves slice and meld sub-trees.  Every
// move must succeed and every row must stay readable: a meld that runs out
// of room on a root page halfway through its copy, after the slice, would
// orphan part of a sub-tree.
func TestBoundaryOscillationKeepsRows(t *testing.T) {
	const moves = 2000
	for _, design := range []Design{PLPRegular, PLPPartition, PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			e := fastpathEngine(t, design)
			for i := 0; i < moves; i++ {
				to := uint64(900)
				if i%2 == 1 {
					to = 1100
				}
				if _, err := e.Rebalance("t", 1, keyenc.Uint64Key(to)); err != nil {
					t.Fatalf("move %d (boundary 1 to %d): %v", i, to, err)
				}
			}
			l := e.NewLoader()
			n := 0
			if err := l.ReadRange("t", nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			if n != 4000 {
				t.Fatalf("%d of 4000 rows reachable after %d moves", n, moves)
			}
			for k := uint64(1); k <= 4000; k++ {
				if rec, err := l.Read("t", keyenc.Uint64Key(k)); err != nil || string(rec) != fmt.Sprintf("val-%06d", k) {
					t.Fatalf("key %d after %d moves: %q, %v", k, moves, rec, err)
				}
			}
			tbl, err := e.Table("t")
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.Primary.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScanChunkStreamsDuringRebalance streams the whole table in small
// chunks, over and over, while another goroutine keeps moving all three
// boundaries, on every partitioned design; nothing writes.  A chunk queued
// on a worker that a move then takes its cursor from forwards itself to the
// cursor's new owner, so every stream must return every row exactly once,
// in key order, and no chunk may fail.
func TestScanChunkStreamsDuringRebalance(t *testing.T) {
	const (
		rows       = 4000
		minStreams = 32      // streams that must overlap the moves
		maxMoves   = 1 << 20 // the mover's bound
	)
	for _, design := range []Design{Logical, PLPRegular, PLPPartition, PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			e := fastpathEngine(t, design)
			var stop atomic.Bool
			moved := make(chan error, 1)
			moves := 0
			go func() {
				rng := rand.New(rand.NewSource(7))
				for ; moves < maxMoves && !stop.Load(); moves++ {
					idx := 1 + moves%3
					lo := uint64(idx*1000 - 400)
					if _, err := e.Rebalance("t", idx, keyenc.Uint64Key(lo+uint64(rng.Intn(800)))); err != nil {
						moved <- fmt.Errorf("move %d: %w", moves, err)
						return
					}
				}
				moved <- nil
			}()
			streams := 0
			for ; streams < minStreams; streams++ {
				var cursor []byte
				next := uint64(1)
				for {
					res, err := e.ScanChunk("t", cursor, nil, nil, 64, nil)
					if err != nil {
						t.Fatalf("stream %d: chunk at %x: %v", streams, cursor, err)
					}
					for _, en := range res.Entries {
						k, derr := keyenc.DecodeUint64(en.Key)
						if derr != nil || k != next || string(en.Value) != fmt.Sprintf("val-%06d", k) {
							t.Fatalf("stream %d: got key %d (%q), want %d: a row was missed or repeated", streams, k, en.Value, next)
						}
						next++
					}
					if res.Done {
						break
					}
					cursor = res.Next
				}
				if next != rows+1 {
					t.Fatalf("stream %d returned %d of %d rows", streams, next-1, rows)
				}
			}
			stop.Store(true)
			if err := <-moved; err != nil {
				t.Fatal(err)
			}
			if moves >= maxMoves {
				t.Fatalf("the mover ran out of moves before %d streams finished", minStreams)
			}
			t.Logf("%d streams overlapped %d moves", streams, moves)
		})
	}
}
