// Extension experiments: features the paper describes but does not evaluate
// directly (automatic load balancing, Appendix E / Section 3.2.1) and the
// restart-recovery story of the shared log (Section 2.3).  They run as EXT-1
// and EXT-2 through cmd/plpbench -experiment ext-autobalance and
// -experiment ext-recovery.

package experiments

import (
	"fmt"
	"strings"
	"time"

	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/recovery"
	"plp/internal/repartition"
	"plp/internal/wal"
	"plp/internal/workload/tatp"
)

//
// EXT-1 — automatic load balancing.
//

// ExtAutoBalanceSeries is the timeline of one configuration.
type ExtAutoBalanceSeries struct {
	// Label identifies the configuration.
	Label string
	// Points is the throughput timeline.
	Points []harness.TimelinePoint
	// Decisions is the number of automatic rebalances performed.
	Decisions int
	// PostSkewTPS is the average throughput after the skew change.
	PostSkewTPS float64
	// PostSkewShares is the fraction of post-skew actions executed by each
	// partition worker; HotShare is the largest of them.  This is the
	// quantity the controller exists to equalize: a worker stuck near 100%
	// means the skewed range is served by a single thread.
	PostSkewShares []float64
	HotShare       float64
}

// ExtAutoBalanceResult compares PLP-Leaf with and without the online
// repartitioning controller under a skew change.
type ExtAutoBalanceResult struct {
	Series  []ExtAutoBalanceSeries
	EventAt time.Duration
}

// ExtAutoBalance reproduces the Figure 8 scenario (uniform load that turns
// skewed mid-run) but instead of the experiment driver calling Rebalance by
// hand, the online repartitioning controller (package repartition), fed by
// the engine's access observer, detects the imbalance and moves the
// boundary on its own.  What is checked (the ext-autobalance row of
// TestExperimentShapes) is the work split: without the controller one
// partition worker carries most of the post-skew load; with it the
// automatic move spreads that load over both workers.  Throughput is reported, with the post-skew auto/static
// ratio, but not asserted: on a 2-vCPU VM the post-skew auto-balance
// throughput measured 136k–172k tps against 160k–196k static, since with
// two workers on two CPUs evening their shares does not by itself add
// throughput, and the moves cost quiesces.
func ExtAutoBalance(s Scale) (*ExtAutoBalanceResult, error) {
	total, eventAt := s.timeline()
	res := &ExtAutoBalanceResult{EventAt: eventAt}
	for _, withDRP := range []bool{false, true} {
		opts := engine.Options{Design: engine.PLPLeaf, Partitions: 2}
		e, w, err := setupTATP(opts, s, tatp.MixBalanceProbe)
		if err != nil {
			return nil, err
		}

		label := "PLP-Leaf (static)"
		var ctrl *repartition.Controller
		if withDRP {
			label = "PLP-Leaf (auto-balance)"
			ctrl, err = repartition.Attach(e, repartition.Config{
				Tables: []string{tatp.TableSubscriber},
				Period: 50 * time.Millisecond,
			})
			if err != nil {
				e.Close()
				return nil, err
			}
			ctrl.Start()
		}

		// The skew is stronger than Figure 8's (90% of the requests on 10% of
		// the keys instead of 50%): with only two partitions the hot worker
		// must carry nearly all the work for rebalancing to matter, which is
		// the situation the controller exists for.
		var atEvent []uint64
		event := func() {
			w.SetSkew(0.10, 0.90)
			for _, ws := range e.PartitionStats() {
				atEvent = append(atEvent, ws.Executed)
			}
		}
		cfg := s.runConfig()
		cfg.Clients = 2 * opts.Partitions
		points, err := harness.RunTimeline(e, w, cfg, total, timelineInterval, eventAt, event)
		series := ExtAutoBalanceSeries{Label: label, Points: points}
		if ctrl != nil {
			ctrl.Stop()
			ctrl.Detach()
			series.Decisions = int(ctrl.Status().Applied)
		}
		var sum float64
		var n int
		for _, p := range points {
			if p.T > eventAt+timelineInterval {
				sum += p.TPS
				n++
			}
		}
		series.PostSkewTPS = ratio(sum, float64(n))
		// Post-skew per-worker load shares: executed actions since the event.
		atEnd := e.PartitionStats()
		if len(atEvent) == len(atEnd) && len(atEnd) > 0 {
			var total float64
			deltas := make([]float64, len(atEnd))
			for i := range atEnd {
				deltas[i] = float64(atEnd[i].Executed - atEvent[i])
				total += deltas[i]
			}
			if total > 0 {
				for i := range deltas {
					share := deltas[i] / total
					series.PostSkewShares = append(series.PostSkewShares, share)
					if share > series.HotShare {
						series.HotShare = share
					}
				}
			}
		}
		e.Close()
		if err != nil {
			return nil, fmt.Errorf("ext-autobalance %s: %w", label, err)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// String renders the timelines side by side.
func (r *ExtAutoBalanceResult) String() string {
	var labels []string
	var points [][]harness.TimelinePoint
	for _, s := range r.Series {
		labels, points = append(labels, s.Label), append(points, s.Points)
	}
	var b strings.Builder
	b.WriteString(table(fmt.Sprintf("EXT-1: automatic load balancing (skew change at %s)", r.EventAt),
		"", []int{-10, 26}, timelineRows(labels, points)...))
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%s: post-skew avg %.0f tps, %d automatic rebalance(s), post-skew worker shares:", s.Label, s.PostSkewTPS, s.Decisions)
		for _, sh := range s.PostSkewShares {
			fmt.Fprintf(&b, " %.0f%%", 100*sh)
		}
		b.WriteByte('\n')
	}
	if len(r.Series) == 2 && r.Series[0].PostSkewTPS > 0 {
		fmt.Fprintf(&b, "post-skew throughput auto/static: %.2f\n", r.Series[1].PostSkewTPS/r.Series[0].PostSkewTPS)
	}
	return b.String()
}

//
// EXT-2 — checkpointing and logical restart recovery.
//

// ExtRecoveryResult reports one crash/recovery round trip over the TATP
// database.
type ExtRecoveryResult struct {
	// Subscribers is the TATP scale used.
	Subscribers int
	// TxnsExecuted is the number of transactions run before the "crash".
	TxnsExecuted uint64
	// LogRecords is the number of log records at crash time.
	LogRecords int
	// CheckpointEntries and CheckpointDuration describe the checkpoint taken
	// after loading.
	CheckpointEntries  int
	CheckpointDuration time.Duration
	// ReplaySnapshotEntries, ReplayApplied and ReplaySkippedLoser describe
	// the recovery pass.
	ReplaySnapshotEntries int
	ReplayApplied         int
	ReplaySkippedLoser    int
	// RecoveryDuration is the wall-clock time of Analyze+Replay.
	RecoveryDuration time.Duration
	// Verified reports whether the recovered database passed the workload's
	// consistency check and matched the crashed engine's row count.
	Verified bool
	// RowsOriginal and RowsRecovered are the subscriber row counts.
	RowsOriginal  int
	RowsRecovered int
}

// ExtRecovery loads TATP on a PLP-Leaf engine, checkpoints it, runs an
// update-heavy transaction mix, simulates a crash (the engine is discarded
// without flushing) and recovers the log into a fresh engine, verifying that
// the recovered database is consistent and complete.
func ExtRecovery(s Scale) (*ExtRecoveryResult, error) {
	opts := engine.Options{Design: engine.PLPLeaf, Partitions: s.Partitions}
	e, w, err := setupTATP(opts, s, tatp.MixStandard)
	if err != nil {
		return nil, err
	}
	defer e.Close()

	res := &ExtRecoveryResult{Subscribers: s.TATPSubscribers}

	cp, err := recovery.Checkpoint(e, 0)
	if err != nil {
		return nil, fmt.Errorf("ext-recovery checkpoint: %w", err)
	}
	res.CheckpointEntries = cp.Entries
	res.CheckpointDuration = cp.Duration

	if _, err := harness.Run(e, w, s.runConfig()); err != nil {
		return nil, fmt.Errorf("ext-recovery workload: %w", err)
	}
	res.TxnsExecuted = e.TxnStats().Committed
	if err := wal.Scan(e.Log(), func(*wal.Record) error {
		res.LogRecords++
		return nil
	}); err != nil {
		return nil, fmt.Errorf("ext-recovery log scan: %w", err)
	}

	// "Crash": no orderly shutdown, no flush.  Build a fresh engine with the
	// same schema and recover the log into it.
	target := engine.New(opts)
	defer target.Close()
	tw := tatp.New(tatp.Config{Subscribers: s.TATPSubscribers, Partitions: opts.Partitions, Mix: tatp.MixStandard})
	if err := tw.SetupSchema(target); err != nil {
		return nil, fmt.Errorf("ext-recovery target schema: %w", err)
	}

	start := time.Now()
	_, rst, err := recovery.Recover(e.Log(), target.NewLoader())
	if err != nil {
		return nil, fmt.Errorf("ext-recovery recover: %w", err)
	}
	res.RecoveryDuration = time.Since(start)
	res.ReplaySnapshotEntries = rst.SnapshotEntries
	res.ReplayApplied = rst.Applied
	res.ReplaySkippedLoser = rst.SkippedLoser

	count := func(e *engine.Engine) (int, error) {
		n := 0
		err := e.NewLoader().ReadRange(tatp.TableSubscriber, nil, nil, func(_, _ []byte) bool { n++; return true })
		return n, err
	}
	if res.RowsOriginal, err = count(e); err != nil {
		return nil, err
	}
	if res.RowsRecovered, err = count(target); err != nil {
		return nil, err
	}
	res.Verified = res.RowsOriginal == res.RowsRecovered
	if res.Verified {
		if err := tw.Verify(target); err != nil {
			res.Verified = false
		}
	}
	return res, nil
}

// String renders the recovery report.
func (r *ExtRecoveryResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXT-2: checkpoint + logical restart recovery (TATP, %d subscribers)\n", r.Subscribers)
	fmt.Fprintf(&b, "  checkpoint:        %d entries in %s\n", r.CheckpointEntries, r.CheckpointDuration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  workload:          %d committed txns, %d log records at crash\n", r.TxnsExecuted, r.LogRecords)
	fmt.Fprintf(&b, "  recovery:          %s (snapshot %d entries, %d ops replayed, %d loser ops skipped)\n",
		r.RecoveryDuration.Round(time.Millisecond), r.ReplaySnapshotEntries, r.ReplayApplied, r.ReplaySkippedLoser)
	fmt.Fprintf(&b, "  rows:              original=%d recovered=%d\n", r.RowsOriginal, r.RowsRecovered)
	fmt.Fprintf(&b, "  consistency check: %v\n", r.Verified)
	return b.String()
}
