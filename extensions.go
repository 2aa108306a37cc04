// Public facade for the subsystems that extend the core PLP engine:
// checkpointing and restart recovery, online dynamic repartitioning, the
// partition-alignment advisor, and the network server.
package plp

import (
	"plp/internal/advisor"
	"plp/internal/engine"
	"plp/internal/recovery"
	"plp/internal/repartition"
	"plp/internal/server"
	"plp/internal/wal"
)

// Loader is the unlocked, unlogged bulk-load path of an engine.  It is used
// to populate a database before measurements start and as the target of
// restart recovery.
type Loader = engine.Loader

// Log is the engine's write-ahead log handle.
type Log = wal.Log

//
// Durability (see internal/wal's Durable device and internal/engine's
// durability layer).
//

// Open creates an engine whose write-ahead log is the disk-backed
// segmented device in Options.DataDir, with a background group-commit
// flusher making commits durable before they are acknowledged (set
// Options.LazyCommit to acknowledge early).  The returned engine is empty:
// create the schema, then call Engine.Recover to rebuild the database
// contents — checkpoint snapshot, restored partition boundaries, committed
// log tail — before serving traffic.  An empty DataDir degenerates to New.
func Open(opts Options) (*Engine, error) { return engine.Open(opts) }

// RecoverInfo reports what an Engine.Recover call rebuilt.
type RecoverInfo = engine.RecoverInfo

//
// Recovery (see internal/recovery).
//

// RecoveryAnalysis is the result of scanning a log: transaction outcomes,
// the logical operations, and the most recent checkpoint.
type RecoveryAnalysis = recovery.Analysis

// ReplayStats reports what a recovery replay did.
type ReplayStats = recovery.ReplayStats

// CheckpointStats reports what one Checkpoint call captured.
type CheckpointStats = recovery.CheckpointStats

// Checkpointer periodically checkpoints an engine in the background.
type Checkpointer = recovery.Checkpointer

// Checkpoint captures a transactionally consistent snapshot of every table
// into the engine's log, bounding the work restart recovery has to do.
// chunkEntries controls the snapshot chunk size; zero selects the default.
func Checkpoint(e *Engine, chunkEntries int) (CheckpointStats, error) {
	return recovery.Checkpoint(e, chunkEntries)
}

// Recover rebuilds the database contents recorded in log onto the target
// loader (normally a fresh engine with the same schema as the crashed one).
func Recover(log Log, target *Loader) (*RecoveryAnalysis, ReplayStats, error) {
	return recovery.Recover(log, target)
}

// NewCheckpointer returns a background checkpointer for the engine.
var NewCheckpointer = recovery.NewCheckpointer

//
// Online dynamic repartitioning (see internal/repartition).
//

// RepartitionConfig tunes a RepartitionController.
type RepartitionConfig = repartition.Config

// RepartitionController is the paper's online DRP component: a closed-loop
// controller that feeds on the engine's routed accesses, detects skew
// through aging histograms, and moves partition boundaries while the
// system keeps executing.
type RepartitionController = repartition.Controller

// RepartitionDecision records one boundary move the controller applied.
type RepartitionDecision = repartition.Decision

// RepartitionStatus is a snapshot of a controller's activity.
type RepartitionStatus = repartition.Status

// AttachRepartitioner attaches an online repartitioning controller to the
// engine, registering it as the engine's access observer.  Call Start for
// the background control loop, or Step for explicit control periods.
func AttachRepartitioner(e *Engine, cfg RepartitionConfig) (*RepartitionController, error) {
	return repartition.Attach(e, cfg)
}

//
// Partition-alignment advisor (see internal/advisor).
//

// AdvisorTracker observes which indexes a workload uses and produces
// partitioning advice.
type AdvisorTracker = advisor.Tracker

// AdvisorReport is the advisor's analysis output.
type AdvisorReport = advisor.Report

// AdvisorFinding is one recommendation in an AdvisorReport.
type AdvisorFinding = advisor.Finding

// NewAdvisorTracker returns an advisor tracker bound to the engine.
func NewAdvisorTracker(e *Engine) *AdvisorTracker { return advisor.NewTracker(e) }

// RecommendBoundaries computes equal-weight partition boundaries from a key
// sample, ready to be used as TableDef.Boundaries.
var RecommendBoundaries = advisor.RecommendBoundaries

//
// Network server (see internal/server, package client and cmd/plpd).
//

// Server exposes an engine over TCP using the wire protocol: authenticated
// handshake, pipelined out-of-order execution, and distributed range scans
// (see package wire for the protocol and package client for the
// asynchronous Go client).
type Server = server.Server

// NewServer returns a server for the engine.  Call Listen and Serve (or see
// cmd/plpd for a ready-made daemon); SetAuthToken gates the administrative
// control verbs behind a shared token.
func NewServer(e *Engine) *Server { return server.New(e) }
