// Command plpd serves a PLP engine over TCP using the wire protocol.
//
// It creates a database with one or more key/value tables partitioned over
// a uint64 key space, optionally starts the online repartitioning
// controller (-drp) and a background checkpointer, and serves client
// transactions (see package client).
//
// With -data-dir the engine is durable: the write-ahead log lives in
// segmented files under the directory, commits are made durable by a
// group-commit flusher before they are acknowledged (unless -lazy-commit),
// and on startup the daemon replays the log — checkpoint snapshot, restored
// partition boundaries, committed tail — before accepting connections, so
// a kill -9 loses nothing that was acknowledged.  The "plpctl checkpoint"
// verb (token-gated like all control verbs) takes a checkpoint on demand.
//
// -token gates the control verbs behind a shared secret; -ro-token adds a
// second, read-only credential whose sessions may run reads (gets, scans,
// read-only plans) but are refused every write op and control verb.
//
// -pprof serves net/http/pprof and expvar on a second listen address so
// hot-path regressions are diagnosable on a live daemon: CPU and heap
// profiles under /debug/pprof/, and /debug/vars carries plp_worker_queues
// (per-partition input-queue depths) plus plp_server_stats (connection and
// transaction counters).  Example:
//
//	plpd -pprof localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//	curl http://localhost:6060/debug/vars
//
// Example:
//
//	plpd -addr :7070 -design plp-leaf -partitions 8 \
//	     -tables accounts,orders -keyspace 1000000 \
//	     -data-dir /var/lib/plp -checkpoint-ms 5000 -checkpoint-truncate
package main

import (
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"plp/internal/catalog"
	"plp/internal/cluster"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/recovery"
	"plp/internal/repartition"
	"plp/internal/repl"
	"plp/internal/server"
	"plp/internal/txn"
	"plp/shard"
)

// parseMembers parses the -cluster membership spec: comma-separated id@addr.
func parseMembers(spec string) ([]cluster.Member, error) {
	var out []cluster.Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idStr, addr, ok := strings.Cut(part, "@")
		if !ok || addr == "" {
			return nil, fmt.Errorf("bad -cluster entry %q (want id@addr)", part)
		}
		id, err := strconv.Atoi(idStr)
		if err != nil {
			return nil, fmt.Errorf("bad -cluster member ID %q: %v", idStr, err)
		}
		out = append(out, cluster.Member{ID: id, Addr: addr})
	}
	return out, nil
}

// parseDesign maps a CLI name to an engine design.
func parseDesign(name string) (engine.Design, error) {
	switch strings.ToLower(name) {
	case "conventional", "conv":
		return engine.Conventional, nil
	case "logical", "dora":
		return engine.Logical, nil
	case "plp", "plp-regular":
		return engine.PLPRegular, nil
	case "plp-partition":
		return engine.PLPPartition, nil
	case "plp-leaf":
		return engine.PLPLeaf, nil
	default:
		return 0, fmt.Errorf("unknown design %q (want conventional, logical, plp-regular, plp-partition or plp-leaf)", name)
	}
}

func main() {
	var (
		addr         = flag.String("addr", ":7070", "listen address")
		designName   = flag.String("design", "plp-leaf", "execution design: conventional, logical, plp-regular, plp-partition, plp-leaf")
		partitions   = flag.Int("partitions", 8, "number of logical partitions / worker goroutines")
		tables       = flag.String("tables", "kv", "comma-separated table names to create")
		keyspace     = flag.Uint64("keyspace", 1_000_000, "uint64 key space upper bound used to compute partition boundaries")
		dataDir      = flag.String("data-dir", "", "durable data directory; empty runs fully in memory (no crash recovery)")
		lazyCommit   = flag.Bool("lazy-commit", false, "acknowledge commits before their log records are durable (trades a crash-loss window for latency)")
		drp          = flag.Bool("drp", false, "enable the online dynamic-repartitioning controller (plpctl drp ... inspects it)")
		token        = flag.String("token", "", "authentication token; when set, only sessions presenting it may issue control commands")
		roToken      = flag.String("ro-token", "", "read-only authorization token; sessions presenting it may read but are refused write ops and control commands")
		drpPeriod    = flag.Duration("drp-period", 100*time.Millisecond, "control period of the repartitioning controller")
		checkpointMs = flag.Int("checkpoint-ms", 0, "background checkpoint interval in milliseconds (0 disables)")
		truncateLog  = flag.Bool("checkpoint-truncate", false, "truncate the log prefix after each successful checkpoint")
		statsEvery   = flag.Duration("stats", 10*time.Second, "how often to print server statistics (0 disables)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof and expvar (worker queue depths, server counters) on this address, e.g. localhost:6060 (empty disables)")
		shardMapPath = flag.String("shard-map", "", "shard map file; this process serves the shard named by -shard-id and coordinates cross-shard transactions (empty runs unsharded)")
		shardID      = flag.Int("shard-id", 0, "this process's shard ID in the -shard-map file")
		follow       = flag.String("follow", "", "run as a replication follower of this primary address: serve reads from replicated state, refuse writes until promoted (requires -data-dir)")
		ackMode      = flag.String("ack-mode", "local", "commit acknowledgement mode: local (fsynced on this node) or replica (additionally on ≥1 follower's disk)")
		ackTimeout   = flag.Duration("ack-timeout", 0, "replica-acked commit wait bound (0 uses the default; the commit is always durable locally when the wait times out)")
		ackQuorum    = flag.Int("ack-quorum", 1, "with -ack-mode replica, how many distinct followers must hold a commit durably before it is acknowledged")
		tlsCert      = flag.String("tls-cert", "", "PEM certificate chain for serving TLS on every listener (requires -tls-key)")
		tlsKey       = flag.String("tls-key", "", "PEM private key for -tls-cert")
		tlsCA        = flag.String("tls-ca", "", "PEM CA bundle used to verify the TLS servers this process dials (shard peers, replication primary, cluster probes)")
		tlsInsecure  = flag.Bool("tls-skip-verify", false, "dial TLS without verifying the server certificate (testing only)")
		peerTimeout  = flag.Duration("peer-timeout", 0, "shard-to-shard peer call deadline (0 uses the 3s default)")
		janitorEvery = flag.Duration("janitor-every", 0, "in-doubt transaction janitor pass interval on sharded daemons (0 uses the 250ms default)")
		clusterSpec  = flag.String("cluster", "", "replication group membership for lease-based auto-failover, as comma-separated id@addr entries (e.g. 1@db1:7070,2@db2:7070,3@db3:7070)")
		nodeID       = flag.Int("node-id", 0, "this process's member ID within -cluster")
		leaseTimeout = flag.Duration("lease", 0, "how long a clustered follower tolerates a silent primary before probing for failover (0 uses the 3s default)")
		advertise    = flag.String("advertise", "", "address peers and clients reach this process at (defaults to the -cluster entry for -node-id); a promoted primary installs it in the shard map")
	)
	flag.Parse()

	switch *ackMode {
	case "local", "replica":
	default:
		fmt.Fprintf(os.Stderr, "unknown -ack-mode %q (want local or replica)\n", *ackMode)
		os.Exit(2)
	}
	if *ackMode == "replica" && (*dataDir == "" || *lazyCommit) {
		fmt.Fprintln(os.Stderr, "-ack-mode replica requires durable commits (-data-dir, without -lazy-commit)")
		os.Exit(2)
	}
	if *ackQuorum < 1 {
		fmt.Fprintln(os.Stderr, "-ack-quorum must be at least 1")
		os.Exit(2)
	}

	// TLS: -tls-cert/-tls-key terminate TLS on the listener; -tls-ca (or
	// -tls-skip-verify) builds the client-side config used wherever this
	// process dials a peer daemon.
	var serverTLS, dialTLS *tls.Config
	if (*tlsCert == "") != (*tlsKey == "") {
		fmt.Fprintln(os.Stderr, "-tls-cert and -tls-key must be set together")
		os.Exit(2)
	}
	if *tlsCert != "" {
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading TLS key pair: %v\n", err)
			os.Exit(2)
		}
		serverTLS = &tls.Config{Certificates: []tls.Certificate{cert}}
	}
	if *tlsCA != "" || *tlsInsecure {
		dialTLS = &tls.Config{InsecureSkipVerify: *tlsInsecure}
		if *tlsCA != "" {
			pem, err := os.ReadFile(*tlsCA)
			if err != nil {
				fmt.Fprintf(os.Stderr, "reading -tls-ca: %v\n", err)
				os.Exit(2)
			}
			pool := x509.NewCertPool()
			if !pool.AppendCertsFromPEM(pem) {
				fmt.Fprintf(os.Stderr, "-tls-ca %s holds no usable certificates\n", *tlsCA)
				os.Exit(2)
			}
			dialTLS.RootCAs = pool
		}
	}

	var members []cluster.Member
	if *clusterSpec != "" {
		var err error
		if members, err = parseMembers(*clusterSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "-cluster requires -data-dir (failover needs a durable log)")
			os.Exit(2)
		}
		found := false
		for _, m := range members {
			if m.ID == *nodeID {
				found = true
				if *advertise == "" {
					*advertise = m.Addr
				}
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "-cluster has no entry for -node-id %d\n", *nodeID)
			os.Exit(2)
		}
	}
	if *follow != "" {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "-follow requires -data-dir (the shipped log must persist)")
			os.Exit(2)
		}
		// A follower's log must stay a byte-identical prefix of the
		// primary's: anything that appends locally is disabled until
		// promotion.
		if *checkpointMs > 0 || *drp {
			fmt.Println("plpd: follower mode disables -checkpoint-ms and -drp (restart after promotion to re-enable)")
			*checkpointMs, *drp = 0, false
		}
	}

	var shardMap *shard.Map
	if *shardMapPath != "" {
		var err error
		shardMap, err = shard.ParseFile(*shardMapPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shard map %s: %v\n", *shardMapPath, err)
			os.Exit(2)
		}
		if _, ok := shardMap.ByID(*shardID); !ok {
			fmt.Fprintf(os.Stderr, "shard map %s has no shard %d (set -shard-id)\n", *shardMapPath, *shardID)
			os.Exit(2)
		}
	}

	design, err := parseDesign(*designName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	e, err := engine.Open(engine.Options{
		Design:     design,
		Partitions: *partitions,
		SLI:        design == engine.Conventional,
		DataDir:    *dataDir,
		LazyCommit: *lazyCommit,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "open engine: %v\n", err)
		os.Exit(1)
	}
	defer e.Close()

	boundaries := uniformBoundaries(*keyspace, *partitions)
	for _, name := range strings.Split(*tables, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := e.CreateTable(catalog.TableDef{Name: name, Boundaries: boundaries}); err != nil {
			fmt.Fprintf(os.Stderr, "create table %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	// Recovery runs after the schema exists and before any connection is
	// accepted: a restarted durable daemon replays the checkpoint snapshot,
	// the restored partition boundaries and the committed log tail, so the
	// first client sees exactly the acknowledged pre-crash state.
	var shardEpoch uint64 // persisted incarnation; 0 (no data dir) derives one from the clock
	if *dataDir != "" {
		// A sharded durable daemon must not replay a data directory written
		// under a different shard assignment: silently serving another
		// shard's keys (or a stale range) would corrupt routing invariants.
		// The shard.state file records what the directory holds; refuse to
		// start on any disagreement.
		var shardSt shard.State
		if shardMap != nil {
			var err error
			if shardSt, err = shard.CheckState(*dataDir, shardMap, *shardID); err != nil {
				fmt.Fprintf(os.Stderr, "refusing to start: %v\n", err)
				os.Exit(1)
			}
		}
		info, err := e.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "recover %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		fmt.Printf("plpd: recovered %s: %d snapshot entries, %d ops replayed, %d winners, %d losers, %d boundary moves\n",
			*dataDir, info.Replay.SnapshotEntries, info.Replay.Applied, info.Winners, info.Losers, info.BoundariesRestored)
		if info.InDoubt > 0 {
			fmt.Printf("plpd: %d cross-shard branches in doubt; resolving from their coordinators\n", info.InDoubt)
		}
		if shardMap != nil {
			// Persist the bumped incarnation BEFORE any gid is minted with
			// it: a crash after coordinating would otherwise let the next
			// start reuse this incarnation's gids.
			if err := shard.WriteState(*dataDir, shardSt); err != nil {
				fmt.Fprintf(os.Stderr, "writing shard state: %v\n", err)
				os.Exit(1)
			}
			shardEpoch = shardSt.Incarnation
		}
	}

	if *checkpointMs > 0 {
		cp := recovery.NewCheckpointer(e, time.Duration(*checkpointMs)*time.Millisecond)
		cp.SetTruncate(*truncateLog)
		cp.Start()
		defer cp.Stop()
	}

	srv := server.New(e)
	srv.SetAuthToken(*token)
	srv.SetReadOnlyToken(*roToken)
	srv.TLSConfig = serverTLS
	srv.PeerTLSConfig = dialTLS
	srv.PeerCallTimeout = *peerTimeout
	srv.JanitorPeriod = *janitorEvery

	// Replication role.  Every durable daemon is a primary lineage — it
	// accepts follower subscriptions whether or not one ever connects —
	// unless -follow makes it a read-only follower of another primary.  The
	// role is dynamic: `plpctl promote` (or the failover monitor) turns a
	// follower into the primary, and a fenced ex-primary demotes back into a
	// follower, re-seeding over the stream if its log diverged.
	var (
		roleMu      sync.Mutex // serializes promote/demote transitions
		curPrimary  atomic.Pointer[repl.Primary]
		curFollower atomic.Pointer[repl.Follower]
		clusterNode *cluster.Node
		promote     func() (string, error)
		demote      func(primaryAddr string) error
	)
	var replSnapshot func() any
	if *dataDir != "" {
		installPrimary := func(epoch uint64) *repl.Primary {
			p := repl.NewPrimary(e.DurableLog(), epoch)
			if *ackTimeout > 0 {
				p.SetAckTimeout(*ackTimeout)
			}
			curPrimary.Store(p)
			srv.SetReplPrimary(p)
			if *ackMode == "replica" {
				p.SetAckQuorum(*ackQuorum)
				e.SetCommitAckWaiter(p.OnReplicated)
			}
			return p
		}
		// A follower's Stop is terminal, so every stint as a follower gets a
		// fresh instance; construction re-analyzes the local log, which is
		// exactly what a demoted ex-primary needs before subscribing.
		newFollower := func(primaryAddr string) (*repl.Follower, error) {
			return repl.NewFollower(repl.FollowerOptions{
				Primary:   primaryAddr,
				Token:     *token,
				Dir:       *dataDir,
				Log:       e.DurableLog(),
				Apply:     e.ApplyReplicated,
				Reseed:    e.ResetForSeed,
				TLSConfig: dialTLS,
				Logf:      func(format string, args ...any) { fmt.Printf("plpd: "+format+"\n", args...) },
			})
		}
		promote = func() (string, error) {
			roleMu.Lock()
			defer roleMu.Unlock()
			f := curFollower.Load()
			if f == nil {
				return "", errors.New("promote: not a follower")
			}
			epoch, err := f.Promote()
			if err != nil {
				return "", err
			}
			curFollower.Store(nil)
			// Fence the old lineage at the shard layer too: a stale
			// primary restarting on its own data dir keeps its old
			// incarnation, and peers refuse its gids.
			if st, ok, rerr := shard.ReadState(*dataDir); rerr == nil && ok {
				st.Incarnation++
				if werr := shard.WriteState(*dataDir, st); werr != nil {
					return "", fmt.Errorf("promote: bumping shard incarnation: %w", werr)
				}
			}
			installPrimary(epoch)
			srv.SetFollowerMode(false)
			// Re-home the shard onto this process so routers (and writers
			// bounced by the demoted ex-primary) follow the promotion.
			if m := srv.ShardMap(); m != nil && *advertise != "" {
				nm := m.Clone()
				if perr := nm.Promote(*shardID, *advertise); perr == nil {
					if uerr := srv.UpdateShardMap(nm); uerr != nil {
						fmt.Printf("plpd: promote: shard map update: %v\n", uerr)
					}
				}
			}
			fmt.Printf("plpd: promoted to primary at replication epoch %d\n", epoch)
			return fmt.Sprintf("promoted: replication epoch %d, accepting writes\n", epoch), nil
		}
		demote = func(primaryAddr string) error {
			roleMu.Lock()
			defer roleMu.Unlock()
			if curFollower.Load() != nil {
				return nil // already a follower
			}
			// Stop accepting writes first: anything committed after the
			// fence would be lost when the follower re-seeds.
			srv.SetFollowerMode(true)
			e.SetCommitAckWaiter(nil)
			srv.SetReplPrimary(nil)
			curPrimary.Store(nil)
			f, err := newFollower(primaryAddr)
			if err != nil {
				return fmt.Errorf("demote: %w", err)
			}
			curFollower.Store(f)
			f.Start()
			fmt.Printf("plpd: demoted to follower of %s\n", primaryAddr)
			return nil
		}
		if *follow == "" {
			epoch, ok, err := repl.ReadEpoch(*dataDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "reading replication epoch: %v\n", err)
				os.Exit(1)
			}
			if !ok {
				epoch = 1
				if err := repl.WriteEpoch(*dataDir, epoch); err != nil {
					fmt.Fprintf(os.Stderr, "writing replication epoch: %v\n", err)
					os.Exit(1)
				}
			}
			installPrimary(epoch)
		} else {
			f, err := newFollower(*follow)
			if err != nil {
				fmt.Fprintf(os.Stderr, "follower: %v\n", err)
				os.Exit(1)
			}
			curFollower.Store(f)
			srv.SetFollowerMode(true)
			f.Start()
		}
		srv.SetPromoteHandler(promote)
		srv.SetSeedingFunc(func() bool {
			f := curFollower.Load()
			return f != nil && f.Seeding()
		})
		defer func() {
			if f := curFollower.Load(); f != nil {
				f.Stop()
			}
		}()
		replSnapshot = func() any {
			st := struct {
				Role           string
				AckMode        string
				AckQuorum      int                      `json:",omitempty"`
				Primary        *repl.PrimaryStatus      `json:",omitempty"`
				Follower       *repl.FollowerNodeStatus `json:",omitempty"`
				Cluster        *cluster.NodeStatus      `json:",omitempty"`
				LocalAckWait   *txn.AckWaitHist         `json:",omitempty"`
				ReplicaAckWait *txn.AckWaitHist         `json:",omitempty"`
			}{Role: "primary", AckMode: *ackMode}
			if f := curFollower.Load(); srv.FollowerMode() && f != nil {
				st.Role = "follower"
				fs := f.Status()
				st.Follower = &fs
			} else if p := curPrimary.Load(); p != nil {
				ps := p.Status()
				st.Primary = &ps
				st.AckQuorum = p.AckQuorum()
			}
			if local, replica := e.AckWaitHistograms(); local.Count > 0 || replica.Count > 0 {
				if local.Count > 0 {
					st.LocalAckWait = &local
				}
				if replica.Count > 0 {
					st.ReplicaAckWait = &replica
				}
			}
			if clusterNode != nil {
				cs := clusterNode.Status()
				st.Cluster = &cs
			}
			return st
		}
		srv.SetReplStatusHandler(func() (string, error) {
			buf, err := json.MarshalIndent(replSnapshot(), "", "  ")
			if err != nil {
				return "", err
			}
			return string(buf) + "\n", nil
		})
	}
	if shardMap != nil {
		if err := srv.SetShardConfig(shardMap, *shardID, *token, shardEpoch); err != nil {
			fmt.Fprintf(os.Stderr, "shard config: %v\n", err)
			os.Exit(1)
		}
	}
	if len(members) > 0 {
		// Lease-based auto-failover: the monitor watches the primary through
		// the replication stream's implicit lease and drives the same
		// promote/demote transitions an operator would.
		cn, err := cluster.New(cluster.Config{
			Self:         *nodeID,
			Members:      members,
			Token:        *token,
			TLS:          dialTLS,
			LeaseTimeout: *leaseTimeout,
			Logf:         func(format string, args ...any) { fmt.Printf("plpd: "+format+"\n", args...) },
			IsPrimary:    func() bool { return !srv.FollowerMode() },
			Epoch: func() uint64 {
				if f := curFollower.Load(); f != nil {
					return f.Epoch()
				}
				if p := curPrimary.Load(); p != nil {
					return p.Epoch()
				}
				return 0
			},
			DurableLSN: func() uint64 { return uint64(e.DurableLog().DurableLSN()) },
			SinceContact: func() time.Duration {
				if f := curFollower.Load(); f != nil {
					return f.SinceContact()
				}
				return 0
			},
			Promote: func() error { _, err := promote(); return err },
			Repoint: func(addr string) {
				if f := curFollower.Load(); f != nil {
					f.SetPrimary(addr)
				}
			},
			Demote: demote,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cluster: %v\n", err)
			os.Exit(1)
		}
		clusterNode = cn
		cn.Start()
		defer cn.Stop()
	}
	srv.SetCheckpointHandler(func() (string, error) {
		// Checkpoints need a transactionally quiet instant; on a busy
		// server ActiveTxns is almost always briefly non-zero, so retry in
		// the gaps between pipelined requests instead of failing the verb
		// on the first in-flight transaction.
		var st recovery.CheckpointStats
		var err error
		deadline := time.Now().Add(3 * time.Second)
		for {
			st, err = e.Checkpoint()
			if !errors.Is(err, recovery.ErrActiveTxns) || time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err != nil {
			return "", err
		}
		dropped := 0
		if *truncateLog {
			dropped = e.Log().Truncate(st.BeginLSN)
		}
		return fmt.Sprintf("checkpoint: %d tables, %d entries, %d chunks, LSN %d..%d, %v quiesced, %d log records reclaimed\n",
			st.Tables, st.Entries, st.Chunks, st.BeginLSN, st.EndLSN, st.Duration.Round(time.Microsecond), dropped), nil
	})
	if *drp {
		ctrl, err := repartition.Attach(e, repartition.Config{Period: *drpPeriod})
		if err != nil {
			fmt.Fprintf(os.Stderr, "repartitioning controller: %v\n", err)
			os.Exit(1)
		}
		ctrl.Start()
		defer ctrl.Stop()
		defer ctrl.Detach()
		srv.SetControlHandler(ctrl)
	}
	if *pprofAddr != "" {
		// Diagnostics endpoint: pprof profiles plus expvar gauges for the
		// partition workers' queue depths and the server counters, so a
		// hot-path regression on a live daemon can be profiled in situ.
		expvar.Publish("plp_worker_queues", expvar.Func(func() any {
			return e.WorkerQueueDepths()
		}))
		expvar.Publish("plp_server_stats", expvar.Func(func() any {
			return srv.Stats()
		}))
		if replSnapshot != nil {
			expvar.Publish("plp_repl", expvar.Func(replSnapshot))
		}
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("plpd: pprof/expvar diagnostics on http://%s/debug/pprof/\n", *pprofAddr)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	durability := "in-memory (no durability)"
	if *dataDir != "" {
		durability = "durable in " + *dataDir
		if *lazyCommit {
			durability += " (lazy commit)"
		}
		if *follow != "" {
			durability += ", following " + *follow
		} else if *ackMode == "replica" {
			durability += fmt.Sprintf(", replica-acked commits (quorum %d)", *ackQuorum)
		}
		if len(members) > 0 {
			durability += fmt.Sprintf(", failover cluster of %d (member %d)", len(members), *nodeID)
		}
	}
	if serverTLS != nil {
		durability += ", TLS"
	}
	if shardMap != nil {
		durability += fmt.Sprintf(", shard %d of map version %d", *shardID, shardMap.Version)
	}
	fmt.Printf("plpd: %s engine with %d partitions serving %q on %s, %s\n", design, *partitions, *tables, bound, durability)

	// Periodic stats reporting and signal handling.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ticker *time.Ticker
		var tick <-chan time.Time
		if *statsEvery > 0 {
			ticker = time.NewTicker(*statsEvery)
			defer ticker.Stop()
			tick = ticker.C
		}
		for {
			select {
			case <-stop:
				fmt.Println("plpd: shutting down")
				_ = srv.Close()
				return
			case <-tick:
				st := srv.Stats()
				fmt.Printf("plpd: conns=%d txns=%d committed=%d aborted=%d\n",
					st.Connections, st.Requests, st.Committed, st.Aborted)
			}
		}
	}()

	if err := srv.Serve(); err != nil && err != server.ErrClosed {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	}
	<-done
}

// uniformBoundaries splits [1, max] into n equal key ranges.
func uniformBoundaries(max uint64, n int) [][]byte {
	if n <= 1 {
		return nil
	}
	out := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, keyenc.Uint64Key(max*uint64(i)/uint64(n)+1))
	}
	return out
}
