// Package node runs one plpd process, so that plpd and its tests run the
// same code.  ParseFlags maps a plpd command line to a Config; Start
// composes, in order: the engine with its tables, shard.state check and
// recovery; the checkpointer; the server with its checkpoint, promote,
// "repl status" and seeding handlers; the replication role, a repl.Primary
// (with the replica-ack gate) or a repl.Follower, switched by Promote and
// Demote under one mutex; the shard configuration; the failover monitor
// (cluster.Node); the repartitioning controller; and the listener.
//
// Demote fences in this order: follower mode first, so nothing commits
// after the fence; then the engine's ack waiter is cleared; then the
// Primary is dropped and closed, failing the commits still on its gate.
package node

import (
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// Config is a parsed plpd command line.  Each field holds the value of the
// flag named in its comment.
type Config struct {
	// Engine and schema.
	Design     engine.Design // -design
	Partitions int           // -partitions
	Tables     string        // -tables
	Keyspace   uint64        // -keyspace
	DataDir    string        // -data-dir
	LazyCommit bool          // -lazy-commit

	// Background work and diagnostics.
	DRP                bool          // -drp
	DRPPeriod          time.Duration // -drp-period
	CheckpointEvery    time.Duration // -checkpoint-ms
	CheckpointTruncate bool          // -checkpoint-truncate
	Stats              time.Duration // -stats
	Pprof              string        // -pprof

	// Listener and security.
	Addr      string      // -addr
	Token     string      // -token
	ROToken   string      // -ro-token
	ServerTLS *tls.Config // -tls-cert, -tls-key
	DialTLS   *tls.Config // -tls-ca, -tls-skip-verify

	// Sharding.
	ShardMap     *shard.Map    // -shard-map
	ShardID      int           // -shard-id
	PeerTimeout  time.Duration // -peer-timeout
	JanitorEvery time.Duration // -janitor-every

	// Replication and failover.
	Follow     string           // -follow
	AckMode    string           // -ack-mode
	AckTimeout time.Duration    // -ack-timeout
	AckQuorum  int              // -ack-quorum
	Members    []cluster.Member // -cluster
	NodeID     int              // -node-id
	Lease      time.Duration    // -lease
	Advertise  string           // -advertise
}

var designs = map[string]engine.Design{
	"conventional":  engine.Conventional,
	"conv":          engine.Conventional,
	"logical":       engine.Logical,
	"dora":          engine.Logical,
	"plp":           engine.PLPRegular,
	"plp-regular":   engine.PLPRegular,
	"plp-partition": engine.PLPPartition,
	"plp-leaf":      engine.PLPLeaf,
}

// ParseFlags maps a plpd command line (without the program name) to a
// Config.  A refusal is printed to stderr and returned; plpd exits with
// status 2 on it, or 0 on flag.ErrHelp.
func ParseFlags(args []string, stderr io.Writer) (Config, error) {
	var c Config
	var design, shardMap, members, tlsCert, tlsKey, tlsCA string
	var tlsInsecure bool
	var checkpointMs int
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.Addr, "addr", ":7070", "listen address")
	fs.StringVar(&design, "design", "plp-leaf", "execution design: conventional, logical, plp-regular, plp-partition, plp-leaf")
	fs.IntVar(&c.Partitions, "partitions", 8, "number of logical partitions / worker goroutines")
	fs.StringVar(&c.Tables, "tables", "kv", "comma-separated table names to create")
	fs.Uint64Var(&c.Keyspace, "keyspace", 1_000_000, "uint64 key space upper bound used to compute partition boundaries")
	fs.StringVar(&c.DataDir, "data-dir", "", "durable data directory; empty runs fully in memory (no crash recovery)")
	fs.BoolVar(&c.LazyCommit, "lazy-commit", false, "acknowledge commits before their log records are durable (trades a crash-loss window for latency)")
	fs.BoolVar(&c.DRP, "drp", false, "enable the online dynamic-repartitioning controller (plpctl drp ... inspects it)")
	fs.StringVar(&c.Token, "token", "", "authentication token; when set, only sessions presenting it may issue control commands")
	fs.StringVar(&c.ROToken, "ro-token", "", "read-only authorization token; sessions presenting it may read but are refused write ops and control commands")
	fs.DurationVar(&c.DRPPeriod, "drp-period", 100*time.Millisecond, "control period of the repartitioning controller")
	fs.IntVar(&checkpointMs, "checkpoint-ms", 0, "background checkpoint interval in milliseconds (0 disables)")
	fs.BoolVar(&c.CheckpointTruncate, "checkpoint-truncate", false, "truncate the log prefix after each successful checkpoint")
	fs.DurationVar(&c.Stats, "stats", 10*time.Second, "how often to print server statistics (0 disables)")
	fs.StringVar(&c.Pprof, "pprof", "", "serve net/http/pprof and expvar (worker queue depths, server counters) on this address, e.g. localhost:6060 (empty disables)")
	fs.StringVar(&shardMap, "shard-map", "", "shard map file; this process serves the shard named by -shard-id and coordinates cross-shard transactions (empty runs unsharded)")
	fs.IntVar(&c.ShardID, "shard-id", 0, "this process's shard ID in the -shard-map file")
	fs.StringVar(&c.Follow, "follow", "", "run as a replication follower of this primary address: serve reads from replicated state, refuse writes until promoted (requires -data-dir)")
	fs.StringVar(&c.AckMode, "ack-mode", "local", "commit acknowledgement mode: local (fsynced on this node) or replica (additionally on ≥1 follower's disk)")
	fs.DurationVar(&c.AckTimeout, "ack-timeout", 0, "replica-acked commit wait bound (0 uses the default; the commit is always durable locally when the wait times out)")
	fs.IntVar(&c.AckQuorum, "ack-quorum", 1, "with -ack-mode replica, how many distinct followers must hold a commit durably before it is acknowledged")
	fs.StringVar(&tlsCert, "tls-cert", "", "PEM certificate chain for serving TLS on every listener (requires -tls-key)")
	fs.StringVar(&tlsKey, "tls-key", "", "PEM private key for -tls-cert")
	fs.StringVar(&tlsCA, "tls-ca", "", "PEM CA bundle used to verify the TLS servers this process dials (shard peers, replication primary, cluster probes)")
	fs.BoolVar(&tlsInsecure, "tls-skip-verify", false, "dial TLS without verifying the server certificate (testing only)")
	fs.DurationVar(&c.PeerTimeout, "peer-timeout", 0, "shard-to-shard peer call deadline (0 uses the 3s default)")
	fs.DurationVar(&c.JanitorEvery, "janitor-every", 0, "in-doubt transaction janitor pass interval on sharded daemons (0 uses the 250ms default)")
	fs.StringVar(&members, "cluster", "", "replication group membership for lease-based auto-failover, as comma-separated id@addr entries (e.g. 1@db1:7070,2@db2:7070,3@db3:7070)")
	fs.IntVar(&c.NodeID, "node-id", 0, "this process's member ID within -cluster")
	fs.DurationVar(&c.Lease, "lease", 0, "how long a clustered follower tolerates a silent primary before probing for failover (0 uses the 3s default)")
	fs.StringVar(&c.Advertise, "advertise", "", "address peers and clients reach this process at (defaults to the -cluster entry for -node-id); a promoted primary installs it in the shard map")
	if err := fs.Parse(args); err != nil {
		return Config{}, err // the flag set printed it with the usage
	}
	refuse := func(format string, a ...any) (Config, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintln(stderr, err)
		return Config{}, err
	}
	var err error
	if c.AckMode != "local" && c.AckMode != "replica" {
		return refuse("unknown -ack-mode %q (want local or replica)", c.AckMode)
	}
	if c.AckMode == "replica" && (c.DataDir == "" || c.LazyCommit) {
		return refuse("-ack-mode replica requires durable commits (-data-dir, without -lazy-commit)")
	}
	if c.AckQuorum < 1 {
		return refuse("-ack-quorum must be at least 1")
	}
	// TLS: -tls-cert/-tls-key terminate TLS on the listener; -tls-ca (or
	// -tls-skip-verify) builds the client-side config used wherever this
	// process dials a peer daemon.
	if (tlsCert == "") != (tlsKey == "") {
		return refuse("-tls-cert and -tls-key must be set together")
	}
	if tlsCert != "" {
		cert, err := tls.LoadX509KeyPair(tlsCert, tlsKey)
		if err != nil {
			return refuse("loading TLS key pair: %v", err)
		}
		c.ServerTLS = &tls.Config{Certificates: []tls.Certificate{cert}}
	}
	if tlsCA != "" || tlsInsecure {
		c.DialTLS = &tls.Config{InsecureSkipVerify: tlsInsecure}
		if tlsCA != "" {
			pem, err := os.ReadFile(tlsCA)
			if err != nil {
				return refuse("reading -tls-ca: %v", err)
			}
			c.DialTLS.RootCAs = x509.NewCertPool()
			if !c.DialTLS.RootCAs.AppendCertsFromPEM(pem) {
				return refuse("-tls-ca %s holds no usable certificates", tlsCA)
			}
		}
	}
	if members != "" {
		if c.Members, err = parseMembers(members); err != nil {
			return refuse("%v", err)
		}
		if c.DataDir == "" {
			return refuse("-cluster requires -data-dir (failover needs a durable log)")
		}
		i := slices.IndexFunc(c.Members, func(m cluster.Member) bool { return m.ID == c.NodeID })
		if i < 0 {
			return refuse("-cluster has no entry for -node-id %d", c.NodeID)
		}
		if c.Advertise == "" {
			c.Advertise = c.Members[i].Addr
		}
	}
	c.CheckpointEvery = time.Duration(checkpointMs) * time.Millisecond
	if c.Follow != "" {
		if c.DataDir == "" {
			return refuse("-follow requires -data-dir (the shipped log must persist)")
		}
		// A follower's log must stay a byte-identical prefix of the
		// primary's: anything that appends locally is disabled until
		// promotion.
		if c.CheckpointEvery > 0 || c.DRP {
			fmt.Println("plpd: follower mode disables -checkpoint-ms and -drp (restart after promotion to re-enable)")
			c.CheckpointEvery = 0
			c.DRP = false
		}
	}
	if shardMap != "" {
		if c.ShardMap, err = shard.ParseFile(shardMap); err != nil {
			return refuse("shard map %s: %v", shardMap, err)
		}
		if _, ok := c.ShardMap.ByID(c.ShardID); !ok {
			return refuse("shard map %s has no shard %d (set -shard-id)", shardMap, c.ShardID)
		}
	}
	var ok bool
	if c.Design, ok = designs[strings.ToLower(design)]; !ok {
		return refuse("unknown design %q (want conventional, logical, plp-regular, plp-partition or plp-leaf)", design)
	}
	return c, nil
}

// parseMembers parses the -cluster spec: comma-separated id@addr entries.
func parseMembers(spec string) ([]cluster.Member, error) {
	var out []cluster.Member
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part == "" {
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

// Node is one running plpd process.
type Node struct {
	cfg      Config
	e        *engine.Engine
	srv      *server.Server
	addr     string
	cn       *cluster.Node
	stops    []func()   // what Close undoes, in start order
	roleMu   sync.Mutex // serializes Promote and Demote
	primary  atomic.Pointer[repl.Primary]
	follower atomic.Pointer[repl.Follower]
}

func logf(format string, args ...any) { fmt.Printf("plpd: "+format+"\n", args...) }

// Start builds the node and serves on its listener until Close; on error
// it stops what it started.
func Start(cfg Config) (*Node, error) {
	n := &Node{cfg: cfg}
	if err := n.start(); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

func (n *Node) start() (err error) {
	cfg := n.cfg
	n.e, err = engine.Open(engine.Options{
		Design:     cfg.Design,
		Partitions: cfg.Partitions,
		SLI:        cfg.Design == engine.Conventional,
		DataDir:    cfg.DataDir,
		LazyCommit: cfg.LazyCommit,
	})
	if err != nil {
		return fmt.Errorf("open engine: %w", err)
	}
	n.stops = append(n.stops, func() { _ = n.e.Close() })
	var bounds [][]byte // split [1, keyspace] into equal ranges
	for i := 1; i < cfg.Partitions; i++ {
		bounds = append(bounds, keyenc.Uint64Key(cfg.Keyspace*uint64(i)/uint64(cfg.Partitions)+1))
	}
	for _, name := range strings.Split(cfg.Tables, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if _, err := n.e.CreateTable(catalog.TableDef{Name: name, Boundaries: bounds}); err != nil {
			return fmt.Errorf("create table %s: %w", name, err)
		}
	}
	// Recovery runs after the schema exists and before any connection is
	// accepted: a restarted durable daemon replays the checkpoint snapshot,
	// the restored partition boundaries and the committed log tail, so the
	// first client sees exactly the acknowledged pre-crash state.  Without
	// a data dir the shard incarnation stays 0, and the server derives one
	// from the clock.
	var shardSt shard.State
	if dir := cfg.DataDir; dir != "" {
		// A sharded durable daemon must not replay a data directory written
		// under a different shard assignment: silently serving another
		// shard's keys (or a stale range) would corrupt routing invariants.
		// The shard.state file records what the directory holds; refuse to
		// start on any disagreement.
		if cfg.ShardMap != nil {
			if shardSt, err = shard.CheckState(dir, cfg.ShardMap, cfg.ShardID); err != nil {
				return fmt.Errorf("refusing to start: %w", err)
			}
		}
		info, err := n.e.Recover()
		if err != nil {
			return fmt.Errorf("recover %s: %w", dir, err)
		}
		logf("recovered %s: %d snapshot entries, %d ops replayed, %d winners, %d losers, %d boundary moves",
			dir, info.Replay.SnapshotEntries, info.Replay.Applied, info.Winners, info.Losers, info.BoundariesRestored)
		if info.InDoubt > 0 {
			logf("%d cross-shard branches in doubt; resolving from their coordinators", info.InDoubt)
		}
		if cfg.ShardMap != nil {
			// Persist the bumped incarnation BEFORE any gid is minted with
			// it: a crash after coordinating would otherwise let the next
			// start reuse this incarnation's gids.
			if err := shard.WriteState(dir, shardSt); err != nil {
				return fmt.Errorf("writing shard state: %w", err)
			}
		}
	}
	if cfg.CheckpointEvery > 0 {
		cp := recovery.NewCheckpointer(n.e, cfg.CheckpointEvery)
		cp.SetTruncate(cfg.CheckpointTruncate)
		cp.Start()
		n.stops = append(n.stops, cp.Stop)
	}
	n.srv = server.New(n.e)
	n.srv.SetAuthToken(cfg.Token)
	n.srv.SetReadOnlyToken(cfg.ROToken)
	n.srv.TLSConfig = cfg.ServerTLS
	n.srv.PeerTLSConfig = cfg.DialTLS
	n.srv.PeerCallTimeout = cfg.PeerTimeout
	n.srv.JanitorPeriod = cfg.JanitorEvery
	if cfg.Lease > 0 {
		// An idle primary must beat well inside its followers' lease.
		n.srv.ReplHeartbeat = min(server.DefaultReplHeartbeat, cfg.Lease/4)
	}
	n.srv.SetCheckpointHandler(n.checkpoint)
	if cfg.DataDir != "" {
		if err := n.startRole(); err != nil {
			return err
		}
	}
	if cfg.ShardMap != nil {
		if err := n.srv.SetShardConfig(cfg.ShardMap, cfg.ShardID, cfg.Token, shardSt.Incarnation); err != nil {
			return fmt.Errorf("shard config: %w", err)
		}
	}
	if len(cfg.Members) > 0 {
		if err := n.startCluster(); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	if cfg.DRP {
		ctrl, err := repartition.Attach(n.e, repartition.Config{Period: cfg.DRPPeriod})
		if err != nil {
			return fmt.Errorf("repartitioning controller: %w", err)
		}
		ctrl.Start()
		n.stops = append(n.stops, ctrl.Stop, ctrl.Detach)
		n.srv.SetControlHandler(ctrl)
	}
	if n.addr, err = n.srv.Listen(cfg.Addr); err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := n.srv.Serve(); !errors.Is(err, server.ErrClosed) {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		}
	}()
	n.stops = append(n.stops, func() { <-served })
	return nil
}

// startRole starts a durable node's replication role.  Every durable
// daemon is a primary lineage — it accepts follower subscriptions whether or
// not one ever connects — unless -follow makes it a read-only follower of
// another primary.  The role is dynamic: Promote (from `plpctl promote` or
// the failover monitor) turns a follower into the primary, and Demote turns
// a fenced ex-primary back into a follower, re-seeding over the stream if
// its log diverged.
func (n *Node) startRole() error {
	if n.cfg.Follow == "" {
		epoch, ok, err := repl.ReadEpoch(n.cfg.DataDir)
		if err != nil {
			return fmt.Errorf("reading replication epoch: %w", err)
		}
		if !ok {
			epoch = 1
			if err := repl.WriteEpoch(n.cfg.DataDir, epoch); err != nil {
				return fmt.Errorf("writing replication epoch: %w", err)
			}
		}
		n.installPrimary(epoch)
	} else if err := n.follow(n.cfg.Follow); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	n.stops = append(n.stops, func() {
		n.roleMu.Lock()
		defer n.roleMu.Unlock()
		if f := n.follower.Swap(nil); f != nil {
			f.Stop()
		}
		if p := n.primary.Swap(nil); p != nil {
			p.Close()
		}
	})
	n.srv.SetPromoteHandler(n.Promote)
	n.srv.SetSeedingFunc(func() bool {
		f := n.follower.Load()
		return f != nil && f.Seeding()
	})
	n.srv.SetReplStatusHandler(func() (string, error) {
		buf, err := json.MarshalIndent(n.ReplStatus(), "", "  ")
		return string(buf) + "\n", err
	})
	return nil
}

// installPrimary makes the node the primary at epoch.
func (n *Node) installPrimary(epoch uint64) {
	p := repl.NewPrimary(n.e.DurableLog(), epoch)
	if n.cfg.AckTimeout > 0 {
		p.SetAckTimeout(n.cfg.AckTimeout)
	}
	n.primary.Store(p)
	n.srv.SetReplPrimary(p)
	if n.cfg.AckMode == "replica" {
		p.SetAckQuorum(n.cfg.AckQuorum)
		n.e.SetCommitAckWaiter(p.OnReplicated)
	}
}

// follow makes the node a follower of primaryAddr.  A follower's Stop is
// terminal, so every stint as a follower gets a fresh instance; construction
// re-analyzes the local log, which is exactly what a demoted ex-primary needs
// before subscribing.
func (n *Node) follow(primaryAddr string) error {
	f, err := repl.NewFollower(repl.FollowerOptions{
		Primary:   primaryAddr,
		Token:     n.cfg.Token,
		Dir:       n.cfg.DataDir,
		Log:       n.e.DurableLog(),
		Apply:     n.e.ApplyReplicated,
		Reseed:    n.e.ResetForSeed,
		TLSConfig: n.cfg.DialTLS,
		Logf:      logf,
	})
	if err != nil {
		return err
	}
	n.follower.Store(f)
	n.srv.SetFollowerMode(true)
	f.Start()
	return nil
}

// Promote turns a follower into the primary of a new replication epoch.
func (n *Node) Promote() (string, error) {
	n.roleMu.Lock()
	defer n.roleMu.Unlock()
	f := n.follower.Load()
	if f == nil {
		return "", errors.New("promote: not a follower")
	}
	epoch, err := f.Promote()
	if err != nil {
		return "", err
	}
	n.follower.Store(nil)
	// Fence the old lineage at the shard layer too: a stale primary
	// restarting on its own data dir keeps its old incarnation, and peers
	// refuse its gids.
	if st, ok, rerr := shard.ReadState(n.cfg.DataDir); rerr == nil && ok {
		st.Incarnation++
		if err := shard.WriteState(n.cfg.DataDir, st); err != nil {
			return "", fmt.Errorf("promote: bumping shard incarnation: %w", err)
		}
	}
	n.installPrimary(epoch)
	n.srv.SetFollowerMode(false)
	// Re-home the shard onto this process so routers (and writers bounced
	// by the demoted ex-primary) follow the promotion.
	if m := n.srv.ShardMap(); m != nil && n.cfg.Advertise != "" {
		nm := m.Clone()
		if nm.Promote(n.cfg.ShardID, n.cfg.Advertise) == nil {
			if err := n.srv.UpdateShardMap(nm); err != nil {
				logf("promote: shard map update: %v", err)
			}
		}
	}
	logf("promoted to primary at replication epoch %d", epoch)
	return fmt.Sprintf("promoted: replication epoch %d, accepting writes\n", epoch), nil
}

// Demote turns a fenced primary into a follower of primaryAddr.
func (n *Node) Demote(primaryAddr string) error {
	n.roleMu.Lock()
	defer n.roleMu.Unlock()
	if n.follower.Load() != nil {
		return nil // already a follower
	}
	// Stop accepting writes first: anything committed after the fence would
	// be lost when the follower re-seeds.  Then no commit may wait on the
	// old quorum gate, and closing the Primary fails those still on it.
	n.srv.SetFollowerMode(true)
	n.e.SetCommitAckWaiter(nil)
	n.srv.SetReplPrimary(nil)
	if p := n.primary.Swap(nil); p != nil {
		p.Close()
	}
	if err := n.follow(primaryAddr); err != nil {
		return fmt.Errorf("demote: %w", err)
	}
	logf("demoted to follower of %s", primaryAddr)
	return nil
}

// startCluster runs lease-based auto-failover: the monitor watches the
// primary through the replication stream's implicit lease and drives the
// same Promote and Demote an operator would.
func (n *Node) startCluster() (err error) {
	n.cn, err = cluster.New(cluster.Config{
		Self:         n.cfg.NodeID,
		Members:      n.cfg.Members,
		Token:        n.cfg.Token,
		TLS:          n.cfg.DialTLS,
		LeaseTimeout: n.cfg.Lease,
		Logf:         logf,
		IsPrimary:    func() bool { return !n.srv.FollowerMode() },
		Epoch: func() uint64 {
			if f := n.follower.Load(); f != nil {
				return f.Epoch()
			}
			if p := n.primary.Load(); p != nil {
				return p.Epoch()
			}
			return 0
		},
		DurableLSN: func() uint64 { return uint64(n.e.DurableLog().DurableLSN()) },
		SinceContact: func() time.Duration {
			if f := n.follower.Load(); f != nil {
				return f.SinceContact()
			}
			return 0
		},
		Promote: func() error {
			_, err := n.Promote()
			return err
		},
		Repoint: func(addr string) {
			if f := n.follower.Load(); f != nil {
				f.SetPrimary(addr)
			}
		},
		Demote: n.Demote,
	})
	if err == nil {
		n.cn.Start()
		n.stops = append(n.stops, n.cn.Stop)
	}
	return err
}

// checkpoint serves the "checkpoint" verb.  Checkpoints need a
// transactionally quiet instant; on a busy server ActiveTxns is almost always
// briefly non-zero, so it retries for up to 3s in the gaps between pipelined
// requests instead of failing on the first in-flight transaction.
func (n *Node) checkpoint() (string, error) {
	deadline := time.Now().Add(3 * time.Second)
	st, err := n.e.Checkpoint()
	for errors.Is(err, recovery.ErrActiveTxns) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		st, err = n.e.Checkpoint()
	}
	if err != nil {
		return "", err
	}
	dropped := 0
	if n.cfg.CheckpointTruncate {
		dropped = n.e.Log().Truncate(st.BeginLSN)
	}
	return fmt.Sprintf("checkpoint: %d tables, %d entries, %d chunks, LSN %d..%d, %v quiesced, %d log records reclaimed\n",
		st.Tables, st.Entries, st.Chunks, st.BeginLSN, st.EndLSN, st.Duration.Round(time.Microsecond), dropped), nil
}

// ReplStatus is the "repl status" snapshot.
type ReplStatus struct {
	Role           string
	AckMode        string
	AckQuorum      int                      `json:",omitempty"`
	Primary        *repl.PrimaryStatus      `json:",omitempty"`
	Follower       *repl.FollowerNodeStatus `json:",omitempty"`
	Cluster        *cluster.NodeStatus      `json:",omitempty"`
	LocalAckWait   *txn.AckWaitHist         `json:",omitempty"`
	ReplicaAckWait *txn.AckWaitHist         `json:",omitempty"`
}

// ReplStatus snapshots the node's replication role.
func (n *Node) ReplStatus() ReplStatus {
	st := ReplStatus{Role: "primary", AckMode: n.cfg.AckMode}
	if f := n.follower.Load(); n.srv.FollowerMode() && f != nil {
		fs := f.Status()
		st.Role = "follower"
		st.Follower = &fs
	} else if p := n.primary.Load(); p != nil {
		ps := p.Status()
		st.Primary = &ps
		st.AckQuorum = p.AckQuorum()
	}
	local, replica := n.e.AckWaitHistograms()
	if local.Count > 0 {
		st.LocalAckWait = &local
	}
	if replica.Count > 0 {
		st.ReplicaAckWait = &replica
	}
	if n.cn != nil {
		cs := n.cn.Status()
		st.Cluster = &cs
	}
	return st
}

// Addr, Engine and Server return the node's listen address and parts.
func (n *Node) Addr() string           { return n.addr }
func (n *Node) Engine() *engine.Engine { return n.e }
func (n *Node) Server() *server.Server { return n.srv }

// Close stops the server, then the other parts in reverse start order.
func (n *Node) Close() {
	if n.srv != nil {
		_ = n.srv.Close()
	}
	for i := len(n.stops) - 1; i >= 0; i-- {
		n.stops[i]()
	}
	n.stops = nil
}

// String is plpd's start-up banner.
func (n *Node) String() string {
	cfg := n.cfg
	durability := "in-memory (no durability)"
	if cfg.DataDir != "" {
		durability = "durable in " + cfg.DataDir
		if cfg.LazyCommit {
			durability += " (lazy commit)"
		}
		if cfg.Follow != "" {
			durability += ", following " + cfg.Follow
		} else if cfg.AckMode == "replica" {
			durability += fmt.Sprintf(", replica-acked commits (quorum %d)", cfg.AckQuorum)
		}
		if len(cfg.Members) > 0 {
			durability += fmt.Sprintf(", failover cluster of %d (member %d)", len(cfg.Members), cfg.NodeID)
		}
	}
	if cfg.ServerTLS != nil {
		durability += ", TLS"
	}
	if cfg.ShardMap != nil {
		durability += fmt.Sprintf(", shard %d of map version %d", cfg.ShardID, cfg.ShardMap.Version)
	}
	return fmt.Sprintf("%s engine with %d partitions serving %q on %s, %s", cfg.Design, cfg.Partitions, cfg.Tables, n.addr, durability)
}
