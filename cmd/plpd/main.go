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
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"plp/internal/node"
)

func main() {
	cfg, err := node.ParseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	n, err := node.Start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if cfg.Pprof != "" {
		// expvar is process-global, so it is published here, not by the node.
		expvar.Publish("plp_worker_queues", expvar.Func(func() any { return n.Engine().WorkerQueueDepths() }))
		expvar.Publish("plp_server_stats", expvar.Func(func() any { return n.Server().Stats() }))
		if cfg.DataDir != "" {
			expvar.Publish("plp_repl", expvar.Func(func() any { return n.ReplStatus() }))
		}
		go func() {
			if err := http.ListenAndServe(cfg.Pprof, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("plpd: pprof/expvar diagnostics on http://%s/debug/pprof/\n", cfg.Pprof)
	}
	fmt.Printf("plpd: %s\n", n)
	// Periodic stats reporting until SIGINT or SIGTERM.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if cfg.Stats > 0 {
		tick = time.Tick(cfg.Stats)
	}
	for {
		select {
		case <-stop:
			fmt.Println("plpd: shutting down")
			n.Close()
			return
		case <-tick:
			st := n.Server().Stats()
			fmt.Printf("plpd: conns=%d txns=%d committed=%d aborted=%d\n",
				st.Connections, st.Requests, st.Committed, st.Aborted)
		}
	}
}
