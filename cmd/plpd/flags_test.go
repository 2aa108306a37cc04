package main

// Table test of plpd's command-line refusals: each case runs the real
// main (this test binary re-executed with plpdMainEnv set) and checks its
// message on stderr and its exit status.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plp/internal/node"
	"plp/shard"
)

// plpdMainEnv, when set, makes the test binary run main with its value as
// the argument list (one argument per line).
const plpdMainEnv = "PLPD_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(plpdMainEnv); ok {
		os.Args = append([]string{"plpd"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestFlagRefusals(t *testing.T) {
	dir := t.TempDir()
	mapFile := filepath.Join(dir, "shards.map")
	m := &shard.Map{Version: 1, Shards: []shard.Shard{{ID: 0, Addr: "127.0.0.1:1"}}}
	if err := os.WriteFile(mapFile, m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	const replicaMsg = "-ack-mode replica requires durable commits (-data-dir, without -lazy-commit)"
	const tlsMsg = "-tls-cert and -tls-key must be set together"
	for _, tc := range []struct {
		name   string
		args   []string
		msg    string
		status int
	}{
		{"bad ack mode", []string{"-ack-mode", "quorum"}, `unknown -ack-mode "quorum" (want local or replica)`, 2},
		{"replica without data dir", []string{"-ack-mode", "replica"}, replicaMsg, 2},
		{"replica with lazy commit", []string{"-ack-mode", "replica", "-data-dir", dir, "-lazy-commit"}, replicaMsg, 2},
		{"ack quorum below 1", []string{"-ack-quorum", "0"}, "-ack-quorum must be at least 1", 2},
		{"tls cert without key", []string{"-tls-cert", "c.pem"}, tlsMsg, 2},
		{"tls key without cert", []string{"-tls-key", "k.pem"}, tlsMsg, 2},
		{"cluster without data dir", []string{"-cluster", "1@127.0.0.1:1"}, "-cluster requires -data-dir (failover needs a durable log)", 2},
		{"no cluster entry for node id", []string{"-cluster", "1@127.0.0.1:1", "-data-dir", dir, "-node-id", "2"}, "-cluster has no entry for -node-id 2", 2},
		{"follow without data dir", []string{"-follow", "127.0.0.1:1"}, "-follow requires -data-dir (the shipped log must persist)", 2},
		{"unknown shard id", []string{"-shard-map", mapFile, "-shard-id", "7"}, fmt.Sprintf("shard map %s has no shard 7 (set -shard-id)", mapFile), 2},
		{"unknown design", []string{"-design", "btree"}, `unknown design "btree" (want conventional, logical, plp-regular, plp-partition or plp-leaf)`, 2},
		{"undefined flag", []string{"-no-such-flag"}, "flag provided but not defined: -no-such-flag", 2},
		{"help", []string{"-h"}, "Usage of plpd:", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0])
			args := append([]string{"-addr", "127.0.0.1:0", "-stats", "0"}, tc.args...)
			cmd.Env = append(os.Environ(), plpdMainEnv+"="+strings.Join(args, "\n"))
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			status := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				status = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if status != tc.status {
				t.Fatalf("exit status %d, want %d; stderr:\n%s", status, tc.status, stderr.String())
			}
			if first, _, _ := strings.Cut(stderr.String(), "\n"); first != tc.msg {
				t.Fatalf("stderr starts %q, want %q", first, tc.msg)
			}
		})
	}
}

// TestFollowDisablesCheckpointsAndDRP: a follower's log must stay a prefix
// of its primary's, so -follow turns off the two parts that append locally.
func TestFollowDisablesCheckpointsAndDRP(t *testing.T) {
	cfg, err := node.ParseFlags([]string{"-follow", "127.0.0.1:1", "-data-dir", t.TempDir(), "-checkpoint-ms", "100", "-drp"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CheckpointEvery != 0 || cfg.DRP {
		t.Fatalf("-follow kept -checkpoint-ms (%v) or -drp (%v)", cfg.CheckpointEvery, cfg.DRP)
	}
}
