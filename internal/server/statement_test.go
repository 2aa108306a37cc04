package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"plp/client"
	"plp/internal/engine"
	"plp/wire"
)

// stmtWant pins one statement's result: Found, Value and (as a substring;
// "" means no error) Err.  A nil *stmtWant leaves the slot unchecked.
type stmtWant struct {
	found bool
	value string
	err   string
}

// TestStatementSemantics pins what every flat statement op returns, per
// statement and for the transaction, under a locking and a latch-free
// design.  Each case runs on a fresh server seeded with keys 1 ("one") and
// 2 ("two") and the secondary entry alice → 1.
func TestStatementSemantics(t *testing.T) {
	acct := func(op wire.OpType, key uint64, val string) wire.Statement {
		return wire.Statement{Op: op, Table: "accounts", Key: client.Uint64Key(key), Value: []byte(val)}
	}
	byName := func(op wire.OpType, name string, pk uint64) wire.Statement {
		st := wire.Statement{Op: op, Table: "accounts", Index: "by_name", Key: []byte(name)}
		if op == wire.OpInsertSecondary {
			st.Value = client.Uint64Key(pk)
		}
		return st
	}
	ping := func(v string) wire.Statement { return wire.Statement{Op: wire.OpPing, Value: []byte(v)} }
	scan := func(lo uint64) wire.Statement {
		return wire.Statement{Op: wire.OpScan, Table: "accounts", Key: client.Uint64Key(lo)}
	}
	found := func(v string) *stmtWant { return &stmtWant{found: true, value: v} }
	missing := &stmtWant{}
	failed := func(msg string) *stmtWant { return &stmtWant{err: msg} }
	cases := []struct {
		name      string
		stmts     []wire.Statement
		committed bool
		want      []*stmtWant
		// after maps keys to their value once the request finished ("" means
		// the key must be absent).
		after map[uint64]string
	}{
		{name: "get hit", stmts: []wire.Statement{acct(wire.OpGet, 1, "")},
			committed: true, want: []*stmtWant{found("one")}},
		{name: "get miss", stmts: []wire.Statement{acct(wire.OpGet, 9, "")},
			committed: true, want: []*stmtWant{missing}},
		{name: "insert", stmts: []wire.Statement{acct(wire.OpInsert, 3, "three")},
			committed: true, want: []*stmtWant{found("")}, after: map[uint64]string{3: "three"}},
		{name: "insert duplicate aborts", stmts: []wire.Statement{acct(wire.OpInsert, 1, "x")},
			want: []*stmtWant{failed("duplicate key")}, after: map[uint64]string{1: "one"}},
		{name: "update", stmts: []wire.Statement{acct(wire.OpUpdate, 1, "uno")},
			committed: true, want: []*stmtWant{found("")}, after: map[uint64]string{1: "uno"}},
		{name: "update missing aborts", stmts: []wire.Statement{acct(wire.OpUpdate, 9, "x")},
			want: []*stmtWant{failed("key not found")}, after: map[uint64]string{9: ""}},
		{name: "upsert", stmts: []wire.Statement{acct(wire.OpUpsert, 2, "deux"), acct(wire.OpUpsert, 4, "four")},
			committed: true, want: []*stmtWant{found(""), found("")}, after: map[uint64]string{2: "deux", 4: "four"}},
		{name: "delete", stmts: []wire.Statement{acct(wire.OpDelete, 1, "")},
			committed: true, want: []*stmtWant{found("")}, after: map[uint64]string{1: ""}},
		{name: "delete missing aborts", stmts: []wire.Statement{acct(wire.OpUpsert, 5, "x"), acct(wire.OpDelete, 9, "")},
			want: []*stmtWant{nil, failed("key not found")}, after: map[uint64]string{5: ""}},
		{name: "insert secondary", stmts: []wire.Statement{byName(wire.OpInsertSecondary, "bob", 2), byName(wire.OpGetBySecondary, "bob", 0)},
			committed: true, want: []*stmtWant{found(""), found("two")}},
		{name: "delete secondary", stmts: []wire.Statement{byName(wire.OpDeleteSecondary, "alice", 0), byName(wire.OpGetBySecondary, "alice", 0)},
			committed: true, want: []*stmtWant{found(""), missing}},
		{name: "delete missing secondary commits", stmts: []wire.Statement{byName(wire.OpDeleteSecondary, "nobody", 0)},
			committed: true, want: []*stmtWant{found("")}},
		{name: "get by secondary hit", stmts: []wire.Statement{acct(wire.OpGet, 9, ""), byName(wire.OpGetBySecondary, "alice", 0), acct(wire.OpGet, 2, "")},
			committed: true, want: []*stmtWant{missing, found("one"), found("two")}},
		{name: "get by secondary miss", stmts: []wire.Statement{acct(wire.OpUpsert, 6, "six"), byName(wire.OpGetBySecondary, "nobody", 0), acct(wire.OpGet, 1, "")},
			committed: true, want: []*stmtWant{found(""), missing, found("one")}, after: map[uint64]string{6: "six"}},
		{name: "ping mixed with writes", stmts: []wire.Statement{ping("p"), acct(wire.OpUpsert, 7, "seven"), ping("q")},
			committed: true, want: []*stmtWant{found("p"), found(""), found("q")}, after: map[uint64]string{7: "seven"}},
		{name: "write then read same key", stmts: []wire.Statement{acct(wire.OpUpsert, 8, "eight"), acct(wire.OpGet, 8, ""), acct(wire.OpUpdate, 8, "ocho"), acct(wire.OpGet, 8, "")},
			committed: true, want: []*stmtWant{found(""), found("eight"), found(""), found("ocho")}, after: map[uint64]string{8: "ocho"}},
		{name: "scan", stmts: []wire.Statement{scan(0)},
			committed: true, want: []*stmtWant{{found: true}}},
		{name: "scan empty range", stmts: []wire.Statement{scan(100)},
			committed: true, want: []*stmtWant{missing}},
	}
	for _, design := range []engine.Design{engine.Conventional, engine.PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					_, _, addr := startServer(t, design)
					c := dial(t, addr)
					if _, err := c.Do(client.NewTxn().
						Insert("accounts", client.Uint64Key(1), []byte("one")).
						Insert("accounts", client.Uint64Key(2), []byte("two")).
						InsertSecondary("accounts", "by_name", []byte("alice"), client.Uint64Key(1))); err != nil {
						t.Fatal(err)
					}
					conn := dialRaw(t, addr)
					if err := wire.WriteFrame(conn, wire.EncodeRequest(&wire.Request{ID: 1, Statements: tc.stmts})); err != nil {
						t.Fatal(err)
					}
					payload, err := wire.ReadFrame(conn)
					if err != nil {
						t.Fatal(err)
					}
					resp, err := wire.DecodeResponse(payload)
					if err != nil {
						t.Fatal(err)
					}
					if resp.Committed != tc.committed || (resp.Err == "") != tc.committed {
						t.Fatalf("committed=%v err=%q, want committed=%v", resp.Committed, resp.Err, tc.committed)
					}
					if len(resp.Results) != len(tc.want) {
						t.Fatalf("%d results, want %d: %+v", len(resp.Results), len(tc.want), resp.Results)
					}
					for i, w := range tc.want {
						if w != nil {
							checkStmtResult(t, i, resp.Results[i], w)
						}
					}
					if tc.name == "scan" && len(resp.Results[0].Entries) != 2 {
						t.Fatalf("scan returned %d entries, want the 2 seeded keys", len(resp.Results[0].Entries))
					}
					for key, want := range tc.after {
						got, err := c.Get("accounts", client.Uint64Key(key))
						switch {
						case want == "" && !errors.Is(err, client.ErrNotFound):
							t.Fatalf("key %d afterwards: %q, %v; want absent", key, got, err)
						case want != "" && (err != nil || string(got) != want):
							t.Fatalf("key %d afterwards: %q, %v; want %q", key, got, err, want)
						}
					}
				})
			}
		})
	}
}

// checkStmtResult compares one statement result against its pin.
func checkStmtResult(t *testing.T, i int, got wire.StatementResult, w *stmtWant) {
	t.Helper()
	if w.err != "" {
		if !strings.Contains(got.Err, w.err) {
			t.Fatalf("result %d error %q, want %q", i, got.Err, w.err)
		}
		return
	}
	if got.Err != "" || got.Found != w.found || (w.value != "" && string(got.Value) != w.value) ||
		(w.value == "" && !w.found && got.Value != nil) {
		t.Fatalf("result %d = %+v, want found=%v value=%q", i, got, w.found, w.value)
	}
}

// TestStatementScanLimits pins the flat scan's limit handling: 0 selects
// the default of 1024 records, and a limit above 65536 is capped there.
func TestStatementScanLimits(t *testing.T) {
	for _, design := range []engine.Design{engine.Conventional, engine.PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			e, _, addr := startServer(t, design)
			l := e.NewLoader()
			const rows = 65536 + 100
			for i := uint64(0); i < rows; i++ {
				if err := l.Insert("accounts", client.Uint64Key(i), []byte(fmt.Sprint(i))); err != nil {
					t.Fatal(err)
				}
			}
			c := dial(t, addr)
			for _, tc := range []struct{ limit, want int }{
				{0, 1024},
				{10, 10},
				{100_000, 65536},
			} {
				entries, err := c.Scan("accounts", nil, nil, tc.limit)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != tc.want {
					t.Fatalf("scan limit %d returned %d entries, want %d", tc.limit, len(entries), tc.want)
				}
				for i, ent := range entries {
					if string(ent.Key) != string(client.Uint64Key(uint64(i))) || string(ent.Value) != fmt.Sprint(i) {
						t.Fatalf("limit %d: entry %d = %x/%q, want the %d-th smallest key", tc.limit, i, ent.Key, ent.Value, i)
					}
				}
			}
		})
	}
}
