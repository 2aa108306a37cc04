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

// TestStatementSemantics pins what every client.Txn statement returns, per
// statement and for the transaction, under a locking and a latch-free
// design.  Each case runs on a fresh server seeded with keys 1 ("one") and
// 2 ("two") and the secondary entry alice → 1.
func TestStatementSemantics(t *testing.T) {
	acct := client.Uint64Key
	found := func(v string) *stmtWant { return &stmtWant{found: true, value: v} }
	missing := &stmtWant{}
	failed := func(msg string) *stmtWant { return &stmtWant{err: msg} }
	cases := []struct {
		name      string
		txn       *client.Txn
		committed bool
		want      []*stmtWant
		// after maps keys to their value once the request finished ("" means
		// the key must be absent).
		after map[uint64]string
	}{
		{name: "get hit", txn: client.NewTxn().Get("accounts", acct(1)),
			committed: true, want: []*stmtWant{found("one")}},
		{name: "get miss", txn: client.NewTxn().Get("accounts", acct(9)),
			committed: true, want: []*stmtWant{missing}},
		{name: "insert", txn: client.NewTxn().Insert("accounts", acct(3), []byte("three")),
			committed: true, want: []*stmtWant{found("")}, after: map[uint64]string{3: "three"}},
		{name: "insert duplicate aborts", txn: client.NewTxn().Insert("accounts", acct(1), []byte("x")),
			want: []*stmtWant{failed("duplicate key")}, after: map[uint64]string{1: "one"}},
		{name: "update", txn: client.NewTxn().Update("accounts", acct(1), []byte("uno")),
			committed: true, want: []*stmtWant{found("")}, after: map[uint64]string{1: "uno"}},
		{name: "update missing aborts", txn: client.NewTxn().Update("accounts", acct(9), []byte("x")),
			want: []*stmtWant{failed("key not found")}, after: map[uint64]string{9: ""}},
		{name: "upsert", txn: client.NewTxn().Upsert("accounts", acct(2), []byte("deux")).Upsert("accounts", acct(4), []byte("four")),
			committed: true, want: []*stmtWant{found(""), found("")}, after: map[uint64]string{2: "deux", 4: "four"}},
		{name: "delete", txn: client.NewTxn().Delete("accounts", acct(1)),
			committed: true, want: []*stmtWant{found("")}, after: map[uint64]string{1: ""}},
		{name: "delete missing aborts", txn: client.NewTxn().Upsert("accounts", acct(5), []byte("x")).Delete("accounts", acct(9)),
			want: []*stmtWant{nil, failed("key not found")}, after: map[uint64]string{5: ""}},
		{name: "insert secondary", txn: client.NewTxn().InsertSecondary("accounts", "by_name", []byte("bob"), acct(2)).GetBySecondary("accounts", "by_name", []byte("bob")),
			committed: true, want: []*stmtWant{found(""), found("two")}},
		{name: "delete secondary", txn: client.NewTxn().DeleteSecondary("accounts", "by_name", []byte("alice")).GetBySecondary("accounts", "by_name", []byte("alice")),
			committed: true, want: []*stmtWant{found(""), missing}},
		{name: "delete missing secondary commits", txn: client.NewTxn().DeleteSecondary("accounts", "by_name", []byte("nobody")),
			committed: true, want: []*stmtWant{found("")}},
		{name: "get by secondary hit", txn: client.NewTxn().Get("accounts", acct(9)).GetBySecondary("accounts", "by_name", []byte("alice")).Get("accounts", acct(2)),
			committed: true, want: []*stmtWant{missing, found("one"), found("two")}},
		{name: "get by secondary miss", txn: client.NewTxn().Upsert("accounts", acct(6), []byte("six")).GetBySecondary("accounts", "by_name", []byte("nobody")).Get("accounts", acct(1)),
			committed: true, want: []*stmtWant{found(""), missing, found("one")}, after: map[uint64]string{6: "six"}},
		{name: "write then read same key", txn: client.NewTxn().Upsert("accounts", acct(8), []byte("eight")).Get("accounts", acct(8)).Update("accounts", acct(8), []byte("ocho")).Get("accounts", acct(8)),
			committed: true, want: []*stmtWant{found(""), found("eight"), found(""), found("ocho")}, after: map[uint64]string{8: "ocho"}},
		{name: "scan", txn: client.NewTxn().Scan("accounts", acct(0), nil, 0),
			committed: true, want: []*stmtWant{{found: true}}},
		{name: "scan empty range", txn: client.NewTxn().Scan("accounts", acct(100), nil, 0),
			committed: true, want: []*stmtWant{missing}},
	}
	for _, design := range []engine.Design{engine.Conventional, engine.PLPLeaf} {
		t.Run(design.String(), func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					_, _, addr := startServer(t, design)
					c := dial(t, addr)
					if _, err := c.Do(client.NewTxn().
						Insert("accounts", acct(1), []byte("one")).
						Insert("accounts", acct(2), []byte("two")).
						InsertSecondary("accounts", "by_name", []byte("alice"), acct(1))); err != nil {
						t.Fatal(err)
					}
					resp, err := c.Do(tc.txn)
					if resp == nil {
						t.Fatalf("no response: %v", err)
					}
					if resp.Committed != tc.committed || (resp.Err == "") != tc.committed || (err == nil) != tc.committed {
						t.Fatalf("committed=%v err=%q (%v), want committed=%v", resp.Committed, resp.Err, err, tc.committed)
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
						got, err := c.Get("accounts", acct(key))
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

// TestStatementScanLimits pins a one-shot scan's limit handling: 0 selects
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
