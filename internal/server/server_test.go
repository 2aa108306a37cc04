package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"plp/client"
	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/wire"
)

// startServer builds an engine plus server and returns a ready client and a
// cleanup function.
func startServer(t *testing.T, design engine.Design) (*engine.Engine, *Server, string) {
	t.Helper()
	e := engine.New(engine.Options{Design: design, Partitions: 4, SLI: design == engine.Conventional})
	boundaries := [][]byte{keyenc.Uint64Key(2500), keyenc.Uint64Key(5000), keyenc.Uint64Key(7500)}
	if _, err := e.CreateTable(catalog.TableDef{
		Name:        "accounts",
		Boundaries:  boundaries,
		Secondaries: []catalog.SecondaryDef{{Name: "by_name", PartitionAligned: false}},
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() {
		_ = srv.Close()
		_ = e.Close()
	})
	return e, srv, addr
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// dialRaw opens a raw connection and completes the handshake.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := wire.WriteFrame(conn, wire.EncodeHello(&wire.Hello{MaxVersion: wire.Version})); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := wire.DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Err != "" || ack.Version != wire.Version {
		t.Fatalf("handshake: %+v", ack)
	}
	return conn
}

func TestPing(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	if err := c.Ping([]byte("are you there")); err != nil {
		t.Fatal(err)
	}
}

func TestBasicCRUD(t *testing.T) {
	for _, design := range []engine.Design{engine.Conventional, engine.Logical, engine.PLPLeaf} {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			_, _, addr := startServer(t, design)
			c := dial(t, addr)

			key := client.Uint64Key(42)
			if err := c.Insert("accounts", key, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			val, err := c.Get("accounts", key)
			if err != nil {
				t.Fatal(err)
			}
			if string(val) != "hello" {
				t.Fatalf("got %q, want %q", val, "hello")
			}
			if err := c.Update("accounts", key, []byte("world")); err != nil {
				t.Fatal(err)
			}
			val, err = c.Get("accounts", key)
			if err != nil || string(val) != "world" {
				t.Fatalf("after update: %q, %v", val, err)
			}
			if err := c.Delete("accounts", key); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get("accounts", key); !errors.Is(err, client.ErrNotFound) {
				t.Fatalf("expected ErrNotFound after delete, got %v", err)
			}
			// Upsert on a missing key inserts, on an existing key updates.
			if err := c.Upsert("accounts", key, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := c.Upsert("accounts", key, []byte("v2")); err != nil {
				t.Fatal(err)
			}
			val, _ = c.Get("accounts", key)
			if string(val) != "v2" {
				t.Fatalf("after upserts: %q", val)
			}
		})
	}
}

func TestDuplicateInsertAborts(t *testing.T) {
	_, srv, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	key := client.Uint64Key(7)
	if err := c.Insert("accounts", key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	err := c.Insert("accounts", key, []byte("y"))
	if !errors.Is(err, client.ErrAborted) {
		t.Fatalf("duplicate insert: %v, want ErrAborted", err)
	}
	// The original value must be untouched.
	val, err := c.Get("accounts", key)
	if err != nil || string(val) != "x" {
		t.Fatalf("after failed duplicate insert: %q, %v", val, err)
	}
	st := srv.Stats()
	if st.Aborted == 0 {
		t.Fatal("server did not count the aborted transaction")
	}
}

func TestMultiStatementTransaction(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)

	txn := client.NewTxn()
	for i := uint64(1); i <= 50; i++ {
		txn.Upsert("accounts", client.Uint64Key(i*100), []byte(fmt.Sprintf("acct-%d", i)))
	}
	if txn.Len() != 50 {
		t.Fatalf("txn length %d", txn.Len())
	}
	resp, err := c.Do(txn)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Committed || len(resp.Results) != 50 {
		t.Fatalf("committed=%v results=%d", resp.Committed, len(resp.Results))
	}
	// Read-your-writes within a later statement of the same connection.
	readTxn := client.NewTxn().
		Get("accounts", client.Uint64Key(100)).
		Get("accounts", client.Uint64Key(5000)).
		Get("accounts", client.Uint64Key(999999))
	resp, err = c.Do(readTxn)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Results[0].Found || string(resp.Results[0].Value) != "acct-1" {
		t.Fatalf("result 0: %+v", resp.Results[0])
	}
	if !resp.Results[1].Found || string(resp.Results[1].Value) != "acct-50" {
		t.Fatalf("result 1: %+v", resp.Results[1])
	}
	if resp.Results[2].Found {
		t.Fatal("missing key reported found")
	}
}

func TestTransactionAtomicity(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	// First statement succeeds, second fails (update of a missing key):
	// neither effect must be visible.
	txn := client.NewTxn().
		Insert("accounts", client.Uint64Key(800), []byte("will-roll-back")).
		Update("accounts", client.Uint64Key(801), []byte("missing"))
	if _, err := c.Do(txn); !errors.Is(err, client.ErrAborted) {
		t.Fatalf("expected abort, got %v", err)
	}
	if _, err := c.Get("accounts", client.Uint64Key(800)); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("aborted insert visible: %v", err)
	}
}

func TestSameKeyOrderingWithinTransaction(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	key := client.Uint64Key(4242)
	// Statements on the same key must observe each other in order even
	// though unrelated statements run in parallel phases.
	txn := client.NewTxn().
		Insert("accounts", key, []byte("v1")).
		Update("accounts", key, []byte("v2")).
		Get("accounts", key).
		Delete("accounts", key).
		Get("accounts", key)
	resp, err := c.Do(txn)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Results[2].Found || string(resp.Results[2].Value) != "v2" {
		t.Fatalf("mid-transaction read: %+v", resp.Results[2])
	}
	if resp.Results[4].Found {
		t.Fatal("read after delete still found the key")
	}
}

func TestSecondaryIndexOverWire(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)

	key := client.Uint64Key(77)
	secKey := []byte("alice")
	txn := client.NewTxn().
		Insert("accounts", key, []byte("alice-record")).
		InsertSecondary("accounts", "by_name", secKey, key)
	if _, err := c.Do(txn); err != nil {
		t.Fatal(err)
	}
	val, err := c.GetBySecondary("accounts", "by_name", secKey)
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "alice-record" {
		t.Fatalf("secondary read %q", val)
	}
	if _, err := c.GetBySecondary("accounts", "by_name", []byte("bob")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("missing secondary key: %v", err)
	}
}

func TestUnknownTableAborts(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	err := c.Insert("nope", client.Uint64Key(1), []byte("x"))
	if !errors.Is(err, client.ErrAborted) {
		t.Fatalf("unknown table: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	e, srv, addr := startServer(t, engine.PLPLeaf)
	const clients = 8
	const perClient = 200

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs[g] = err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				key := client.Uint64Key(uint64(g*perClient + i + 1))
				if err := c.Insert("accounts", key, []byte(fmt.Sprintf("c%d-%d", g, i))); err != nil {
					errs[g] = err
					return
				}
				if _, err := c.Get("accounts", key); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
	}
	st := srv.Stats()
	if st.Connections < clients {
		t.Fatalf("connections %d, want >= %d", st.Connections, clients)
	}
	if st.Committed < clients*perClient*2 {
		t.Fatalf("committed %d, want >= %d", st.Committed, clients*perClient*2)
	}
	// All inserts are present in the engine.
	l := e.NewLoader()
	count := 0
	if err := l.ReadRange("accounts", nil, nil, func(_, _ []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != clients*perClient {
		t.Fatalf("engine holds %d records, want %d", count, clients*perClient)
	}
}

func TestMalformedFrameDropsConnection(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A header announcing a frame larger than the maximum must make the
	// server drop the connection rather than allocate.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept talking after a corrupt frame header")
	}

	// A syntactically valid frame with a garbage payload gets an error
	// response (the decode failure is reported, not fatal).
	conn2 := dialRaw(t, addr)
	if err := wire.WriteFrame(conn2, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn2)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Committed || resp.Err == "" {
		t.Fatalf("expected a decode error response, got %+v", resp)
	}
}

func TestEmptyTransaction(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	resp, err := c.Do(client.NewTxn())
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Committed || len(resp.Results) != 0 {
		t.Fatalf("empty transaction: %+v", resp)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	_, srv, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	if err := c.Ping(nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(nil); err == nil {
		t.Fatal("ping succeeded after server close")
	}
	// Closing twice is fine.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClientClose(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("accounts", client.Uint64Key(1)); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestLargeValuesOverWire(t *testing.T) {
	_, _, addr := startServer(t, engine.PLPLeaf)
	c := dial(t, addr)
	// Values close to (but under) the page record limit survive the round
	// trip intact.
	val := bytes.Repeat([]byte{0xC3}, 4000)
	key := client.Uint64Key(123456)
	if err := c.Insert("accounts", key, val); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("accounts", key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("large value corrupted: %d bytes, want %d", len(got), len(val))
	}
}
