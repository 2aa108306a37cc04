// Netserver: serve a PLP engine over TCP and talk to it with the Go client.
//
// The example exercises the wire-protocol surface end to end: the
// authenticated handshake (the server requires a token for control
// commands), synchronous CRUD, a multi-statement transaction through a
// secondary index, a pipelined burst of asynchronous transactions on a
// single connection, and a bounded range scan that the engine distributes
// over its partition workers.  The same thing can be done with the
// standalone daemon (cmd/plpd -token ...) and plpctl; this example keeps
// both ends in one process so it runs with a plain `go run`.
package main

import (
	"context"
	"fmt"
	"log"

	"plp"
	"plp/client"
)

const (
	table    = "accounts"
	keySpace = 1_000_000
	token    = "example-secret"
)

func main() {
	// Server side: a PLP-Leaf engine behind a TCP listener, with control
	// commands gated behind a token.
	eng := plp.New(plp.Options{Design: plp.PLPLeaf, Partitions: 4})
	defer eng.Close()
	if _, err := eng.CreateTable(plp.TableDef{
		Name:       table,
		Boundaries: plp.UniformBoundaries(keySpace, 4),
		Secondaries: []plp.SecondaryDef{
			{Name: "by_name", PartitionAligned: false},
		},
	}); err != nil {
		log.Fatal(err)
	}
	srv := plp.NewServer(eng)
	srv.SetAuthToken(token)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()
	fmt.Printf("serving on %s\n", addr)

	// Client side: the handshake authenticates the session.
	ctx := context.Background()
	c, err := client.DialContext(ctx, addr, &client.DialOptions{Token: token})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Printf("authenticated=%v\n", c.Authenticated())

	// Simple CRUD...
	if err := c.Ping([]byte("hello")); err != nil {
		log.Fatal(err)
	}
	if err := c.Insert(table, client.Uint64Key(1), []byte("balance=100")); err != nil {
		log.Fatal(err)
	}
	val, err := c.Get(table, client.Uint64Key(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("account 1 -> %s\n", val)

	// ...a multi-statement transaction with a secondary-index entry...
	txn := client.NewTxn().
		Insert(table, client.Uint64Key(2), []byte("balance=250")).
		InsertSecondary(table, "by_name", []byte("alice"), client.Uint64Key(2)).
		Update(table, client.Uint64Key(1), []byte("balance=50"))
	if _, err := c.Do(txn); err != nil {
		log.Fatal(err)
	}
	byName, err := c.GetBySecondary(table, "by_name", []byte("alice"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice -> %s\n", byName)

	// ...a pipelined burst: 2000 transactions kept 64-deep in flight on this
	// one connection, which the server submits to the partition workers as
	// it reads them and answers out of order as they complete.
	const burst = 2000
	window := make(chan *client.Future, 64)
	for i := 0; i < burst; i++ {
		for len(window) == cap(window) {
			if _, err := (<-window).Wait(ctx); err != nil {
				log.Fatal(err)
			}
		}
		key := client.Uint64Key(uint64(1000 + i*400))
		window <- c.DoAsync(ctx, client.NewTxn().Upsert(table, key, []byte("bulk")))
	}
	for len(window) > 0 {
		if _, err := (<-window).Wait(ctx); err != nil {
			log.Fatal(err)
		}
	}

	// ...and a bounded range scan, executed in parallel by the
	// partition-owning workers (Section 3.3) and stitched back into key
	// order.
	entries, err := c.Scan(table, client.Uint64Key(1000), client.Uint64Key(200_000), 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scan [1000, 200000) limit 10 -> %d records, first key %x\n", len(entries), entries[0].Key)

	st := srv.Stats()
	fmt.Printf("server processed %d transactions over %d connections (%d committed, %d aborted)\n",
		st.Requests, st.Connections, st.Committed, st.Aborted)
	fmt.Printf("page latches acquired by the engine: %d\n", eng.LatchStats().Snapshot().Total())
}
