// Flowgraph: declarative transaction flow graphs end to end.
//
// The example builds the paper's Section 3.1 "directed graph of actions" as
// data — a typed plan — and runs the identical value through both surfaces:
//
//  1. In-process, through every one of the five execution designs
//     (Session.ExecutePlan), showing the designs agree op for op.
//  2. Over the wire, where the whole multi-phase plan travels in one
//     plan frame and executes as one transaction in one round trip
//     (client.DoPlan), including a read-only-scoped session being refused
//     writes.
//
// The workload shapes are the classics the typed op set was sized for: the
// TATP UpdateLocation probe→update dependency, the TPC-B triple fetch-add,
// and a mixed scan+get read phase.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"plp"
	"plp/client"
	"plp/plan"
)

const (
	table    = "subscribers"
	index    = "sub_nbr"
	keySpace = 100_000
	roToken  = "read-only-secret"
)

// subscriberNbr is the secondary key of subscriber s.
func subscriberNbr(s uint64) []byte { return []byte(fmt.Sprintf("nbr-%08d", s)) }

// updateLocation is the TATP UpdateLocation flow graph: phase 1 probes the
// non-partition-aligned secondary index, phase 2 routes the update by the
// primary key the probe produced.
func updateLocation(nbr, newLoc []byte) *plp.Plan {
	b := plp.NewPlan()
	probe := b.LookupSecondary(table, index, nbr).Ref()
	b.Then().Update(table, nil, newLoc).KeyFrom(probe)
	return b.MustBuild()
}

func main() {
	// --- Surface 1: the same plan value on all five designs. ---
	for _, design := range plp.AllDesigns() {
		eng := plp.New(plp.Options{Design: design, Partitions: 4, SLI: design == plp.Conventional})
		if _, err := eng.CreateTable(plp.TableDef{
			Name:        table,
			Boundaries:  plp.UniformBoundaries(keySpace, 4),
			Secondaries: []plp.SecondaryDef{{Name: index}},
		}); err != nil {
			log.Fatal(err)
		}
		sess := eng.NewSession()

		seed := plp.NewPlan().
			Insert(table, plp.Uint64Key(42), []byte("loc=home")).
			InsertSecondary(table, index, subscriberNbr(42), plp.Uint64Key(42)).
			MustBuild()
		if _, err := sess.ExecutePlan(seed); err != nil {
			log.Fatal(err)
		}
		res, err := sess.ExecutePlan(updateLocation(subscriberNbr(42), []byte("loc=roaming")))
		if err != nil {
			log.Fatal(err)
		}
		got, err := sess.ExecutePlan(plp.NewPlan().Get(table, plp.Uint64Key(42)).MustBuild())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13v probe found=%v, record now %q\n", design, res[0].Found, got[0].Value)
		sess.Close()
		eng.Close()
	}

	// --- Surface 2: the same API over the wire, one frame per plan. ---
	eng := plp.New(plp.Options{Design: plp.PLPLeaf, Partitions: 4})
	defer eng.Close()
	if _, err := eng.CreateTable(plp.TableDef{
		Name:        table,
		Boundaries:  plp.UniformBoundaries(keySpace, 4),
		Secondaries: []plp.SecondaryDef{{Name: index}},
	}); err != nil {
		log.Fatal(err)
	}
	srv := plp.NewServer(eng)
	srv.SetReadOnlyToken(roToken)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	c, err := client.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Seed subscribers and the TPC-B style balance rows in one transaction.
	b := client.NewPlan()
	for s := uint64(1); s <= 3; s++ {
		b.Insert(table, client.Uint64Key(s), []byte("loc=home"))
		b.InsertSecondary(table, index, subscriberNbr(s), client.Uint64Key(s))
	}
	b.Insert(table, client.Uint64Key(9001), plan.Int64(1000)) // "account"
	b.Insert(table, client.Uint64Key(9002), plan.Int64(5000)) // "teller"
	if _, err := c.DoPlan(b.MustBuild()); err != nil {
		log.Fatal(err)
	}

	// TATP UpdateLocation: the dependent two-phase transaction is ONE
	// round trip — compare the two server round trips a client.Txn needs
	// (GetBySecondary, then Update).
	if _, err := c.DoPlan(updateLocation(subscriberNbr(2), []byte("loc=cell-17"))); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wire: probe→update ran as one frame / one transaction")

	// TPC-B style double fetch-add plus a mixed read phase (scan + get),
	// still one frame.
	mixed := client.NewPlan().
		AddExisting(table, client.Uint64Key(9001), -42).
		AddExisting(table, client.Uint64Key(9002), -42).
		Then().
		Scan(table, client.Uint64Key(1), client.Uint64Key(100), 10).
		Get(table, client.Uint64Key(2)).
		MustBuild()
	res, err := c.DoPlan(mixed)
	if err != nil {
		log.Fatal(err)
	}
	bal, _ := plan.DecodeInt64(res[0].Value)
	fmt.Printf("wire: account balance after fetch-add: %d, scan saw %d rows, subscriber 2 at %q\n",
		bal, len(res[2].Entries), res[3].Value)

	// A read-only session gets reads but no writes.
	ro, err := client.DialContext(context.Background(), addr, &client.DialOptions{Token: roToken})
	if err != nil {
		log.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.DoPlan(client.NewPlan().Get(table, client.Uint64Key(2)).MustBuild()); err != nil {
		log.Fatal(err)
	}
	_, err = ro.DoPlan(client.NewPlan().Add(table, client.Uint64Key(9001), 1).MustBuild())
	if !errors.Is(err, client.ErrAborted) {
		log.Fatalf("read-only write unexpectedly %v", err)
	}
	fmt.Printf("wire: read-only session served reads, refused the write (%v)\n", err)
}
