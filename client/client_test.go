package client

import (
	"bytes"
	"testing"

	"plp/internal/keyenc"
	"plp/keys"
	"plp/wire"
)

func TestUint64KeyMatchesEngineEncoding(t *testing.T) {
	for _, v := range []uint64{0, 1, 42, 1 << 32, ^uint64(0)} {
		if !bytes.Equal(Uint64Key(v), keyenc.Uint64Key(v)) {
			t.Fatalf("client key encoding for %d diverges from the engine's", v)
		}
		if !bytes.Equal(Uint64Key(v), keys.Uint64(v)) {
			t.Fatalf("client key encoding for %d diverges from package keys", v)
		}
	}
	// Order preservation.
	if bytes.Compare(Uint64Key(5), Uint64Key(6)) >= 0 {
		t.Fatal("key encoding is not order preserving")
	}
}

func TestTxnBuilder(t *testing.T) {
	txn := NewTxn().
		Get("t", []byte("a")).
		Insert("t", []byte("b"), []byte("1")).
		Update("t", []byte("c"), []byte("2")).
		Upsert("t", []byte("d"), []byte("3")).
		Delete("t", []byte("e")).
		GetBySecondary("t", "idx", []byte("f")).
		InsertSecondary("t", "idx", []byte("g"), []byte("pk"))

	if txn.Len() != 7 {
		t.Fatalf("len %d, want 7", txn.Len())
	}
	wantOps := []wire.OpType{
		wire.OpGet, wire.OpInsert, wire.OpUpdate, wire.OpUpsert,
		wire.OpDelete, wire.OpGetBySecondary, wire.OpInsertSecondary,
	}
	for i, want := range wantOps {
		if txn.statements[i].Op != want {
			t.Fatalf("statement %d op %v, want %v", i, txn.statements[i].Op, want)
		}
	}
	if txn.statements[5].Index != "idx" || txn.statements[6].Index != "idx" {
		t.Fatal("secondary statements lost their index name")
	}
}

func TestTxnBuilderV2Ops(t *testing.T) {
	txn := NewTxn().
		Scan("t", []byte("a"), []byte("z"), 25).
		DeleteSecondary("t", "idx", []byte("sk"))
	if txn.Len() != 2 {
		t.Fatalf("len %d, want 2", txn.Len())
	}
	s := txn.statements[0]
	if s.Op != wire.OpScan || !bytes.Equal(s.Key, []byte("a")) ||
		!bytes.Equal(s.KeyEnd, []byte("z")) || s.Limit != 25 {
		t.Fatalf("scan statement %+v", s)
	}
	if txn.statements[1].Op != wire.OpDeleteSecondary || txn.statements[1].Index != "idx" {
		t.Fatalf("delsec statement %+v", txn.statements[1])
	}
	// A negative limit is clamped, not wrapped into a huge uint32.
	if NewTxn().Scan("t", nil, nil, -1).statements[0].Limit != 0 {
		t.Fatal("negative limit not clamped to 0")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialTimeout("127.0.0.1:1", 50_000_000); err == nil {
		t.Fatal("dialing a closed port should fail")
	}
}
