package wire

import (
	"fmt"
	"testing"
)

// benchRequest builds a representative multi-statement transaction.
func benchRequest(statements int) *Request {
	req := &Request{ID: 1}
	for i := 0; i < statements; i++ {
		req.Statements = append(req.Statements, Statement{
			Op:    OpUpsert,
			Table: "accounts",
			Key:   []byte(fmt.Sprintf("key-%08d", i)),
			Value: make([]byte, 100),
		})
	}
	return req
}

func BenchmarkEncodeRequest(b *testing.B) {
	req := benchRequest(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeRequest(req)
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	payload := EncodeRequest(benchRequest(10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecodeResponse(b *testing.B) {
	resp := &Response{ID: 1, Committed: true}
	for i := 0; i < 10; i++ {
		resp.Results = append(resp.Results, StatementResult{Found: true, Value: make([]byte, 100)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payload := AppendResponse(nil, resp)
		if _, err := DecodeResponse(payload); err != nil {
			b.Fatal(err)
		}
	}
}
