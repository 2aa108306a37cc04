package wire

import (
	"fmt"
	"testing"

	"plp/plan"
)

// benchPlan builds a representative multi-op transaction.
func benchPlan(ops int) *plan.Plan {
	b := plan.New()
	for i := 0; i < ops; i++ {
		b.Upsert("accounts", []byte(fmt.Sprintf("key-%08d", i)), make([]byte, 100))
	}
	return b.MustBuild()
}

func BenchmarkEncodePlanRequest(b *testing.B) {
	p := benchPlan(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodePlanRequest(1, p)
	}
}

func BenchmarkDecodePlanRequest(b *testing.B) {
	payload := EncodePlanRequest(1, benchPlan(10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrameV3(payload); err != nil {
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
