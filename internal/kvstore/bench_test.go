package kvstore

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// BenchmarkMicroKVStorePut measures the document store write path
// (unlimited capacity).
func BenchmarkMicroKVStorePut(b *testing.B) {
	s := Open(Config{})
	defer s.Close()
	ctx := context.Background()
	val := json.RawMessage(`{"seq":123,"score":4.5,"flag":true}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put(ctx, fmt.Sprintf("k%05d", i%1024), val); err != nil {
			b.Fatal(err)
		}
	}
}
