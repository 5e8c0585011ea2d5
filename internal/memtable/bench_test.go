package memtable

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// BenchmarkMicroRingOwner measures consistent-hash lookup.
func BenchmarkMicroRingOwner(b *testing.B) {
	nodes := make([]string, 12)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("vm-%02d", i)
	}
	ring := NewRing(64, nodes...)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("state/Class/obj-%04d/key", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ring.Owner(keys[i%len(keys)])
	}
}

// BenchmarkMicroMemtablePut measures the write-behind table's in-memory
// write path.
func BenchmarkMicroMemtablePut(b *testing.B) {
	db := kvstore.Open(kvstore.Config{})
	defer db.Close()
	tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer tbl.Close()
	ctx := context.Background()
	val := json.RawMessage(`{"seq":123}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.Put(ctx, fmt.Sprintf("k%05d", i%1024), val); err != nil {
			b.Fatal(err)
		}
	}
}
