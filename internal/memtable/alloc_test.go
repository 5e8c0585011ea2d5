package memtable

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/heaptest"
	"github.com/hpcclab/oparaca-go/internal/israce"
)

// TestResidentBatchReadAllocationBudget pins what eachKey's comment
// promises: a batch read of resident keys into a caller's map —
// the load every invocation opens with — allocates nothing, for one
// object's worth of keys and at the small-batch limit.
func TestResidentBatchReadAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tbl, _ := newVersionedTable(t, ModeWriteBehind)
	ctx := context.Background()
	for _, n := range []int{1, 8, smallBatch} {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("state/C/o%d/k%d", n, i)
			if err := tbl.Put(ctx, keys[i], json.RawMessage(`1`)); err != nil {
				t.Fatal(err)
			}
		}
		raw := make(map[string]json.RawMessage, n)
		if a := testing.AllocsPerRun(200, func() {
			clear(raw)
			if err := tbl.GetManyInto(ctx, keys, raw); err != nil || len(raw) != n {
				t.Fatalf("GetManyInto: %d of %d keys, %v", len(raw), n, err)
			}
		}); a != 0 {
			t.Errorf("GetManyInto of %d resident keys allocates %.0f, want 0", n, a)
		}
		got := make(map[string]VersionedValue, n)
		if a := testing.AllocsPerRun(200, func() {
			clear(got)
			if err := tbl.GetManyVersionedInto(ctx, keys, got); err != nil || len(got) != n {
				t.Fatalf("GetManyVersionedInto: %d of %d keys, %v", len(got), n, err)
			}
		}); a != 0 {
			t.Errorf("GetManyVersionedInto of %d resident keys allocates %.0f, want 0", n, a)
		}
	}
}

// TestPerKeyResidentBudget pins what the table keeps per resident key
// beyond the key's and the value's own bytes: one map slot holding
// value, version and presence together.
func TestPerKeyResidentBudget(t *testing.T) {
	const n = 100_000
	value := json.RawMessage(`"0123456789abcd"`) // 16 bytes: a size class of its own
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("state/C/obj-%06d/k", i)
	}
	var tbl *Table
	per := heaptest.PerEntry(t, n, func() {
		var err error
		if tbl, err = New(Config{Mode: ModeMemoryOnly}); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := tbl.Put(context.Background(), k, value); err != nil {
				t.Fatal(err)
			}
		}
	}) - float64(len(value))
	defer tbl.Close()
	runtime.KeepAlive(keys)
	if tbl.Len() != n {
		t.Fatalf("table holds %d keys, want %d", tbl.Len(), n)
	}
	t.Logf("%.1f B per key beyond key and value", per)
	// Measured 112.2 B, ± 1 run to run (56-byte slots in 16 shard maps
	// at their fill after 6 250 inserts each; 131 B as a 40-byte data
	// slot plus a 24-byte vers slot for the same key); the ceiling is
	// that plus 10 %.
	if per > 123.4 {
		t.Errorf("a resident key costs %.1f B beyond its key and value, budget 123.4", per)
	}
}
