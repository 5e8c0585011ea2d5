package memtable

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/israce"
)

// TestResidentBatchReadAllocationBudget pins what forEachShardGroup's
// comment promises: a batch read of resident keys into a caller's map —
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
