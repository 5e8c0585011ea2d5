package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/israce"
)

// TestSpreadInvokeAllocationBudget pins what ClassRuntime.Invoke may
// allocate per call on warm objects, round-robin over more distinct
// objects than any per-object cache on this path was ever sized for: the
// cost of an invocation must not depend on how many objects the class
// has, so a cache that thrashes past some bound cannot come back
// unnoticed. The handlers allocate nothing (the write returns one fixed
// delta), and the table never flushes inside the measurement.
func TestSpreadInvokeAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const objects = 10000
	infra := testInfra(t)
	delta := map[string]json.RawMessage{"value": json.RawMessage(`2`)}
	reg := invoker.NewRegistry()
	reg.Register("img/get", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.State["value"]}, nil
	}))
	reg.Register("img/incr", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{State: delta}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	tmpl := stdTemplate()
	tmpl.FlushInterval = time.Hour
	tmpl.FlushBatchSize = 1 << 30
	rt, err := New(infra, resolvedClass(t, fmt.Sprintf(occCounterYAML, "adaptive"), "OCounter"), tmpl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx := context.Background()
	ids := make([]string, objects)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj-%05d", i)
		if err := rt.PutState(ctx, ids[i], "value", json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		fn      string
		ceiling float64
	}{
		// The handler's state map (two: header and bucket), the task ID
		// and the object's key string.
		{"peek", 4},
		// The same, plus the table's clone of the written value.
		{"incr", 5},
	} {
		next := 0
		n := testing.AllocsPerRun(2*objects, func() {
			next++
			if _, err := rt.Invoke(ctx, ids[next%objects], tc.fn, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.ceiling {
			t.Errorf("warm %s over %d objects allocates %.0f per call, budget %.0f", tc.fn, objects, n, tc.ceiling)
		}
	}
}
