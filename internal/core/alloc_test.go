package core

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/israce"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/runtime"
)

// spreadKeys is the state width of the Spread class: every call bundles
// this many keys into its task.
const spreadKeys = 8

// newSpreadPlatform deploys a Spread class (spreadKeys keys without
// defaults, so an object's state exists only where it was written) on a
// write-behind table that never flushes inside a measurement and an
// autoscaler that never evaluates inside one: what a measurement counts
// is the call's own allocations.
func newSpreadPlatform(t *testing.T, mutate func(*Config)) *Platform {
	t.Helper()
	p := newPlatform(t, func(c *Config) {
		c.OpsPerMilliCPU = 1000
		c.ScaleInterval = time.Hour
		c.Templates = []runtime.Template{{
			Name:       "spread",
			EngineMode: faas.ModeDeployment, TableMode: memtable.ModeWriteBehind,
			FlushInterval: time.Hour, FlushBatchSize: 1 << 20,
			DefaultConcurrency: 64, InitialScale: 4, MaxScale: 64,
		}}
		if mutate != nil {
			mutate(c)
		}
	})
	p.Images().Register("img/touch", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: json.RawMessage(`"ok"`)}, nil
	}))
	pkg := "classes:\n  - name: Spread\n    keySpecs:\n"
	for k := range spreadKeys {
		pkg += fmt.Sprintf("      - name: k%d\n", k)
	}
	pkg += "    functions:\n      - name: touch\n        image: img/touch\n"
	if _, err := p.DeployYAML(context.Background(), []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	return p
}

// createSpread creates n Spread objects and returns their IDs.
func createSpread(t *testing.T, p *Platform, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		id, err := p.CreateObject(context.Background(), "Spread", fmt.Sprintf("sp-%05d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// TestTracedInvokeAllocationBudget pins what tracing adds to a warm
// in-process invoke over 512 objects whose every key is resident: with
// probabilistic keeps off, spans open and close on every stage and
// nothing is kept; at a sample rate of 1 every trace is finalized into
// the kept ring. Tracing off, the call is what
// TestSpreadInvokeAllocationBudget (internal/runtime) pins.
func TestTracedInvokeAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const objects = 512
	for _, tc := range []struct {
		name    string
		rate    float64
		ceiling float64
	}{
		// Measured; the same call with tracing off allocates 5.
		{"unsampled", -1, 7},
		{"sampled", 1, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newSpreadPlatform(t, func(c *Config) {
				c.EnableTracing = true
				c.TraceSampleRate = tc.rate
			})
			ctx := context.Background()
			ids := createSpread(t, p, objects)
			for _, id := range ids {
				for k := range spreadKeys {
					if err := p.PutState(ctx, id, fmt.Sprintf("k%d", k), json.RawMessage(`{"v":1}`)); err != nil {
						t.Fatal(err)
					}
				}
			}
			next := 0
			call := func() {
				next++
				if _, err := p.Invoke(ctx, ids[next%objects], "touch", nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			for range 2 * objects { // fill the kept ring and every pool
				call()
			}
			n := testing.AllocsPerRun(2*objects, call)
			t.Logf("%.2f allocations per traced invoke", n)
			if n > tc.ceiling {
				t.Errorf("warm invoke traced %s allocates %.2f per call, budget %.0f", tc.name, n, tc.ceiling)
			}
		})
	}
}

// TestColdReadInvokeAllocationBudget pins a read-through miss: each call
// is the first on its object, whose every key lives only in the backing
// store, so the state load misses the table and reads all of them from
// the store in one batch.
func TestColdReadInvokeAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs = 500
	p := newSpreadPlatform(t, nil)
	ctx := context.Background()
	ids := createSpread(t, p, runs+1) // AllocsPerRun calls once more to warm up
	seed := make(map[string]json.RawMessage, spreadKeys*len(ids))
	for _, id := range ids {
		for k := range spreadKeys {
			seed[fmt.Sprintf("state/Spread/%s/k%d", id, k)] = json.RawMessage(`{"v":1}`)
		}
	}
	if err := p.Backing().BatchPut(ctx, seed); err != nil {
		t.Fatal(err)
	}
	reads := p.Backing().Stats().ReadOps
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		if _, err := p.Invoke(ctx, ids[next], "touch", nil, nil); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if got := p.Backing().Stats().ReadOps - reads; got < int64(len(ids)) {
		t.Fatalf("%d backing reads for %d first calls: the state did not come from the store", got, len(ids))
	}
	t.Logf("%.2f allocations per read-through invoke", n)
	const ceiling = 12 // measured
	if n > ceiling {
		t.Errorf("a read-through invoke allocates %.2f, budget %d", n, ceiling)
	}
}

// TestArmedDeadlineAllocationBudget pins what a function deadline costs
// a warm write: the same bump with no timeout declared and with a
// generous one (timeoutMs: 1000) that never fires, whose watchdog is
// armed on every call.
func TestArmedDeadlineAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := newPlatform(t, func(c *Config) {
		c.OpsPerMilliCPU = 1000
		c.ScaleInterval = time.Hour
	})
	delta := map[string]json.RawMessage{"n": json.RawMessage(`2`)}
	p.Images().Register("img/dlbump", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{State: delta}, nil
	}))
	ctx := context.Background()
	// Not persistent: the ephemeral template's memory-only table, so no
	// flush allocates inside the measurement.
	pkg := "classes:\n  - name: DL\n    constraint:\n      persistent: false\n    keySpecs:\n      - name: n\n        default: 0\n" +
		"    functions:\n      - name: free\n        image: img/dlbump\n" +
		"      - name: timed\n        image: img/dlbump\n        timeoutMs: 1000\n"
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	object, err := p.CreateObject(ctx, "DL", "dl-0")
	if err != nil {
		t.Fatal(err)
	}
	measure := func(fn string) float64 {
		for range 32 {
			if _, err := p.Invoke(ctx, object, fn, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(500, func() {
			if _, err := p.Invoke(ctx, object, fn, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	free, timed := measure("free"), measure("timed")
	t.Logf("warm write: %.2f allocations unarmed, %.2f armed (+%.2f)", free, timed, timed-free)
	// Measured 5 unarmed and 13 armed: the deadline's context, its timer,
	// the watchdog goroutine and the channel it reports on cost 8.
	const freeCeiling, armedExtra = 5, 8
	if free > freeCeiling {
		t.Errorf("an unarmed warm write allocates %.2f, budget %d", free, freeCeiling)
	}
	if timed-free > armedExtra {
		t.Errorf("arming a deadline adds %.2f allocations to a warm write, budget %d", timed-free, armedExtra)
	}
}
