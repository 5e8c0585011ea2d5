package faas

import (
	"context"
	"fmt"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/heaptest"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/israce"
)

// TestFreeSlotInvokeAllocationBudget: a cancellable context makes its
// Done channel the first time someone asks for it, and net/http gives
// every request a fresh one — so an Invoke that finds a slot free must
// not ask. Each run gets its own context.WithCancel; the engine's share
// of the run is what it allocates under context.Background, and the
// context's share is WithCancel plus cancel alone. One more than their
// sum is the channel.
func TestFreeSlotInvokeAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rig := newRig(t, ModeDeployment, 1, nil)
	spec := echoSpec("f")
	spec.InitialScale = 1
	if err := rig.engine.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	invoke := func(ctx context.Context) {
		if _, err := rig.engine.Invoke(ctx, "f", invoker.Task{}); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 200
	bare := testing.AllocsPerRun(runs, func() { invoke(context.Background()) })
	ctxOnly := testing.AllocsPerRun(runs, func() {
		_, cancel := context.WithCancel(context.Background())
		cancel()
	})
	both := testing.AllocsPerRun(runs, func() {
		ctx, cancel := context.WithCancel(context.Background())
		invoke(ctx)
		cancel()
	})
	if both > bare+ctxOnly {
		t.Fatalf("Invoke under a fresh WithCancel allocates %.0f, want %.0f (engine) + %.0f (context): it asked for ctx.Done() with a slot free",
			both, bare, ctxOnly)
	}
}

// TestIdleFunctionResidentBudget pins what a deployed function that is
// never invoked keeps resident, at the shape the platform's default
// template deploys (one warm replica, 64 requests a pod, room for 200
// pods): its slot channel is made once at full scale, so the element
// size is what an idle function pays 12 864 times.
func TestIdleFunctionResidentBudget(t *testing.T) {
	const n = 64
	rig := newRig(t, ModeDeployment, 4, nil)
	per := heaptest.PerEntry(t, n, func() {
		for i := 0; i < n; i++ {
			spec := FunctionSpec{Name: fmt.Sprintf("f%02d", i), Image: "img/echo", Concurrency: 64, MaxScale: 200, InitialScale: 1,
				Resources: cluster.Resources{MilliCPU: 10, MemoryMB: 16}}
			if err := rig.engine.Deploy(spec); err != nil {
				t.Fatal(err)
			}
		}
	})
	rig.engine.mu.Lock()
	got := len(rig.engine.functions)
	rig.engine.mu.Unlock()
	if got != n {
		t.Fatalf("engine holds %d functions, want %d", got, n)
	}
	t.Logf("%.0f B per deployed, idle function", per)
	// Measured 58 602 B (51 456 of them the channel, 4 bytes a slot);
	// 419 168 B with a {podID, node string} per slot. The ceiling is the
	// measurement plus 10 %.
	if per > 64_500 {
		t.Errorf("an idle function keeps %.0f B resident, budget 64500", per)
	}
}
