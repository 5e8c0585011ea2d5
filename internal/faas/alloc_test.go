package faas

import (
	"context"
	"testing"

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
