package faas

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/invoker"
)

// TestNodeRemovalMidFlightRecovers removes a worker VM while
// invocations are in flight and verifies the engine keeps serving from
// the remaining node once its deployment heals.
func TestNodeRemovalMidFlightRecovers(t *testing.T) {
	rig := newRig(t, ModeDeployment, 2, nil)
	spec := FunctionSpec{
		Name: "f", Image: "img/echo",
		Concurrency: 4, InitialScale: 4, MaxScale: 8,
		ServiceTime: 5 * time.Millisecond,
	}
	if err := rig.engine.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Background load while the node goes away.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are acceptable during the disruption window;
				// the assertion is on recovery below.
				_, _ = rig.engine.Invoke(ctx, "f", invoker.Task{})
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := rig.cluster.RemoveNode("vm-00"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Heal: raise the floor back onto the surviving node.
	if err := rig.engine.SetMinScale("f", 4); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := rig.engine.Invoke(ctx, "f", invoker.Task{}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("engine never recovered after node removal")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// All replicas now live on the surviving node.
	n, err := rig.cluster.Node("vm-01")
	if err != nil {
		t.Fatal(err)
	}
	if n.PodCount() == 0 {
		t.Fatal("surviving node hosts no pods after heal")
	}
}

// TestSetMinScaleRaisesReplicas verifies SetMinScale provisions up to
// the floor immediately and clamps to MaxScale.
func TestSetMinScaleRaisesReplicas(t *testing.T) {
	rig := newRig(t, ModeKnative, 2, func(c *Config) {
		c.IdleTimeout = time.Minute
	})
	spec := echoSpec("f")
	spec.MaxScale = 4
	if err := rig.engine.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	if err := rig.engine.SetMinScale("f", 10); err != nil { // clamped to 4
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		n, err := rig.engine.Replicas("f")
		if err != nil {
			t.Fatal(err)
		}
		if n == 4 {
			break
		}
		if n > 4 {
			t.Fatalf("replicas %d exceeded MaxScale", n)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never reached floor: %d", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := rig.engine.SetMinScale("f", -1); err == nil {
		t.Fatal("negative min scale accepted")
	}
	if err := rig.engine.SetMinScale("ghost", 1); err == nil {
		t.Fatal("unknown function accepted")
	}
}
