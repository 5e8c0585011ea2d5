//go:build goexperiment.synctest

package faas

// Autoscaler, cold-start and node-loss tests in bubbles, where the
// engine's cold starts, service times and scale ticks are virtual: a
// test waits for the engine's goroutines to block, or for a slot, rather
// than polling for a guessed interval.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/simtest"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

func TestKnativeScaleToZeroAfterIdle(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		rig := newRig(t, ModeKnative, 1, nil)
		if err := rig.engine.Deploy(echoSpec("f")); err != nil {
			t.Fatal(err)
		}
		if _, err := rig.engine.Invoke(context.Background(), "f", invoker.Task{}); err != nil {
			t.Fatal(err)
		}
		if n, _ := rig.engine.Replicas("f"); n == 0 {
			t.Fatal("no replica serves the invocation that just returned")
		}
		// newRig's idle timeout, and the scale tick that finds it passed.
		time.Sleep(50*time.Millisecond + 10*time.Millisecond)
		simtest.Wait()
		if n, _ := rig.engine.Replicas("f"); n != 0 {
			t.Fatalf("function not scaled to zero after an idle timeout (replicas=%d)", n)
		}
	})
}

// TestIdleCountsFromTheLastCallsEnd: a call that lasts longer than the
// idle timeout leaves its function warm for a whole idle timeout after
// it returns; counted from the call's start, the next scale tick would
// take the function to zero, and the next call would start cold. The
// engine runs on a Manual clock that moves a scale tick at a time.
func TestIdleCountsFromTheLastCallsEnd(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		const tick = 10 * time.Millisecond // newRig's scale interval
		clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
		rig := newRig(t, ModeKnative, 1, func(c *Config) { c.Clock = clk })
		spec := echoSpec("f")
		spec.ServiceTime = 80 * time.Millisecond // newRig's idle timeout is 50 ms
		if err := rig.engine.Deploy(spec); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := rig.engine.Invoke(context.Background(), "f", invoker.Task{})
			done <- err
		}()
		for returned := false; !returned; {
			simtest.Wait()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				returned = true
			default:
				clk.Advance(tick)
			}
		}
		for i := 0; i < 2; i++ {
			clk.Advance(tick)
			simtest.Wait()
		}
		if n, _ := rig.engine.Replicas("f"); n == 0 {
			t.Fatalf("scaled to zero %v after a call longer than the idle timeout returned", 2*tick)
		}
	})
}

func TestKnativeRespectsMinScale(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		rig := newRig(t, ModeKnative, 1, nil)
		spec := echoSpec("f")
		spec.MinScale = 2
		spec.InitialScale = 2
		if err := rig.engine.Deploy(spec); err != nil {
			t.Fatal(err)
		}
		time.Sleep(150 * time.Millisecond) // three idle timeouts
		simtest.Wait()
		if n, _ := rig.engine.Replicas("f"); n < 2 {
			t.Fatalf("replicas fell below MinScale: %d", n)
		}
	})
}

func TestEngineCloseFailsPending(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		rig := newRig(t, ModeKnative, 1, func(c *Config) {
			c.ColdStart = time.Hour // pods never become ready
		})
		spec := echoSpec("f")
		if err := rig.engine.Deploy(spec); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := rig.engine.Invoke(context.Background(), "f", invoker.Task{})
			done <- err
		}()
		simtest.Wait() // the invocation waits for a pod
		select {
		case err := <-done:
			t.Fatalf("invoke returned %v with no pod ready", err)
		default:
		}
		rig.engine.Close()
		if err := <-done; !errors.Is(err, ErrEngineClosed) && !errors.Is(err, context.Canceled) {
			t.Fatalf("pending invoke err = %v", err)
		}
	})
}

// TestScaleCyclesWithoutTrafficDoNotFillTheSlotChannel: every scale-down
// used to leave the evicted pod's free slots in the channel for an
// invocation to discard, so MaxScale+1 down/up cycles with none in
// between filled it. A warm announcement (scaleTo without a cold start,
// as Deploy makes) then blocked forever holding the function's lock; a
// cold one (the autoscaler, an optimizer floor) parked
// its warm-up goroutine until traffic had discarded a channel's worth
// of dead slots one lock round trip at a time.
func TestScaleCyclesWithoutTrafficDoNotFillTheSlotChannel(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		rig := newRig(t, ModeDeployment, 1, func(c *Config) { c.ColdStart = time.Millisecond })
		spec := echoSpec("f")
		spec.MaxScale, spec.InitialScale = 2, 1
		if err := rig.engine.Deploy(spec); err != nil {
			t.Fatal(err)
		}
		fn, err := rig.engine.lookup("f")
		if err != nil {
			t.Fatal(err)
		}
		for _, cold := range []bool{false, true} {
			done := make(chan error, 1)
			go func() {
				for cycle := 0; cycle < spec.MaxScale+2; cycle++ {
					for _, n := range []int{0, 1} {
						if err := rig.engine.scaleTo(fn, n, cold); err != nil {
							done <- err
							return
						}
					}
				}
				done <- nil
			}()
			simtest.Wait()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			default:
				t.Fatal("scaleTo is stuck announcing a pod into a slot channel full of evicted pods' slots")
			}
			// The last pod's slots, and nothing else: at once when announced
			// warm, after the cold start otherwise. Taking one waits out the
			// cold start.
			fn.slots <- <-fn.slots
			simtest.Wait()
			if n := len(fn.slots); n != spec.Concurrency {
				t.Fatalf("cold=%v: %d slots queued after the cycles, want the live pod's %d", cold, n, spec.Concurrency)
			}
			for range spec.Concurrency {
				slot := <-fn.slots
				fn.mu.Lock()
				_, alive := fn.pods[slot]
				fn.mu.Unlock()
				if !alive {
					t.Fatalf("cold=%v: an evicted pod's slot is still queued", cold)
				}
				fn.slots <- slot
			}
		}
	})
}

// TestNodeRemovalMidFlightRecovers removes a worker VM while
// invocations are in flight and verifies the engine keeps serving from
// the remaining node once its deployment heals.
func TestNodeRemovalMidFlightRecovers(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		rig := newRig(t, ModeDeployment, 2, nil)
		spec := FunctionSpec{
			Name: "f", Image: "img/echo",
			Concurrency: 4, InitialScale: 4, MaxScale: 8,
			ServiceTime: 5 * time.Millisecond,
		}
		if err := rig.engine.Deploy(spec); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()

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
		simtest.Wait() // every loader is mid-invocation
		if s := rig.engine.Stats(); len(s) != 1 || s[0].Inflight == 0 {
			t.Fatalf("no invocation in flight when the node goes: %+v", s)
		}
		if err := rig.cluster.RemoveNode("vm-00"); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()

		// Heal: raise the floor back onto the surviving node.
		if err := rig.engine.SetMinScale("f", 4); err != nil {
			t.Fatal(err)
		}
		if _, err := rig.engine.Invoke(ctx, "f", invoker.Task{}); err != nil {
			t.Fatalf("engine not serving after the heal: %v", err)
		}
		// All replicas now live on the surviving node.
		n, err := rig.cluster.Node("vm-01")
		if err != nil {
			t.Fatal(err)
		}
		if n.PodCount() == 0 {
			t.Fatal("surviving node hosts no pods after heal")
		}
	})
}

// TestSetMinScaleRaisesReplicas verifies SetMinScale provisions up to
// the floor immediately and clamps to MaxScale.
func TestSetMinScaleRaisesReplicas(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
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
		simtest.Wait()
		if n, err := rig.engine.Replicas("f"); err != nil || n != 4 {
			t.Fatalf("replicas = %d, %v after raising the floor past MaxScale 4, want 4", n, err)
		}
		if err := rig.engine.SetMinScale("f", -1); err == nil {
			t.Fatal("negative min scale accepted")
		}
		if err := rig.engine.SetMinScale("ghost", 1); err == nil {
			t.Fatal("unknown function accepted")
		}
	})
}

// TestKnativeScalesUpUnderLoad: 16 callers keep a function of
// concurrency 2 busy, and the autoscaler adds replicas while their calls
// are in flight. The count is read under the load: once it has drained,
// a tick that sees only the last call in flight scales back down. The
// engine runs on a Manual clock that moves a scale tick at a time.
func TestKnativeScalesUpUnderLoad(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		const tick = 10 * time.Millisecond // newRig's scale interval
		const callers, calls = 16, 5
		clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
		rig := newRig(t, ModeKnative, 2, func(c *Config) {
			c.IdleTimeout = time.Minute
			c.Clock = clk
		})
		spec := FunctionSpec{
			Name: "f", Image: "img/echo",
			Concurrency: 2, MaxScale: 8,
			ServiceTime: 30 * time.Millisecond,
		}
		if err := rig.engine.Deploy(spec); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, callers)
		for range callers {
			go func() {
				var err error
				for j := 0; j < calls && err == nil; j++ {
					_, err = rig.engine.Invoke(context.Background(), "f", invoker.Task{})
				}
				done <- err
			}()
		}
		// Past newRig's 20 ms cold start and a scale tick after it, with
		// every caller's first call still in flight.
		for range 3 {
			simtest.Wait()
			clk.Advance(tick)
		}
		simtest.Wait()
		if n, err := rig.engine.Replicas("f"); err != nil || n < 2 {
			t.Fatalf("autoscaler never scaled up: %d replicas (%v) under %d callers", n, err, callers)
		}
		for finished := 0; finished < callers; {
			simtest.Wait()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				finished++
			default:
				clk.Advance(tick)
			}
		}
		if got := rig.engine.Stats()[0].Invocations; got != callers*calls {
			t.Fatalf("%d invocations ran, want %d", got, callers*calls)
		}
	})
}
