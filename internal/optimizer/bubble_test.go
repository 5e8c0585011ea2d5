//go:build goexperiment.synctest

package optimizer

import (
	"context"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/simtest"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// TestStartStopLifecycle: the background loop evaluates once per
// Interval of its clock, and Start and Stop are idempotent.
func TestStartStopLifecycle(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		rt := newTestRuntime(t, model.QoS{LatencyMs: 1}, sleeper(10*time.Millisecond))
		ctx := context.Background()
		for i := 0; i < 3; i++ {
			rt.Invoke(ctx, "o", "work", nil, nil)
		}
		clock := vclock.NewManual(time.Unix(0, 0))
		o := New(Config{Interval: 5 * time.Millisecond, Clock: clock})
		o.Manage(rt)
		o.Start()
		o.Start()      // idempotent
		simtest.Wait() // the loop waits for its first interval
		if n := len(o.Actions()); n != 0 {
			t.Fatalf("%d actions before the first interval elapsed", n)
		}
		clock.Advance(5 * time.Millisecond)
		simtest.Wait()
		if len(o.Actions()) == 0 {
			t.Fatal("background loop never acted")
		}
		o.Stop()
		o.Stop() // idempotent
	})
}
