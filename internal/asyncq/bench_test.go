package asyncq

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/israce"
)

// drainRig is a one-worker queue on a memory-only record table whose
// pull sizes the caller controls: cycle parks the worker on a gate task,
// queues n invocations of one object behind it, opens the gate and
// returns once all of them are terminal — so they drain in pulls of
// exactly min(n, DrainBatch), coalesced through a no-op batch invoker.
type drainRig struct {
	tb        testing.TB
	q         *Queue
	parked    chan struct{} // the gate task's handler is running
	open      chan struct{} // lets it return
	drained   chan struct{} // the cycle's last task went terminal
	remaining atomic.Int64
}

func newDrainRig(tb testing.TB, drainBatch int) *drainRig {
	r := &drainRig{tb: tb, parked: make(chan struct{}), open: make(chan struct{}), drained: make(chan struct{}, 1)}
	q, err := New(Config{
		Workers: 1, Shards: 1, DrainBatch: drainBatch, Capacity: 64,
		Invoke: func(_ context.Context, objectID, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
			if objectID == "gate" {
				r.parked <- struct{}{}
				<-r.open
			}
			return nil, nil
		},
		InvokeBatch: func(_ context.Context, _ string, calls []call.Call) []call.Result {
			return make([]call.Result, len(calls))
		},
		OnTerminal: func(Record, map[string]string) {
			if r.remaining.Add(-1) == 0 {
				r.drained <- struct{}{}
			}
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(q.Close)
	r.q = q
	return r
}

var drainPayload = json.RawMessage(`{"n":1}`)

func (r *drainRig) cycle(n int) {
	ctx := context.Background()
	r.remaining.Store(int64(n) + 1)
	if _, err := r.q.Submit(ctx, Target{}, "gate", "m", nil, nil); err != nil {
		r.tb.Fatal(err)
	}
	<-r.parked
	for i := 0; i < n; i++ {
		if _, err := r.q.Submit(ctx, Target{}, "hot", "bump", drainPayload, nil); err != nil {
			r.tb.Fatal(err)
		}
	}
	r.open <- struct{}{}
	<-r.drained
}

// BenchmarkSubmitDrain is the queue's own cost per cycle of 16
// invocations (plus the gate task): submit, pending record, drain pull,
// coalesced dispatch, terminal records — no platform, no handler work.
// batch1 drains them one per pull, batch16 in a single same-object pull.
func BenchmarkSubmitDrain(b *testing.B) {
	for _, bc := range []struct {
		name       string
		drainBatch int
	}{{"batch1", 1}, {"batch16", 16}} {
		b.Run(bc.name, func(b *testing.B) {
			r := newDrainRig(b, bc.drainBatch)
			r.cycle(16) // warm the metrics registry and the record table
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.cycle(16)
			}
		})
	}
}

// TestSubmitDrainAllocationBudget pins the queue's allocations per
// invocation on a 16-task same-object pull: the task's key/ID string and
// payload copy, one pending and one terminal document, and the pull's
// shared slices and PutMany maps amortized over its tasks. A running
// record, a per-write key string, a reflection-encoded document or a
// per-timestamp string each push it past the budget.
func TestSubmitDrainAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := newDrainRig(t, 16)
	for i := 0; i < 4; i++ {
		r.cycle(16)
	}
	gate := testing.AllocsPerRun(50, func() { r.cycle(0) })
	pull := testing.AllocsPerRun(50, func() { r.cycle(16) })
	perInvocation := (pull - gate) / 16
	t.Logf("gate-only cycle %v allocs, 16-task cycle %v allocs: %.2f per invocation", gate, pull, perInvocation)
	const budget = 9 // measured 7.6; 23.4 with the running write and reflection-encoded records
	if perInvocation > budget {
		t.Fatalf("asyncq allocates %.2f objects per invocation on a 16-task pull, budget %v", perInvocation, budget)
	}
}
