package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// eventsYAML declares an event-test class under one concurrency mode:
// a counter write, a readonly read, a failing handler and a
// rogue-delta handler.
func eventsYAML(mode model.ConcurrencyMode) string {
	return fmt.Sprintf(`classes:
  - name: Counter
    concurrencyMode: %s
    keySpecs:
      - name: value
        kind: number
        default: 0
      - name: note
    functions:
      - name: incr
        image: img/incr
      - name: get
        image: img/get
        readonly: true
      - name: fail
        image: img/fail
      - name: rogue
        image: img/rogue
`, mode)
}

// eventRecorder collects emitted events thread-safely, and how many
// publications carried them.
type eventRecorder struct {
	mu           sync.Mutex
	events       []trigger.Event
	publications int
}

// emit copies the batch: the runtime reuses the slice once Events returns.
func (r *eventRecorder) emit(evs []trigger.Event) {
	r.mu.Lock()
	r.events = append(r.events, evs...)
	r.publications++
	r.mu.Unlock()
}

func (r *eventRecorder) snapshot() []trigger.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]trigger.Event(nil), r.events...)
}

// newEventsRuntime builds a runtime whose Events hook records into rec.
func newEventsRuntime(t *testing.T, mode model.ConcurrencyMode, rec *eventRecorder) *ClassRuntime {
	t.Helper()
	infra := testInfra(t)
	infra.Events = rec.emit
	rt, err := New(infra, resolvedClass(t, eventsYAML(mode), "Counter"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestCommitEventExactness is the -race exactness test of the
// acceptance criteria: all three commit regimes emit exactly one
// StateChanged event per committed write invocation, and readonly or
// failing calls emit none.
func TestCommitEventExactness(t *testing.T) {
	const workers, perWorker = 8, 25
	for _, mode := range []model.ConcurrencyMode{model.ConcurrencyLocked, model.ConcurrencyOCC, model.ConcurrencyAdaptive} {
		t.Run(string(mode), func(t *testing.T) {
			rec := &eventRecorder{}
			rt := newEventsRuntime(t, mode, rec)
			ctx := context.Background()
			if err := rt.InitObjectState(ctx, "c-1"); err != nil {
				t.Fatal(err)
			}
			rec.mu.Lock()
			rec.events = nil // drop any init-time noise (there is none, but stay robust)
			rec.mu.Unlock()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						if _, err := rt.Invoke(ctx, "c-1", "incr", nil, nil); err != nil {
							t.Error(err)
							return
						}
						// Interleave readonly reads and failures: none
						// of them may emit.
						if _, err := rt.Invoke(ctx, "c-1", "get", nil, nil); err != nil {
							t.Error(err)
							return
						}
						if _, err := rt.Invoke(ctx, "c-1", "fail", nil, nil); err == nil {
							t.Error("fail handler succeeded")
							return
						}
					}
				}()
			}
			wg.Wait()
			events := rec.snapshot()
			if len(events) != workers*perWorker {
				t.Fatalf("events = %d, want exactly %d (one per committed write)", len(events), workers*perWorker)
			}
			var v float64
			raw, err := rt.GetState(ctx, "c-1", "value")
			if err != nil || json.Unmarshal(raw, &v) != nil || v != workers*perWorker {
				t.Fatalf("counter = %s (%v), want %d", raw, err, workers*perWorker)
			}
			for _, ev := range events {
				if ev.Type != trigger.StateChanged || ev.Class != "Counter" || ev.Object != "c-1" ||
					ev.Function != "incr" || strings.Join(ev.Keys, ",") != "value" || ev.Depth != 0 {
					t.Fatalf("malformed event: %+v", ev)
				}
			}
		})
	}
}

// TestCommitEventBatchPath covers the group-commit regime: a batch
// with successes, a failure and a rogue delta emits exactly one event
// per committed member, none for the casualties or readonly members.
func TestCommitEventBatchPath(t *testing.T) {
	for _, mode := range []model.ConcurrencyMode{model.ConcurrencyLocked, model.ConcurrencyOCC, model.ConcurrencyAdaptive} {
		t.Run(string(mode), func(t *testing.T) {
			rec := &eventRecorder{}
			rt := newEventsRuntime(t, mode, rec)
			ctx := context.Background()
			if err := rt.InitObjectState(ctx, "c-1"); err != nil {
				t.Fatal(err)
			}
			results := rt.InvokeBatch(ctx, "c-1", []call.Call{
				{Member: "incr"},
				{Member: "fail"},
				{Member: "incr"},
				{Member: "rogue"},
				{Member: "get"},
				{Member: "incr"},
			})
			wantErr := []bool{false, true, false, true, false, false}
			for i, res := range results {
				if (res.Err != nil) != wantErr[i] {
					t.Fatalf("result %d = %v, want err=%v", i, res.Err, wantErr[i])
				}
			}
			events := rec.snapshot()
			if len(events) != 3 || rec.publications != 1 {
				t.Fatalf("events = %d in %d publications, want 3 (the committed incr calls) in one", len(events), rec.publications)
			}
			for _, ev := range events {
				if ev.Function != "incr" || strings.Join(ev.Keys, ",") != "value" {
					t.Fatalf("malformed batch event: %+v", ev)
				}
			}
		})
	}
}

// TestCommitEventDepthPropagates verifies the chain-depth arg stamped
// by the bus surfaces on the emitted event.
func TestCommitEventDepthPropagates(t *testing.T) {
	rec := &eventRecorder{}
	rt := newEventsRuntime(t, model.ConcurrencyAdaptive, rec)
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "c-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(ctx, "c-1", "incr", nil, map[string]string{trigger.ArgDepth: "3"}); err != nil {
		t.Fatal(err)
	}
	events := rec.snapshot()
	if len(events) != 1 || events[0].Depth != 3 {
		t.Fatalf("events = %+v, want one event at depth 3", events)
	}
}

// TestStatelessClassEmitsNothing: with no state specs there is no
// state mutation to react to.
func TestStatelessClassEmitsNothing(t *testing.T) {
	rec := &eventRecorder{}
	infra := testInfra(t)
	infra.Events = rec.emit
	rt, err := New(infra, resolvedClass(t, `classes:
  - name: Pure
    functions:
      - name: get
        image: img/get
`, "Pure"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if _, err := rt.Invoke(context.Background(), "p-1", "get", nil, nil); err != nil {
		t.Fatal(err)
	}
	if events := rec.snapshot(); len(events) != 0 {
		t.Fatalf("stateless class emitted %d events", len(events))
	}
}
