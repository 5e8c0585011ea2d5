package asyncq

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/heaptest"
	"github.com/hpcclab/oparaca-go/internal/israce"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// drainRig is a one-worker queue on a store-backed record table, with
// records evicted recordTTL after they finish (0: never), whose pull
// sizes the caller controls: cycle parks the worker on a gate task,
// queues n invocations of one object behind it, opens the gate and
// returns once all of them are terminal — so they drain in pulls of
// exactly min(n, DrainBatch), coalesced through a no-op hook.
type drainRig struct {
	tb        testing.TB
	q         *Queue
	parked    chan struct{} // the gate task's handler is running
	open      chan struct{} // lets it return
	drained   chan struct{} // the cycle's last task went terminal
	remaining atomic.Int64
}

func newDrainRig(tb testing.TB, drainBatch int, recordTTL time.Duration) *drainRig {
	r := &drainRig{tb: tb, parked: make(chan struct{}), open: make(chan struct{}), drained: make(chan struct{}, 1)}
	q, err := New(Config{
		Settings: Settings{Workers: 1, DrainBatch: drainBatch, Capacity: 64, RecordTTL: recordTTL},
		Backing:  kvstore.Open(kvstore.Config{}),
		Invoke: func(_ context.Context, objectID string, _ []call.Call, _ []call.Result) {
			if objectID == "gate" {
				r.parked <- struct{}{}
				<-r.open
			}
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

func (r *drainRig) cycle(n int) { r.cycleArgs(n, nil) }

// cycleArgs is cycle with every invocation carrying args.
func (r *drainRig) cycleArgs(n int, args map[string]string) {
	ctx := context.Background()
	r.remaining.Store(int64(n) + 1)
	if _, err := r.q.Submit(ctx, Target{}, "gate", "m", nil, nil); err != nil {
		r.tb.Fatal(err)
	}
	<-r.parked
	for i := 0; i < n; i++ {
		if _, err := r.q.Submit(ctx, Target{}, "hot", "bump", drainPayload, args); err != nil {
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
			r := newDrainRig(b, bc.drainBatch, 0)
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
// its two documents, pending and terminal, each encoded in a scratch
// buffer and copied out once at its size, the one copy the table and the
// store keep; the pending one is also the task's payload. The pull's
// slices and the writer of its records are reused from pull to pull, and
// the record table takes a slice of pairs, so no map is built per write.
// A running record, a per-write key string, a payload copy beside the
// document's, a table clone of each document, a reflection-encoded
// document or a per-timestamp string each push it past the budget. A
// trigger-chained submission carries two args (trigger.ArgSource,
// trigger.ArgDepth): they cost the copy of the map and nothing in the
// encoder. A task that drains alone is a group of one.
func TestSubmitDrainAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name   string
		args   map[string]string
		tasks  int
		budget float64
	}{
		// measured 3.12–3.25 over 30 runs; 6.6 with the payload copy, the
		// table's clones and its per-write maps, 23.4 with the running
		// write and reflection-encoded records
		{name: "no args", tasks: 16, budget: 4},
		// measured 5.12–5.25 (the copy of the map is 2); 8.6 with the
		// copies and maps above, 16.5 when a record with args fell back
		// to json.Marshal
		{name: "trigger-chain args", args: map[string]string{"trigger": "stateChanged", "triggerDepth": "1"}, tasks: 16, budget: 6},
		// measured 2–4 over 30 runs, 4 in most; 7 with the copies above
		{name: "one-task pull", tasks: 1, budget: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newDrainRig(t, 16, 0)
			for i := 0; i < 4; i++ {
				r.cycleArgs(16, tc.args)
			}
			gate := testing.AllocsPerRun(50, func() { r.cycle(0) })
			pull := testing.AllocsPerRun(50, func() { r.cycleArgs(tc.tasks, tc.args) })
			perInvocation := (pull - gate) / float64(tc.tasks)
			t.Logf("gate-only cycle %v allocs, %d-task cycle %v allocs: %.2f per invocation", gate, tc.tasks, pull, perInvocation)
			if perInvocation > tc.budget {
				t.Fatalf("asyncq allocates %.2f objects per invocation on a %d-task pull, budget %v", perInvocation, tc.tasks, tc.budget)
			}
		})
	}
}

// TestTerminalInvocationResidentBudget pins what a finished invocation
// keeps resident once its record has flushed: the terminal document, its
// key and its slot in the backing store, and nothing of the queue's. The
// record table is a write buffer and holds no entry once flushed;
// tracked and waiters are empty again, and without a RecordTTL there is
// no eviction index.
func TestTerminalInvocationResidentBudget(t *testing.T) {
	const cycles, perCycle = 1250, 16
	const n = cycles * (perCycle + 1) // each cycle's gate task too
	ctx := context.Background()
	r := newDrainRig(t, perCycle, 0)
	r.cycle(perCycle) // warm the metrics registry and the index maps
	r.q.records.Flush(ctx)
	per := heaptest.PerEntry(t, n, func() {
		for i := 0; i < cycles; i++ {
			r.cycle(perCycle)
		}
		r.q.records.Flush(ctx)
	})
	t.Logf("%.1f B per finished invocation, its store slot included", per)
	r.q.mu.Lock()
	tracked, waiters := len(r.q.tracked), len(r.q.waiters)
	r.q.mu.Unlock()
	r.q.terminalMu.Lock()
	index := len(r.q.terminal)
	r.q.terminalMu.Unlock()
	if tracked != 0 || waiters != 0 || index != 0 {
		t.Errorf("at rest the queue tracks %d invocations, holds %d waiters and %d eviction entries, want none", tracked, waiters, index)
	}
	if got := r.q.records.Len(); got != 0 {
		t.Fatalf("record table holds %d records once flushed, want none", got)
	}
	// Measured 389–397 B: the 40-byte key and the ~210-byte terminal
	// document in their size classes (48 and 224) and the store's slot;
	// 485–494 B while the record table kept a copy of every record's
	// slot. The ceiling is the higher measurement plus 10 %.
	if per > 436 {
		t.Errorf("a finished invocation keeps %.1f B resident, budget 436", per)
	}
}

// TestEvictedInvocationsLeaveNothingResident: with a RecordTTL, an
// invocation whose record was evicted leaves nothing behind — no record
// in the store, no tombstone in the record table, no entry in the
// queue's indexes. What a sweep leaves is map capacity that Go never
// returns, shared by every invocation.
func TestEvictedInvocationsLeaveNothingResident(t *testing.T) {
	const cycles, perCycle = 1250, 16
	const n = cycles * (perCycle + 1) // each cycle's gate task too
	ctx := context.Background()
	r := newDrainRig(t, perCycle, time.Millisecond)
	evicted := func(want int64) {
		deadline := time.Now().Add(10 * time.Second)
		for r.q.Stats().Evicted < want {
			if time.Now().After(deadline) {
				t.Fatalf("%d records evicted, want %d", r.q.Stats().Evicted, want)
			}
			time.Sleep(time.Millisecond)
		}
		r.q.records.Flush(ctx)
	}
	r.cycle(perCycle) // warm the metrics registry and the index maps
	evicted(perCycle + 1)
	per := heaptest.PerEntry(t, n, func() {
		for i := 0; i < cycles; i++ {
			r.cycle(perCycle)
		}
		evicted(n + perCycle + 1)
	})
	t.Logf("%.1f B per evicted invocation", per)
	keys, err := r.q.cfg.Backing.List(ctx, recordPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("the store holds %d evicted records", len(keys))
	}
	// Measured 11–24 B; 163–177 B while each eviction left its
	// tombstone in the record table.
	if per > 40 {
		t.Errorf("an evicted invocation keeps %.1f B resident, budget 40", per)
	}
}

// TestGetAllocationBudget pins what reading one finished invocation's
// record costs: the table key and the one string its object and member
// share. The reflective decode it replaced made the Record escape and
// allocated every string and raw field besides (9).
func TestGetAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q, err := New(Config{Settings: Settings{Workers: 1}, Backing: kvstore.Open(kvstore.Config{}), Invoke: each(func(context.Context, string, string, json.RawMessage, map[string]string) (json.RawMessage, error) {
		return json.RawMessage(`{"n":1}`), nil
	})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	ctx := context.Background()
	id, err := q.Submit(ctx, Target{}, "obj-1", "bump", json.RawMessage(`{"by":1}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if rec, err := q.Get(ctx, id); err != nil || rec.Status != StatusCompleted || rec.Object != "obj-1" || rec.Member != "bump" {
			t.Fatalf("Get = %+v, %v", rec, err)
		}
	})
	if n > 2 {
		t.Fatalf("Get of a finished invocation allocates %.1f, budget 2", n)
	}
}
