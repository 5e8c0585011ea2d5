package runtime

// Tests for the group-commit InvokeBatch path: evolving-view
// sequencing, per-call fault isolation (handler errors, panics, rogue
// deltas), the readonly bypass, and exactness when batches interleave
// with per-call invocations.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// batchYAML declares a counter class with failing, panicking (a write
// and a readonly one), rogue and readonly members alongside the
// increment.
const batchYAML = `classes:
  - name: BCounter
    concurrencyMode: %s
    keySpecs:
      - name: value
        kind: number
        default: 0
    functions:
      - name: incr
        image: img/incr
      - name: peek
        image: img/get
        readonly: true
      - name: boom
        image: img/fail
      - name: kaboom
        image: img/panic
      - name: peekaboom
        image: img/panic
        readonly: true
      - name: rogue
        image: img/rogue
`

func newBatchRuntime(t *testing.T, mode model.ConcurrencyMode) *ClassRuntime {
	t.Helper()
	return newTimedBatchRuntime(t, mode, 0)
}

// newTimedBatchRuntime is newBatchRuntime with every call under a
// platform default deadline (0: none).
func newTimedBatchRuntime(t *testing.T, mode model.ConcurrencyMode, timeout time.Duration) *ClassRuntime {
	t.Helper()
	infra := testInfra(t)
	infra.DefaultInvokeTimeout = timeout
	// testInfra's registry lacks a panicking image; rebuild the
	// transport with one added.
	reg := invoker.NewRegistry()
	reg.Register("img/incr", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var n float64
		if raw, ok := task.State["value"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		out, _ := json.Marshal(n + 1)
		return invoker.Result{Output: out, State: map[string]json.RawMessage{"value": out}}, nil
	}))
	reg.Register("img/get", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.State["value"]}, nil
	}))
	reg.Register("img/fail", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{}, fmt.Errorf("deliberate")
	}))
	reg.Register("img/panic", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		panic("mid-batch kaboom")
	}))
	reg.Register("img/rogue", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{State: map[string]json.RawMessage{"undeclared": json.RawMessage(`1`)}}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	rt, err := New(infra, resolvedClass(t, fmt.Sprintf(batchYAML, mode), "BCounter"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

var batchModes = []model.ConcurrencyMode{
	model.ConcurrencyLocked, model.ConcurrencyOCC, model.ConcurrencyAdaptive,
}

// TestInvokeBatchEvolvingView runs N increments in one group and
// requires each call to observe its predecessors' deltas (outputs
// 1..N) with exactly N landing in state — in every concurrency mode.
func TestInvokeBatchEvolvingView(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(string(mode), func(t *testing.T) {
			rt := newBatchRuntime(t, mode)
			ctx := context.Background()
			if err := rt.InitObjectState(ctx, "o"); err != nil {
				t.Fatal(err)
			}
			const n = 8
			calls := make([]call.Call, n)
			for i := range calls {
				calls[i] = call.Call{Member: "incr"}
			}
			results := rt.InvokeBatch(ctx, "o", calls)
			for i, res := range results {
				if res.Err != nil {
					t.Fatalf("call %d: %v", i, res.Err)
				}
				if want := fmt.Sprintf("%d", i+1); string(res.Output) != want {
					t.Fatalf("call %d output = %s, want %s (evolving view)", i, res.Output, want)
				}
			}
			if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != fmt.Sprintf("%d", n) {
				t.Fatalf("state = %s (%v), want %d", v, err, n)
			}
		})
	}
}

// TestInvokeBatchFaultIsolation interleaves failing, panicking, rogue
// and unknown calls with increments: each poisons only its own result,
// and the merged commit carries exactly the successful deltas.
func TestInvokeBatchFaultIsolation(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(string(mode), func(t *testing.T) {
			rt := newBatchRuntime(t, mode)
			ctx := context.Background()
			if err := rt.InitObjectState(ctx, "o"); err != nil {
				t.Fatal(err)
			}
			calls := []call.Call{
				{Member: "incr"},
				{Member: "boom"},
				{Member: "incr"},
				{Member: "kaboom"},
				{Member: "rogue"},
				{Member: "nosuch"},
				{Member: "incr"},
			}
			results := rt.InvokeBatch(ctx, "o", calls)
			wantErr := map[int]string{
				1: "deliberate",
				3: "handler panic",
				5: "not declared",
			}
			if res := results[4]; res.Err == nil || !strings.Contains(res.Err.Error(), "undeclared key") {
				t.Fatalf("rogue delta: err = %v, want undeclared-key error", res.Err)
			}
			for i, substr := range wantErr {
				if res := results[i]; res.Err == nil || !strings.Contains(res.Err.Error(), substr) {
					t.Fatalf("call %d: err = %v, want %q", i, res.Err, substr)
				}
			}
			for _, i := range []int{0, 2, 6} {
				if results[i].Err != nil {
					t.Fatalf("incr call %d poisoned by sibling failure: %v", i, results[i].Err)
				}
			}
			// Exactly the three successful increments landed.
			if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != "3" {
				t.Fatalf("state = %s (%v), want 3", v, err)
			}
			if _, err := rt.GetState(ctx, "o", "undeclared"); err == nil {
				t.Fatal("rogue delta key persisted")
			}
		})
	}
}

// TestHandlerPanicUnderDeadline: with a deadline armed, a handler runs on
// the watchdog's goroutine, so its panic has to be recovered there. A lone
// write, a lone readonly call and the panicking members of a group each
// fail with the panic; the group's other members commit, no handler is
// left counted as leaked, and the process lives to check.
func TestHandlerPanicUnderDeadline(t *testing.T) {
	rt := newTimedBatchRuntime(t, model.ConcurrencyAdaptive, time.Second)
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "o"); err != nil {
		t.Fatal(err)
	}
	want := func(fn string, err error) {
		t.Helper()
		if text := "runtime: handler panic in BCounter." + fn + ": mid-batch kaboom"; err == nil || err.Error() != text {
			t.Errorf("%s: err = %v, want %q", fn, err, text)
		}
	}
	_, err := rt.Invoke(ctx, "o", "kaboom", nil, nil)
	want("kaboom", err)
	_, err = rt.Invoke(ctx, "o", "peekaboom", nil, nil)
	want("peekaboom", err)
	results := rt.InvokeBatch(ctx, "o", []call.Call{{Member: "incr"}, {Member: "kaboom"}, {Member: "peekaboom"}, {Member: "incr"}})
	want("kaboom", results[1].Err)
	want("peekaboom", results[2].Err)
	for _, i := range []int{0, 3} {
		if results[i].Err != nil {
			t.Errorf("incr call %d: %v", i, results[i].Err)
		}
	}
	if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != "2" {
		t.Errorf("state = %s (%v), want the group's two increments", v, err)
	}
	if n := rt.LeakedHandlers(); n != 0 {
		t.Errorf("%d handlers counted as leaked after panicking inside their deadline", n)
	}
}

// TestInvokeBatchReadonlyBypass mixes annotated reads into a write
// group: the reads serve from the fast path (counted in the readonly
// stat) while the writers commit exactly.
func TestInvokeBatchReadonlyBypass(t *testing.T) {
	rt := newBatchRuntime(t, model.ConcurrencyOCC)
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "o"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(ctx, "o", "incr", nil, nil); err != nil {
		t.Fatal(err)
	}
	results := rt.InvokeBatch(ctx, "o", []call.Call{
		{Member: "peek"},
		{Member: "incr"},
		{Member: "incr"},
	})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("call %d: %v", i, res.Err)
		}
	}
	// The readonly call bypassed the window: it observed the committed
	// pre-batch value, not the evolving view.
	if string(results[0].Output) != "1" {
		t.Fatalf("readonly output = %s, want 1", results[0].Output)
	}
	if got := rt.ConcurrencyStats().Readonly; got != 1 {
		t.Fatalf("readonly stat = %d, want 1", got)
	}
	if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != "3" {
		t.Fatalf("state = %s (%v), want 3", v, err)
	}
}

// TestInvokeBatchInterleavesWithSingles runs concurrent per-call
// invocations against repeated batches on one hot object: the final
// count must be exact under validated group commits in every mode.
func TestInvokeBatchInterleavesWithSingles(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(string(mode), func(t *testing.T) {
			const (
				batches   = 10
				batchSize = 5
				singles   = 50
				wantTotal = batches*batchSize + singles
			)
			rt := newBatchRuntime(t, mode)
			ctx := context.Background()
			if err := rt.InitObjectState(ctx, "o"); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < singles; i++ {
					if _, err := rt.Invoke(ctx, "o", "incr", nil, nil); err != nil {
						errs <- err
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				calls := make([]call.Call, batchSize)
				for i := range calls {
					calls[i] = call.Call{Member: "incr"}
				}
				for b := 0; b < batches; b++ {
					for i, res := range rt.InvokeBatch(ctx, "o", calls) {
						if res.Err != nil {
							errs <- fmt.Errorf("batch %d call %d: %w", b, i, res.Err)
							return
						}
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != fmt.Sprintf("%d", wantTotal) {
				t.Fatalf("state = %s (%v), want %d", v, err, wantTotal)
			}
		})
	}
}

// deadlineYAML declares a counter class whose `stuck` member carries a
// 150ms deadline; `incr` inherits no timeout.
const deadlineYAML = `classes:
  - name: TCounter
    concurrencyMode: %s
    keySpecs:
      - name: value
        kind: number
        default: 0
    functions:
      - name: incr
        image: img/incr
      - name: stuck
        image: img/stuck
        timeoutMs: 150
`

// newDeadlineRuntime builds a TCounter runtime on a Manual clock whose
// img/stuck handler ignores its context entirely: it signals entered,
// blocks until release is closed and then tries to write value=99. The
// watchdog must abandon it when the clock reaches the deadline and the
// commit guards must discard its late delta.
func newDeadlineRuntime(t *testing.T, mode model.ConcurrencyMode, clock *vclock.Manual, entered chan<- struct{}, release <-chan struct{}) *ClassRuntime {
	t.Helper()
	infra := testInfra(t)
	infra.Clock = clock
	reg := invoker.NewRegistry()
	reg.Register("img/incr", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var n float64
		if raw, ok := task.State["value"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		out, _ := json.Marshal(n + 1)
		return invoker.Result{Output: out, State: map[string]json.RawMessage{"value": out}}, nil
	}))
	reg.Register("img/stuck", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		entered <- struct{}{}
		<-release
		return invoker.Result{State: map[string]json.RawMessage{"value": json.RawMessage(`99`)}}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	rt, err := New(infra, resolvedClass(t, fmt.Sprintf(deadlineYAML, mode), "TCounter"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// drainLeakedHandlers waits for abandoned handlers to return after
// their release channel is closed: each one's reaper decrements the
// gauge once its handler is back.
func drainLeakedHandlers(t *testing.T, rt *ClassRuntime) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rt.LeakedHandlers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leaked handlers never drained: %d", rt.LeakedHandlers())
		}
		goruntime.Gosched()
	}
}

// TestInvokeDeadlineExpiredNeverCommits drives a handler that ignores
// cancellation into its 150ms deadline under every concurrency mode, on
// a Manual clock: the invocation must fail with ErrDeadlineExceeded when
// the clock reaches the deadline and not before, other objects must keep
// committing while the stuck handler is still running, and the handler's
// late delta must never land.
func TestInvokeDeadlineExpiredNeverCommits(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(string(mode), func(t *testing.T) {
			clock := vclock.NewManual(time.Unix(1_700_000_000, 0))
			entered, release := make(chan struct{}, 1), make(chan struct{})
			rt := newDeadlineRuntime(t, mode, clock, entered, release)
			ctx := context.Background()
			for _, id := range []string{"o", "other"} {
				if err := rt.InitObjectState(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan error, 1)
			go func() {
				_, err := rt.Invoke(ctx, "o", "stuck", nil, nil)
				done <- err
			}()
			<-entered
			clock.Advance(149 * time.Millisecond)
			select {
			case err := <-done:
				t.Fatalf("the invocation ended before its deadline: %v", err)
			default:
			}
			clock.Advance(time.Millisecond)
			if err := <-done; !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
			}
			if got := rt.LeakedHandlers(); got != 1 {
				t.Fatalf("LeakedHandlers = %d, want 1 while the abandoned handler runs", got)
			}
			// The shard is not wedged: another object commits while the
			// abandoned handler is still blocked.
			if _, err := rt.Invoke(ctx, "other", "incr", nil, nil); err != nil {
				t.Fatalf("sibling object blocked by expired handler: %v", err)
			}
			close(release)
			drainLeakedHandlers(t, rt)
			// The late delta never committed.
			if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != "0" {
				t.Fatalf("state = %s (%v), want 0 (expired handler committed)", v, err)
			}
			// The object is healthy afterwards.
			if _, err := rt.Invoke(ctx, "o", "incr", nil, nil); err != nil {
				t.Fatal(err)
			}
			if v, _ := rt.GetState(ctx, "o", "value"); string(v) != "1" {
				t.Fatalf("post-expiry state = %s, want 1", v)
			}
		})
	}
}

// TestInvokeBatchDeadlineFailsOnlyOwnEntry puts the stuck member
// between two increments in one group-commit window on a Manual clock:
// its expiry on Advance fails only its own entry, the sibling
// increments commit exactly, and the late delta stays out of the merged
// commit — in every mode.
func TestInvokeBatchDeadlineFailsOnlyOwnEntry(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(string(mode), func(t *testing.T) {
			clock := vclock.NewManual(time.Unix(1_700_000_000, 0))
			entered, release := make(chan struct{}, 1), make(chan struct{})
			rt := newDeadlineRuntime(t, mode, clock, entered, release)
			ctx := context.Background()
			if err := rt.InitObjectState(ctx, "o"); err != nil {
				t.Fatal(err)
			}
			done := make(chan []call.Result, 1)
			go func() {
				done <- rt.InvokeBatch(ctx, "o", []call.Call{
					{Member: "incr"},
					{Member: "stuck"},
					{Member: "incr"},
				})
			}()
			<-entered
			clock.Advance(150 * time.Millisecond)
			results := <-done
			if err := results[1].Err; !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("stuck entry err = %v, want ErrDeadlineExceeded", err)
			}
			for _, i := range []int{0, 2} {
				if results[i].Err != nil {
					t.Fatalf("incr call %d poisoned by expired sibling: %v", i, results[i].Err)
				}
			}
			if got := rt.LeakedHandlers(); got != 1 {
				t.Fatalf("LeakedHandlers = %d, want 1 while the abandoned handler runs", got)
			}
			close(release)
			drainLeakedHandlers(t, rt)
			if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != "2" {
				t.Fatalf("state = %s (%v), want exactly the two increments", v, err)
			}
		})
	}
}

// TestInvokeBatchDeleteRestoresDefault verifies a mid-group delete
// (JSON null delta) resolves back to the class default for later calls
// in the same group, matching what a fresh load would observe.
func TestInvokeBatchDeleteRestoresDefault(t *testing.T) {
	infra := testInfra(t)
	reg := invoker.NewRegistry()
	reg.Register("img/incr", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var n float64
		if raw, ok := task.State["value"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		out, _ := json.Marshal(n + 1)
		return invoker.Result{Output: out, State: map[string]json.RawMessage{"value": out}}, nil
	}))
	reg.Register("img/clear", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{State: map[string]json.RawMessage{"value": json.RawMessage(`null`)}}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	yaml := `classes:
  - name: DCounter
    concurrencyMode: occ
    keySpecs:
      - name: value
        kind: number
        default: 0
    functions:
      - name: incr
        image: img/incr
      - name: clear
        image: img/clear
`
	rt, err := New(infra, resolvedClass(t, yaml, "DCounter"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "o"); err != nil {
		t.Fatal(err)
	}
	results := rt.InvokeBatch(ctx, "o", []call.Call{
		{Member: "incr"}, // 1
		{Member: "incr"}, // 2
		{Member: "clear"},
		{Member: "incr"}, // default 0 -> 1
	})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("call %d: %v", i, res.Err)
		}
	}
	if string(results[3].Output) != "1" {
		t.Fatalf("post-delete incr output = %s, want 1 (default restored)", results[3].Output)
	}
	if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != "1" {
		t.Fatalf("state = %s (%v), want 1", v, err)
	}
}
