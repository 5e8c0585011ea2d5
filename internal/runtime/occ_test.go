package runtime

// Tests for the optimistic-concurrency invocation path: mode
// resolution, the readonly fast path, lock-free commit exactness, and
// the adaptive fallback.

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/trace"
)

// occCounterYAML declares a counter class with a readonly peek method
// and an explicit concurrency mode slot filled in per test.
const occCounterYAML = `classes:
  - name: OCounter
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
      - name: sneak
        image: img/incr
        readonly: true
`

func newOCCRuntime(t *testing.T, mode model.ConcurrencyMode) *ClassRuntime {
	t.Helper()
	yaml := fmt.Sprintf(occCounterYAML, mode)
	rt, err := New(testInfra(t), resolvedClass(t, yaml, "OCounter"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestConcurrencyModeResolution(t *testing.T) {
	// Class declaration wins.
	rt := newOCCRuntime(t, model.ConcurrencyLocked)
	if got := rt.concMode; got != model.ConcurrencyLocked {
		t.Fatalf("mode = %q, want locked", got)
	}
	// Infra default applies when the class is silent.
	infra := testInfra(t)
	infra.ConcurrencyMode = model.ConcurrencyOCC
	rt2, err := New(infra, resolvedClass(t, counterYAML, "Counter"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt2.Close)
	if got := rt2.concMode; got != model.ConcurrencyOCC {
		t.Fatalf("mode = %q, want occ (infra default)", got)
	}
	// Adaptive is the default of defaults.
	rt3 := newRuntime(t, counterYAML, "Counter")
	if got := rt3.concMode; got != model.ConcurrencyAdaptive {
		t.Fatalf("mode = %q, want adaptive", got)
	}
	// A bogus platform-level default is rejected, not silently routed.
	bad := testInfra(t)
	bad.ConcurrencyMode = "lock"
	if _, err := New(bad, resolvedClass(t, counterYAML, "Counter"), stdTemplate()); err == nil ||
		!strings.Contains(err.Error(), "concurrency mode") {
		t.Fatalf("invalid infra mode: err = %v, want invalid-mode error", err)
	}
}

// TestOCCHotObjectExactness bumps one object from concurrent clients
// in pure OCC mode: version-validated commit retries must preserve
// exactness without any per-object lock.
func TestOCCHotObjectExactness(t *testing.T) {
	const clients, perEach = 4, 25
	rt := newOCCRuntime(t, model.ConcurrencyOCC)
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "o"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				if _, err := rt.Invoke(ctx, "o", "incr", nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v, err := rt.GetState(ctx, "o", "value")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != fmt.Sprintf("%d", clients*perEach) {
		t.Fatalf("counter = %s, want %d", v, clients*perEach)
	}
	cs := rt.ConcurrencyStats()
	if cs.Commits != clients*perEach {
		t.Fatalf("commits = %d, want %d", cs.Commits, clients*perEach)
	}
	if cs.Mode != "occ" {
		t.Fatalf("stats mode = %q, want occ", cs.Mode)
	}
}

// TestReadonlyFastPath verifies the annotated read path serves from
// the table without committing, and that a readonly function writing
// state fails the invocation instead of silently mutating.
func TestReadonlyFastPath(t *testing.T) {
	rt := newOCCRuntime(t, model.ConcurrencyAdaptive)
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "o"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(ctx, "o", "incr", nil, nil); err != nil {
		t.Fatal(err)
	}
	out, err := rt.Invoke(ctx, "o", "peek", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "1" {
		t.Fatalf("peek = %s, want 1", out)
	}
	if got := rt.ConcurrencyStats().Readonly; got != 1 {
		t.Fatalf("readonly invocations = %d, want 1", got)
	}
	// sneak is annotated readonly but its handler returns a delta.
	if _, err := rt.Invoke(ctx, "o", "sneak", nil, nil); err == nil ||
		!strings.Contains(err.Error(), "readonly") {
		t.Fatalf("readonly function returning a delta: err = %v, want readonly contract error", err)
	}
	// The sneak delta must not have landed.
	if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != "1" {
		t.Fatalf("state after rejected readonly write = %s (%v), want 1", v, err)
	}
}

// TestReadonlyConcurrentWithWriters interleaves readonly peeks with
// write invocations: reads must never block on the write path and
// writes must stay exact.
func TestReadonlyConcurrentWithWriters(t *testing.T) {
	const writers, readers, perEach = 2, 4, 20
	rt := newOCCRuntime(t, model.ConcurrencyOCC)
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "o"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				if _, err := rt.Invoke(ctx, "o", "incr", nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				out, err := rt.Invoke(ctx, "o", "peek", nil, nil)
				if err != nil {
					errs <- err
					return
				}
				var n float64
				if err := json.Unmarshal(out, &n); err != nil {
					errs <- fmt.Errorf("peek output %q: %w", out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v, err := rt.GetState(ctx, "o", "value")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != fmt.Sprintf("%d", writers*perEach) {
		t.Fatalf("counter = %s, want %d", v, writers*perEach)
	}
}

// TestAdaptiveFallsBackAndRecovers drives a write-hot object in
// adaptive mode long enough for the abort EWMA to degrade it to the
// barrier, then verifies single-threaded traffic brings it back to
// lock-free commits.
func TestAdaptiveFallsBackAndRecovers(t *testing.T) {
	const clients, perEach = 8, 25
	infra := testInfra(t)
	reg := invoker.NewRegistry()
	reg.Register("img/slowincr", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		var n float64
		if raw, ok := task.State["value"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		select {
		case <-time.After(200 * time.Microsecond):
		case <-ctx.Done():
			return invoker.Result{}, ctx.Err()
		}
		out, _ := json.Marshal(n + 1)
		return invoker.Result{Output: out, State: map[string]json.RawMessage{"value": out}}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	yaml := `classes:
  - name: Hot
    concurrencyMode: adaptive
    keySpecs:
      - name: value
        kind: number
        default: 0
    functions:
      - name: incr
        image: img/slowincr
        concurrency: 64
`
	rt, err := New(infra, resolvedClass(t, yaml, "Hot"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "h"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				if _, err := rt.Invoke(ctx, "h", "incr", nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v, err := rt.GetState(ctx, "h", "value")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != fmt.Sprintf("%d", clients*perEach) {
		t.Fatalf("counter = %s, want %d", v, clients*perEach)
	}
	cs := rt.ConcurrencyStats()
	if cs.Aborts == 0 {
		t.Fatalf("expected CAS aborts under %d contending clients, got none (stats %+v)", clients, cs)
	}
	if cs.Fallbacks == 0 {
		t.Fatalf("expected adaptive fallbacks under contention, got none (stats %+v)", cs)
	}
	// Quiet, uncontended traffic must decay the abort EWMA until the
	// object leaves the degraded regime.
	tr := rt.contentionFor("h")
	for i := 0; i < 200 && tr.useLocked(); i++ {
		if _, err := rt.Invoke(ctx, "h", "incr", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.useLocked() {
		t.Fatal("object never returned to lock-free commits after contention subsided")
	}
}

// TestVersionMismatchAbortTrace loses one commit race on purpose (the
// handler's first run overwrites the key behind the window's back) and
// checks how the abort is traced, for a single call and for a group:
// the aborted pass stamps abort=version_mismatch on both its commit and
// its occ.attempt span and records no span error — contention alone
// must not force a trace to be kept — and the retry commits cleanly.
func TestVersionMismatchAbortTrace(t *testing.T) {
	infra := testInfra(t)
	var rt *ClassRuntime
	var race atomic.Bool
	reg := invoker.NewRegistry()
	reg.Register("img/incr", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		var n float64
		_ = json.Unmarshal(task.State["value"], &n)
		if race.CompareAndSwap(true, false) {
			if err := rt.PutState(ctx, task.Object, "value", json.RawMessage(`100`)); err != nil {
				return invoker.Result{}, err
			}
		}
		out, _ := json.Marshal(n + 1)
		return invoker.Result{Output: out, State: map[string]json.RawMessage{"value": out}}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	rt, err := New(infra, resolvedClass(t, fmt.Sprintf(occCounterYAML, model.ConcurrencyOCC), "OCounter"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	shapes := map[string]func(ctx context.Context, id string){
		"single": func(ctx context.Context, id string) {
			if out, err := rt.Invoke(ctx, id, "incr", nil, nil); err != nil || string(out) != "101" {
				t.Errorf("invoke = %s (%v), want 101 from the retry", out, err)
			}
		},
		"group": func(ctx context.Context, id string) {
			res := rt.InvokeBatch(ctx, id, []call.Call{{Member: "incr"}, {Member: "incr"}})
			if res[0].Err != nil || res[1].Err != nil || string(res[1].Output) != "102" {
				t.Errorf("batch = %+v, want 101 and 102 from the retry", res)
			}
		},
	}
	for name, run := range shapes {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			// Unforced and unsampled, only an errored span keeps a trace.
			tr := trace.New(trace.Config{Settings: trace.Settings{SampleRate: -1}})
			root := tr.Root("test", "")
			race.Store(true)
			run(trace.ContextWith(ctx, root), name+"-unforced")
			root.End()
			if kept := tr.Stats().Kept; kept != 0 {
				t.Errorf("a version-mismatch abort alone kept the trace (%d kept)", kept)
			}

			race.Store(true)
			spans := traced(ctx, func(ctx context.Context) { run(ctx, name) })
			for _, stage := range []string{"occ.attempt", "commit"} {
				got := spansNamed(spans, stage)
				if len(got) != 2 {
					t.Fatalf("%s spans = %d, want the aborted pass and the retry", stage, len(got))
				}
				if got[0].Attrs["abort"] != "version_mismatch" || got[0].Error != "" {
					t.Errorf("aborted %s span = %+v, want abort=version_mismatch and no error", stage, got[0])
				}
				if _, aborted := got[1].Attrs["abort"]; aborted || got[1].Error != "" {
					t.Errorf("retried %s span = %+v, want a clean commit", stage, got[1])
				}
			}
			if cs := rt.ConcurrencyStats(); cs.Aborts == 0 || cs.Fallbacks != 0 {
				t.Errorf("stats = %+v, want aborts and no fallback", cs)
			}
		})
	}
}

// TestOCCSameClassSyncComposition verifies the constraint lifted by
// the optimistic path: a handler synchronously invoking another
// stateful object of the same class, which deadlocked under the
// per-object stripe lock whenever the two objects collided.
func TestOCCSameClassSyncComposition(t *testing.T) {
	infra := testInfra(t)
	reg := invoker.NewRegistry()
	var rtRef *ClassRuntime
	reg.Register("img/chain", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		// Forward to the sibling object named in the payload, if any.
		var target string
		_ = json.Unmarshal(task.Payload, &target)
		if target != "" {
			if _, err := rtRef.Invoke(ctx, target, "touch", nil, nil); err != nil {
				return invoker.Result{}, err
			}
		}
		return invoker.Result{
			Output: json.RawMessage(`"ok"`),
			State:  map[string]json.RawMessage{"value": json.RawMessage(`1`)},
		}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	yaml := `classes:
  - name: Chain
    concurrencyMode: occ
    keySpecs:
      - name: value
        kind: number
        default: 0
    functions:
      - name: touch
        image: img/chain
`
	rt, err := New(infra, resolvedClass(t, yaml, "Chain"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rtRef = rt
	ctx := context.Background()
	for _, id := range []string{"a", "b"} {
		if err := rt.InitObjectState(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := rt.Invoke(ctx, "a", "touch", json.RawMessage(`"b"`), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("same-class synchronous composition deadlocked")
	}
	for _, id := range []string{"a", "b"} {
		if v, err := rt.GetState(ctx, id, "value"); err != nil || string(v) != "1" {
			t.Fatalf("state[%s] = %s (%v), want 1", id, v, err)
		}
	}
}
