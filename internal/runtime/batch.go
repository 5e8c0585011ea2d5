package runtime

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"maps"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/jsonw"
	"github.com/hpcclab/oparaca-go/internal/model"
)

// writerCall pairs a resolved state-mutating call with its position in
// the caller's slice.
type writerCall struct {
	idx  int
	fn   model.FunctionDef
	call call.Call
}

// InvokeBatch executes a group of method calls on one object in a
// single concurrency window — the group-commit path the async queue's
// batched drain dispatches coalesced same-object invocations through.
// Instead of paying one load→run→commit window (and one simulated DB
// round trip) per call, the group pays one: its state-mutating calls
// form one writeWindow that runWindow (window.go) drives exactly like a
// single call's — same regime selection, same retry and escalation,
// same commit exit. The window loads state once, runs the handlers
// sequentially against the evolving in-memory view (applyGroup) and
// commits the merged delta in one memtable.PutManyIfVersion; a version
// mismatch re-runs the whole group (handlers are pure functions, so
// re-execution is safe).
//
// Calls annotated readonly bypass the window entirely and serve from
// the lock-free fast path. Per-call results stay independent: an
// unknown function, a handler error, a panic, or a rogue delta fails
// only that call's entry while the rest of the group commits. Handlers
// observe the deltas of earlier successful calls in the group (the
// evolving view), matching the state they would have seen had the
// calls run back-to-back.
func (rt *ClassRuntime) InvokeBatch(ctx context.Context, objectID string, calls []call.Call) []call.Result {
	results := make([]call.Result, len(calls))
	if len(calls) == 0 {
		return results
	}
	start := rt.infra.Clock.Now()
	writers := make([]writerCall, 0, len(calls))
	for i, c := range calls {
		fn, ok := rt.class.Function(c.Member)
		if !ok {
			results[i].Err = fmt.Errorf("%w: %s.%s", ErrFunctionUnknown, rt.class.Name, c.Member)
			continue
		}
		if fn.Readonly {
			callCtx, cancel := rt.withDeadline(cmp.Or(c.Ctx, ctx), fn)
			out, err := rt.invokeReadonly(callCtx, objectID, fn, c.Payload, c.Args)
			cancel()
			results[i] = call.Result{Output: out, Err: err}
			continue
		}
		writers = append(writers, writerCall{idx: i, fn: fn, call: c})
	}
	if len(writers) > 0 {
		w := writeWindow{objectID: objectID, group: writers, results: results, callKeys: make([][]string, len(writers))}
		if err := rt.runWindow(ctx, &w); err != nil {
			// Window-level failure (state load, expiry, fence, commit
			// I/O, persistent contention): nothing was committed, so
			// every call that thought it succeeded fails with it. Calls
			// that already carry their own deterministic error (handler
			// failure, panic, rogue delta) keep it — the window's error
			// explains nothing about them.
			for _, c := range writers {
				if results[c.idx].Err == nil {
					results[c.idx] = call.Result{Err: err}
				}
			}
		}
	}
	// Per-call instrumentation: every group member counts as one
	// invocation; its effective latency is the group window (the calls
	// complete together at the merged commit).
	elapsed := rt.infra.Clock.Since(start)
	lat := rt.reg.Histogram("invoke.latency")
	var failed int64
	for range calls {
		lat.Observe(elapsed)
	}
	for i := range results {
		if results[i].Err != nil {
			failed++
		}
	}
	rt.reg.Counter("invoke.total").Add(int64(len(calls)))
	rt.reg.Counter("invoke.errors").Add(failed)
	rt.meter.Mark(int64(len(calls)))
	return results
}

// applyGroup is a group window's body: it runs the group's handlers
// sequentially against the evolving state view, fills the per-call
// results and returns the merged delta (JSON null marks a delete) with
// the number of calls it carries. The view mutates as each successful
// call lands: call i+1 observes call i's writes. A failing, panicking,
// or rogue-delta call contributes nothing to the view or the merged
// delta. Each attempt overwrites every writer call's result (and its
// callKeys entry), so optimistic re-runs start clean. callKeys receives
// each successful call's sorted delta key names for the window's event
// emission (nil for failures).
func (rt *ClassRuntime) applyGroup(ctx context.Context, w *writeWindow, state map[string]json.RawMessage) (merged map[string]json.RawMessage, ok int) {
	merged = make(map[string]json.RawMessage)
	for gi, c := range w.group {
		w.callKeys[gi] = nil
		// Handlers may mutate their Task.State; a shallow clone keeps
		// the shared evolving view out of their reach.
		callCtx, cancel := rt.withDeadline(cmp.Or(c.call.Ctx, ctx), c.fn)
		res, err := rt.runTask(callCtx, w.objectID, c.fn, c.call.Payload, c.call.Args, maps.Clone(state))
		if err == nil && callCtx.Err() != nil {
			// The call's deadline expired after its handler returned:
			// its delta must not ride the group commit, and only this
			// entry fails.
			err = rt.ctxAbort(callCtx, c.fn)
		}
		cancel()
		if err == nil {
			err = rt.validateDelta(c.fn, res.State)
		}
		if err != nil {
			w.results[c.idx] = call.Result{Err: err}
			continue
		}
		w.callKeys[gi] = deltaKeys(res.State)
		for k, v := range res.State {
			merged[k] = v
			spec, _ := rt.class.Key(k)
			if spec.Kind == model.KindFile {
				// A file key written as state persists (pre-batch
				// semantics) but never appears in the structured view.
				continue
			}
			if jsonw.IsNull(v) {
				// A deleted key resolves back to its class default for
				// later calls, exactly as a fresh load would.
				if len(spec.Default) > 0 {
					state[k] = spec.Default
				} else {
					delete(state, k)
				}
				continue
			}
			state[k] = v
		}
		w.results[c.idx] = call.Result{Output: res.Output}
		ok++
	}
	return merged, ok
}

// validateDelta rejects a handler delta touching undeclared keys; a
// rogue delta persists nothing (per-call, the rest of the group is
// unaffected).
func (rt *ClassRuntime) validateDelta(fn model.FunctionDef, delta map[string]json.RawMessage) error {
	for k := range delta {
		if _, ok := rt.class.Key(k); !ok {
			return fmt.Errorf("runtime: function %s.%s wrote undeclared key %q", rt.class.Name, fn.Name, k)
		}
	}
	return nil
}
