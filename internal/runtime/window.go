package runtime

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/jsonw"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/trace"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// This file is the write half of the pure-function contract (paper
// §III-C): bundle an object's state and the request into a task,
// offload it, merge the returned delta. Every state-mutating
// invocation — one call (invokeFn) or a coalesced same-object group
// (InvokeBatch) — runs as a writeWindow through runWindow, and every
// delta that reaches the state table goes through commit. A concern
// that cuts across invocations (deadline, ownership fence, span, event)
// is enforced here once.

// guardSide is how a window holds its object's guard stripe (guard.go).
type guardSide uint8

const (
	guardNone guardSide = iota
	guardShared
	guardExclusive
)

// regime is how one window is protected against concurrent windows on
// the same object: which side of the object guard it holds from load to
// commit, whether the commit validates the versions the load observed,
// and how many load→run→commit attempts it may make.
//
//	regime     guard      validated  attempts              on exhaustion
//	occ        shared     yes        maxOCCAttempts        escalates to barrier
//	barrier    exclusive  yes        maxLockedCASAttempts  terminal error
//	locked     exclusive  no         1                     —
//	stateless  none       no         1                     —
//
// A validated regime books occ.commits/aborts/retries, feeds the
// object's contention tracker and wraps each attempt in an occ.attempt
// span; an unvalidated one does none of that and cannot abort.
type regime struct {
	guard     guardSide
	validated bool
	attempts  int
}

var (
	// regimeOCC interleaves with every other shared holder; a commit
	// that lost the race re-loads and re-runs (handlers are pure
	// functions, so re-execution is safe).
	regimeOCC = regime{guard: guardShared, validated: true, attempts: maxOCCAttempts}
	// regimeBarrier drains the lock-free racers and blocks new ones, so
	// an attempt can only be aborted by guard-free writers (direct
	// PutState). The commit stays validated — only that keeps exactness
	// when regimes mix on one object — and every abort implies another
	// commit landed, so the attempt cap is a livelock backstop.
	regimeBarrier = regime{guard: guardExclusive, validated: true, attempts: maxLockedCASAttempts}
	// regimeLocked is the pessimistic mode: windows on one object queue
	// on the exclusive guard and the delta merges unconditionally.
	regimeLocked = regime{guard: guardExclusive, attempts: 1}
	// regimeStateless serves classes with no structured state: there is
	// nothing to race on, so parallel dataflow fan-out stays concurrent.
	regimeStateless = regime{guard: guardNone, attempts: 1}
)

// writeWindow is what one window runs and where its outcome goes: a
// single call (group nil, out receives the output) or a coalesced group
// (results is the caller's slice, callKeys is indexed like group). The
// shapes differ in the body run between load and commit, in how the
// outcome fans back out and in their error texts; the rest is shared.
type writeWindow struct {
	objectID string

	fn      model.FunctionDef
	payload json.RawMessage
	args    map[string]string
	out     json.RawMessage

	group    []writerCall
	results  []call.Result
	callKeys [][]string
}

// runWindow is the one driver of state-mutating invocations. It picks
// the regime from the class's concurrency mode — locked and stateless
// are fixed; occ starts lock-free; adaptive (the default) lets the
// object's abort-rate EWMA choose between occ and the barrier, going
// back to lock-free when aborts subside — and escalates an occ window
// that kept losing the commit race to the barrier, so progress never
// depends on winning a CAS. The returned error is window-level: nothing
// was committed.
//
// Because an occ window holds only the shared side of its stripe, a
// handler may synchronously invoke another stateful object of the same
// class: a nested window on a colliding stripe shares the read side. It
// can still deadlock if an exclusive acquisition (object delete/init, a
// barrier, any locked-mode window) queues between the two read holds of
// one goroutine — the nested wait then ends at the caller's deadline,
// and never without one — so dataflows/async remain the guaranteed-safe
// composition, and under locked mode same-class nesting is unsupported.
func (rt *ClassRuntime) runWindow(ctx context.Context, w *writeWindow) error {
	if len(rt.stateSpecs) == 0 {
		return rt.runRegime(ctx, w, regimeStateless, nil)
	}
	guard := rt.guardFor(w.objectID)
	if rt.concMode == model.ConcurrencyLocked {
		return rt.runRegime(ctx, w, regimeLocked, guard)
	}
	if rt.concMode != model.ConcurrencyAdaptive || !guard.contention.useLocked() {
		err := rt.runRegime(ctx, w, regimeOCC, guard)
		if !errors.Is(err, memtable.ErrVersionMismatch) {
			return err
		}
	}
	rt.reg.Counter("occ.fallbacks").Inc()
	err := rt.runRegime(ctx, w, regimeBarrier, guard)
	if !errors.Is(err, memtable.ErrVersionMismatch) {
		return err
	}
	// Under the barrier there is no further escalation.
	if w.group != nil {
		return fmt.Errorf("runtime: batch of %d on %s.%s: commit contention persisted through %d serialized attempts: %w",
			len(w.group), rt.class.Name, w.objectID, maxLockedCASAttempts, err)
	}
	return fmt.Errorf("runtime: %s.%s on %s: commit contention persisted through %d serialized attempts: %w",
		rt.class.Name, w.fn.Name, w.objectID, maxLockedCASAttempts, err)
}

// runRegime holds the guard on the regime's side and makes up to its
// attempts, re-running the whole window against a fresh snapshot after
// each version mismatch. An exclusive holder (object delete/init, a
// barrier or locked window) waits out every in-flight window, so no
// retry can resurrect a deleted object. A wait for the guard that ctx
// ends fails the window as an expired one. Exhaustion returns the last
// mismatch.
func (rt *ClassRuntime) runRegime(ctx context.Context, w *writeWindow, reg regime, guard *objectGuard) error {
	switch reg.guard {
	case guardShared:
		if guard.RLock(ctx) != nil {
			return rt.windowAbort(ctx, w)
		}
		defer guard.RUnlock()
	case guardExclusive:
		if guard.Lock(ctx) != nil {
			return rt.windowAbort(ctx, w)
		}
		defer guard.Unlock()
	}
	var lastErr error
	for attempt := 0; attempt < reg.attempts; attempt++ {
		if ctx.Err() != nil {
			return rt.windowAbort(ctx, w)
		}
		if attempt > 0 {
			rt.reg.Counter("occ.retries").Inc()
		}
		calls, err := rt.attempt(ctx, w, reg.validated, attempt)
		if !errors.Is(err, memtable.ErrVersionMismatch) {
			if err == nil && reg.validated {
				guard.contention.record(false)
				// One commit per call the window carried, so the counter
				// tracks invocations, not CAS operations.
				rt.reg.Counter("occ.commits").Add(int64(calls))
			}
			return err
		}
		guard.contention.record(true)
		rt.reg.Counter("occ.aborts").Inc()
		lastErr = err
	}
	return lastErr
}

// attempt is one load→run→commit pass; it returns how many calls the
// commit carried. The pooled scratch backing the snapshot and the
// commit ops lives exactly as long as the pass (the deferred release
// covers every exit, panic unwind included); only never-pooled state
// maps reach a handler.
//
// A validated pass runs under an "occ.attempt" span (load, handler and
// commit nest inside it). A version-mismatch abort is normal protocol
// flow — it is recorded as a span attribute, not an error, so
// contention alone never forces a trace to be kept; fence rejections
// and real failures do surface as span errors.
func (rt *ClassRuntime) attempt(ctx context.Context, w *writeWindow, validated bool, n int) (calls int, err error) {
	if validated {
		if asp := trace.FromContext(ctx).Child("occ.attempt"); asp != nil {
			asp.SetInt("attempt", n)
			ctx = trace.ContextWith(ctx, asp)
			defer func() {
				if errors.Is(err, memtable.ErrVersionMismatch) {
					asp.SetAttr("abort", "version_mismatch")
				} else {
					asp.Error(err)
				}
				asp.End()
			}()
		}
	}
	sc := getScratch()
	defer sc.release()
	snap, err := rt.loadStateVersioned(ctx, w.objectID, sc)
	if err != nil {
		return 0, err
	}
	var delta map[string]json.RawMessage
	if w.group != nil {
		delta, calls = rt.applyGroup(ctx, w, snap.state)
	} else {
		res, err := rt.runTask(ctx, w.objectID, w.fn, w.payload, w.args, snap.state)
		if err == nil {
			err = rt.validateDelta(w.fn, res.State)
		}
		if err != nil {
			return 0, err
		}
		delta, calls, w.out = res.State, 1, res.Output
	}
	if err := rt.commit(ctx, w, snap, delta, validated); err != nil {
		return 0, err
	}
	// The one success exit: aborted passes returned above, so each
	// committed call's event is published exactly once.
	rt.emit(ctx, w, delta, sc)
	return calls, nil
}

// commit is the one exit through which a delta reaches the state
// table. The body that produced the delta has already rejected
// undeclared keys (per call, naming the function). In order:
//
//   - a window whose context expired or was cancelled never commits:
//     its caller has been (or is being) failed, so a late commit would
//     be a lost-response write;
//   - an empty delta commits nothing — no span, no fence;
//   - the ops are built in the attempt's pooled scratch: one write per
//     delta key (JSON null deletes) and, when validated, the version
//     the snapshot observed as each op's expectation plus a check-only
//     op for every other state key the handlers read, so a decision
//     based on an unwritten key cannot commit against changed state
//     (write skew). model.OCCValidateKeys narrows that to the written
//     keys. Unvalidated ops expect memtable.AnyVersion;
//   - under a "commit" span, Infra.Fence may reject the commit (moved
//     ownership: the guard means nothing to the new owner). Its error
//     is not a version mismatch, so no retry re-runs against state this
//     node no longer owns;
//   - memtable.PutManyIfVersion applies all ops or none. A mismatch is
//     an attribute on the span, anything else its error.
func (rt *ClassRuntime) commit(ctx context.Context, w *writeWindow, snap stateSnapshot, delta map[string]json.RawMessage, validated bool) error {
	if ctx.Err() != nil {
		return rt.windowAbort(ctx, w)
	}
	if len(delta) == 0 {
		return nil
	}
	ops := snap.sc.ops
	clear(ops)
	if validated && !rt.occKeysOnly {
		for _, key := range snap.keys {
			ops[key] = memtable.CASOp{Expect: snap.sc.got[key].Version}
		}
	}
	for k, v := range delta {
		op := memtable.CASOp{Expect: memtable.AnyVersion, Write: true}
		var key string
		if i, inSnap := rt.keyIndex[k]; !inSnap {
			// A declared key outside the structured snapshot (a file
			// key written as state) is written unconditionally.
			key = rt.stateKey(w.objectID, k)
		} else {
			key = snap.keys[i]
			if validated {
				op.Expect = snap.sc.got[key].Version
			}
		}
		if !jsonw.IsNull(v) {
			op.Value = v
		}
		ops[key] = op
	}
	csp := trace.FromContext(ctx).Child("commit")
	if w.group != nil {
		csp.SetInt("calls", len(w.group))
	}
	var err error
	if rt.infra.Fence != nil {
		err = rt.infra.Fence(ctx, w.objectID)
	}
	if err == nil {
		err = rt.table.PutManyIfVersion(ctx, ops)
	}
	if errors.Is(err, memtable.ErrVersionMismatch) {
		csp.SetAttr("abort", "version_mismatch")
	} else {
		csp.Error(err)
	}
	csp.End()
	return err
}

// windowAbort translates the window's expired or cancelled context
// into the error its calls fail with: expiry maps to the runtime
// deadline sentinel (a group has no single function to name, so its
// text names the object), plain cancellation passes through.
func (rt *ClassRuntime) windowAbort(ctx context.Context, w *writeWindow) error {
	if w.group == nil {
		return rt.ctxAbort(ctx, w.fn)
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("runtime: batch on %s/%s: %w", rt.class.Name, w.objectID, ErrDeadlineExceeded)
	}
	return ctx.Err()
}

// emit publishes one StateChanged event per committed call whose delta
// was non-empty (no state changed, nothing to react to), after the
// commit landed: the commit's events, of one call or of a group, go out
// as one Events publication, so the durable event log appends them in
// one backing write like the commit itself; each carries its own call's
// depth and traceparent. The batch is built in the attempt's scratch:
// a slice handed through a func value would otherwise be allocated on
// every commit.
func (rt *ClassRuntime) emit(ctx context.Context, w *writeWindow, delta map[string]json.RawMessage, sc *invokeScratch) {
	if len(delta) == 0 || !rt.eventsNeeded(w.objectID) {
		return
	}
	evs := sc.events[:0]
	if w.group == nil {
		evs = append(evs, rt.stateChanged(ctx, w.objectID, w.fn.Name, deltaKeys(delta), w.args))
	}
	for gi, c := range w.group {
		if len(w.callKeys[gi]) == 0 {
			continue // failed inside the group, or wrote nothing
		}
		evs = append(evs, rt.stateChanged(cmp.Or(c.call.Ctx, ctx), w.objectID, c.fn.Name, w.callKeys[gi], c.call.Args))
	}
	sc.events = evs
	rt.infra.Events(evs)
}

// stateChanged builds one committed call's event. Keys are the sorted
// key names of its delta (deletes included), Depth its trigger-chain
// depth so chained reactions can be cycle-limited, Trace its
// traceparent so the trigger plane (dispatch, webhook delivery)
// re-joins the trace.
func (rt *ClassRuntime) stateChanged(ctx context.Context, objectID, fn string, keys []string, args map[string]string) trigger.Event {
	return trigger.Event{
		Type:     trigger.StateChanged,
		Class:    rt.class.Name,
		Object:   objectID,
		Function: fn,
		Keys:     keys,
		Depth:    trigger.DepthOf(args),
		Trace:    trace.FromContext(ctx).Traceparent(),
	}
}
