package core

// Tests for the invoke pipeline (invoke.go): what every entry into it
// guarantees, what a hop costs, and what the routed path may allocate.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/israce"
	"github.com/hpcclab/oparaca-go/internal/trace"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// hopClock is the real clock, except that a Sleep of one of the hop
// round trips under test is counted and returns at once. A test asserts
// the charge — which round trips were paid, how many times — instead of
// how long a loaded host took to sleep them.
type hopClock struct {
	vclock.Real
	mu    sync.Mutex
	hops  map[time.Duration]int
	onHop func(d time.Duration) // runs inside a hop's Sleep, before it returns
}

func newHopClock(roundTrips ...time.Duration) *hopClock {
	c := &hopClock{hops: make(map[time.Duration]int)}
	for _, d := range roundTrips {
		c.hops[d] = 0
	}
	return c
}

func (c *hopClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	_, hop := c.hops[d]
	if hop {
		c.hops[d]++
	}
	hook := c.onHop
	c.mu.Unlock()
	if !hop {
		return c.Real.Sleep(ctx, d)
	}
	if hook != nil {
		hook(d)
	}
	return ctx.Err()
}

// charged reports how many hops of round trip d have been slept.
func (c *hopClock) charged(d time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hops[d]
}

func (c *hopClock) setOnHop(f func(time.Duration)) {
	c.mu.Lock()
	c.onHop = f
	c.mu.Unlock()
}

const conformanceRegionRTT = 2 * 25 * time.Millisecond

// conformancePackage is an eu-pinned counter: incr bumps count, flow is
// a one-step dataflow over incr.
const conformancePackage = `classes:
  - name: EuCounter
    constraint:
      jurisdiction: eu
    keySpecs:
      - name: count
        kind: number
        default: 0
    functions:
      - name: incr
        image: img/incr
    dataflows:
      - name: flow
        steps:
          - name: s0
            function: incr
`

// newConformancePlatform boots ownership, two regions, the inter-region
// latency, a class quota and tracing that keeps every trace — every
// concern the gate carries — on a hopClock. The lease and the
// transition window outlast the test, so the only rebalances are the
// ones a test asks for and a window it opens stays open.
func newConformancePlatform(t *testing.T) (*Platform, *hopClock) {
	t.Helper()
	clock := newHopClock(conformanceRegionRTT)
	p, err := New(Config{
		Workers:            3,
		Regions:            []RegionSpec{{Name: "eu", Workers: 1}},
		InterRegionLatency: conformanceRegionRTT / 2,
		OwnershipLeaseTTL:  time.Hour,
		EnableTracing:      true,
		Trace:              trace.Settings{SampleRate: 1},
		Async:              asyncq.Settings{ClassQuotas: map[string]int{"EuCounter": 1024}},
		FaaS:               faas.Settings{ColdStart: time.Millisecond, IdleTimeout: time.Minute},
		Clock:              clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/incr", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		n, _ := strconv.Atoi(string(task.State["count"]))
		next := json.RawMessage(strconv.Itoa(n + 1))
		return invoker.Result{Output: next, State: map[string]json.RawMessage{"count": next}}, nil
	}))
	if _, err := p.DeployYAML(context.Background(), []byte(conformancePackage)); err != nil {
		t.Fatal(err)
	}
	return p, clock
}

// invokeEntry is one way into the pipeline. run drives members of one
// object through it — one call each for a single-call entry, all of
// them in one request for a batch or a group — and returns each
// member's final outcome (for an async entry: the submission error, or
// the terminal record's).
type invokeEntry struct {
	name string
	// routed entries arrive through the front door: they pay hops from
	// region, and the sync ones are turned away by a transition window.
	routed, sync bool
	// forwards reports whether a routed sync entry lands off the owner.
	forwards bool
	run      func(p *Platform, region, object string, members ...string) []call.Result
}

func invokeEntries() []invokeEntry {
	ctx := context.Background()
	each := func(members []string, one func(member string) call.Result) []call.Result {
		out := make([]call.Result, len(members))
		for i, m := range members {
			out[i] = one(m)
		}
		return out
	}
	await := func(p *Platform, id string, err error) call.Result {
		if err != nil {
			return call.Result{Err: err}
		}
		rec, err := p.WaitInvocation(ctx, id)
		if err == nil && rec.Status != asyncq.StatusCompleted {
			err = errors.New(rec.Error)
		}
		return call.Result{Output: rec.Result, Err: err}
	}
	// via picks the ingress node of a routed call: the object's owner, or
	// any other member.
	via := func(p *Platform, object string, owner bool) string {
		own, _ := p.Membership().Owner(object)
		if owner {
			return own
		}
		for _, name := range p.Membership().LiveNames() {
			if name != own {
				return name
			}
		}
		return own
	}
	routed := func(owner bool) func(p *Platform, region, object string, members ...string) []call.Result {
		return func(p *Platform, region, object string, members ...string) []call.Result {
			return each(members, func(m string) call.Result {
				out, _, err := p.InvokeRoutedFrom(ctx, region, via(p, object, owner), object, m, nil, nil)
				return call.Result{Output: out, Err: err}
			})
		}
	}
	return []invokeEntry{
		{name: "Invoke", sync: true, run: func(p *Platform, _, object string, members ...string) []call.Result {
			return each(members, func(m string) call.Result {
				out, err := p.Invoke(ctx, object, m, nil, nil)
				return call.Result{Output: out, Err: err}
			})
		}},
		{name: "InvokeRoutedFrom/owner-local", routed: true, sync: true, run: routed(true)},
		{name: "InvokeRoutedFrom/forwarded", routed: true, sync: true, forwards: true, run: routed(false)},
		{name: "InvokeAsync", run: func(p *Platform, _, object string, members ...string) []call.Result {
			return each(members, func(m string) call.Result {
				id, err := p.InvokeAsync(ctx, object, m, nil, nil)
				return await(p, id, err)
			})
		}},
		{name: "InvokeAsyncBatchFrom", routed: true, run: func(p *Platform, region, object string, members ...string) []call.Result {
			reqs := make([]asyncq.Request, len(members))
			for i, m := range members {
				reqs[i] = asyncq.Request{Object: object, Member: m}
			}
			out := make([]call.Result, len(members))
			for i, res := range p.InvokeAsyncBatchFrom(ctx, region, reqs) {
				out[i] = await(p, res.ID, res.Err)
			}
			return out
		}},
		{name: "drained group", run: func(p *Platform, _, object string, members ...string) []call.Result {
			calls := make([]call.Call, len(members))
			for i, m := range members {
				calls[i] = call.Call{Member: m, Ctx: ctx}
			}
			return drainGroup(ctx, p, object, calls)
		}},
	}
}

// drainGroup runs calls as the async queue drains a group: through
// invokeGroup, on a results slice the caller owns.
func drainGroup(ctx context.Context, p *Platform, objectID string, calls []call.Call) []call.Result {
	results := make([]call.Result, len(calls))
	p.invokeGroup(ctx, objectID, calls, results)
	return results
}

// TestInvokeEntryConformance holds every entry into the invoke
// pipeline — Invoke, InvokeRoutedFrom landing on the owner and off it,
// InvokeAsync, InvokeAsyncBatchFrom, and a coalesced group of three as
// the queue's drain hands it over — to the same contract: how an
// unknown object, an unknown member and a closed platform are refused,
// that a dataflow member runs, who pays the inter-region round trip and
// how often, which call is forwarded to the owner (its "forward" span),
// who is turned away by an ownership
// transition window (only a synchronous routed call: the platform's own
// dispatch proceeds and commits, because the fence is what keeps it
// correct), what the router's counters record, and that nothing looks
// the object up a second time once the gate is passed.
//
// One ordering consequence of the single pipeline: resolve runs before
// the gate, so a routed call on an unknown object inside a transition
// window answers ErrObjectNotFound (404), not TransitionError (503).
func TestInvokeEntryConformance(t *testing.T) {
	ctx := context.Background()
	count := func(t *testing.T, p *Platform, object string) int {
		t.Helper()
		raw, err := p.GetState(ctx, object, "count")
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.Atoi(string(raw))
		if err != nil {
			t.Fatalf("count = %s", raw)
		}
		return n
	}
	create := func(t *testing.T, p *Platform, id string) string {
		t.Helper()
		if _, err := p.CreateObject(ctx, "EuCounter", id); err != nil {
			t.Fatal(err)
		}
		return id
	}
	// forEntry runs one column's check against every entry on one
	// platform, each entry on an object of its own.
	forEntry := func(t *testing.T, column string, check func(t *testing.T, p *Platform, clock *hopClock, e invokeEntry, object string)) {
		t.Run(column, func(t *testing.T) {
			p, clock := newConformancePlatform(t)
			for i, e := range invokeEntries() {
				t.Run(e.name, func(t *testing.T) {
					check(t, p, clock, e, create(t, p, fmt.Sprintf("obj-%d", i)))
				})
			}
		})
	}

	forEntry(t, "unknown object", func(t *testing.T, p *Platform, _ *hopClock, e invokeEntry, _ string) {
		for i, res := range e.run(p, "eu", "ghost", "incr", "incr", "incr") {
			if !errors.Is(res.Err, ErrObjectNotFound) {
				t.Errorf("call %d err = %v, want ErrObjectNotFound", i, res.Err)
			}
		}
	})

	forEntry(t, "unknown member fails only itself", func(t *testing.T, p *Platform, _ *hopClock, e invokeEntry, object string) {
		res := e.run(p, "eu", object, "incr", "nosuch", "incr")
		if res[0].Err != nil || res[2].Err != nil {
			t.Errorf("known members failed: %v, %v", res[0].Err, res[2].Err)
		}
		if !errors.Is(res[1].Err, ErrMemberNotFound) {
			t.Errorf("unknown member err = %v, want ErrMemberNotFound", res[1].Err)
		}
		if n := count(t, p, object); n != 2 {
			t.Errorf("count = %d, want 2", n)
		}
	})

	forEntry(t, "dataflow member runs", func(t *testing.T, p *Platform, _ *hopClock, e invokeEntry, object string) {
		for i, res := range e.run(p, "eu", object, "incr", "flow", "incr") {
			if res.Err != nil {
				t.Errorf("call %d: %v", i, res.Err)
			}
		}
		if n := count(t, p, object); n != 3 {
			t.Errorf("count = %d, want 3", n)
		}
	})

	t.Run("closed platform", func(t *testing.T) {
		p, _ := newConformancePlatform(t)
		object := create(t, p, "obj")
		p.Close()
		for _, e := range invokeEntries() {
			for i, res := range e.run(p, "eu", object, "incr", "incr", "incr") {
				if !errors.Is(res.Err, ErrClosed) {
					t.Errorf("%s call %d err = %v, want ErrClosed", e.name, i, res.Err)
				}
			}
		}
	})

	forEntry(t, "hops and router counters", func(t *testing.T, p *Platform, clock *hopClock, e invokeEntry, object string) {
		// forwardSpans counts the "forward" spans of the kept traces: the
		// platform keeps every trace, and a synchronous call's trace is
		// kept before the call returns.
		forwardSpans := func() int {
			n := 0
			for _, v := range p.Tracer().Traces(0) {
				for _, sp := range v.Spans {
					if sp.Name == "forward" {
						n++
					}
				}
			}
			return n
		}
		region0, forward0, stats0 := clock.charged(conformanceRegionRTT), forwardSpans(), p.ClusterStats()
		// A default-region client, an eu object: one call for a
		// single-call entry, one request of three for a batch or a group.
		members := []string{"incr", "incr", "incr"}
		if e.sync {
			members = members[:1]
		}
		for i, res := range e.run(p, "", object, members...) {
			if res.Err != nil {
				t.Fatalf("call %d: %v", i, res.Err)
			}
		}
		type tally struct{ region, forward, forwarded, ownerLocal int }
		var want tally
		if e.routed {
			want.region = 1
		}
		if e.routed && e.sync {
			if e.forwards {
				want.forward, want.forwarded = 1, 1
			} else {
				want.ownerLocal = 1
			}
		}
		stats := p.ClusterStats()
		got := tally{
			region:     clock.charged(conformanceRegionRTT) - region0,
			forward:    forwardSpans() - forward0,
			forwarded:  int(stats.Forwarded - stats0.Forwarded),
			ownerLocal: int(stats.OwnerLocal - stats0.OwnerLocal),
		}
		if got != want {
			t.Errorf("charged and counted %+v, want %+v", got, want)
		}
		// The same entry from the object's own region pays no region hop.
		if e.run(p, "eu", object, members...); clock.charged(conformanceRegionRTT)-region0 != want.region {
			t.Errorf("a same-region call paid the inter-region round trip")
		}
	})

	// A forwarded call is stamped at the gate, so an owner that moves
	// while the call runs is caught by the commit fence: the call fails
	// retryably and commits nothing, though the forward itself happened.
	t.Run("ownership moves during the forwarded call", func(t *testing.T) {
		p, _ := newConformancePlatform(t)
		object := create(t, p, "obj")
		owner, _ := p.Membership().Owner(object)
		p.Images().Register("img/incr", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
			if err := p.DrainNode(owner); err != nil {
				t.Error(err)
			}
			return invoker.Result{State: map[string]json.RawMessage{"count": json.RawMessage(`1`)}}, nil
		}))
		stats0 := p.ClusterStats()
		forwarded := invokeEntries()[2]
		res := forwarded.run(p, "eu", object, "incr")
		if !errors.Is(res[0].Err, cluster.ErrOwnershipMoved) {
			t.Fatalf("err = %v, want ErrOwnershipMoved", res[0].Err)
		}
		stats := p.ClusterStats()
		if stats.Forwarded != stats0.Forwarded+1 {
			t.Errorf("forwarded %d calls, want 1", stats.Forwarded-stats0.Forwarded)
		}
		if stats.FenceRejections != stats0.FenceRejections+1 {
			t.Errorf("the fence refused %d commits, want 1", stats.FenceRejections-stats0.FenceRejections)
		}
		if n := count(t, p, object); n != 0 {
			t.Errorf("a fenced call committed %d increments", n)
		}
	})

	t.Run("open transition window", func(t *testing.T) {
		p, _ := newConformancePlatform(t)
		// Drain first, create after: the window is open and the owners the
		// objects get are the ones they keep.
		if err := p.DrainNode(p.Membership().LiveNames()[0]); err != nil {
			t.Fatal(err)
		}
		if !p.ClusterStats().Moving {
			t.Fatal("drain opened no transition window")
		}
		objects := make([]string, len(invokeEntries()))
		for i := range objects {
			objects[i] = create(t, p, fmt.Sprintf("obj-%d", i))
		}
		for i, e := range invokeEntries() {
			res := e.run(p, "eu", objects[i], "incr", "incr", "incr")
			var terr *cluster.TransitionError
			if e.routed && e.sync {
				// Routed: fast-fail, retryably, nothing run.
				for j := range res {
					if !errors.As(res[j].Err, &terr) {
						t.Errorf("%s call %d err = %v, want TransitionError", e.name, j, res[j].Err)
					}
				}
				if n := count(t, p, objects[i]); n != 0 {
					t.Errorf("%s committed %d increments inside the window", e.name, n)
				}
				// Resolve comes first: an unknown object is a 404 even here.
				if ghost := e.run(p, "eu", "ghost", "incr"); !errors.Is(ghost[0].Err, ErrObjectNotFound) {
					t.Errorf("%s on an unknown object inside the window: %v, want ErrObjectNotFound", e.name, ghost[0].Err)
				}
				continue
			}
			for j := range res {
				if res[j].Err != nil {
					t.Errorf("%s call %d inside the window: %v, want it to proceed", e.name, j, res[j].Err)
				}
			}
			if n := count(t, p, objects[i]); n != 3 {
				t.Errorf("%s committed %d of 3 increments inside the window", e.name, n)
			}
		}
	})

	// Once the gate is passed nothing consults the directory again: the
	// entry is taken out of it while the call sleeps its inter-region
	// hop, and the call is still served (sync) or accepted (async) — on
	// a platform with class quotas, where the submission needs the
	// object's class as well as its runtime and deadline.
	t.Run("one directory lookup", func(t *testing.T) {
		p, clock := newConformancePlatform(t)
		vanish := func(object string) {
			clock.setOnHop(func(d time.Duration) {
				if d == conformanceRegionRTT {
					p.mu.Lock()
					delete(p.dir, object)
					p.mu.Unlock()
				}
			})
		}
		defer clock.setOnHop(nil)
		object := create(t, p, "sync")
		vanish(object)
		if out, _, err := p.InvokeRoutedFrom(ctx, "", "", object, "incr", nil, nil); err != nil || string(out) != "1" {
			t.Errorf("routed invoke = %s, %v; want it served from the target it resolved", out, err)
		}
		object = create(t, p, "async")
		vanish(object)
		res := p.InvokeAsyncBatchFrom(ctx, "", []asyncq.Request{{Object: object, Member: "incr"}})[0]
		if res.Err != nil {
			t.Errorf("async submission rejected after its target was resolved: %v", res.Err)
		}
		if clock.charged(conformanceRegionRTT) != 2 {
			t.Fatalf("charged %d inter-region hops, want 2 (the hook never ran)", clock.charged(conformanceRegionRTT))
		}
	})
}

// TestMixedGroupCommitsItsFunctionsOnce: a drained group with a
// dataflow and a stale member in it is still a group for its functions.
// They share one window — one merged commit carrying all three — while
// the dataflow commits its own step and the stale member fails alone;
// invoking the five one by one would commit four times.
func TestMixedGroupCommitsItsFunctionsOnce(t *testing.T) {
	p, _ := newConformancePlatform(t)
	object, err := p.CreateObject(context.Background(), "EuCounter", "mixed")
	if err != nil {
		t.Fatal(err)
	}
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	tr := trace.New(trace.Config{})
	root := tr.Root("test", "00-"+traceID+"-00f067aa0ba902b7-01")
	results := drainGroup(trace.ContextWith(context.Background(), root), p, object, []call.Call{
		{Member: "incr"}, {Member: "flow"}, {Member: "incr"}, {Member: "nosuch"}, {Member: "incr"},
	})
	root.End()
	for i, res := range results {
		if i == 3 {
			if !errors.Is(res.Err, ErrMemberNotFound) {
				t.Errorf("stale member: err = %v, want ErrMemberNotFound", res.Err)
			}
		} else if res.Err != nil {
			t.Errorf("call %d: %v", i, res.Err)
		}
	}
	if count, err := p.GetState(context.Background(), object, "count"); err != nil || string(count) != "4" {
		t.Errorf("count = %s (%v), want 4: three functions and the dataflow's step", count, err)
	}
	view, _ := tr.TraceByID(traceID)
	var commits []any // each commit span's "calls" attr; nil for a single call's
	for _, sp := range view.Spans {
		if sp.Name == "commit" {
			commits = append(commits, sp.Attrs["calls"])
		}
	}
	if len(commits) != 2 || commits[0] != nil || commits[1] != int64(3) {
		t.Errorf("commit spans carry calls = %v, want the dataflow step's own, then one merged commit of 3", commits)
	}
}

// TestRoutedInvokeAllocationBudget pins what the gate may allocate on
// the routed path — resolve, the ownership route, the admission stamp —
// with tracing off: a warm readonly call that lands on the owner, and
// one forwarded to it.
func TestRoutedInvokeAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := newPlatform(t, func(c *Config) { c.OwnershipLeaseTTL = time.Hour })
	p.Images().Register("img/peek", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.State["v"]}, nil
	}))
	ctx := context.Background()
	pkg := "classes:\n  - name: Peek\n    keySpecs:\n      - name: v\n        default: 1\n    functions:\n      - name: peek\n        image: img/peek\n        readonly: true\n"
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	object, err := p.CreateObject(ctx, "Peek", "o")
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.Membership().Owner(object)
	other := owner
	for _, name := range p.Membership().LiveNames() {
		if name != owner {
			other = name
		}
	}
	for _, tc := range []struct {
		name, via string
		ceiling   float64
	}{
		// What the eight entrypoints this pipeline replaced measured: the
		// runtime's four (TestSpreadInvokeAllocationBudget) and the
		// admission stamp's context value with its boxed stamp.
		{"owner-local", owner, 6},
		{"forwarded", other, 6},
	} {
		n := testing.AllocsPerRun(2000, func() {
			if _, _, err := p.InvokeRoutedFrom(ctx, "", tc.via, object, "peek", nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.ceiling {
			t.Errorf("%s routed invoke allocates %.0f per call, budget %.0f", tc.name, n, tc.ceiling)
		}
	}
}

// TestCoalescedDispatchAllocationBudget pins what the platform's side
// of the queue's InvokeBatch hook may allocate for a coalesced group of
// eight function calls: the runtime's group window
// (TestWriteInvokeAllocationBudget's shape, half the size) and nothing
// of the platform's own — the group is handed to the runtime as it came.
func TestCoalescedDispatchAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// The autoscaler's evaluation allocates on its own goroutine; at the
	// helper's 10 ms period it lands in about half the measurements.
	p := newPlatform(t, func(c *Config) { c.FaaS.ScaleInterval = time.Hour })
	delta := map[string]json.RawMessage{"n": json.RawMessage(`2`)}
	p.Images().Register("img/bump", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{State: delta}, nil
	}))
	ctx := context.Background()
	pkg := "classes:\n  - name: Hot\n    keySpecs:\n      - name: n\n        default: 1\n    functions:\n      - name: bump\n        image: img/bump\n"
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	object, err := p.CreateObject(ctx, "Hot", "o")
	if err != nil {
		t.Fatal(err)
	}
	calls, results := make([]call.Call, 8), make([]call.Result, 8)
	for i := range calls {
		calls[i] = call.Call{Member: "bump", Ctx: ctx}
	}
	n := testing.AllocsPerRun(500, func() {
		clear(results)
		p.invokeGroup(ctx, object, calls, results)
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("call %d: %v", i, res.Err)
			}
		}
	})
	const ceiling = 46 // 51 when the hook copied the group in and the results out
	if n > ceiling {
		t.Errorf("a coalesced group of 8 allocates %.0f, budget %d", n, ceiling)
	}
}

// TestDrainedSingletonIsInvoke: a call that drains alone is a group of
// one, and invokeGroup hands it to Invoke, so its record says what Invoke
// returns for the same call — the result, the handler's error text (a
// panic's included) and an elapsed deadline as expired. And a panicking
// dataflow set aside from a group fails alone: the group's functions
// commit. The platform runs on a Manual clock, where the slow handler
// takes its 100 ms by advancing it.
func TestDrainedSingletonIsInvoke(t *testing.T) {
	clock := vclock.NewManual(time.Unix(1_700_000_000, 0))
	p := newPlatform(t, func(c *Config) { c.Clock = clock })
	reg := p.Images()
	reg.Register("img/s-bump", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var n int
		_ = json.Unmarshal(task.State["n"], &n)
		return invoker.Result{Output: json.RawMessage(`"ok"`), State: map[string]json.RawMessage{"n": json.RawMessage(strconv.Itoa(n + 1))}}, nil
	}))
	reg.Register("img/s-fail", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{}, errors.New("deliberate")
	}))
	reg.Register("img/s-boom", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		panic("boom")
	}))
	reg.Register("img/s-slow", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		clock.Advance(100 * time.Millisecond) // ignores its context
		return invoker.Result{Output: json.RawMessage(`"late"`)}, nil
	}))
	ctx := context.Background()
	pkg := `classes:
  - name: Single
    constraint:
      persistent: false
    keySpecs:
      - name: n
        default: 0
    functions:
      - name: bump
        image: img/s-bump
      - name: fail
        image: img/s-fail
      - name: boom
        image: img/s-boom
      - name: slow
        image: img/s-slow
        timeoutMs: 10
    dataflows:
      - name: flow
        steps:
          - name: s0
            function: boom
`
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	object, err := p.CreateObject(ctx, "Single", "one")
	if err != nil {
		t.Fatal(err)
	}
	for member, want := range map[string]asyncq.Status{
		"bump": asyncq.StatusCompleted,
		"fail": asyncq.StatusFailed,
		"boom": asyncq.StatusFailed,
		"flow": asyncq.StatusFailed,
		"slow": asyncq.StatusExpired,
	} {
		out, err := p.Invoke(ctx, object, member, nil, nil)
		id, serr := p.InvokeAsync(ctx, object, member, nil, nil)
		if serr != nil {
			t.Fatal(serr)
		}
		rec, werr := p.WaitInvocation(ctx, id)
		if werr != nil {
			t.Fatal(werr)
		}
		if rec.Status != want {
			t.Errorf("%s: drained alone it is %s (%q), want %s", member, rec.Status, rec.Error, want)
		}
		if err != nil {
			if rec.Error != err.Error() {
				t.Errorf("%s: drained alone it fails with %q, Invoke with %q", member, rec.Error, err)
			}
		} else if string(rec.Result) != string(out) {
			t.Errorf("%s: drained alone it returns %s, Invoke %s", member, rec.Result, out)
		}
	}
	if _, err := p.Invoke(ctx, object, "boom", nil, nil); err == nil || !strings.Contains(err.Error(), "handler panic in Single.boom: boom") {
		t.Errorf("a panicking handler: err = %v, want the runtime's handler panic", err)
	}
	before, err := p.GetState(ctx, object, "n")
	if err != nil {
		t.Fatal(err)
	}
	results := drainGroup(ctx, p, object, []call.Call{{Member: "bump", Ctx: ctx}, {Member: "flow", Ctx: ctx}, {Member: "bump", Ctx: ctx}})
	if err := results[1].Err; err == nil || !strings.Contains(err.Error(), "handler panic in Single.boom") {
		t.Errorf("the panicking dataflow: err = %v, want its own handler panic", err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("function %d of the group: %v", i, results[i].Err)
		}
	}
	var n0, n1 int
	after, err := p.GetState(ctx, object, "n")
	if err != nil || json.Unmarshal(before, &n0) != nil || json.Unmarshal(after, &n1) != nil || n1 != n0+2 {
		t.Errorf("n went %s → %s (%v), want the group's two bumps", before, after, err)
	}
}

// TestDataflowDeadlineCoversTheWholeFlow: a dataflow runs under its
// class's timeoutMs as a whole, called or queued, not only step by step.
// Two steps that each fit the deadline but together exceed it expire the
// flow when the platform's Manual clock passes it, and the second step
// is abandoned.
func TestDataflowDeadlineCoversTheWholeFlow(t *testing.T) {
	clock := vclock.NewManual(time.Unix(1_700_000_000, 0))
	p := newPlatform(t, func(c *Config) { c.Clock = clock })
	// Unbuffered, so each release is taken by the step that entered last,
	// abandoned or not, and none is left over for a later step.
	entered, release := make(chan struct{}), make(chan struct{})
	p.Images().Register("img/step", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		entered <- struct{}{}
		<-release // ignores its context
		return invoker.Result{Output: json.RawMessage(`"done"`)}, nil
	}))
	ctx := context.Background()
	pkg := `classes:
  - name: Flow
    timeoutMs: 100
    constraint:
      persistent: false
    functions:
      - name: step
        image: img/step
    dataflows:
      - name: flow
        steps:
          - name: a
            function: step
          - name: b
            function: step
            after: [a]
`
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	object, err := p.CreateObject(ctx, "Flow", "f")
	if err != nil {
		t.Fatal(err)
	}
	// run starts the flow, lets each step take 60 ms of the clock and
	// returns how the flow ended.
	run := func(start func(done chan<- error)) error {
		done := make(chan error, 1)
		go start(done)
		for range 2 {
			select {
			case <-entered:
			case err := <-done:
				return err
			}
			clock.Advance(60 * time.Millisecond)
			release <- struct{}{}
		}
		return <-done
	}
	if err := run(func(done chan<- error) {
		_, err := p.Invoke(ctx, object, "flow", nil, nil)
		done <- err
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("called: err = %v, want the flow's deadline", err)
	}
	if err := run(func(done chan<- error) {
		id, err := p.InvokeAsync(ctx, object, "flow", nil, nil)
		if err == nil {
			var rec asyncq.Record
			if rec, err = p.WaitInvocation(ctx, id); err == nil && rec.Status != asyncq.StatusExpired {
				err = fmt.Errorf("queued: status %s (%q), want expired", rec.Status, rec.Error)
			}
		}
		done <- err
	}); err != nil {
		t.Error(err)
	}
}

// TestFencedDataflowStepIsNotRetried: a dataflow whose second step is
// fenced after its first committed has persisted part of its work, so
// its error does not read as the fence's. Queued, it ends failed instead
// of being requeued onto the new owner, where its first step would apply
// twice; called, it does not answer "ownership moved, nothing persisted".
func TestFencedDataflowStepIsNotRetried(t *testing.T) {
	p := newPlatform(t, func(c *Config) { c.Workers = 3; c.OwnershipLeaseTTL = time.Hour })
	var object string
	var fence atomic.Bool
	bump := func(task invoker.Task) invoker.Result {
		n, _ := strconv.Atoi(string(task.State["n"]))
		next := json.RawMessage(strconv.Itoa(n + 1))
		return invoker.Result{Output: next, State: map[string]json.RawMessage{"n": next}}
	}
	p.Images().Register("img/f-bump", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return bump(task), nil
	}))
	// img/f-moved drains the object's owner once armed, so the commit of
	// its delta, admitted on that owner, is fenced.
	p.Images().Register("img/f-moved", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		if fence.CompareAndSwap(true, false) {
			owner, _ := p.Membership().Owner(object)
			if err := p.DrainNode(owner); err != nil {
				return invoker.Result{}, err
			}
		}
		return bump(task), nil
	}))
	ctx := context.Background()
	pkg := `classes:
  - name: Fenced
    keySpecs:
      - name: n
        default: 0
    functions:
      - name: bump
        image: img/f-bump
      - name: moved
        image: img/f-moved
    dataflows:
      - name: flow
        steps:
          - name: a
            function: bump
          - name: b
            function: moved
            after: [a]
`
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	var err error
	if object, err = p.CreateObject(ctx, "Fenced", "f"); err != nil {
		t.Fatal(err)
	}
	n := func() string {
		raw, err := p.GetState(ctx, object, "n")
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	fence.Store(true)
	id, err := p.InvokeAsync(ctx, object, "flow", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.WaitInvocation(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != asyncq.StatusFailed {
		t.Errorf("queued: status %s (%q), want failed", rec.Status, rec.Error)
	}
	if got := n(); got != "1" {
		t.Errorf("queued: n = %s, want 1 (step a once)", got)
	}

	fence.Store(true)
	_, err = p.Invoke(ctx, object, "flow", nil, nil)
	if err == nil || !strings.Contains(err.Error(), cluster.ErrOwnershipMoved.Error()) {
		t.Errorf("called: err = %v, want the fenced step's failure", err)
	}
	if errors.Is(err, cluster.ErrOwnershipMoved) {
		t.Errorf("called: err = %v matches ErrOwnershipMoved", err)
	}
	if got := n(); got != "2" {
		t.Errorf("called: n = %s, want 2 (step a's commit kept)", got)
	}
}

// TestOnlyWritesTakeTheirObjectsTurn: the queue is told that a call
// writes — and so waits in its object's box, run by one worker at a
// time — only for a function not declared readonly. A readonly function and a
// dataflow run outside the group window, beside the object's writes.
func TestOnlyWritesTakeTheirObjectsTurn(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	const pkg = "classes:\n  - name: Doc\n    functions:\n      - name: edit\n        image: img/echo\n      - name: peek\n        image: img/echo\n        readonly: true\n    dataflows:\n      - name: flow\n        steps:\n          - name: s0\n            function: edit\n"
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	object, err := p.CreateObject(ctx, "Doc", "d")
	if err != nil {
		t.Fatal(err)
	}
	for member, want := range map[string]bool{"edit": true, "peek": false, "flow": false} {
		if got := p.asyncTarget(object, member).Writes; got != want {
			t.Errorf("%s: Writes = %v, want %v", member, got, want)
		}
	}
}
