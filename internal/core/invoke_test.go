package core

// Tests for the invoke pipeline (invoke.go): what every entry into it
// guarantees, what a hop costs, and what the routed path may allocate.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/cluster"
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

const (
	conformanceRegionRTT  = 2 * 25 * time.Millisecond
	conformanceForwardRTT = 2 * 7 * time.Millisecond
)

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

// newConformancePlatform boots ownership, two regions, both hop
// latencies and a class quota — every concern the gate carries — on a
// hopClock. The lease and the transition window outlast the test, so
// the only rebalances are the ones a test asks for and a window it
// opens stays open.
func newConformancePlatform(t *testing.T) (*Platform, *hopClock) {
	t.Helper()
	clock := newHopClock(conformanceRegionRTT, conformanceForwardRTT)
	p, err := New(Config{
		Workers:                   3,
		Regions:                   []RegionSpec{{Name: "eu", Workers: 1}},
		InterRegionLatency:        conformanceRegionRTT / 2,
		ForwardLatency:            conformanceForwardRTT / 2,
		OwnershipLeaseTTL:         time.Hour,
		OwnershipTransitionWindow: time.Hour,
		AsyncClassQuotas:          map[string]int{"EuCounter": 1024},
		ColdStart:                 time.Millisecond,
		IdleTimeout:               time.Minute,
		Clock:                     clock,
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
			return p.invokeGroup(ctx, object, calls)
		}},
	}
}

// TestInvokeEntryConformance holds every entry into the invoke
// pipeline — Invoke, InvokeRoutedFrom landing on the owner and off it,
// InvokeAsync, InvokeAsyncBatchFrom, and a coalesced group of three as
// the queue's drain hands it over — to the same contract: how an
// unknown object, an unknown member and a closed platform are refused,
// that a dataflow member runs, who pays the inter-region round trip and
// the forwarding hop and how often, who is turned away by an ownership
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
		region0, forward0, stats0 := clock.charged(conformanceRegionRTT), clock.charged(conformanceForwardRTT), p.ClusterStats()
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
			forward:    clock.charged(conformanceForwardRTT) - forward0,
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

	t.Run("ownership moves during the forward hop", func(t *testing.T) {
		p, clock := newConformancePlatform(t)
		object := create(t, p, "obj")
		owner, _ := p.Membership().Owner(object)
		clock.setOnHop(func(d time.Duration) {
			if d == conformanceForwardRTT {
				if err := p.DrainNode(owner); err != nil {
					t.Error(err)
				}
			}
		})
		stats0 := p.ClusterStats()
		forwarded := invokeEntries()[2]
		res := forwarded.run(p, "eu", object, "incr")
		clock.setOnHop(nil)
		var terr *cluster.TransitionError
		if !errors.As(res[0].Err, &terr) {
			t.Fatalf("err = %v, want TransitionError", res[0].Err)
		}
		if stats := p.ClusterStats(); stats.Forwarded != stats0.Forwarded {
			t.Errorf("a refused forward was counted as forwarded")
		}
		if n := count(t, p, object); n != 0 {
			t.Errorf("a refused forward committed %d increments", n)
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
	results := p.invokeGroup(trace.ContextWith(context.Background(), root), object, []call.Call{
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
	p := newPlatform(t, func(c *Config) { c.ScaleInterval = time.Hour })
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
	calls := make([]call.Call, 8)
	for i := range calls {
		calls[i] = call.Call{Member: "bump", Ctx: ctx}
	}
	n := testing.AllocsPerRun(500, func() {
		for i, res := range p.invokeGroup(ctx, object, calls) {
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
