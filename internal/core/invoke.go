// The invoke pipeline: every way of invoking an object — in-process,
// through the gateway's router, drained from the async queue as a
// single task or a coalesced group, or submitted to that queue — is
// the same three steps. resolve finds what the call names (the one
// directory lookup), enter is the gate where it pays for the distance
// it travelled and acquires its place under the ownership layer, and a
// body either runs it (serve) or queues it (submit). A new
// cross-cutting concern has one place to go, not one per entrypoint.
package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/runtime"
	"github.com/hpcclab/oparaca-go/internal/trace"
)

// origin is where an invocation came from. The zero origin is the
// platform's own dispatch — a library caller, an async drain, a
// trigger-chain target: it pays for no distance and is never turned
// away by an ownership transition window, because the commit fence is
// what keeps it correct. A routed origin came in through the front
// door (the gateway): a client in region, landing on ingress node via.
type origin struct {
	region string // "" is the default region
	via    string // "" lets the router pick, round-robin
	routed bool
}

// crosses reports whether a request from o leaves its region to reach
// t's home.
func (o origin) crosses(t target) bool {
	return o.routed && homeRegion(t.rt) != cmp.Or(o.region, cluster.DefaultRegion)
}

// target is what an (object, member) pair resolves to.
type target struct {
	rt       *runtime.ClassRuntime
	class    string
	dataflow bool // member is a dataflow, not a function
}

// resolve looks an invocation's target up: one Platform.mu acquisition,
// the only one on the invoke path. A member the class does not have
// fails with the object half of the target filled in: an adopted record
// still counts against its class's quota (asyncTarget).
func (p *Platform) resolve(objectID, member string) (target, error) {
	rt, class, err := p.objectRuntime(objectID)
	if err != nil {
		return target{}, err
	}
	t := target{rt: rt, class: class}
	if _, ok := rt.Class().Function(member); !ok {
		if _, t.dataflow = rt.Class().Dataflow(member); !t.dataflow {
			return t, fmt.Errorf("%w: %s.%s", ErrMemberNotFound, class, member)
		}
	}
	return t, nil
}

// queued is what the async queue is told of a call on t: the class its
// quota counts against and member's declared deadline (the class's, for
// a dataflow). Only a queued call has a use for the deadline — the
// runtime enforces its own on a synchronous one — so it is worked out
// here and not in resolve.
func (t target) queued(member string) asyncq.Target {
	if t.rt == nil {
		return asyncq.Target{}
	}
	fn, _ := t.rt.Class().Function(member)
	return asyncq.Target{Class: t.class, Timeout: t.rt.EffectiveTimeout(fn)}
}

// hop charges one network round trip — request in, response out — at
// one-way latency d, for both distances the platform models: between
// regions and from an ingress node to the owner.
func (p *Platform) hop(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	return p.cfg.Clock.Sleep(ctx, 2*d)
}

// enter is the gate: the invocation pays the inter-region round trip if
// its origin is in another region, then acquires its place — the
// admission stamp (owner, epoch) the commit fence will validate, and
// the node that serves it. A routed origin goes through the router: it
// fast-fails with a retryable TransitionError while a post-rebalance
// window is open, lands on an ingress node and, when that node does not
// own the object, is forwarded one hop. The platform's own dispatch is
// stamped where it stands. With ownership off or no live member the
// gate is open and nothing is stamped.
func (p *Platform) enter(ctx context.Context, from origin, t target, objectID string) (context.Context, string, error) {
	if from.crosses(t) {
		if err := p.hop(ctx, p.cfg.InterRegionLatency); err != nil {
			return ctx, "", err
		}
	}
	o := p.own
	if o == nil {
		return ctx, "", nil
	}
	if !from.routed {
		sp := trace.FromContext(ctx).Child("admission")
		owner, epoch, ok := o.members.Admit(objectID)
		if ok {
			sp.SetAttr("owner", owner)
			ctx = context.WithValue(ctx, ownerStampKey{}, ownerStamp{owner: owner, epoch: epoch})
		}
		sp.End()
		return ctx, "", nil
	}
	if err := o.members.CheckMoving(); err != nil {
		return ctx, "", err
	}
	owner, epoch, ok := o.members.Admit(objectID)
	if !ok {
		return ctx, "", nil
	}
	ingress := from.via
	if ingress == "" {
		ingress = o.pickIngress()
	}
	if ingress == owner {
		o.ownerLocal.Add(1)
	} else {
		sp := trace.FromContext(ctx).Child("forward")
		sp.SetAttr("via", ingress)
		sp.SetAttr("owner", owner)
		err := p.hop(ctx, p.cfg.ForwardLatency)
		if err == nil {
			// Re-admit at the owner: a single-hop guard. If ownership moved
			// while the request was in flight, fail fast retryably rather
			// than hop again and race the rebalance around the ring.
			var now string
			if now, epoch, ok = o.members.Admit(objectID); !ok || now != owner {
				err = &cluster.TransitionError{RetryAfter: o.retryAfter}
			}
		}
		sp.Error(err)
		sp.End()
		if err != nil {
			return ctx, "", err
		}
		o.forwarded.Add(1)
	}
	return context.WithValue(ctx, ownerStampKey{}, ownerStamp{owner: owner, epoch: epoch}), owner, nil
}

// rootSpan opens a trace for an invocation that arrives with none — a
// library caller; gateway and async-drain callers bring their own. The
// returned span is nil when none was opened.
func (p *Platform) rootSpan(ctx context.Context, name, objectID, member string) (context.Context, *trace.Span) {
	if p.tracer == nil || trace.FromContext(ctx) != nil {
		return ctx, nil
	}
	sp := p.tracer.Root(name, "")
	sp.SetAttr("object", objectID)
	sp.SetAttr("fn", member)
	return trace.ContextWith(ctx, sp), sp
}

// invoke is the synchronous body: resolve, through the gate, and the
// member runs. It returns the node that served the call ("" unless
// routed under ownership).
func (p *Platform) invoke(ctx context.Context, from origin, objectID string, c call.Call) (out json.RawMessage, node string, err error) {
	t, err := p.resolve(objectID, c.Member)
	if err != nil {
		return nil, "", err
	}
	ctx, root := p.rootSpan(ctx, "invoke", objectID, c.Member)
	if root != nil {
		defer func() { root.Error(err); root.End() }()
	}
	if ctx, node, err = p.enter(ctx, from, t, objectID); err != nil {
		return nil, "", err
	}
	if t.dataflow {
		res, err := t.rt.InvokeDataflow(ctx, objectID, c.Member, c.Payload)
		return res.Output, node, err
	}
	out, err = t.rt.Invoke(ctx, objectID, c.Member, c.Payload, c.Args)
	return out, node, err
}

// Invoke executes a method or dataflow on an object from inside the
// process. Dataflow results return the designated output step's output.
func (p *Platform) Invoke(ctx context.Context, objectID, member string, payload json.RawMessage, args map[string]string) (json.RawMessage, error) {
	out, _, err := p.invoke(ctx, origin{}, objectID, call.Call{Member: member, Payload: payload, Args: args})
	return out, err
}

// InvokeRoutedFrom executes a method or dataflow on an object on behalf
// of a client in clientRegion ("" is the default region) whose request
// landed on ingress node via ("" picks one round-robin, modelling a
// load balancer). A client outside the object's home region pays
// 2×InterRegionLatency (paper §VI: multi-datacenter deployments unlock
// latency-aware placement); under the ownership layer a request whose
// ingress does not own the object pays 2×ForwardLatency for the hop to
// the owner. The node that served the invocation is returned for
// response attribution ("" with ownership off).
//
// During a post-rebalance transition window, or when ownership moves
// again while the forwarded request is in flight, the call fast-fails
// with a retryable TransitionError (HTTP 503 + Retry-After at the
// gateway) instead of chasing the handoff.
func (p *Platform) InvokeRoutedFrom(ctx context.Context, clientRegion, via, objectID, member string, payload json.RawMessage, args map[string]string) (json.RawMessage, string, error) {
	return p.invoke(ctx, origin{region: clientRegion, via: via, routed: true}, objectID, call.Call{Member: member, Payload: payload, Args: args})
}

// invokeGroup is the async queue's one dispatch hook: a drained group of
// calls on one object, results[i] receiving calls[i]'s outcome. The
// functions of a group of two or more are resolved and stamped once and
// share one runtime window: one state load, sequential handlers against
// the evolving view, one merged commit. A group that is all functions —
// what a hot object's backlog is — is handed to the runtime as it came.
// Anything else is set aside and invoked as Invoke would, under the
// call's own context, failing or succeeding alone: a call that drained
// alone, whose single-call path is cheaper than a window built for a
// group; a dataflow, which is a multi-step composition with its own
// persistence points; and a member or an object that no longer
// resolves.
func (p *Platform) invokeGroup(ctx context.Context, objectID string, calls []call.Call, results []call.Result) {
	var t target
	if len(calls) > 1 {
		t, _ = p.resolve(objectID, calls[0].Member)
	}
	aside := func(c call.Call) bool {
		if t.rt == nil {
			return true
		}
		_, fn := t.rt.Class().Function(c.Member)
		return !fn
	}
	fns, at := calls, []int(nil) // fns[j] stood at calls[at[j]]
	if slices.ContainsFunc(calls, aside) {
		fns = nil
		for i, c := range calls {
			if aside(c) {
				results[i].Output, results[i].Err = p.Invoke(cmp.Or(c.Ctx, ctx), objectID, c.Member, c.Payload, c.Args)
			} else {
				fns, at = append(fns, c), append(at, i)
			}
		}
	}
	if len(fns) == 0 {
		return
	}
	ctx, _, _ = p.enter(ctx, origin{}, t, objectID) // the zero origin is never refused
	out := t.rt.InvokeBatch(ctx, objectID, fns)
	if at == nil {
		copy(results, out)
		return
	}
	for j, i := range at {
		results[i] = out[j]
	}
}

// submit is the asynchronous body: the resolved call is handed to the
// queue, which runs it through Invoke once drained.
func (p *Platform) submit(ctx context.Context, t target, objectID string, c call.Call) (id string, err error) {
	// The submit span ends at acceptance; the queue's link keeps the
	// trace open until the invocation goes terminal.
	ctx, root := p.rootSpan(ctx, "invoke.async", objectID, c.Member)
	if root != nil {
		defer func() { root.Error(err); root.End() }()
	}
	return p.queue.Submit(ctx, t.queued(c.Member), objectID, c.Member, c.Payload, c.Args)
}

// InvokeAsync enqueues a method or dataflow invocation from inside the
// process and returns an invocation ID immediately. The target is
// resolved synchronously so unknown objects/members fail fast;
// execution errors surface in the polled record. Backpressure:
// ErrQueueFull once the queue is at capacity.
func (p *Platform) InvokeAsync(ctx context.Context, objectID, member string, payload json.RawMessage, args map[string]string) (string, error) {
	t, err := p.resolve(objectID, member)
	if err != nil {
		return "", err
	}
	return p.submit(ctx, t, objectID, call.Call{Member: member, Payload: payload, Args: args})
}

// chain is the event bus's method-sink hook: one consumer run's chained
// calls, all of one member of objectID, queued as a group of record-less
// tasks (asyncq.Queue.SubmitGroup). The events they carry are in the
// event log, behind a cursor that moves past them only once done has
// reported them committed or failed, so the log is the chain's one
// durable queue and the queue writes no record: a chained call's ID
// appears only in its terminal event and its trace. A handler is handed
// its payload to keep, so each call gets a copy of its event's log
// entry — a handler that writes into it must not change the log — while
// the args, which handlers only read, are the bus's shared table. Each
// call opens its own root trace, as a submission from inside the process
// does.
func (p *Platform) chain(objectID string, calls []call.Call, done func(committed int)) (int, error) {
	member := calls[0].Member
	t, err := p.resolve(objectID, member)
	if err != nil {
		return 0, err
	}
	for i := range calls {
		calls[i].Payload = bytes.Clone(calls[i].Payload)
	}
	var spans [8]*trace.Span
	roots := spans[:0]
	if p.tracer != nil {
		for i := range calls {
			var root *trace.Span
			calls[i].Ctx, root = p.rootSpan(context.Background(), "invoke.async", objectID, member)
			roots = append(roots, root)
		}
	}
	n, err := p.queue.SubmitGroup(t.queued(member), objectID, calls, done)
	for i, root := range roots {
		if i >= n {
			root.Error(err)
		}
		root.End()
	}
	return n, err
}

// submitAll enqueues every request, returning one ID-or-error result
// per entry in order: entries with unknown targets or that find the
// queue full are rejected individually; the rest proceed. A batch is one message on
// the wire, so it pays the inter-region round trip once, when the first
// entry whose home is outside the origin's region is reached — not per
// entry, and not at all when every entry is local.
func (p *Platform) submitAll(ctx context.Context, from origin, reqs []asyncq.Request) []asyncq.BatchResult {
	out := make([]asyncq.BatchResult, len(reqs))
	paid := false
	for i, r := range reqs {
		t, err := p.resolve(r.Object, r.Member)
		if err == nil && !paid && from.crosses(t) {
			paid, err = true, p.hop(ctx, p.cfg.InterRegionLatency)
		}
		if err == nil {
			out[i].ID, err = p.submit(ctx, t, r.Object, call.Call{Member: r.Member, Payload: r.Payload, Args: r.Args})
		}
		out[i].Err = err
	}
	return out
}

// InvokeAsyncBatchFrom enqueues a batch — of one, for a single
// asynchronous invocation — on behalf of a client in clientRegion ("" is
// the default region). The acceptance acknowledgement has to cross the
// inter-region link and return, so a batch with an entry homed outside
// the client's region pays 2×InterRegionLatency on submission, once.
func (p *Platform) InvokeAsyncBatchFrom(ctx context.Context, clientRegion string, reqs []asyncq.Request) []asyncq.BatchResult {
	return p.submitAll(ctx, origin{region: clientRegion, routed: true}, reqs)
}

// InvokeAsyncBatch is InvokeAsyncBatchFrom from inside the process.
func (p *Platform) InvokeAsyncBatch(ctx context.Context, reqs []asyncq.Request) []asyncq.BatchResult {
	return p.submitAll(ctx, origin{}, reqs)
}

// asyncTarget is the queue's Target hook: resolve, for a record the
// queue adopts from the store.
func (p *Platform) asyncTarget(objectID, member string) asyncq.Target {
	t, _ := p.resolve(objectID, member)
	return t.queued(member)
}
