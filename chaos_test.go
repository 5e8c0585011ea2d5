package oaas

// Chaos fault-injection soak: seeded probabilistic backing-store
// faults (Config.Chaos) drive the whole platform — deadlines,
// concurrency-exact counters, the circuit breaker's full
// open/half-open/closed cycle, degraded cache reads, durable event
// offsets, and async drain — under the race detector. Each seed is a
// reproducible schedule; a failing run replays with its seed.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/resilience"
)

const chaosYAML = `classes:
  - name: CCounter
    concurrencyMode: adaptive
    keySpecs:
      - name: value
        kind: number
        default: 0
    functions:
      - name: incr
        image: img/chaos-incr
      - name: stuck
        image: img/chaos-stall
        timeoutMs: 50
      - name: slow
        image: img/chaos-slow
`

func registerChaosImages(p *Platform) {
	p.Images().Register("img/chaos-incr", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		var n float64
		if raw, ok := task.State["value"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		out, _ := json.Marshal(n + 1)
		return Result{Output: out, State: map[string]json.RawMessage{"value": out}}, nil
	}))
	p.Images().Register("img/chaos-stall", HandlerFunc(func(context.Context, Task) (Result, error) {
		time.Sleep(300 * time.Millisecond) // deliberately ignores ctx
		return Result{State: map[string]json.RawMessage{"value": json.RawMessage(`777`)}}, nil
	}))
	// slow has no timeout: it commits after its sleep, so an invocation
	// admitted before a failover reaches the epoch fence after the
	// rebalance. Its sentinel value landing on a counter would prove a
	// double-commit.
	p.Images().Register("img/chaos-slow", HandlerFunc(func(context.Context, Task) (Result, error) {
		time.Sleep(800 * time.Millisecond)
		return Result{State: map[string]json.RawMessage{"value": json.RawMessage(`999999`)}}, nil
	}))
}

// TestChaosSoak runs the randomized fault schedule under three seeds.
// CI runs it with -race -count=3; each run must hold every invariant.
func TestChaosSoak(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { chaosSoak(t, seed) })
	}
	for _, seed := range []int64{1, 42} {
		t.Run(fmt.Sprintf("node-kill-seed-%d", seed), func(t *testing.T) { chaosNodeKill(t, seed) })
	}
}

// chaosNodeKill kills a worker VM's lease mid-traffic and holds the
// failover invariants: the rebalance lands within a bounded window,
// commits straddling the epoch bump are fenced (no double-commit by
// the ex-owner), acknowledged async work is requeued and redelivered
// rather than lost, and every counter equals exactly its acknowledged
// successes afterwards.
func chaosNodeKill(t *testing.T, seed int64) {
	backing := kvstore.Open(kvstore.Config{})
	defer backing.Close()
	p, err := New(Config{
		Workers:           3,
		FaaS:              FaaSSettings{ColdStart: time.Millisecond, IdleTimeout: time.Minute},
		Backing:           backing,
		OwnershipLeaseTTL: 300 * time.Millisecond, // 100ms heartbeats
		Chaos:             FaultPlan{Seed: seed},  // seeds lease/backoff jitter
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	registerChaosImages(p)
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(chaosYAML)); err != nil {
		t.Fatal(err)
	}
	mem := p.Membership()
	if mem == nil {
		t.Fatal("ownership layer not enabled")
	}

	const nObjects = 6
	objects := make([]string, nObjects)
	successes := make([]atomic.Int64, nObjects)
	for i := range objects {
		objects[i] = fmt.Sprintf("c%d", i)
		if _, err := p.CreateObject(ctx, "CCounter", objects[i]); err != nil {
			t.Fatal(err)
		}
	}

	// The fence probe object picks the victim: whichever node owns it
	// dies, so its owner provably changes at the rebalance.
	const fenceObj = "f0"
	if _, err := p.CreateObject(ctx, "CCounter", fenceObj); err != nil {
		t.Fatal(err)
	}
	victim, ok := mem.Owner(fenceObj)
	if !ok {
		t.Fatal("no owner for fence object")
	}
	// A second victim-owned object carries the async requeue probe.
	slowObj := ""
	for i := 0; i < 256 && slowObj == ""; i++ {
		id := fmt.Sprintf("s%d", i)
		if owner, _ := mem.Owner(id); owner == victim {
			if _, err := p.CreateObject(ctx, "CCounter", id); err != nil {
				t.Fatal(err)
			}
			slowObj = id
		}
	}
	if slowObj == "" {
		t.Fatal("no candidate object hashed to the victim node")
	}

	// Straddling sync commit: admitted now (pre-kill epoch), commits
	// ~800ms from now — after the failover — and must be fenced.
	fenceRes := make(chan error, 1)
	go func() {
		_, err := p.Invoke(ctx, fenceObj, "slow", nil, nil)
		fenceRes <- err
	}()
	// Straddling async commit: same timing, but the queue must requeue
	// it after the fence rejection and redeliver it under the new
	// ownership instead of failing it.
	slowID, err := p.InvokeAsync(ctx, slowObj, "slow", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Async increments in flight across the kill.
	var asyncIDs []string
	for n := 0; n < 4*nObjects; n++ {
		if id, err := p.InvokeAsync(ctx, objects[n%nObjects], "incr", nil, nil); err == nil {
			asyncIDs = append(asyncIDs, id)
		}
	}
	// Sync increment workers hammer across the kill; only acknowledged
	// successes are counted.
	var wg sync.WaitGroup
	for i := range objects {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 25; n++ {
				if _, err := p.Invoke(ctx, objects[i], "incr", nil, nil); err == nil {
					successes[i].Add(1)
				}
			}
		}(i)
	}

	time.Sleep(50 * time.Millisecond) // let the slow probes get admitted
	epoch0 := mem.Epoch()
	if err := p.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	killedAt := time.Now()
	// Bounded reassignment: lease TTL + sweep + transition window is
	// well under a second; give chatter on slow CI 5s.
	deadline := time.Now().Add(5 * time.Second)
	for mem.Epoch() == epoch0 || !mem.Converge() {
		if time.Now().After(deadline) {
			t.Fatalf("rebalance never completed: epoch %d (was %d), live %d",
				mem.Epoch(), epoch0, len(mem.Members()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if took := time.Since(killedAt); took > 2*time.Second {
		t.Fatalf("reassignment took %v, want bounded by a few lease TTLs", took)
	}
	if n := len(mem.Members()); n != 2 {
		t.Fatalf("live members = %d after kill, want 2", n)
	}
	if owner, _ := mem.Owner(fenceObj); owner == victim {
		t.Fatalf("dead node %s still owns %s", victim, fenceObj)
	}
	wg.Wait()

	// The straddling sync commit was fenced — the ex-owner's write
	// never landed.
	if err := <-fenceRes; !errors.Is(err, ErrOwnershipMoved) {
		t.Fatalf("straddling commit err = %v, want ErrOwnershipMoved", err)
	}
	// The straddling async commit was fenced too, then requeued and
	// redelivered: it must complete, and its (sole) sentinel write must
	// have landed under the new ownership.
	wctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	rec, err := p.WaitInvocation(wctx, slowID)
	cancel()
	if err != nil {
		t.Fatalf("requeued async invocation lost: %v", err)
	}
	if rec.Status != InvocationCompleted {
		t.Fatalf("requeued async invocation = %q (err %q), want completed", rec.Status, rec.Error)
	}
	if raw, err := p.GetState(ctx, slowObj, "value"); err != nil || string(raw) != "999999" {
		t.Fatalf("redelivered slow write: value=%s err=%v, want 999999", raw, err)
	}
	// Every acknowledged async increment reaches a terminal record;
	// completed ones are acknowledged increments.
	for _, id := range asyncIDs {
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		rec, err := p.WaitInvocation(wctx, id)
		cancel()
		if err != nil {
			t.Fatalf("acknowledged async invocation %s lost: %v", id, err)
		}
		if rec.Status == InvocationCompleted {
			for i, obj := range objects {
				if rec.Object == obj {
					successes[i].Add(1)
				}
			}
		}
	}

	// Post-failover epilogue through the routed path: every call must
	// succeed against the new owner set.
	for i := range objects {
		for n := 0; n < 5; n++ {
			if _, _, err := p.InvokeRoutedFrom(ctx, "", "", objects[i], "incr", nil, nil); err != nil {
				t.Fatalf("post-failover routed incr on %s: %v", objects[i], err)
			}
			successes[i].Add(1)
		}
	}
	// Exactness: each counter equals exactly its acknowledged
	// successes — nothing lost, nothing double-committed (a fenced
	// ex-owner write would have landed 999999).
	for i, obj := range objects {
		raw, err := p.GetState(ctx, obj, "value")
		if err != nil {
			t.Fatalf("reading %s: %v", obj, err)
		}
		if want := fmt.Sprintf("%d", successes[i].Load()); string(raw) != want {
			t.Fatalf("counter %s = %s, want exactly %s acknowledged increments", obj, raw, want)
		}
	}

	st := p.Stats()
	cs := st.Cluster
	if !cs.Enabled || cs.Epoch < 1 || cs.Rebalances < 1 {
		t.Fatalf("cluster stats missed the failover: %+v", cs)
	}
	if cs.FenceRejections < 2 {
		t.Fatalf("fence rejections = %d, want >= 2 (sync + async straddlers)", cs.FenceRejections)
	}
	if st.Async.Requeued < 1 {
		t.Fatalf("requeued = %d, want >= 1 (the fenced async straddler)", st.Async.Requeued)
	}
	if cs.OwnerLocal+cs.Forwarded < int64(5*nObjects) {
		t.Fatalf("routed counters = local %d + forwarded %d, want >= %d",
			cs.OwnerLocal, cs.Forwarded, 5*nObjects)
	}
	if len(cs.Members) != 2 {
		t.Fatalf("members = %+v, want the 2 survivors", cs.Members)
	}
}

// TestOwnershipCrashRecovery kills a whole platform process with async
// work queued and in flight, then verifies a successor platform over
// the same backing store adopts the stranded durable records and runs
// them to completion — the dead node's queued work drains instead of
// being lost.
func TestOwnershipCrashRecovery(t *testing.T) {
	backing := kvstore.Open(kvstore.Config{})
	defer backing.Close()
	cfg := Config{
		Workers:           2,
		FaaS:              FaaSSettings{ColdStart: time.Millisecond, IdleTimeout: time.Minute},
		Backing:           backing,
		OwnershipLeaseTTL: 2 * time.Second,
		Async:             AsyncSettings{Workers: 1},
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerChaosImages(a)
	ctx := context.Background()
	if _, err := a.DeployYAML(ctx, []byte(chaosYAML)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"r0", "r1"} {
		if _, err := a.CreateObject(ctx, "CCounter", id); err != nil {
			t.Fatal(err)
		}
	}
	// One slow invocation pins the single worker (running), then
	// increments pile up queued behind it (pending).
	ids := make([]string, 0, 6)
	slowID, err := a.InvokeAsync(ctx, "r0", "slow", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, slowID)
	for n := 0; n < 5; n++ {
		id, err := a.InvokeAsync(ctx, "r1", "incr", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Let the write-behind record table flush the pending/running
	// records to the backing store, then die without draining.
	time.Sleep(250 * time.Millisecond)
	a.Kill()

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	registerChaosImages(b)
	if _, err := b.DeployYAML(ctx, []byte(chaosYAML)); err != nil {
		t.Fatal(err)
	}
	// Classes are redeployed; adopt the predecessor's stranded records.
	n, err := b.RecoverStrandedInvocations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("recovered %d stranded records, want >= 1", n)
	}
	for _, id := range ids {
		wctx, cancel := context.WithTimeout(ctx, 15*time.Second)
		rec, err := b.WaitInvocation(wctx, id)
		cancel()
		if err != nil {
			t.Fatalf("stranded invocation %s lost across the crash: %v", id, err)
		}
		if rec.Status != InvocationCompleted {
			t.Fatalf("stranded invocation %s = %q (err %q), want completed", id, rec.Status, rec.Error)
		}
	}
	if got := b.Stats().Async.Recovered; got < int64(n) {
		t.Fatalf("Stats().Async.Recovered = %d, want >= %d", got, n)
	}
}

func chaosSoak(t *testing.T, seed int64) {
	// Declared first so it outlives the platform's closing drain.
	sink := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer sink.Close()
	// Inject the backing store so the fault schedule can be flipped
	// mid-run (soak faults -> total blackout -> recovery).
	backing := kvstore.Open(kvstore.Config{})
	p, err := New(Config{
		Workers: 2,
		FaaS:    FaaSSettings{ColdStart: time.Millisecond, IdleTimeout: time.Minute},
		Backing: backing,
		Chaos: FaultPlan{
			Seed:             seed,
			ReadErrorRate:    0.05,
			WriteErrorRate:   0.05,
			LatencySpikeRate: 0.02,
			LatencySpike:     time.Millisecond,
			PartialBatchRate: 0.10,
			PermanentRate:    0.25,
		},
		Breaker: BreakerConfig{
			Window:           16,
			FailureThreshold: 0.5,
			MinSamples:       4,
			OpenTimeout:      50 * time.Millisecond,
			HalfOpenProbes:   2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	registerChaosImages(p)
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(chaosYAML)); err != nil {
		t.Fatal(err)
	}
	// A consumer, so the counters' commits are events at all (the log
	// assertions below would be vacuous without one). Registered on the
	// bus directly: the fault plan must not get a say in it.
	if err := p.TriggerBus().Subscribe("observer", TriggerSubscription{
		Class: "CCounter", Type: EventStateChanged, Webhook: sink.URL,
	}); err != nil {
		t.Fatal(err)
	}

	const nObjects = 4
	objects := make([]string, nObjects)
	successes := make([]atomic.Int64, nObjects)
	for i := range objects {
		objects[i] = fmt.Sprintf("c%d", i)
		if _, err := p.CreateObject(ctx, "CCounter", objects[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1 — soak: concurrent increments under probabilistic
	// faults, a deadline-expiring stuck handler, and async
	// submissions. Chaos may fail invocations; every acknowledged
	// success must land exactly once.
	var wg sync.WaitGroup
	for i := range objects {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for n := 0; n < 30; n++ {
					if _, err := p.Invoke(ctx, objects[i], "incr", nil, nil); err == nil {
						successes[i].Add(1)
					}
				}
			}(i)
		}
	}
	// The stuck handler must fail on its 50ms deadline within 2x the
	// deadline while the soak hammers the same shard.
	start := time.Now()
	_, stuckErr := p.Invoke(ctx, objects[0], "stuck", nil, nil)
	stuckElapsed := time.Since(start)
	var asyncIDs []string
	for n := 0; n < 8; n++ {
		if id, err := p.InvokeAsync(ctx, objects[n%nObjects], "incr", nil, nil); err == nil {
			asyncIDs = append(asyncIDs, id)
		}
	}
	wg.Wait()
	if !errors.Is(stuckErr, ErrDeadlineExceeded) {
		t.Fatalf("stuck invoke err = %v, want ErrDeadlineExceeded", stuckErr)
	}
	if stuckElapsed > 100*time.Millisecond {
		t.Fatalf("deadline failure took %v, want <= 2x the 50ms deadline", stuckElapsed)
	}
	// Every accepted async submission reaches a terminal record — an
	// acknowledged invocation is never lost, whatever chaos did to it.
	// A flushed record is read from the store, so one poll can meet an
	// injected read fault, or the breaker such faults opened; the record
	// is lost only if no poll before the deadline finds it.
	for _, id := range asyncIDs {
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		rec, err := p.WaitInvocation(wctx, id)
		for err != nil && wctx.Err() == nil && (errors.Is(err, kvstore.ErrInjectedTransient) ||
			errors.Is(err, kvstore.ErrInjectedPermanent) || errors.Is(err, ErrBackingUnavailable)) {
			time.Sleep(time.Millisecond)
			rec, err = p.WaitInvocation(wctx, id)
		}
		cancel()
		if err != nil {
			t.Fatalf("acknowledged async invocation %s lost: %v", id, err)
		}
		if rec.Status == InvocationCompleted {
			// Completed asyncs are acknowledged increments too.
			for i, obj := range objects {
				if rec.Object == obj {
					successes[i].Add(1)
				}
			}
		}
	}

	// Phase 2 — blackout: every store op fails. The breaker must trip,
	// then fast-fail writes, while reads of cached state serve from
	// the memtable in degraded mode.
	backing.SetFaultPlan(FaultPlan{Seed: seed, ReadErrorRate: 1, WriteErrorRate: 1, PermanentRate: 1})
	tripDeadline := time.Now().Add(5 * time.Second)
	for p.Breaker().State() != resilience.StateOpen {
		if time.Now().After(tripDeadline) {
			t.Fatalf("breaker never opened under total blackout (state %v)", p.Breaker().State())
		}
		_, _ = p.CreateObject(ctx, "CCounter", "")
	}
	// Fast-fail with the sentinel while open.
	var sawOpen bool
	for n := 0; n < 20 && !sawOpen; n++ {
		_, err := p.CreateObject(ctx, "CCounter", "")
		sawOpen = errors.Is(err, ErrBackingUnavailable)
	}
	if !sawOpen {
		t.Fatal("open breaker never surfaced ErrBackingUnavailable on writes")
	}
	// Cached read serves degraded.
	if _, err := p.GetState(ctx, objects[0], "value"); err != nil {
		t.Fatalf("cached read failed during blackout: %v", err)
	}
	if got := p.Stats().Resilience.DegradedReads; got == 0 {
		t.Fatal("no degraded reads counted while the breaker was open")
	}

	// Phase 3 — recovery: clear the faults; after OpenTimeout the
	// half-open probes must close the breaker again.
	backing.SetFaultPlan(FaultPlan{})
	closeDeadline := time.Now().Add(10 * time.Second)
	for p.Breaker().State() != resilience.StateClosed {
		if time.Now().After(closeDeadline) {
			t.Fatalf("breaker never closed after recovery (state %v)", p.Breaker().State())
		}
		time.Sleep(10 * time.Millisecond)
		_, _ = p.CreateObject(ctx, "CCounter", "")
	}

	// Phase 4 — exact epilogue: with faults cleared every increment
	// must succeed, and each hot counter must equal exactly its
	// acknowledged successes.
	const epilogue = 10
	for i := range objects {
		for n := 0; n < epilogue; n++ {
			if _, err := p.Invoke(ctx, objects[i], "incr", nil, nil); err != nil {
				t.Fatalf("post-recovery incr on %s failed: %v", objects[i], err)
			}
			successes[i].Add(1)
		}
	}
	for i, obj := range objects {
		raw, err := p.GetState(ctx, obj, "value")
		if err != nil {
			t.Fatalf("reading %s: %v", obj, err)
		}
		if want := fmt.Sprintf("%d", successes[i].Load()); string(raw) != want {
			t.Fatalf("counter %s = %s, want exactly %s acknowledged increments", obj, raw, want)
		}
	}

	// Durable event offsets stay per-object monotone through the
	// blackout, and the exact epilogue's commits are all retained.
	entries, err := p.ReadEvents(ctx, objects[0], 1, 0)
	if err != nil {
		t.Fatalf("reading event log: %v", err)
	}
	if len(entries) < epilogue {
		t.Fatalf("event log retained %d entries, want >= %d post-recovery commits", len(entries), epilogue)
	}
	var last int64
	for _, e := range entries {
		if e.Offset <= last {
			t.Fatalf("event offsets not strictly increasing: %d after %d", e.Offset, last)
		}
		last = e.Offset
	}

	// Final invariants: a full breaker cycle happened, the stuck
	// handler eventually returned (no goroutine-gauge leak), and the
	// async queue drained.
	st := p.Stats()
	if st.Resilience.Breaker.Opened < 1 || st.Resilience.Breaker.Closes < 1 {
		t.Fatalf("breaker cycle incomplete: %+v", st.Resilience.Breaker)
	}
	if st.Resilience.Degraded {
		t.Fatal("platform still degraded after recovery")
	}
	leakDeadline := time.Now().Add(5 * time.Second)
	for p.Stats().Resilience.LeakedHandlers != 0 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("leaked handlers never drained: %d", p.Stats().Resilience.LeakedHandlers)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Async.Depth != 0 || st.Async.InFlight != 0 {
		t.Fatalf("async queue not drained: depth=%d inflight=%d", st.Async.Depth, st.Async.InFlight)
	}
	// The stuck handler's late delta never committed: counters above
	// already proved it (777 would have broken exactness).
}

// TestAsyncDeadlineExpires verifies a running async handler that
// outlives its submission deadline terminates as "expired", not
// "failed", and surfaces in the expired counters.
func TestAsyncDeadlineExpires(t *testing.T) {
	p, err := New(Config{Workers: 2, FaaS: FaaSSettings{ColdStart: time.Millisecond, IdleTimeout: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	registerChaosImages(p)
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(chaosYAML)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(ctx, "CCounter", "a1"); err != nil {
		t.Fatal(err)
	}
	id, err := p.InvokeAsync(ctx, "a1", "stuck", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	rec, err := p.WaitInvocation(wctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != InvocationExpired {
		t.Fatalf("status = %q (err %q), want expired", rec.Status, rec.Error)
	}
	if got := p.Stats().Async.Expired; got < 1 {
		t.Fatalf("Stats().Async.Expired = %d, want >= 1", got)
	}
}
