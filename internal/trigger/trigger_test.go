package trigger

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// newBus builds a bus with test-friendly webhook timing.
func newBus(t *testing.T, cfg Config) *Bus {
	t.Helper()
	if cfg.WebhookBackoff == 0 {
		cfg.WebhookBackoff = time.Millisecond
	}
	if cfg.WebhookTimeout == 0 {
		cfg.WebhookTimeout = 2 * time.Second
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func TestSubscriptionValidation(t *testing.T) {
	cases := []struct {
		name string
		sub  Subscription
		ok   bool
	}{
		{"method sink", Subscription{Class: "A", Type: StateChanged, TargetFunction: "f"}, true},
		{"webhook sink", Subscription{Class: "A", Type: InvocationCompleted, Webhook: "http://x"}, true},
		{"prefix filter", Subscription{Class: "A", Type: StateChanged, KeyPrefix: "k", TargetFunction: "f"}, true},
		{"no class", Subscription{Type: StateChanged, TargetFunction: "f"}, false},
		{"bad type", Subscription{Class: "A", Type: "boom", TargetFunction: "f"}, false},
		{"no sink", Subscription{Class: "A", Type: StateChanged}, false},
		{"two sinks", Subscription{Class: "A", Type: StateChanged, TargetFunction: "f", Webhook: "http://x"}, false},
		{"object without function", Subscription{Class: "A", Type: StateChanged, TargetObject: "o", Webhook: "http://x"}, false},
		{"prefix on terminal event", Subscription{Class: "A", Type: InvocationFailed, KeyPrefix: "k", TargetFunction: "f"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.sub.Validate(); (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestMethodSinkRoutesThroughAsyncInvoker(t *testing.T) {
	type call struct {
		object, member string
		depth          string
		payload        Event
	}
	calls := make(chan call, 16)
	b := newBus(t, Config{
		InvokeAsync: func(_ context.Context, object, member string, payload json.RawMessage, args map[string]string) (string, error) {
			var ev Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				t.Errorf("payload not an event: %v", err)
			}
			calls <- call{object: object, member: member, depth: args[ArgDepth], payload: ev}
			return "inv-1", nil
		},
	})
	if err := b.Subscribe("chain", Subscription{
		Class: "A", Type: StateChanged, KeyPrefix: "cou", TargetObject: "b-1", TargetFunction: "bump",
	}); err != nil {
		t.Fatal(err)
	}
	// Matching event: class, type and key prefix line up.
	b.Publish(Event{Type: StateChanged, Class: "A", Object: "a-1", Function: "set", Keys: []string{"count"}})
	// Non-matching: wrong prefix, wrong class, wrong type.
	b.Publish(Event{Type: StateChanged, Class: "A", Object: "a-1", Keys: []string{"other"}})
	b.Publish(Event{Type: StateChanged, Class: "B", Object: "b-9", Keys: []string{"count"}})
	b.Publish(Event{Type: InvocationCompleted, Class: "A", Object: "a-1"})
	b.Drain()
	select {
	case got := <-calls:
		if got.object != "b-1" || got.member != "bump" || got.depth != "1" {
			t.Fatalf("call = %+v", got)
		}
		if got.payload.Class != "A" || got.payload.Object != "a-1" || got.payload.Function != "set" {
			t.Fatalf("event payload = %+v", got.payload)
		}
	default:
		t.Fatal("method sink never invoked")
	}
	if len(calls) != 0 {
		t.Fatalf("unmatched events dispatched: %d extra calls", len(calls)+1)
	}
	if s := b.Stats(); s.Emitted != 4 || s.Delivered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMethodSinkDefaultsToEmittingObject(t *testing.T) {
	var target atomic.Value
	b := newBus(t, Config{
		InvokeAsync: func(_ context.Context, object, member string, _ json.RawMessage, _ map[string]string) (string, error) {
			target.Store(object + "." + member)
			return "inv", nil
		},
	})
	if err := b.Subscribe("self", Subscription{Class: "A", Type: StateChanged, TargetFunction: "react"}); err != nil {
		t.Fatal(err)
	}
	b.Publish(Event{Type: StateChanged, Class: "A", Object: "a-7"})
	b.Drain()
	if got := target.Load(); got != "a-7.react" {
		t.Fatalf("target = %v", got)
	}
}

func TestChainDepthLimitTerminates(t *testing.T) {
	// The invoker feeds every chained invocation straight back as a new
	// commit event at the stamped depth — a perfect self-loop. The
	// depth limit must cut it after MaxChainDepth hops.
	const maxDepth = 5
	var b *Bus
	var invocations atomic.Int64
	b = newBus(t, Config{
		MaxChainDepth: maxDepth,
		InvokeAsync: func(_ context.Context, object, _ string, _ json.RawMessage, args map[string]string) (string, error) {
			invocations.Add(1)
			b.Publish(Event{Type: StateChanged, Class: "Loop", Object: object, Depth: DepthOf(args)})
			return "inv", nil
		},
	})
	if err := b.Subscribe("loop", Subscription{Class: "Loop", Type: StateChanged, TargetFunction: "again"}); err != nil {
		t.Fatal(err)
	}
	b.Publish(Event{Type: StateChanged, Class: "Loop", Object: "l-1"})
	// The chain re-publishes from inside dispatch; wait until it stops.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.Drain()
		s := b.Stats()
		if s.CycleDropped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chain never terminated: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	b.Drain()
	if got := invocations.Load(); got != maxDepth {
		t.Fatalf("chained invocations = %d, want %d", got, maxDepth)
	}
	if s := b.Stats(); s.CycleDropped != 1 || s.Dropped != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWebhookRetryAndDrop(t *testing.T) {
	cases := []struct {
		name      string
		failures  int // consecutive 500s before a 200
		retries   int // configured max retries
		delivered int64
		dropped   int64
		retried   int64
	}{
		{"first try", 0, 3, 1, 0, 0},
		{"succeeds after retries", 2, 3, 1, 0, 2},
		{"exhausts and drops", 10, 2, 0, 1, 2},
		{"negative retries disable and drop immediately", 1, -1, 0, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var hits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Header.Get("X-Oprc-Event") != string(InvocationCompleted) {
					t.Errorf("missing event header")
				}
				if hits.Add(1) <= int64(c.failures) {
					w.WriteHeader(http.StatusInternalServerError)
					return
				}
				w.WriteHeader(http.StatusOK)
			}))
			defer srv.Close()
			// WebhookMaxRetries: 0 means "defaulted" (3); negative
			// disables retries.
			cfg := Config{WebhookMaxRetries: c.retries, WebhookBackoff: time.Millisecond}
			b := newBus(t, cfg)
			if err := b.Subscribe("hook", Subscription{Class: "A", Type: InvocationCompleted, Webhook: srv.URL}); err != nil {
				t.Fatal(err)
			}
			b.Publish(Event{Type: InvocationCompleted, Class: "A", Object: "a-1", Invocation: "inv-1"})
			b.Drain()
			s := b.Stats()
			if s.Delivered != c.delivered || s.Dropped != c.dropped || s.Retried != c.retried {
				t.Fatalf("stats = %+v, want delivered=%d dropped=%d retried=%d",
					s, c.delivered, c.dropped, c.retried)
			}
		})
	}
}

func TestWebhookUnreachableDrops(t *testing.T) {
	b := newBus(t, Config{WebhookMaxRetries: 1, WebhookBackoff: time.Millisecond, WebhookTimeout: 200 * time.Millisecond})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: InvocationFailed, Webhook: "http://127.0.0.1:1/nope"}); err != nil {
		t.Fatal(err)
	}
	b.Publish(Event{Type: InvocationFailed, Class: "A", Object: "a-1"})
	b.Drain()
	if s := b.Stats(); s.Dropped != 1 || s.Delivered != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStreamReceivesObjectEventsInOrder(t *testing.T) {
	b := newBus(t, Config{})
	st := b.Stream("obj-1", 16)
	defer st.Close()
	other := b.Stream("obj-2", 16)
	defer other.Close()
	for i := 0; i < 5; i++ {
		b.Publish(Event{Type: StateChanged, Class: "A", Object: "obj-1", Keys: []string{fmt.Sprintf("k%d", i)}})
	}
	b.Drain()
	for i := 0; i < 5; i++ {
		select {
		case ev := <-st.Events():
			if len(ev.Keys) != 1 || ev.Keys[0] != fmt.Sprintf("k%d", i) {
				t.Fatalf("event %d = %+v (order broken)", i, ev)
			}
		case <-time.After(time.Second):
			t.Fatalf("stream starved at event %d", i)
		}
	}
	select {
	case ev := <-other.Events():
		t.Fatalf("obj-2 stream got obj-1 event: %+v", ev)
	default:
	}
}

func TestStreamOverflowDropsNotBlocks(t *testing.T) {
	b := newBus(t, Config{})
	st := b.Stream("obj-1", 2)
	defer st.Close()
	for i := 0; i < 10; i++ {
		b.Publish(Event{Type: StateChanged, Class: "A", Object: "obj-1"})
	}
	b.Drain()
	if s := b.Stats(); s.Dropped != 8 || s.Delivered != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStreamClosedOnBusClose(t *testing.T) {
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stream("obj-1", 4)
	b.Close()
	select {
	case _, open := <-st.Events():
		if open {
			t.Fatal("expected closed channel")
		}
	case <-time.After(time.Second):
		t.Fatal("stream not closed by bus Close")
	}
	// Closing the stream after the bus is a no-op, not a double close.
	st.Close()
}

// TestStreamCloseRacesBusClose regression-tests the shutdown deadlock:
// a stream closing concurrently with the bus closing (an SSE client
// disconnecting during platform teardown) must not wedge either side.
func TestStreamCloseRacesBusClose(t *testing.T) {
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]*Stream, 32)
	for i := range streams {
		streams[i] = b.Stream("obj", 4)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for _, s := range streams {
			wg.Add(1)
			go func(s *Stream) {
				defer wg.Done()
				s.Close()
			}(s)
		}
		wg.Wait()
	}()
	b.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream Close deadlocked against bus Close")
	}
}

func TestOverflowDropCounts(t *testing.T) {
	release := make(chan struct{})
	var delivered atomic.Int64
	b := newBus(t, Config{
		Shards: 1, Buffer: 2, Overflow: OverflowDrop,
		InvokeAsync: func(context.Context, string, string, json.RawMessage, map[string]string) (string, error) {
			<-release
			delivered.Add(1)
			return "inv", nil
		},
	})
	if err := b.Subscribe("slow", Subscription{Class: "A", Type: StateChanged, TargetFunction: "f"}); err != nil {
		t.Fatal(err)
	}
	// One event occupies the dispatcher (blocked on release), two fill
	// the buffer, the rest must drop.
	for i := 0; i < 8; i++ {
		b.Publish(Event{Type: StateChanged, Class: "A", Object: "o"})
	}
	// Wait until the dispatcher has picked up the first event so the
	// drop accounting is deterministic... it may still be racing; only
	// assert the invariant sum.
	close(release)
	b.Drain()
	s := b.Stats()
	if s.Emitted != 8 {
		t.Fatalf("emitted = %d", s.Emitted)
	}
	if s.Dropped == 0 {
		t.Fatalf("no drops under overflow: %+v", s)
	}
	if delivered.Load()+s.Dropped != 8 {
		t.Fatalf("delivered %d + dropped %d != 8", delivered.Load(), s.Dropped)
	}
}

func TestOverflowBlockLosesNothing(t *testing.T) {
	var delivered atomic.Int64
	b := newBus(t, Config{
		Shards: 1, Buffer: 1, Overflow: OverflowBlock,
		InvokeAsync: func(context.Context, string, string, json.RawMessage, map[string]string) (string, error) {
			time.Sleep(100 * time.Microsecond)
			delivered.Add(1)
			return "inv", nil
		},
	})
	if err := b.Subscribe("s", Subscription{Class: "A", Type: StateChanged, TargetFunction: "f"}); err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				b.Publish(Event{Type: StateChanged, Class: "A", Object: "o"})
			}
		}()
	}
	wg.Wait()
	b.Drain()
	if got := delivered.Load(); got != n {
		t.Fatalf("delivered = %d, want %d", got, n)
	}
	if s := b.Stats(); s.Dropped != 0 {
		t.Fatalf("dropped = %d under block policy", s.Dropped)
	}
}

func TestPublishAfterCloseIsDropped(t *testing.T) {
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	b.Publish(Event{Type: StateChanged, Class: "A", Object: "o"}) // must not panic
	if s := b.Stats(); s.Dropped != 1 {
		t.Fatalf("stats = %+v", s)
	}
	b.Close() // idempotent
}

func TestSetClassTriggersReplacesSet(t *testing.T) {
	var calls atomic.Int64
	b := newBus(t, Config{
		InvokeAsync: func(context.Context, string, string, json.RawMessage, map[string]string) (string, error) {
			calls.Add(1)
			return "inv", nil
		},
	})
	b.SetClassTriggers("A", []Subscription{{Class: "A", Type: StateChanged, TargetFunction: "f"}})
	b.Publish(Event{Type: StateChanged, Class: "A", Object: "o"})
	b.Drain()
	if calls.Load() != 1 {
		t.Fatalf("calls = %d", calls.Load())
	}
	// Redeploy with no triggers: the old set must be gone.
	b.SetClassTriggers("A", nil)
	b.Publish(Event{Type: StateChanged, Class: "A", Object: "o"})
	b.Drain()
	if calls.Load() != 1 {
		t.Fatalf("replaced trigger still fired: calls = %d", calls.Load())
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	var calls atomic.Int64
	b := newBus(t, Config{
		InvokeAsync: func(context.Context, string, string, json.RawMessage, map[string]string) (string, error) {
			calls.Add(1)
			return "inv", nil
		},
	})
	if err := b.Subscribe("s", Subscription{Class: "A", Type: StateChanged, TargetFunction: "f"}); err != nil {
		t.Fatal(err)
	}
	if !b.Unsubscribe("s") {
		t.Fatal("Unsubscribe returned false for a live subscription")
	}
	if b.Unsubscribe("s") {
		t.Fatal("double Unsubscribe returned true")
	}
	b.Publish(Event{Type: StateChanged, Class: "A", Object: "o"})
	b.Drain()
	if calls.Load() != 0 {
		t.Fatalf("unsubscribed sink fired %d times", calls.Load())
	}
	names, _ := b.Subscriptions()
	if len(names) != 0 {
		t.Fatalf("subscriptions = %v", names)
	}
}

// TestStalledWebhookDoesNotBlockStreams is the head-of-line
// regression test: webhook delivery runs on the delivery pool, so a
// webhook hung mid-request on one object must not delay stream
// delivery for a different object routed to the same shard.
func TestStalledWebhookDoesNotBlockStreams(t *testing.T) {
	release := make(chan struct{})
	var stalled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		stalled.Store(true)
		<-release
	}))
	defer srv.Close()
	// Unblock the handler before srv.Close (which waits for in-flight
	// requests) and before the bus cleanup drains the delivery pool.
	defer close(release)
	// One shard forces both objects through the same dispatch loop.
	b := newBus(t, Config{Shards: 1, WebhookTimeout: 5 * time.Second})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: srv.URL}); err != nil {
		t.Fatal(err)
	}
	st := b.Stream("b-1", 8)
	defer st.Close()
	b.Publish(Event{Type: StateChanged, Class: "A", Object: "a-1", Keys: []string{"k"}})
	deadline := time.Now().Add(5 * time.Second)
	for !stalled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("webhook never reached the stalling handler")
		}
		time.Sleep(time.Millisecond)
	}
	b.Publish(Event{Type: StateChanged, Class: "B", Object: "b-1", Keys: []string{"k"}})
	select {
	case ev := <-st.Events():
		if ev.Object != "b-1" {
			t.Fatalf("stream got event for %q", ev.Object)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stream delivery stalled behind a hung webhook on the same shard")
	}
}

// TestShardForNoAllocs pins the inlined FNV-1a fold at zero
// allocations per publish-path hash and checks it agrees with the
// stdlib hasher it replaced.
func TestShardForNoAllocs(t *testing.T) {
	b := newBus(t, Config{Shards: 8})
	objects := []string{"", "a-1", "counter-with-a-much-longer-object-name"}
	for _, obj := range objects {
		if n := testing.AllocsPerRun(200, func() { b.shardFor(obj) }); n != 0 {
			t.Errorf("shardFor(%q) allocates %.1f per call, want 0", obj, n)
		}
	}
	for _, obj := range objects {
		h := fnv.New32a()
		_, _ = h.Write([]byte(obj))
		want := b.shards[h.Sum32()%uint32(len(b.shards))]
		if got := b.shardFor(obj); got != want {
			t.Errorf("shardFor(%q) diverges from hash/fnv", obj)
		}
	}
}

// TestNeedsEvents pins the gate both producers consult before
// constructing an event (Infra.EventsNeeded, the terminal-record
// hook), on a bus without a log: a subscription makes its class need
// events, a live stream makes its object need them, and nothing else
// does.
func TestNeedsEvents(t *testing.T) {
	b := newBus(t, Config{})
	if b.NeedsEvents("Order", "o-1") {
		t.Fatal("fresh bus with no log/subs/streams claims to need events")
	}
	// A named subscription gates by class.
	if err := b.Subscribe("s1", Subscription{
		Class: "Order", Type: StateChanged, Webhook: "http://127.0.0.1:1/sink",
	}); err != nil {
		t.Fatal(err)
	}
	if !b.NeedsEvents("Order", "o-1") {
		t.Fatal("subscribed class not needed")
	}
	if b.NeedsEvents("Other", "x-1") {
		t.Fatal("unsubscribed class needed")
	}
	b.Unsubscribe("s1")
	if b.NeedsEvents("Order", "o-1") {
		t.Fatal("unsubscribe did not clear the need")
	}
	// Class triggers (YAML-declared) gate the same way.
	b.SetClassTriggers("Photo", []Subscription{{
		Class: "Photo", Type: StateChanged, TargetFunction: "makeThumbnail",
	}})
	if !b.NeedsEvents("Photo", "p-1") || b.NeedsEvents("Order", "o-1") {
		t.Fatal("class triggers not reflected per class")
	}
	b.SetClassTriggers("Photo", nil)
	if b.NeedsEvents("Photo", "p-1") {
		t.Fatal("removing the class triggers did not clear the need")
	}
	// A stream is object-scoped at the gate as it is at delivery.
	st, other := b.Stream("o-1", 4), b.Stream("o-1", 4)
	if !b.NeedsEvents("Order", "o-1") {
		t.Fatal("open stream ignored")
	}
	if b.NeedsEvents("Order", "o-2") {
		t.Fatal("a stream on one object makes another publish")
	}
	st.Close()
	st.Close() // idempotent: the second call must not count for `other`
	if !b.NeedsEvents("Order", "o-1") {
		t.Fatal("closing one of two streams cleared the need")
	}
	other.Close()
	// Stream teardown is synchronous on Close.
	if b.NeedsEvents("Order", "o-1") || b.streamed.Load() != 0 {
		t.Fatal("closed streams still force publishing")
	}
}

// TestNeedsEventsWithDurableLog: a log alone needs nothing; an
// object's log that has recorded one entry needs every later event of
// that object — and only of that object — for good, across process
// death.
func TestNeedsEventsWithDurableLog(t *testing.T) {
	st := kvstore.Open(kvstore.Config{})
	t.Cleanup(func() { st.Close() })
	l, err := eventlog.New(eventlog.Config{Backing: st})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Log: l})
	if err != nil {
		t.Fatal(err)
	}
	if b.NeedsEvents("Order", "o-1") {
		t.Fatal("an object nobody has observed needs events")
	}
	b.Publish(Event{Type: StateChanged, Class: "Order", Object: "o-1", Keys: []string{"k"}})
	if !b.NeedsEvents("Order", "o-1") {
		t.Fatal("a begun log stopped")
	}
	if b.NeedsEvents("Order", "o-2") {
		t.Fatal("one object's log made another of its class need events")
	}
	b.Kill()
	l.Kill()
	l2, err := eventlog.New(eventlog.Config{Backing: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l2.Close() })
	b2 := newBus(t, Config{Log: l2})
	if !b2.NeedsEvents("Order", "o-1") {
		t.Fatal("a begun log did not survive the restart")
	}
	if b2.NeedsEvents("Order", "o-2") {
		t.Fatal("the successor needs events for an object never observed")
	}
}
