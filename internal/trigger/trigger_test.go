package trigger

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// newBus builds a bus with test-friendly webhook timing, on a
// memory-only log unless cfg names one.
func newBus(t *testing.T, cfg Config) *Bus {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = newLog(t, eventlog.Config{})
	}
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

// each adapts a function of one chained call to AsyncInvoker, as a
// queue whose work is done at once: it runs fn on the group's calls in
// turn, accepts those before the first that fails, and reports every
// accepted one committed before it returns.
func each(fn func(object, member string, payload json.RawMessage, args map[string]string) error) AsyncInvoker {
	return func(object string, calls []call.Call, done func(committed int)) (int, error) {
		for i, c := range calls {
			if err := fn(object, c.Member, c.Payload, c.Args); err != nil {
				if i > 0 {
					done(i)
				}
				return i, err
			}
		}
		done(len(calls))
		return len(calls), nil
	}
}

// newBusFailingNextAppend builds a bus whose log's store fails its next
// write, so the next Publish's append fails and its event takes the
// one-shot, offset-less delivery path.
func newBusFailingNextAppend(t *testing.T, cfg Config) *Bus {
	t.Helper()
	store := kvstore.Open(kvstore.Config{})
	t.Cleanup(store.Close)
	cfg.Log = newLog(t, eventlog.Config{Backing: store})
	b := newBus(t, cfg)
	store.InjectWriteFailures(1, errors.New("disk full"))
	return b
}

// TestNewRequiresALog: the log is the bus's only queue, so there is no
// bus without one.
func TestNewRequiresALog(t *testing.T) {
	if b, err := New(Config{}); err == nil {
		b.Close()
		t.Fatal("New built a bus without a log")
	}
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
		{"https webhook", Subscription{Class: "A", Type: StateChanged, Webhook: "https://127.0.0.1:8443/h?x=1"}, true},
		{"webhook with userinfo", Subscription{Class: "A", Type: StateChanged, Webhook: "http://u:p@127.0.0.1:8080/h"}, true},
		{"webhook not a url", Subscription{Class: "A", Type: StateChanged, Webhook: "not a url"}, false},
		{"webhook relative", Subscription{Class: "A", Type: StateChanged, Webhook: "/hook"}, false},
		{"webhook ftp", Subscription{Class: "A", Type: StateChanged, Webhook: "ftp://x"}, false},
		{"webhook no host", Subscription{Class: "A", Type: StateChanged, Webhook: "http://"}, false},
		{"webhook port without host", Subscription{Class: "A", Type: StateChanged, Webhook: "http://:80/h"}, false},
		{"webhook unparsable", Subscription{Class: "A", Type: StateChanged, Webhook: "http://[::1/h"}, false},
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
		InvokeAsync: each(func(object, member string, payload json.RawMessage, args map[string]string) error {
			var ev Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				t.Errorf("payload not an event: %v", err)
			}
			calls <- call{object: object, member: member, depth: args[ArgDepth], payload: ev}
			return nil
		}),
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

// TestChainedInvocationArgs: a chained invocation carries the firing
// event's type and its depth plus one, for every event type and every
// depth the chain limit lets through, as when each invocation built its
// own map; they now come from a table the bus builds once.
func TestChainedInvocationArgs(t *testing.T) {
	const maxDepth = 3
	var mu sync.Mutex
	got := map[string]map[string]string{}
	b := newBus(t, Config{
		MaxChainDepth: maxDepth,
		InvokeAsync: each(func(object, _ string, _ json.RawMessage, args map[string]string) error {
			mu.Lock()
			got[object] = maps.Clone(args)
			mu.Unlock()
			return nil
		}),
	})
	types := []EventType{StateChanged, InvocationCompleted, InvocationFailed}
	for _, typ := range types {
		if err := b.Subscribe(string(typ), Subscription{Class: "A", Type: typ, TargetFunction: "f"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, typ := range types {
		for depth := range maxDepth + 1 {
			b.Publish(Event{Type: typ, Class: "A", Object: fmt.Sprintf("%s-%d", typ, depth), Depth: depth})
		}
	}
	b.Drain()
	for _, typ := range types {
		for depth := range maxDepth {
			object := fmt.Sprintf("%s-%d", typ, depth)
			want := map[string]string{ArgSource: string(typ), ArgDepth: strconv.Itoa(depth + 1)}
			if !maps.Equal(got[object], want) {
				t.Errorf("%s at depth %d chained with args %v, want %v", typ, depth, got[object], want)
			}
		}
		if args, ok := got[fmt.Sprintf("%s-%d", typ, maxDepth)]; ok {
			t.Errorf("%s at the depth limit chained anyway, with %v", typ, args)
		}
	}
}

// TestChainArgsBeyondTheTable: a MaxChainDepth meaning "effectively
// unlimited" costs New a table of bounded size, and an event deeper than
// the table still chains with its type and its depth plus one.
func TestChainArgsBeyondTheTable(t *testing.T) {
	var mu sync.Mutex
	got := map[string]map[string]string{}
	b := newBus(t, Config{
		MaxChainDepth: math.MaxInt,
		InvokeAsync: each(func(object, _ string, _ json.RawMessage, args map[string]string) error {
			mu.Lock()
			got[object] = maps.Clone(args)
			mu.Unlock()
			return nil
		}),
	})
	if n := len(b.sends[StateChanged].args); n != argsTableDepth {
		t.Fatalf("New built %d args maps per event type, want %d", n, argsTableDepth)
	}
	if err := b.Subscribe("deep", Subscription{Class: "A", Type: StateChanged, TargetFunction: "f"}); err != nil {
		t.Fatal(err)
	}
	depths := []int{0, argsTableDepth - 1, argsTableDepth, 1 << 20}
	for _, depth := range depths {
		b.Publish(Event{Type: StateChanged, Class: "A", Object: fmt.Sprintf("a-%d", depth), Depth: depth})
	}
	b.Drain()
	for _, depth := range depths {
		want := map[string]string{ArgSource: string(StateChanged), ArgDepth: strconv.Itoa(depth + 1)}
		if args := got[fmt.Sprintf("a-%d", depth)]; !maps.Equal(args, want) {
			t.Errorf("depth %d chained with args %v, want %v", depth, args, want)
		}
	}
}

func TestMethodSinkDefaultsToEmittingObject(t *testing.T) {
	var target atomic.Value
	b := newBus(t, Config{
		InvokeAsync: each(func(object, member string, _ json.RawMessage, _ map[string]string) error {
			target.Store(object + "." + member)
			return nil
		}),
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
		InvokeAsync: each(func(object, _ string, _ json.RawMessage, args map[string]string) error {
			invocations.Add(1)
			b.Publish(Event{Type: StateChanged, Class: "Loop", Object: object, Depth: DepthOf(args)})
			return nil
		}),
	})
	if err := b.Subscribe("loop", Subscription{Class: "Loop", Type: StateChanged, TargetFunction: "again"}); err != nil {
		t.Fatal(err)
	}
	b.Publish(Event{Type: StateChanged, Class: "Loop", Object: "l-1"})
	// The chain re-publishes from inside a delivery; wait until it stops.
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

// TestWebhookRetryAndDrop: the one delivery an event whose append failed
// gets retries a failing webhook with doubling backoff up to the budget,
// then drops it. (A logged event is never dropped for an exhausted
// webhook; its consumer stalls and retries, TestStalledConsumerRearms.)
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
			b := newBusFailingNextAppend(t, cfg)
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

// TestWebhookUnreachableDrops: an unreachable endpoint fails every
// attempt of a one-shot delivery, which then counts dropped.
func TestWebhookUnreachableDrops(t *testing.T) {
	b := newBusFailingNextAppend(t, Config{WebhookMaxRetries: 1, WebhookBackoff: time.Millisecond, WebhookTimeout: 200 * time.Millisecond})
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

// TestStreamOverflowDropsNotBlocks: a full stream buffer costs the
// stream the events it cannot take, never the publisher a wait. Those
// events are skipped, not dropped: they are in the log, where the
// gateway heals the stream's gap from, so they count in StreamSkipped
// and leave Dropped — lost deliveries — at zero.
func TestStreamOverflowDropsNotBlocks(t *testing.T) {
	b := newBus(t, Config{})
	st := b.Stream("obj-1", 2)
	defer st.Close()
	for i := 0; i < 10; i++ {
		b.Publish(Event{Type: StateChanged, Class: "A", Object: "obj-1"})
	}
	b.Drain()
	if s := b.Stats(); s.StreamSkipped != 8 || s.Dropped != 0 || s.Delivered != 2 {
		t.Fatalf("stats = %+v, want 8 skipped, 0 dropped, 2 delivered", s)
	}
	if got := b.Metrics().Counter("trigger.stream_skipped").Value(); got != 8 {
		t.Fatalf("trigger.stream_skipped = %d, want 8", got)
	}
}

func TestStreamClosedOnBusClose(t *testing.T) {
	b, err := New(Config{Log: newLog(t, eventlog.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stream("obj-1", 4)
	b.Close()
	// A stream opened on the closed bus is closed from the start: nothing
	// would ever close it otherwise.
	late := b.Stream("obj-1", 4)
	for _, s := range []*Stream{st, late} {
		select {
		case _, open := <-s.Events():
			if open {
				t.Fatal("expected closed channel")
			}
		case <-time.After(time.Second):
			t.Fatal("stream not closed by bus Close")
		}
		// Closing the stream after the bus is a no-op, not a double close.
		s.Close()
	}
	if b.NeedsEvents("A", "obj-1") {
		t.Fatal("a stream on a closed bus makes its object need events")
	}
}

// TestStreamCloseRacesBusClose regression-tests the shutdown deadlock:
// a stream closing concurrently with the bus closing (an SSE client
// disconnecting during platform teardown) must not wedge either side.
func TestStreamCloseRacesBusClose(t *testing.T) {
	b, err := New(Config{Log: newLog(t, eventlog.Config{})})
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

func TestPublishAfterCloseIsDropped(t *testing.T) {
	b, err := New(Config{Log: newLog(t, eventlog.Config{})})
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
		InvokeAsync: each(func(string, string, json.RawMessage, map[string]string) error {
			calls.Add(1)
			return nil
		}),
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
		InvokeAsync: each(func(string, string, json.RawMessage, map[string]string) error {
			calls.Add(1)
			return nil
		}),
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
// delivery for a different object, which Publish does itself.
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
	b := newBus(t, Config{WebhookTimeout: 5 * time.Second})
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
		t.Fatal("stream delivery stalled behind a hung webhook")
	}
}

// TestNeedsEvents pins the gate both producers consult before
// constructing an event (Infra.EventsNeeded, the terminal-record
// hook), on a bus whose log has recorded nothing: a subscription makes
// its class need events, a live stream makes its object need them, and
// nothing else does.
func TestNeedsEvents(t *testing.T) {
	b := newBus(t, Config{})
	if b.NeedsEvents("Order", "o-1") {
		t.Fatal("fresh bus with no entries/subs/streams claims to need events")
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
