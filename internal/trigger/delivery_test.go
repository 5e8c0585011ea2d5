package trigger

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// newLog builds an event log that the test's cleanup closes.
func newLog(t *testing.T, cfg eventlog.Config) *eventlog.Log {
	t.Helper()
	l, err := eventlog.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// hook is a webhook endpoint that records every delivery in arrival
// order. While gate is non-nil the first request parks on it (the
// blocked-endpoint cases); fail makes it answer 500 that many times.
type hook struct {
	srv  *httptest.Server
	gate chan struct{}
	fail atomic.Int64
	hits atomic.Int64

	mu      sync.Mutex
	bodies  [][]byte
	offsets []int64
	objects []string
}

func newHook(t *testing.T, gated bool) *hook {
	t.Helper()
	h := &hook{}
	if gated {
		h.gate = make(chan struct{})
	}
	h.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if h.hits.Add(1) == 1 && h.gate != nil {
			<-h.gate
		}
		if h.fail.Add(-1) >= 0 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		var ev Event
		if err := json.Unmarshal(body, &ev); err != nil {
			t.Errorf("webhook body %q: %v", body, err)
		}
		h.mu.Lock()
		h.bodies = append(h.bodies, body)
		h.offsets = append(h.offsets, ev.Offset)
		h.objects = append(h.objects, ev.Object)
		h.mu.Unlock()
		// A body the client has to drain to get its connection back.
		_, _ = io.WriteString(w, "ok")
	}))
	t.Cleanup(h.srv.Close)
	return h
}

func (h *hook) got() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.offsets)
}

// gotByObject is got split by object, each in arrival order.
func (h *hook) gotByObject() map[string][]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := map[string][]int64{}
	for i, obj := range h.objects {
		out[obj] = append(out[obj], h.offsets[i])
	}
	return out
}

func seq(from, to int64) []int64 {
	var out []int64
	for i := from; i <= to; i++ {
		out = append(out, i)
	}
	return out
}

func stateChanged(object string, keys ...string) Event {
	return Event{Type: StateChanged, Class: "A", Object: object, Function: "f", Keys: keys}
}

// TestWebhookConnectionReuse: the bus's own client keeps one idle
// connection per delivery worker, and drains response bodies, so a
// steady stream of deliveries opens no more connections than there are
// workers. The endpoint holds the first deliveries until every worker
// has one in flight: each worker then owns a connection, and none may
// be opened after that.
func TestWebhookConnectionReuse(t *testing.T) {
	const workers = 4
	var opened, served atomic.Int64
	allBusy := make(chan struct{})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := served.Add(1); n <= workers {
			if n == workers {
				close(allBusy)
			}
			select {
			case <-allBusy:
			case <-time.After(5 * time.Second):
				t.Error("the delivery workers never were all busy")
			}
		}
		_, _ = io.WriteString(w, `{"status":"accepted"}`)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	b := newBus(t, Config{Log: newLog(t, eventlog.Config{}), DeliveryWorkers: workers})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: srv.URL}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		b.Publish(stateChanged(fmt.Sprintf("a-%d", i%64), "k"))
	}
	b.Drain()
	if got := served.Load(); got != 200 {
		t.Fatalf("served %d deliveries, want 200", got)
	}
	if got := opened.Load(); got > workers {
		t.Fatalf("opened %d connections for 200 deliveries, want at most %d (one per worker)", got, workers)
	}
}

// TestEncodeOnceByteIdentity: the bytes Publish marshals for the log
// are the bytes the webhook POSTs and the chain sink submits — offset
// included — and a caught-up consumer never reads the log to get them.
func TestEncodeOnceByteIdentity(t *testing.T) {
	h := newHook(t, false)
	var chainMu sync.Mutex
	var chained [][]byte
	l := newLog(t, eventlog.Config{})
	b := newBus(t, Config{Log: l, InvokeAsync: each(func(_, _ string, payload json.RawMessage, _ map[string]string) error {
		chainMu.Lock()
		chained = append(chained, bytes.Clone(payload))
		chainMu.Unlock()
		return nil
	})})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: h.srv.URL}); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe("chain", Subscription{Class: "A", Type: StateChanged, TargetObject: "t-1", TargetFunction: "record"}); err != nil {
		t.Fatal(err)
	}
	ev := stateChanged("a-1", "doc", "n")
	ev.Trace = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	b.Publish(ev)
	b.Drain()
	if got := l.Stats().Replayed; got != 0 {
		t.Fatalf("caught-up consumers read %d log entries, want 0", got)
	}
	// (A batch's later events are in the log before they are dispatched,
	// so a consumer already running may legitimately read them there.)
	b.PublishBatch([]Event{stateChanged("a-1", "doc"), stateChanged("a-1", "n")})
	b.Drain()
	entries, err := l.Read(context.Background(), "a-1", 1, 0)
	if err != nil || len(entries) != 3 {
		t.Fatalf("log read = %d entries, %v", len(entries), err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	chainMu.Lock()
	defer chainMu.Unlock()
	if len(h.bodies) != 3 || len(chained) != 3 {
		t.Fatalf("webhook got %d, chain got %d, want 3 each", len(h.bodies), len(chained))
	}
	for i, e := range entries {
		var decoded Event
		if err := json.Unmarshal(e.Payload, &decoded); err != nil || decoded.Offset != int64(i+1) {
			t.Fatalf("entry %d decodes to offset %d (%v)", i+1, decoded.Offset, err)
		}
		if !bytes.Equal(h.bodies[i], e.Payload) {
			t.Errorf("webhook body %d differs from the log entry:\n%s\n%s", i+1, h.bodies[i], e.Payload)
		}
		if !bytes.Equal(chained[i], e.Payload) {
			t.Errorf("chain payload %d differs from the log entry:\n%s\n%s", i+1, chained[i], e.Payload)
		}
	}
}

// TestFailedBatchAppendCountsEveryEvent: a batch whose one backing write
// fails is three events that missed the log, not one — LogFailed counts
// events, as its doc says — and each of them is still dispatched, best
// effort, without an offset.
func TestFailedBatchAppendCountsEveryEvent(t *testing.T) {
	store := kvstore.Open(kvstore.Config{})
	t.Cleanup(store.Close)
	b := newBus(t, Config{Log: newLog(t, eventlog.Config{Backing: store})})
	st := b.Stream("a-1", 8)
	defer st.Close()
	store.InjectWriteFailures(1, errors.New("disk full"))
	b.PublishBatch([]Event{stateChanged("a-1", "doc"), stateChanged("a-1", "n"), stateChanged("a-1", "k")})
	b.Drain()
	if s := b.Stats(); s.LogFailed != 3 || s.Emitted != 3 {
		t.Fatalf("stats = %+v, want 3 emitted and 3 log failures", s)
	}
	for i := range 3 {
		select {
		case ev := <-st.Events():
			if ev.Offset != 0 {
				t.Errorf("event %d carries offset %d from a failed append", i, ev.Offset)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 3 events dispatched", i)
		}
	}
}

// TestFailedAppendDeliversOnceToEverySink: an event whose append failed
// has no offset, so no cursor waits behind it. A webhook subscription and
// a method subscription each still receive it once, from the delivery
// pool — a method sink whose invoker blocks does not block the publisher
// — and no consumer is created for it.
func TestFailedAppendDeliversOnceToEverySink(t *testing.T) {
	h := newHook(t, false)
	release := make(chan struct{})
	chained := make(chan int64, 4)
	b := newBusFailingNextAppend(t, Config{InvokeAsync: each(func(_, _ string, payload json.RawMessage, _ map[string]string) error {
		<-release
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			t.Errorf("chain payload %q: %v", payload, err)
		}
		chained <- ev.Offset
		return nil
	})})
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // before the bus's Close, which drains the pool
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: h.srv.URL}); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe("chain", Subscription{Class: "A", Type: StateChanged, TargetFunction: "record"}); err != nil {
		t.Fatal(err)
	}
	published := make(chan struct{})
	go func() {
		b.Publish(stateChanged("a-1", "k"))
		close(published)
	}()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("a blocked method sink blocked Publish")
	}
	unblock()
	b.Drain()
	if got := h.got(); !slices.Equal(got, []int64{0}) {
		t.Fatalf("webhook received offsets %v, want one offset-less delivery", got)
	}
	if len(chained) != 1 || <-chained != 0 {
		t.Fatal("the method sink did not receive the offset-less event exactly once")
	}
	s := b.Stats()
	if s.LogFailed != 1 || s.Delivered != 2 || s.Dropped != 0 {
		t.Fatalf("stats = %+v, want 1 log failure and 2 deliveries", s)
	}
	for _, id := range []string{"named/hook", "named/chain"} {
		if s.Subscriptions[id].Delivered != 1 {
			t.Errorf("%s: %+v", id, s.Subscriptions[id])
		}
		if _, ok := b.cfg.Log.Cursor(id, "a-1"); ok {
			t.Errorf("%s got a cursor for an event the log does not hold", id)
		}
	}
}

// TestAppendedEventIsNeverStranded: a burst over many objects arrives
// while the only delivery worker is stuck in a webhook, then the objects
// go quiet. Every appended event is still delivered exactly once, at its
// offset and in offset order, with no later event to wake its consumer:
// dispatch is part of Publish, so nothing appended is skipped on its way
// to the consumers.
func TestAppendedEventIsNeverStranded(t *testing.T) {
	const objects, perObject = 64, 3
	h := newHook(t, true)
	l := newLog(t, eventlog.Config{})
	b := newBus(t, Config{Log: l, DeliveryWorkers: 1})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: h.srv.URL}); err != nil {
		t.Fatal(err)
	}
	object := func(i int) string { return fmt.Sprintf("o-%d", i%objects) }
	b.Publish(stateChanged(object(0), "k"))
	waitFor(t, "the first delivery to hold the worker", func() bool { return h.hits.Load() == 1 })
	for i := 1; i < objects*perObject; i++ {
		b.Publish(stateChanged(object(i), "k"))
	}
	close(h.gate)
	b.Drain()
	got := h.gotByObject()
	for i := range objects {
		if offs := got[object(i)]; !slices.Equal(offs, seq(1, perObject)) {
			t.Errorf("%s: delivered offsets %v, want 1..%d in order", object(i), offs, perObject)
		}
	}
	s := b.Stats()
	if s.Dropped != 0 || s.Delivered != objects*perObject || s.Subscriptions["named/hook"].CursorLag != 0 {
		t.Fatalf("stats = %+v, want %d delivered, nothing dropped, no lag", s, objects*perObject)
	}
}

// TestFirstContactLosesNoEvent: two publishers write one object that a
// subscription matches and no cursor covers yet. The publisher of
// offset 1 is held between its append and its dispatch until the
// publisher of offset 2 has dispatched, so offset 2 makes first contact.
// Offset 1 is still delivered, before offset 2, and nothing is left
// behind the cursor: the first-contact seed follows the order the
// append imposes, not the order the publishers reach dispatch in.
func TestFirstContactLosesNoEvent(t *testing.T) {
	h := newHook(t, false)
	l := newLog(t, eventlog.Config{})
	b := newBus(t, Config{Log: l})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: h.srv.URL}); err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	b.afterAppend = func(first int64) {
		if first == 1 {
			close(held)
			<-release
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Publish(stateChanged("a-1", "k"))
	}()
	<-held
	b.Publish(stateChanged("a-1", "k"))
	close(release)
	<-done
	b.Drain()
	if got := h.got(); !slices.Equal(got, seq(1, 2)) {
		t.Errorf("delivered offsets %v, want [1 2]", got)
	}
	s := b.Stats()
	if s.Delivered != 2 || s.Subscriptions["named/hook"].CursorLag != 0 {
		t.Fatalf("stats = %+v, want 2 delivered and no lag", s)
	}
}

// TestBehindConsumerHandoffOverflow: events that pile up behind a
// blocked endpoint beyond the hand-off are delivered from the log, in
// order, exactly once.
func TestBehindConsumerHandoffOverflow(t *testing.T) {
	h := newHook(t, true)
	l := newLog(t, eventlog.Config{})
	b := newBus(t, Config{Log: l})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: h.srv.URL}); err != nil {
		t.Fatal(err)
	}
	const n = 3*handoffCap + 1
	b.Publish(stateChanged("a-1", "k"))
	waitFor(t, "the first delivery to reach the endpoint", func() bool { return h.hits.Load() == 1 })
	for i := 1; i < n; i++ {
		b.Publish(stateChanged("a-1", "k"))
	}
	close(h.gate)
	b.Drain()
	if got := h.got(); !slices.Equal(got, seq(1, n)) {
		t.Fatalf("delivered offsets %v, want 1..%d in order", got, n)
	}
	if got := l.Stats().Replayed; got == 0 {
		t.Fatal("the backlog beyond the hand-off was not read from the log")
	}
	if s := b.Stats(); s.Delivered != n || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestBehindConsumerAfterKill: a successor bus on the same store has
// no hand-off at all; ReplayCursors-style recovery delivers the dead
// incarnation's backlog from the log in order.
func TestBehindConsumerAfterKill(t *testing.T) {
	store := kvstore.Open(kvstore.Config{})
	t.Cleanup(func() { store.Close() })
	h := newHook(t, false)
	h.fail.Store(1 << 30)
	sub := Subscription{Class: "A", Type: StateChanged, Webhook: h.srv.URL}

	l1, err := eventlog.New(eventlog.Config{Backing: store})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := New(Config{Log: l1, WebhookMaxRetries: -1, WebhookBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := b1.Subscribe("hook", sub); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b1.Publish(stateChanged("a-1", "k"))
	}
	b1.Drain()
	b1.Kill()
	l1.Kill()
	if got := h.got(); len(got) != 0 {
		t.Fatalf("failing endpoint recorded %v", got)
	}

	h.fail.Store(0)
	l2 := newLog(t, eventlog.Config{Backing: store})
	if err := l2.LoadCursors(context.Background()); err != nil {
		t.Fatal(err)
	}
	b2 := newBus(t, Config{Log: l2})
	if err := b2.Subscribe("hook", sub); err != nil {
		t.Fatal(err)
	}
	b2.ReplayCursors()
	b2.Drain()
	if got := h.got(); !slices.Equal(got, seq(1, 5)) {
		t.Fatalf("successor delivered %v, want 1..5 in order", got)
	}
}

// TestBehindConsumerSkipsNonMatching: entries the subscription does
// not want sit between its matches (another key prefix, terminal
// invocation events); the consumer steps over them in the log and
// delivers exactly the matching ones in order.
func TestBehindConsumerSkipsNonMatching(t *testing.T) {
	h := newHook(t, false)
	l := newLog(t, eventlog.Config{})
	b := newBus(t, Config{Log: l})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, KeyPrefix: "doc", Webhook: h.srv.URL}); err != nil {
		t.Fatal(err)
	}
	var want []int64
	for i := int64(1); i <= 12; i++ {
		switch i % 3 {
		case 1:
			b.Publish(stateChanged("a-1", "doc/body"))
			want = append(want, i)
		case 2:
			b.Publish(stateChanged("a-1", "meta"))
		default:
			b.Publish(Event{Type: InvocationCompleted, Class: "A", Object: "a-1", Invocation: "inv"})
		}
	}
	b.Drain()
	if got := h.got(); !slices.Equal(got, want) {
		t.Fatalf("delivered offsets %v, want %v", got, want)
	}
	if got := l.Stats().Replayed; got == 0 {
		t.Fatal("the non-matching entries were not stepped over in the log")
	}
}

// TestBehindConsumerCompactionOvertakesCursor: retention evicts
// entries a blocked consumer has not reached. What it still holds in
// flight is delivered; the evicted rest is counted dropped and the
// consumer resumes at the retained floor.
func TestBehindConsumerCompactionOvertakesCursor(t *testing.T) {
	const retained = 3
	const n = 2*handoffCap + retained + 1
	h := newHook(t, true)
	l := newLog(t, eventlog.Config{MaxPerObject: retained})
	b := newBus(t, Config{Log: l})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: h.srv.URL}); err != nil {
		t.Fatal(err)
	}
	b.Publish(stateChanged("a-1", "k"))
	waitFor(t, "the first delivery to reach the endpoint", func() bool { return h.hits.Load() == 1 })
	for i := 1; i < n; i++ {
		b.Publish(stateChanged("a-1", "k"))
	}
	close(h.gate)
	b.Drain()
	// Offset 1 was in flight at the endpoint, 2..1+handoffCap in the
	// hand-off; everything else below the floor is gone.
	want := append(seq(1, 1+handoffCap), seq(n-retained+1, n)...)
	if got := h.got(); !slices.Equal(got, want) {
		t.Fatalf("delivered offsets %v, want %v", got, want)
	}
	s := b.Stats()
	if s.Delivered != int64(len(want)) || s.Dropped != int64(n-len(want)) {
		t.Fatalf("stats = %+v, want delivered %d dropped %d", s, len(want), n-len(want))
	}
}

// TestRedeploySwapsSinkMidQueue: a class redeploy that changes a
// trigger's sink (same identity) applies to the events already queued
// behind the old sink.
func TestRedeploySwapsSinkMidQueue(t *testing.T) {
	old, fresh := newHook(t, true), newHook(t, false)
	b := newBus(t, Config{Log: newLog(t, eventlog.Config{})})
	b.SetClassTriggers("A", []Subscription{{ID: "class/A/t", Class: "A", Type: StateChanged, Webhook: old.srv.URL}})
	b.Publish(stateChanged("a-1", "k"))
	waitFor(t, "the first delivery to reach the old endpoint", func() bool { return old.hits.Load() == 1 })
	b.Publish(stateChanged("a-1", "k"))
	b.Publish(stateChanged("a-1", "k"))
	b.SetClassTriggers("A", []Subscription{{ID: "class/A/t", Class: "A", Type: StateChanged, Webhook: fresh.srv.URL}})
	close(old.gate)
	b.Drain()
	if got := old.got(); !slices.Equal(got, seq(1, 1)) {
		t.Fatalf("old sink got %v, want only the delivery it was blocked in", got)
	}
	if got := fresh.got(); !slices.Equal(got, seq(2, 3)) {
		t.Fatalf("new sink got %v, want 2,3", got)
	}
}

// TestStalledConsumerRearms: a run that ends on a retriable failure is
// retried without a new event or a restart.
func TestStalledConsumerRearms(t *testing.T) {
	h := newHook(t, false)
	h.fail.Store(5)
	b := newBus(t, Config{Log: newLog(t, eventlog.Config{}), WebhookMaxRetries: 3})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: h.srv.URL}); err != nil {
		t.Fatal(err)
	}
	b.Publish(stateChanged("a-1", "k"))
	waitFor(t, "the delivery after five failures", func() bool { return len(h.got()) == 1 })
	b.Drain()
	s := b.Stats().Subscriptions["named/hook"]
	if s.Delivered != 1 || s.Dropped != 0 || s.CursorLag != 0 || h.hits.Load() != 6 {
		t.Fatalf("stats = %+v after %d attempts", s, h.hits.Load())
	}
}

// TestDeadEndpointIsRetriedAtBoundedCadence: a permanently failing
// endpoint is attempted once per re-arm delay — doubling, on the bus
// clock — however many events arrive meanwhile, and its backlog stays
// visible as cursor lag.
func TestDeadEndpointIsRetriedAtBoundedCadence(t *testing.T) {
	h := newHook(t, false)
	h.fail.Store(1 << 30)
	clock := vclock.NewManual(time.Unix(1_700_000_000, 0))
	b := newBus(t, Config{
		Log: newLog(t, eventlog.Config{}), Clock: clock,
		WebhookMaxRetries: -1, WebhookBackoff: 10 * time.Millisecond, BackoffJitter: -1,
	})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: h.srv.URL}); err != nil {
		t.Fatal(err)
	}
	// Drained, the attempt has released its own timeout, so the one
	// pending timer is the re-arm.
	armed := func() bool { return clock.Pending() == 1 }
	b.Publish(stateChanged("a-1", "k"))
	b.Drain()
	waitFor(t, "the first re-arm", armed)
	for i := 0; i < 10; i++ {
		b.Publish(stateChanged("a-1", "k"))
	}
	b.Drain()
	if got := h.hits.Load(); got != 1 {
		t.Fatalf("%d attempts before the re-arm delay elapsed, want 1", got)
	}
	if lag := b.Stats().Subscriptions["named/hook"].CursorLag; lag != 11 {
		t.Fatalf("cursor lag = %d, want 11", lag)
	}
	// 10ms, then 20ms: half the second delay must not fire it.
	clock.Advance(10 * time.Millisecond)
	waitFor(t, "the second attempt", func() bool { return h.hits.Load() == 2 })
	b.Drain()
	waitFor(t, "the second re-arm", armed)
	clock.Advance(10 * time.Millisecond)
	b.Drain()
	if got := h.hits.Load(); got != 2 {
		t.Fatalf("%d attempts halfway through the doubled delay, want 2", got)
	}
	clock.Advance(10 * time.Millisecond)
	waitFor(t, "the third attempt", func() bool { return h.hits.Load() == 3 })
}

// TestDeliveryQueueIsABoundedFIFO: the delivery queue hands items out in
// the order they came, across wrap-arounds and growth, and a steady
// stream of enqueue/dequeue cycles runs in the slots it already has — a
// pop gives up no capacity, so the next push does not reallocate. A
// burst past delRingKeep is released once it drains.
func TestDeliveryQueueIsABoundedFIFO(t *testing.T) {
	var r delRing
	// Item i is &states[i % len(states)]; FIFO means the k-th pop
	// returns item k.
	states := make([]consumerState, 3*delRingKeep)
	pushed, popped := 0, 0
	push := func() {
		r.push(delItem{st: &states[pushed%len(states)]})
		pushed++
	}
	pop := func() {
		if r.pop().st != &states[popped%len(states)] {
			t.Fatalf("pop %d did not return item %d", popped, popped)
		}
		popped++
	}
	// Mixed depths: grow from empty, drain part way, wrap, grow again.
	for _, step := range []struct{ push, pop int }{{5, 3}, {9, 4}, {20, 17}, {3, 10}, {40, 1}, {0, 42}} {
		for range step.push {
			push()
		}
		for range step.pop {
			pop()
		}
		if r.n != pushed-popped {
			t.Fatalf("ring holds %d, want %d", r.n, pushed-popped)
		}
	}
	// Steady state three deep: 10 000 cycles in the slots it has.
	for range 3 {
		push()
	}
	size := len(r.buf)
	allocs := testing.AllocsPerRun(10_000, func() {
		push()
		pop()
	})
	if len(r.buf) != size || r.n != 3 {
		t.Fatalf("after 10 000 cycles the ring has %d slots holding %d, want %d holding 3", len(r.buf), r.n, size)
	}
	if allocs != 0 {
		t.Fatalf("a steady enqueue/dequeue cycle allocates %.2f", allocs)
	}
	for r.n > 0 {
		pop()
	}
	// A recovery-sized burst grows the ring; drained, it lets go.
	for range 2 * delRingKeep {
		push()
	}
	for r.n > 0 {
		pop()
	}
	if r.buf != nil {
		t.Fatalf("a drained ring keeps %d slots after a burst", len(r.buf))
	}
}

// TestDrainWhilePublishing: Drain on a live bus, concurrently with
// publishers, is race-free and returns; a final Drain covers
// everything. Run under -race.
func TestDrainWhilePublishing(t *testing.T) {
	var calls atomic.Int64
	b := newBus(t, Config{Log: newLog(t, eventlog.Config{}),
		InvokeAsync: each(func(string, string, json.RawMessage, map[string]string) error {
			calls.Add(1)
			return nil
		})})
	if err := b.Subscribe("chain", Subscription{Class: "A", Type: StateChanged, TargetObject: "t-1", TargetFunction: "f"}); err != nil {
		t.Fatal(err)
	}
	const publishers, each = 4, 300
	var wg sync.WaitGroup
	done := make(chan struct{})
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Publish(stateChanged(fmt.Sprintf("a-%d-%d", p, i%8), "k"))
			}
		}(p)
	}
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			b.Drain()
		}
	}()
	wg.Wait()
	<-done
	b.Drain()
	if got := calls.Load(); got != publishers*each {
		t.Fatalf("delivered %d of %d after the final Drain", got, publishers*each)
	}
}
