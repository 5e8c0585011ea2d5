package trigger

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// resident returns the consumer the bus holds for (sub, object), or nil.
func resident(b *Bus, sub, object string) *consumerState {
	b.delMu.Lock()
	defer b.delMu.Unlock()
	return b.delState[consumerKey{sub, object}]
}

// TestStalledConsumerIsKeptUntilItCatchesUp: a consumer whose endpoint
// fails waits for its re-arm, and the bus keeps it meanwhile — the same
// one, whatever arrives — so the re-arm cadence holds. It goes once the
// endpoint has recovered and the backlog is delivered.
func TestStalledConsumerIsKeptUntilItCatchesUp(t *testing.T) {
	h := newHook(t, false)
	h.fail.Store(1 << 30)
	clock := vclock.NewManual(time.Unix(1_700_000_000, 0))
	b := newBus(t, Config{
		Log: newLog(t, eventlog.Config{}), Clock: clock,
		Settings:      Settings{WebhookMaxRetries: -1, WebhookBackoff: 10 * time.Millisecond},
		BackoffJitter: -1,
	})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: h.srv.URL}); err != nil {
		t.Fatal(err)
	}
	b.Publish(stateChanged("a-1", "k"))
	b.Drain()
	waitFor(t, "the re-arm", func() bool { return clock.Pending() == 1 })
	st := resident(b, "named/hook", "a-1")
	if st == nil {
		t.Fatal("a stalled consumer was let go while its re-arm is due")
	}
	for range 3 {
		b.Publish(stateChanged("a-1", "k"))
	}
	b.Drain()
	if got := resident(b, "named/hook", "a-1"); got != st {
		t.Fatalf("events for a stalled consumer replaced it (%p, was %p)", got, st)
	}
	if got := h.hits.Load(); got != 1 {
		t.Fatalf("%d attempts before the re-arm delay elapsed, want 1", got)
	}
	h.fail.Store(0)
	clock.Advance(10 * time.Millisecond)
	waitFor(t, "the backlog after the re-arm", func() bool { return len(h.got()) == 4 })
	b.Drain()
	if got := h.got(); !slices.Equal(got, seq(1, 4)) {
		t.Fatalf("delivered %v, want 1..4 in order", got)
	}
	if st := resident(b, "named/hook", "a-1"); st != nil {
		t.Fatalf("a caught-up consumer is still held: %+v", *st)
	}
}

// TestParkedConsumerIsResumedByItsGroup: a method sink's run ends once
// it has submitted a group, and the consumer would be idle but for the
// group. The bus keeps it parked until the group's done, which persists
// the cursor past the group and resumes that same consumer for the
// events that arrived meanwhile; it goes once the last group settles.
func TestParkedConsumerIsResumedByItsGroup(t *testing.T) {
	dones := make(chan func(int), 4)
	l := newLog(t, eventlog.Config{})
	b := newBus(t, Config{Log: l, InvokeAsync: func(_ string, calls []call.Call, done func(int)) (int, error) {
		dones <- done
		return len(calls), nil
	}})
	if err := b.Subscribe("audit", Subscription{Class: "A", Type: StateChanged, TargetFunction: "audit"}); err != nil {
		t.Fatal(err)
	}
	// returned waits for the run that submitted a group to return, and
	// then reports the consumer the group will resume.
	returned := func(what string) *consumerState {
		waitFor(t, what, func() bool {
			b.delMu.Lock()
			defer b.delMu.Unlock()
			return b.delBusy == 0
		})
		b.delMu.Lock()
		defer b.delMu.Unlock()
		st := b.delState[consumerKey{"named/audit", "a-1"}]
		if st == nil || !st.parked {
			t.Fatalf("after %s the bus holds no parked consumer (%v)", what, st)
		}
		return st
	}
	cursor := func() int64 {
		c, _ := l.Cursor("named/audit", "a-1")
		return c
	}

	b.Publish(stateChanged("a-1", "k"))
	done := <-dones
	st := returned("the first group's run")
	b.Publish(stateChanged("a-1", "k"))
	if got := resident(b, "named/audit", "a-1"); got != st {
		t.Fatalf("an event for a parked consumer replaced it (%p, was %p)", got, st)
	}
	done(1)
	if got := cursor(); got != 2 {
		t.Fatalf("cursor = %d after the first group, want 2", got)
	}
	done = <-dones
	if got := returned("the second group's run"); got != st {
		t.Fatalf("the second group ran on another consumer (%p, was %p)", got, st)
	}
	done(1)
	b.Drain()
	if got := cursor(); got != 3 {
		t.Fatalf("cursor = %d after the second group, want 3", got)
	}
	if st := resident(b, "named/audit", "a-1"); st != nil {
		t.Fatalf("a settled consumer is still held: %+v", *st)
	}
	if s := b.Stats().Subscriptions["named/audit"]; s.Delivered != 2 || s.Dropped != 0 {
		t.Fatalf("stats = %+v, want 2 delivered", s)
	}
}

// TestHandedOffEventKeepsItsConsumer: a run that ends with an event in
// its hand-off — handed over by dispatch, here directly, before the log
// let the run read that far — keeps its consumer, so the event is not
// let go with it. The consumer goes once its hand-off is spent.
func TestHandedOffEventKeepsItsConsumer(t *testing.T) {
	h := newHook(t, false)
	l := newLog(t, eventlog.Config{})
	b := newBus(t, Config{Log: l})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: h.srv.URL}); err != nil {
		t.Fatal(err)
	}
	if err := l.SetCursor(context.Background(), "named/hook", "a-1", 1); err != nil {
		t.Fatal(err)
	}
	b.subMu.RLock()
	sub := b.subs["hook"]
	b.subMu.RUnlock()
	ahead := &inflight{ev: stateChanged("a-1", "k")}
	ahead.ev.Offset = 2
	b.notify(sub, "a-1", ahead)
	b.Drain()
	st := resident(b, "named/hook", "a-1")
	if st == nil || st.nHandoff != 1 {
		t.Fatalf("a consumer holding a handed-off event was let go (%v)", st)
	}
	b.Publish(stateChanged("a-1", "k"))
	b.Publish(stateChanged("a-1", "k"))
	b.Drain()
	if got := h.got(); !slices.Equal(got, seq(1, 2)) {
		t.Fatalf("delivered %v, want 1,2", got)
	}
	if st := resident(b, "named/hook", "a-1"); st != nil {
		t.Fatalf("a consumer with a spent hand-off is still held: %+v", *st)
	}
}
