package trigger

import (
	"context"
	"slices"
	"testing"
	"time"

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
