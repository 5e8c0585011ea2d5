//go:build goexperiment.synctest

package trigger

import (
	"encoding/json"
	"sync/atomic"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/simtest"
)

func TestChainDepthLimitTerminates(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		// The invoker feeds every chained invocation straight back as a new
		// commit event at the stamped depth — a perfect self-loop. The
		// depth limit must cut it after MaxChainDepth hops.
		const maxDepth = 5
		var b *Bus
		var invocations atomic.Int64
		b = newBus(t, Config{
			Settings: Settings{MaxChainDepth: maxDepth},
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
		// The chain re-publishes from inside a delivery; once the bus is
		// idle it has stopped.
		simtest.Wait()
		b.Drain()
		if s := b.Stats(); s.CycleDropped == 0 {
			t.Fatalf("chain never terminated: %+v", s)
		}
		if got := invocations.Load(); got != maxDepth {
			t.Fatalf("chained invocations = %d, want %d", got, maxDepth)
		}
		if s := b.Stats(); s.CycleDropped != 1 || s.Dropped != 1 {
			t.Fatalf("stats = %+v", s)
		}
	})
}

// TestParkedConsumerIsResumedByItsGroup: a method sink's run ends once
// it has submitted a group, and the consumer would be idle but for the
// group. The bus keeps it parked until the group's done, which persists
// the cursor past the group and resumes that same consumer for the
// events that arrived meanwhile; it goes once the last group settles.
func TestParkedConsumerIsResumedByItsGroup(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
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
			simtest.Wait()
			b.delMu.Lock()
			defer b.delMu.Unlock()
			if b.delBusy != 0 {
				t.Fatalf("after %s %d runs are busy on an idle bus", what, b.delBusy)
			}
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
	})
}
