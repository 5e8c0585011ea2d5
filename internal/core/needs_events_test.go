package core

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/israce"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// offsetSink is a webhook endpoint that records the offsets it
// acknowledged, in arrival order.
type offsetSink struct {
	srv  *httptest.Server
	mu   sync.Mutex
	offs []int64
}

func newOffsetSink(t *testing.T) *offsetSink {
	t.Helper()
	s := &offsetSink{}
	s.srv = httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		var ev trigger.Event
		_ = json.NewDecoder(r.Body).Decode(&ev)
		s.mu.Lock()
		s.offs = append(s.offs, ev.Offset)
		s.mu.Unlock()
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *offsetSink) offsets() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.offs...)
}

// observe subscribes sink to class's state changes under name. An
// object's event log begins only once someone can read its events, so
// tests about logged history declare a consumer first.
func observe(t *testing.T, p *Platform, name, class string, sink *offsetSink) {
	t.Helper()
	if err := p.SubscribeTrigger(name, trigger.Subscription{
		Class: class, Type: trigger.StateChanged, Webhook: sink.srv.URL,
	}); err != nil {
		t.Fatal(err)
	}
}

// bump runs Tally.bump and returns the counter value it committed.
func bump(t *testing.T, p *Platform, id string) int64 {
	t.Helper()
	out, err := p.Invoke(context.Background(), id, "bump", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var n float64
	if err := json.Unmarshal(out, &n); err != nil {
		t.Fatalf("bump output %s: %v", out, err)
	}
	return int64(n)
}

// nextOffset is the offset the object's next logged event will get.
func nextOffset(t *testing.T, p *Platform, id string) int64 {
	t.Helper()
	_, next, err := p.elog.Bounds(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// newTallies deploys chainYAML (no triggers) on p and creates the named
// Tally objects.
func newTallies(t *testing.T, p *Platform, ids ...string) {
	t.Helper()
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(chainYAML("occ"))); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := p.CreateObject(ctx, "Tally", id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnobservedCommitsCostNothing: with no subscription, stream or
// begun log, neither producer — the commit exit, the terminal-record
// hook — builds an event, so nothing is emitted, appended or written.
func TestUnobservedCommitsCostNothing(t *testing.T) {
	ctx := context.Background()
	p := newEventPlatform(t, Config{})
	newTallies(t, p, "t-1")
	for i := 0; i < 20; i++ {
		bump(t, p, "t-1")
	}
	reqs := make([]asyncq.Request, 16)
	for i := range reqs {
		reqs[i] = asyncq.Request{Object: "t-1", Member: "bump"}
	}
	for _, r := range p.InvokeAsyncBatch(ctx, reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if rec, err := p.WaitInvocation(ctx, r.ID); err != nil || rec.Status != asyncq.StatusCompleted {
			t.Fatalf("invocation %s: %+v, %v", r.ID, rec, err)
		}
	}
	if n := tallyCount(t, p, "t-1"); n != 36 {
		t.Fatalf("counter = %v, want 36", n)
	}
	p.TriggerBus().Drain()
	if got := p.EventLog().Stats().Appended; got != 0 {
		t.Errorf("appended %d events nobody can read", got)
	}
	if got := p.Stats().Triggers.Emitted; got != 0 {
		t.Errorf("emitted %d events nobody can read", got)
	}
	for _, prefix := range []string{"evlog/", "evmeta/"} {
		keys, err := p.Backing().List(ctx, prefix)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 0 {
			t.Errorf("backing store holds %v", keys)
		}
	}
}

// TestEventLogIsStickyPerObject: a log begins with the first event
// someone could read and then records every later one on that object —
// through an unsubscribe, so the interim backlog is there on
// re-subscribe, and through process death — while an object of the
// same class nobody ever observed stays free.
func TestEventLogIsStickyPerObject(t *testing.T) {
	ctx := context.Background()
	shared := kvstore.Open(kvstore.Config{})
	defer shared.Close()
	sink := newOffsetSink(t)
	cfg := Config{Backing: shared, Triggers: trigger.Settings{WebhookBackoff: time.Millisecond}}
	p1 := newEventPlatform(t, cfg)
	newTallies(t, p1, "a", "b")

	observe(t, p1, "hook", "Tally", sink)
	bump(t, p1, "a")
	waitUntil(t, "delivery of a's first event", func() bool { return len(sink.offsets()) == 1 })
	if ok, err := p1.UnsubscribeTrigger("hook"); err != nil || !ok {
		t.Fatalf("unsubscribe = %v, %v; want a registered subscription removed", ok, err)
	}
	bump(t, p1, "a")
	bump(t, p1, "b")
	if next := nextOffset(t, p1, "a"); next != 3 {
		t.Fatalf("a's next offset = %d, want 3: a begun log must not stop", next)
	}
	if next := nextOffset(t, p1, "b"); next != 1 {
		t.Fatalf("b's next offset = %d, want 1: nobody ever observed b", next)
	}
	if got := p1.EventLog().Stats().Appended; got != 2 {
		t.Fatalf("appended = %d, want 2", got)
	}
	observe(t, p1, "hook", "Tally", sink)
	waitUntil(t, "the interim backlog from the stored cursor", func() bool { return len(sink.offsets()) == 2 })
	if got := sink.offsets(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered offsets %v, want [1 2]", got)
	}
	if _, err := p1.UnsubscribeTrigger("hook"); err != nil {
		t.Fatal(err)
	}
	p1.Kill()

	p2 := newEventPlatform(t, cfg)
	if _, err := p2.DeployYAML(ctx, []byte(chainYAML("occ"))); err != nil {
		t.Fatal(err)
	}
	bump(t, p2, "a")
	if next := nextOffset(t, p2, "a"); next != 4 {
		t.Fatalf("a's next offset after restart = %d, want 4", next)
	}
	// b's first commit in this life reads its state through (the kill
	// lost it, so there is nothing to cache until the commit lands); its
	// log costs no read at all — no bounds document, so the successor
	// knew at open that it never began.
	bump(t, p2, "b")
	reads := shared.Stats().ReadOps
	bump(t, p2, "b")
	if got := shared.Stats().ReadOps - reads; got != 0 {
		t.Errorf("b's second commit read the store %d times", got)
	}
	if got := p2.EventLog().Stats().Appended; got != 1 {
		t.Errorf("successor appended %d, want 1 (a's offset 3 only)", got)
	}
	if keys, _ := shared.List(ctx, "evmeta/"); len(keys) != 1 || keys[0] != "evmeta/a" {
		t.Errorf("bounds documents = %v, want only a's", keys)
	}
}

// TestRecoveredUnobservedObjectCommitsWithoutStoreRead: a successor on
// the same store learns at open which objects' logs have begun, so a
// recovered object nobody ever observed commits without a bounds probe
// (one store read per object before, when only objects created in this
// process were spared it) — while an object that did log before
// the restart is still begun, keeps its offsets and redelivers from its
// stored cursor.
func TestRecoveredUnobservedObjectCommitsWithoutStoreRead(t *testing.T) {
	for name, end := range map[string]func(*Platform){"close": (*Platform).Close, "kill": (*Platform).Kill} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			shared := kvstore.Open(kvstore.Config{})
			defer shared.Close()
			sink := newOffsetSink(t)
			cfg := Config{Backing: shared, Triggers: trigger.Settings{WebhookBackoff: time.Millisecond}}
			p1 := newEventPlatform(t, cfg)
			newTallies(t, p1, "seen")
			observe(t, p1, "hook", "Tally", sink)
			bump(t, p1, "seen")
			bump(t, p1, "seen")
			waitUntil(t, "delivery of seen's first two events", func() bool { return len(sink.offsets()) == 2 })
			if _, err := p1.UnsubscribeTrigger("hook"); err != nil {
				t.Fatal(err)
			}
			bump(t, p1, "seen") // logged (a begun log never stops), not delivered
			quiet := make([]string, 64)
			for i := range quiet {
				quiet[i] = fmt.Sprintf("quiet-%02d", i)
				if _, err := p1.CreateObject(ctx, "Tally", quiet[i]); err != nil {
					t.Fatal(err)
				}
			}
			p1.Flush(ctx)
			end(p1)

			p2 := newEventPlatform(t, cfg)
			if _, err := p2.DeployYAML(ctx, []byte(chainYAML("occ"))); err != nil {
				t.Fatal(err)
			}
			if got := p2.EventLog().Stats().Objects; got != 1 {
				t.Errorf("successor holds %d event logs, want 1 (seen's)", got)
			}
			for _, id := range quiet {
				tallyCount(t, p2, id) // read the state through, as any first access would
			}
			// Stats().ReadOps does not count a Get that finds nothing, which
			// is what the probe was; a plan that fails every read counts
			// attempts instead.
			shared.SetFaultPlan(kvstore.FaultPlan{Seed: 1, ReadErrorRate: 1})
			for _, id := range quiet {
				if n := bump(t, p2, id); n != 1 {
					t.Fatalf("%s bumped to %d, want 1", id, n)
				}
			}
			shared.SetFaultPlan(kvstore.FaultPlan{})
			if got := shared.FaultsServed(); got != 0 {
				t.Errorf("%d recovered, unobserved objects tried %d store reads to commit, want 0", len(quiet), got)
			}
			if got := p2.EventLog().Stats(); got.Objects != 1 || got.Appended != 0 {
				t.Errorf("after unobserved commits the log holds %d objects and appended %d, want 1 and 0", got.Objects, got.Appended)
			}

			if begun, err := p2.EventLog().Begun(ctx, "seen"); err != nil || !begun {
				t.Fatalf("Begun(seen) after restart = %v, %v", begun, err)
			}
			bump(t, p2, "seen")
			if next := nextOffset(t, p2, "seen"); next != 5 {
				t.Fatalf("seen's next offset after restart = %d, want 5", next)
			}
			observe(t, p2, "hook", "Tally", sink)
			// From the stored cursor: 3 after a close; after a kill, which
			// loses the write-behind advances, as far back as 1 again.
			waitUntil(t, "redelivery from the stored cursor", func() bool {
				got := sink.offsets()
				return got[len(got)-1] == 4
			})
			if got := sink.offsets(); got[len(got)-2] != 3 {
				t.Fatalf("delivered offsets %v, want them to end 3 4", got)
			}
		})
	}
}

// TestDeletingUnobservedObjectsLeavesTheLogAlone: an object that never
// logged an event has no log to drop — deleting it costs the store its
// state-key and directory deletes and nothing else (before, a listing
// of evlog/<id>/ and a delete of evmeta/<id> on top) — while deleting
// one that did log still clears it, so a recreation starts at offset 1.
func TestDeletingUnobservedObjectsLeavesTheLogAlone(t *testing.T) {
	ctx := context.Background()
	p := newEventPlatform(t, Config{})
	ids := make([]string, 100)
	for i := range ids {
		ids[i] = fmt.Sprintf("quiet-%03d", i)
	}
	newTallies(t, p, append(ids, "seen")...)
	for _, id := range ids {
		bump(t, p, id)
	}
	p.Flush(ctx)
	before := p.Backing().Stats()
	// A plan that fails every read counts read attempts (a listing is in
	// no Stats counter).
	p.Backing().SetFaultPlan(kvstore.FaultPlan{Seed: 1, ReadErrorRate: 1})
	for _, id := range ids {
		if err := p.DeleteObject(ctx, id); err != nil {
			t.Fatalf("delete %s: %v", id, err)
		}
	}
	p.Backing().SetFaultPlan(kvstore.FaultPlan{})
	if got := p.Backing().FaultsServed(); got != 0 {
		t.Errorf("deleting %d unobserved objects tried %d store reads, want 0", len(ids), got)
	}
	after := p.Backing().Stats()
	// One state key (n) and one objects/<id> document each.
	if got, want := after.DeleteOps-before.DeleteOps, int64(2*len(ids)); got != want {
		t.Errorf("deleting %d unobserved objects cost %d store deletes, want %d", len(ids), got, want)
	}
	before.DeleteOps = after.DeleteOps
	if after != before {
		t.Errorf("deleting unobserved objects moved other store counters: %+v -> %+v", before, after)
	}

	st, err := p.StreamEvents("seen", 8)
	if err != nil {
		t.Fatal(err)
	}
	bump(t, p, "seen")
	bump(t, p, "seen")
	st.Close()
	if next := nextOffset(t, p, "seen"); next != 3 {
		t.Fatalf("seen's next offset = %d, want 3", next)
	}
	if err := p.DeleteObject(ctx, "seen"); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"evlog/seen/", "evmeta/seen"} {
		if keys, err := p.Backing().List(ctx, prefix); err != nil || len(keys) != 0 {
			t.Errorf("after the delete the store holds %v (err %v)", keys, err)
		}
	}
	if _, err := p.CreateObject(ctx, "Tally", "seen"); err != nil {
		t.Fatal(err)
	}
	if next := nextOffset(t, p, "seen"); next != 1 {
		t.Fatalf("recreated object's next offset = %d, want 1", next)
	}
	st, err = p.StreamEvents("seen", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bump(t, p, "seen")
	if next := nextOffset(t, p, "seen"); next != 2 {
		t.Fatalf("recreated object's log did not restart: next offset = %d, want 2", next)
	}
}

// TestObserverNeverMissesALaterCommit: four writers bump one object
// while a consumer appears. Every commit that landed after the consumer
// was registered is logged and delivered, offsets gap-free from 1.
// Commits are numbered by the counter, so a bump issued after the
// registration returned bounds from below which commits must be seen.
func TestObserverNeverMissesALaterCommit(t *testing.T) {
	cases := map[string]func(t *testing.T, p *Platform) (offsets func() []int64){
		"subscribe": func(t *testing.T, p *Platform) func() []int64 {
			sink := newOffsetSink(t)
			observe(t, p, "hook", "Tally", sink)
			return sink.offsets
		},
		"stream": func(t *testing.T, p *Platform) func() []int64 {
			st, err := p.StreamEvents("t-1", 4096)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(st.Close)
			var offs []int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				for ev := range st.Events() {
					offs = append(offs, ev.Offset)
				}
			}()
			return func() []int64 {
				st.Close()
				<-done
				return offs
			}
		},
	}
	for name, register := range cases {
		t.Run(name, func(t *testing.T) {
			p := newEventPlatform(t, Config{Triggers: trigger.Settings{WebhookBackoff: time.Millisecond}})
			newTallies(t, p, "t-1")
			stop := make(chan struct{})
			var writers sync.WaitGroup
			for w := 0; w < 4; w++ {
				writers.Add(1)
				go func() {
					defer writers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := p.Invoke(context.Background(), "t-1", "bump", nil, nil); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			waitUntil(t, "the writers to be under way", func() bool { return tallyCount(t, p, "t-1") >= 8 })
			offsets := register(t, p)
			marker := bump(t, p, "t-1")
			waitUntil(t, "more commits after the marker", func() bool { return tallyCount(t, p, "t-1") >= float64(marker+40) })
			close(stop)
			writers.Wait()
			p.TriggerBus().Drain()

			total := int64(tallyCount(t, p, "t-1"))
			logged := nextOffset(t, p, "t-1") - 1
			if logged < total-marker+1 || logged > total {
				t.Fatalf("%d events logged; commits %d..%d landed after the registration returned", logged, marker, total)
			}
			seen := make(map[int64]int)
			for _, off := range offsets() {
				seen[off]++
			}
			for off := int64(1); off <= logged; off++ {
				if seen[off] != 1 {
					t.Fatalf("offset %d delivered %d times; want 1..%d once each, got %v", off, seen[off], logged, seen)
				}
			}
			if int64(len(seen)) != logged {
				t.Fatalf("delivered offsets %v outside 1..%d", seen, logged)
			}
		})
	}
}

// TestNeedsEventsDoesNotAllocate pins the predicate's cost on the
// commit path: no allocation on its false arm or any of its true arms.
func TestNeedsEventsDoesNotAllocate(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := newEventPlatform(t, Config{})
	newTallies(t, p, "quiet", "streamed", "begun")
	bus := p.TriggerBus()
	st, err := p.StreamEvents("streamed", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st2, err := p.StreamEvents("begun", 4)
	if err != nil {
		t.Fatal(err)
	}
	bump(t, p, "begun")
	st2.Close()
	observe(t, p, "docs", "Doc", newOffsetSink(t))
	for _, arm := range []struct {
		name, class, object string
		want                bool
	}{
		{"nobody", "Tally", "quiet", false},
		{"subscription", "Doc", "d-1", true},
		{"stream", "Tally", "streamed", true},
		{"begun log", "Tally", "begun", true},
	} {
		if got := bus.NeedsEvents(arm.class, arm.object); got != arm.want {
			t.Errorf("%s: NeedsEvents = %v, want %v", arm.name, got, arm.want)
		}
		if n := testing.AllocsPerRun(200, func() { bus.NeedsEvents(arm.class, arm.object) }); n != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", arm.name, n)
		}
	}
}
