package core

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// chainYAML wires the data-triggered composition under test: Doc
// commits fire Tally.bump through the event bus and the async queue.
// The Doc concurrency mode is parameterized; Tally counts under the
// locked regime so the downstream count is trustworthy.
func chainYAML(mode string) string {
	return fmt.Sprintf(`classes:
  - name: Doc
    concurrencyMode: %s
    keySpecs:
      - name: content
    functions:
      - name: write
        image: img/write
  - name: Tally
    concurrencyMode: locked
    keySpecs:
      - name: n
        kind: number
        default: 0
    functions:
      - name: bump
        image: img/bump
`, mode)
}

// newEventPlatform builds a platform with write/bump handlers.
func newEventPlatform(t *testing.T, cfg Config) *Platform {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	cfg.ColdStart = time.Millisecond
	cfg.IdleTimeout = time.Minute
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/write", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{
			Output: json.RawMessage(`"written"`),
			State:  map[string]json.RawMessage{"content": task.Payload},
		}, nil
	}))
	p.Images().Register("img/bump", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var n float64
		if raw, ok := task.State["n"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		out, _ := json.Marshal(n + 1)
		return invoker.Result{Output: out, State: map[string]json.RawMessage{"n": out}}, nil
	}))
	return p
}

// tallyCount reads Tally's counter.
func tallyCount(t *testing.T, p *Platform, id string) float64 {
	t.Helper()
	raw, err := p.GetState(context.Background(), id, "n")
	if err != nil {
		t.Fatal(err)
	}
	var n float64
	if err := json.Unmarshal(raw, &n); err != nil {
		t.Fatalf("counter %s: %v", raw, err)
	}
	return n
}

// TestDataTriggeredChainIsExact drives the acceptance criterion: N
// committed writes on object A yield exactly N downstream invocations
// on object B, in every commit regime, under -race.
func TestDataTriggeredChainIsExact(t *testing.T) {
	const writers, perWriter = 4, 15
	const total = writers * perWriter
	for _, mode := range []string{"locked", "occ", "adaptive"} {
		t.Run(mode, func(t *testing.T) {
			p := newEventPlatform(t, Config{})
			ctx := context.Background()
			if _, err := p.DeployYAML(ctx, []byte(chainYAML(mode))); err != nil {
				t.Fatal(err)
			}
			doc, err := p.CreateObject(ctx, "Doc", "doc-1")
			if err != nil {
				t.Fatal(err)
			}
			tally, err := p.CreateObject(ctx, "Tally", "tally-1")
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SubscribeTrigger("doc-chain", trigger.Subscription{
				Class: "Doc", Type: trigger.StateChanged, KeyPrefix: "con",
				TargetObject: tally, TargetFunction: "bump",
			}); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						payload, _ := json.Marshal(fmt.Sprintf("w%d-%d", w, i))
						if _, err := p.Invoke(ctx, doc, "write", payload, nil); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			// The chain is asynchronous (bus dispatch + async queue), and
			// Drain returns once every chained call of the events
			// published so far has committed: one read is exact.
			p.TriggerBus().Drain()
			if got := tallyCount(t, p, tally); got != total {
				t.Fatalf("tally = %v, want exactly %d (stats %+v / %+v)",
					got, total, p.TriggerBus().Stats(), p.Stats().Async)
			}
			s := p.Stats().Triggers
			if s.Emitted != total || s.Delivered != total || s.Dropped != 0 {
				t.Fatalf("trigger stats = %+v, want %d emitted and delivered", s, total)
			}
		})
	}
}

// TestYAMLTriggerCycleDepthTerminates deploys a class whose
// stateChanged trigger re-invokes its own writer: the chain must stop
// after TriggerMaxChainDepth hops with the cycle counted.
func TestYAMLTriggerCycleDepthTerminates(t *testing.T) {
	const maxDepth = 3
	p := newEventPlatform(t, Config{TriggerMaxChainDepth: maxDepth})
	ctx := context.Background()
	loopYAML := `classes:
  - name: Loop
    keySpecs:
      - name: n
        kind: number
        default: 0
    functions:
      - name: bump
        image: img/bump
    triggers:
      - on: stateChanged
        function: bump
`
	if _, err := p.DeployYAML(ctx, []byte(loopYAML)); err != nil {
		t.Fatal(err)
	}
	id, err := p.CreateObject(ctx, "Loop", "loop-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(ctx, id, "bump", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Each chained bump commits — and publishes the next hop's event —
	// before its group settles, so Drain returns only once the chain has
	// ended.
	p.TriggerBus().Drain()
	if s := p.Stats().Triggers; s.CycleDropped != 1 {
		t.Fatalf("cycle not terminated once: %+v", s)
	}
	// Client bump (depth 0) plus one chained bump per depth level.
	if got := tallyCount(t, p, id); got != maxDepth+1 {
		t.Fatalf("loop counter = %v, want %d", got, maxDepth+1)
	}
}

// TestWebhookPushOnTerminalRecords covers the terminal-record webhook
// satellite: a flaky endpoint is retried with backoff and counted, an
// always-failing one is dropped, and Close drains pending deliveries.
func TestWebhookPushOnTerminalRecords(t *testing.T) {
	t.Run("retries then delivers", func(t *testing.T) {
		var hits atomic.Int64
		var gotEvent atomic.Value
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hits.Add(1) <= 2 {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			var ev trigger.Event
			_ = json.NewDecoder(r.Body).Decode(&ev)
			gotEvent.Store(ev)
			w.WriteHeader(http.StatusOK)
		}))
		defer srv.Close()
		p := newEventPlatform(t, Config{WebhookMaxRetries: 4, WebhookRetryBackoff: time.Millisecond})
		ctx := context.Background()
		if _, err := p.DeployYAML(ctx, []byte(chainYAML("adaptive"))); err != nil {
			t.Fatal(err)
		}
		doc, _ := p.CreateObject(ctx, "Doc", "doc-1")
		if err := p.SubscribeTrigger("hook", trigger.Subscription{
			Class: "Doc", Type: trigger.InvocationCompleted, Webhook: srv.URL,
		}); err != nil {
			t.Fatal(err)
		}
		invID, err := p.InvokeAsync(ctx, doc, "write", json.RawMessage(`"x"`), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := p.WaitInvocation(ctx, invID); err != nil || rec.Status != "completed" {
			t.Fatalf("record = %+v, %v", rec, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for p.Stats().Triggers.Delivered == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("webhook never delivered: %+v", p.Stats().Triggers)
			}
			time.Sleep(2 * time.Millisecond)
		}
		s := p.Stats().Triggers
		if s.Retried != 2 || s.Dropped != 0 {
			t.Fatalf("stats = %+v, want 2 retries and no drops", s)
		}
		ev, _ := gotEvent.Load().(trigger.Event)
		if ev.Type != trigger.InvocationCompleted || ev.Object != doc || ev.Invocation != invID || ev.Class != "Doc" {
			t.Fatalf("delivered event = %+v", ev)
		}
	})
	t.Run("exhausted retries leave delivery pending", func(t *testing.T) {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			hits.Add(1)
			w.WriteHeader(http.StatusInternalServerError)
		}))
		defer srv.Close()
		p := newEventPlatform(t, Config{WebhookMaxRetries: 2, WebhookRetryBackoff: time.Millisecond})
		ctx := context.Background()
		if _, err := p.DeployYAML(ctx, []byte(chainYAML("adaptive"))); err != nil {
			t.Fatal(err)
		}
		doc, _ := p.CreateObject(ctx, "Doc", "doc-1")
		if err := p.SubscribeTrigger("hook", trigger.Subscription{
			Class: "Doc", Type: trigger.InvocationFailed, Webhook: srv.URL,
		}); err != nil {
			t.Fatal(err)
		}
		// An unknown member passes submission validation only for known
		// members, so fail through the handler instead: cancel context.
		cctx, cancel := context.WithCancel(ctx)
		invID, err := p.InvokeAsync(cctx, doc, "write", nil, nil)
		cancel() // cancelled while queued -> terminal failed record
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := p.WaitInvocation(ctx, invID); err != nil || !rec.Status.Terminal() {
			t.Fatalf("record = %+v, %v", rec, err)
		}
		// With the durable log the event is NOT dropped once the retry
		// budget is spent: the consumer's cursor stays put (visible as
		// CursorLag) and the delivery is re-attempted on the next
		// notify or restart.
		deadline := time.Now().Add(5 * time.Second)
		for p.Stats().Triggers.Retried < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("retries never counted: %+v", p.Stats().Triggers)
			}
			time.Sleep(2 * time.Millisecond)
		}
		for hits.Load() < 3 {
			if time.Now().After(deadline) {
				t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", hits.Load())
			}
			time.Sleep(2 * time.Millisecond)
		}
		s := p.Stats().Triggers
		if s.Delivered != 0 {
			t.Fatalf("stats = %+v, want no deliveries", s)
		}
		sub := s.Subscriptions["named/hook"]
		if sub.CursorLag < 1 {
			t.Fatalf("per-sub stats = %+v, want pending cursor lag", sub)
		}
	})
	t.Run("close drains pending deliveries", func(t *testing.T) {
		release := make(chan struct{})
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			<-release
			hits.Add(1)
			w.WriteHeader(http.StatusOK)
		}))
		defer srv.Close()
		p := newEventPlatform(t, Config{})
		ctx := context.Background()
		if _, err := p.DeployYAML(ctx, []byte(chainYAML("adaptive"))); err != nil {
			t.Fatal(err)
		}
		doc, _ := p.CreateObject(ctx, "Doc", "doc-1")
		if err := p.SubscribeTrigger("hook", trigger.Subscription{
			Class: "Doc", Type: trigger.InvocationCompleted, Webhook: srv.URL,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.InvokeAsync(ctx, doc, "write", json.RawMessage(`"x"`), nil); err != nil {
			t.Fatal(err)
		}
		time.AfterFunc(50*time.Millisecond, func() { close(release) })
		p.Close() // must block until the webhook went out
		if hits.Load() != 1 {
			t.Fatalf("Close returned before the webhook delivery (hits=%d)", hits.Load())
		}
	})
}

// TestStateChangedWebhookFromYAML delivers a YAML-declared webhook
// trigger with a key-prefix filter.
func TestStateChangedWebhookFromYAML(t *testing.T) {
	events := make(chan trigger.Event, 4)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev trigger.Event
		_ = json.NewDecoder(r.Body).Decode(&ev)
		events <- ev
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	p := newEventPlatform(t, Config{})
	ctx := context.Background()
	yaml := fmt.Sprintf(`classes:
  - name: Doc
    keySpecs:
      - name: content
    functions:
      - name: write
        image: img/write
    triggers:
      - on: stateChanged
        keyPrefix: content
        webhook: %s
`, srv.URL)
	if _, err := p.DeployYAML(ctx, []byte(yaml)); err != nil {
		t.Fatal(err)
	}
	doc, err := p.CreateObject(ctx, "Doc", "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(ctx, doc, "write", json.RawMessage(`"hello"`), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Type != trigger.StateChanged || ev.Object != doc || ev.Function != "write" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("YAML webhook trigger never delivered")
	}
}

// TestStreamEventsLifecycle exercises the live-tail surface at the
// platform level: open, receive, close, and unknown-object rejection.
func TestStreamEventsLifecycle(t *testing.T) {
	p := newEventPlatform(t, Config{})
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(chainYAML("adaptive"))); err != nil {
		t.Fatal(err)
	}
	doc, _ := p.CreateObject(ctx, "Doc", "doc-1")
	if _, err := p.StreamEvents("ghost", 8); err == nil {
		t.Fatal("stream for unknown object accepted")
	}
	st, err := p.StreamEvents(doc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(ctx, doc, "write", json.RawMessage(`"x"`), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-st.Events():
		if ev.Type != trigger.StateChanged || ev.Object != doc {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream never received the commit event")
	}
	st.Close()
	if _, open := <-st.Events(); open {
		t.Fatal("closed stream still open")
	}
}
