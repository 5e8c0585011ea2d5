package trigger

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/israce"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// TestWebhookWireShape pins what a webhook POST carries: the event's log
// entry byte for byte, Content-Type and X-Oprc-Event, and of the
// transport's own headers only Host, User-Agent and Content-Length — no
// Accept-Encoding, since the answer is drained and thrown away. A URL
// with user:password@ adds the Authorization header net/http's client
// sends for the same URL, and nothing else.
func TestWebhookWireShape(t *testing.T) {
	type seen struct {
		method, path, host string
		header             http.Header
		body               []byte
	}
	got := make(chan seen, 4)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got <- seen{r.Method, r.URL.RequestURI(), r.Host, r.Header.Clone(), body}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	for _, row := range []struct{ name, userinfo string }{
		{"plain", ""},
		{"userinfo", "u:p%40ss@"},
		{"user only", "u@"},
	} {
		t.Run(row.name, func(t *testing.T) {
			hook := "http://" + row.userinfo + host + "/hooks/a?k=v"
			wantKeys := []string{"Content-Length", "Content-Type", "User-Agent", "X-Oprc-Event"}
			var wantAuth []string
			if row.userinfo != "" {
				// What an http.Client POSTing to the same URL sends.
				resp, err := http.Post(hook, "application/json", strings.NewReader("{}"))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				wantAuth = (<-got).header.Values("Authorization")
				if len(wantAuth) != 1 {
					t.Fatalf("net/http's client sent Authorization %q", wantAuth)
				}
				wantKeys = append([]string{"Authorization"}, wantKeys...)
			}
			l := newLog(t, eventlog.Config{})
			b := newBus(t, Config{Log: l})
			if err := b.Subscribe("hook", Subscription{Class: "A", Type: InvocationFailed, Webhook: hook}); err != nil {
				t.Fatal(err)
			}
			b.Publish(Event{Type: InvocationFailed, Class: "A", Object: "a-1", Invocation: "inv-1", Error: "boom"})
			b.Drain()
			entries, err := l.Read(context.Background(), "a-1", 1, 0)
			if err != nil || len(entries) != 1 {
				t.Fatalf("log read = %d entries, %v", len(entries), err)
			}
			var s seen
			select {
			case s = <-got:
			default:
				t.Fatal("the endpoint received nothing")
			}
			if s.method != http.MethodPost || s.path != "/hooks/a?k=v" || s.host != host {
				t.Errorf("request line = %s %s, Host %s", s.method, s.path, s.host)
			}
			// The server moves Host out of the header map; what is left is
			// all the bus and its transport sent.
			var keys []string
			for k := range s.header {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if !slices.Equal(keys, wantKeys) {
				t.Errorf("header keys = %v, want %v", keys, wantKeys)
			}
			if ct, typ := s.header.Values("Content-Type"), s.header.Values("X-Oprc-Event"); !slices.Equal(ct, []string{"application/json"}) || !slices.Equal(typ, []string{string(InvocationFailed)}) {
				t.Errorf("Content-Type = %q, X-Oprc-Event = %q", ct, typ)
			}
			if auth := s.header.Values("Authorization"); !slices.Equal(auth, wantAuth) {
				t.Errorf("Authorization = %q, want %q", auth, wantAuth)
			}
			if string(s.body) != string(entries[0].Payload) {
				t.Errorf("body differs from the log entry:\n%s\n%s", s.body, entries[0].Payload)
			}
			// Every POST of the type shares one header map: neither sending
			// nor a subscription's credentials may have written to it.
			if h := b.sends[InvocationFailed].header; len(h) != 2 || h.Get("Content-Type") != "application/json" || h.Get("X-Oprc-Event") != string(InvocationFailed) {
				t.Fatalf("the shared header now reads %v", h)
			}
		})
	}
}

// TestWebhookRedirectIsAFailedAttempt: a 3xx is not followed. It is a
// failed attempt, retried up to the budget, after which the consumer
// stalls with its cursor in place like any non-2xx — and the redirect
// target never hears of the event.
func TestWebhookRedirectIsAFailedAttempt(t *testing.T) {
	var redirected, hits atomic.Int64
	target := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { redirected.Add(1) }))
	defer target.Close()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Redirect(w, r, target.URL+"/elsewhere", http.StatusTemporaryRedirect)
	}))
	defer srv.Close()
	clock := vclock.NewManual(time.Unix(1_700_000_000, 0))
	b := newBus(t, Config{
		Log: newLog(t, eventlog.Config{}), Clock: clock,
		WebhookMaxRetries: 2, WebhookBackoff: 10 * time.Millisecond, BackoffJitter: -1,
	})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: srv.URL}); err != nil {
		t.Fatal(err)
	}
	b.Publish(stateChanged("a-1", "k"))
	// Attempt, 10 ms backoff, attempt, 20 ms backoff, attempt, then the
	// stalled consumer's re-arm: each wait is one pending timer.
	for i, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond} {
		waitFor(t, "a retry backoff", func() bool { return hits.Load() == int64(i+1) && clock.Pending() == 1 })
		clock.Advance(d)
	}
	waitFor(t, "the re-arm after the budget", func() bool { return hits.Load() == 3 && clock.Pending() == 1 })
	b.Drain()
	s := b.SubscriptionStatsFor("named/hook")
	if s.Delivered != 0 || s.Retried != 2 || s.Dropped != 0 || s.CursorLag != 1 {
		t.Fatalf("stats = %+v, want 2 retries, nothing delivered or dropped, lag 1", s)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3", got)
	}
	if n := redirected.Load(); n != 0 {
		t.Fatalf("the redirect target received %d requests", n)
	}
}

// blockingHook is an endpoint that answers nothing until its request's
// context ends; ended counts the requests it saw abandoned.
func blockingHook(t *testing.T) (srv *httptest.Server, arrived chan struct{}, ended *atomic.Int64) {
	t.Helper()
	arrived, ended = make(chan struct{}, 16), new(atomic.Int64)
	release := make(chan struct{})
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The server notices a client hanging up only once the request
		// body is consumed.
		_, _ = io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		select {
		case <-r.Context().Done():
			ended.Add(1)
		case <-release:
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) }) // runs first: srv.Close waits for handlers
	return srv, arrived, ended
}

// TestKillAbortsInFlightWebhook: Kill cancels a POST the endpoint is
// sitting on, however long WebhookTimeout would have let it run.
func TestKillAbortsInFlightWebhook(t *testing.T) {
	srv, arrived, ended := blockingHook(t)
	b := newBus(t, Config{Log: newLog(t, eventlog.Config{}), WebhookTimeout: time.Minute})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: srv.URL}); err != nil {
		t.Fatal(err)
	}
	b.Publish(stateChanged("a-1", "k"))
	<-arrived
	killed := make(chan struct{})
	go func() {
		b.Kill()
		close(killed)
	}()
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("Kill waited on the in-flight POST")
	}
	waitFor(t, "the endpoint to see its request abandoned", func() bool { return ended.Load() == 1 })
}

// TestWebhookTimeoutBoundsAnAttempt: an endpoint that never answers
// costs one WebhookTimeout per attempt, then the delivery fails.
func TestWebhookTimeoutBoundsAnAttempt(t *testing.T) {
	srv, _, ended := blockingHook(t)
	const timeout = 100 * time.Millisecond
	b := newBus(t, Config{WebhookTimeout: timeout, WebhookMaxRetries: -1})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: srv.URL}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	b.Publish(stateChanged("a-1", "k"))
	b.Drain()
	if elapsed := time.Since(start); elapsed < timeout || elapsed > 10*time.Second {
		t.Fatalf("the attempt took %v with a %v timeout", elapsed, timeout)
	}
	if s := b.Stats(); s.Dropped != 1 || s.Delivered != 0 {
		t.Fatalf("stats = %+v", s)
	}
	waitFor(t, "the endpoint to see its request abandoned", func() bool { return ended.Load() == 1 })
}

// TestInvalidWebhookIsNeverStored: Subscribe refuses a webhook that is
// not an absolute http or https URL with a host, and SetClassTriggers
// skips one, so no consumer is ever created for a sink every delivery
// to would fail.
func TestInvalidWebhookIsNeverStored(t *testing.T) {
	b := newBus(t, Config{Log: newLog(t, eventlog.Config{})})
	for _, hook := range []string{"not a url", "ftp://x", "http://", "/relative"} {
		err := b.Subscribe("bad", Subscription{Class: "A", Type: StateChanged, Webhook: hook})
		if err == nil || !strings.Contains(err.Error(), "is not an absolute http or https URL with a host") {
			t.Errorf("Subscribe(webhook %q) = %v", hook, err)
		}
		b.SetClassTriggers("B", []Subscription{{Class: "B", Type: StateChanged, Webhook: hook}})
	}
	if names, _ := b.Subscriptions(); len(names) != 0 {
		t.Fatalf("stored subscriptions %v", names)
	}
	if b.NeedsEvents("A", "a-1") || b.NeedsEvents("B", "b-1") {
		t.Fatal("a refused subscription makes its class need events")
	}
}

// TestWebhookDeliveryAllocationBudget pins what one event costs, end to
// end, on the path the benchmark's event_chain takes: published, logged,
// dispatched, handed off to a caught-up consumer and POSTed to a
// loopback endpoint that answers 204. Every goroutine's allocations
// count: the endpoint's net/http server is about 30 of them, the
// transport's round trip and its read and write loops about 35. The
// request is one round trip on the bus's transport with a parsed URL and
// a shared header; through http.Client, with the URL parsed and the
// header built per attempt, it was 91.
func TestWebhookDeliveryAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		served.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	b := newBus(t, Config{Log: newLog(t, eventlog.Config{}), DeliveryWorkers: 1})
	if err := b.Subscribe("hook", Subscription{Class: "A", Type: StateChanged, Webhook: srv.URL}); err != nil {
		t.Fatal(err)
	}
	ev := stateChanged("a-1", "k")
	deliver := func() {
		b.Publish(ev)
		b.Drain()
	}
	deliver() // first contact: the cursor is created and flushed
	const runs = 200
	n := testing.AllocsPerRun(runs, deliver)
	if got := served.Load(); got != runs+2 {
		t.Fatalf("the endpoint served %d deliveries, want %d", got, runs+2)
	}
	if s := b.SubscriptionStatsFor("named/hook"); s.Delivered != runs+2 || s.Retried != 0 || s.CursorLag != 0 {
		t.Fatalf("stats = %+v", s)
	}
	t.Logf("%.1f allocations per delivered event", n)
	const ceiling = 73
	if n > ceiling {
		t.Fatalf("one delivered event allocates %.1f, budget %d", n, ceiling)
	}
}

// TestFanoutAllocationBudget pins what publishing one logged event to
// live streams costs, with one stream on the object and with sixteen:
// the in-flight event, its JSON and the time inside it. A stream gets
// the event by value over its channel, so the sixteenth costs what the
// first does, and the log entry goes onto capacity the log already
// holds. The invocation that commits the event is pinned by
// internal/runtime's and internal/core's invoke budgets.
func TestFanoutAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 3
	for _, streams := range []int{1, 16} {
		t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) {
			b := newBus(t, Config{Log: newLog(t, eventlog.Config{})})
			var wg sync.WaitGroup
			t.Cleanup(wg.Wait) // runs after the streams close
			for range streams {
				st := b.Stream("feed-0", 1024)
				t.Cleanup(st.Close)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range st.Events() {
					}
				}()
			}
			ev := stateChanged("feed-0", "k")
			publish := func() {
				b.Publish(ev)
				b.Drain()
			}
			n := testing.AllocsPerRun(200, publish)
			if s := b.Stats(); s.Dropped != 0 || s.Delivered != int64(201*streams) {
				t.Fatalf("stats = %+v", s)
			}
			t.Logf("%.1f allocations per event to %d streams", n, streams)
			if n > ceiling {
				t.Fatalf("one event to %d streams allocates %.1f, budget %d", streams, n, ceiling)
			}
		})
	}
}
