package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
)

// invocationView decodes the GET /api/invocations/{id} body.
type invocationView struct {
	ID     string          `json:"id"`
	Object string          `json:"object"`
	Member string          `json:"member"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// getInvocation decodes one record, failing the test on a non-200.
func getInvocation(t *testing.T, f *fixture, id string) invocationView {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, f.srv.URL+"/api/invocations/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET invocation %s: status %d", id, resp.StatusCode)
	}
	var view invocationView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// pollUntilTerminal polls one invocation until completed/failed.
func pollUntilTerminal(t *testing.T, f *fixture, id string, deadline time.Time) invocationView {
	t.Helper()
	for {
		view := getInvocation(t, f, id)
		if view.Status == "completed" || view.Status == "failed" {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("invocation %s still %q at deadline", id, view.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestInvokeAsyncOverREST(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("note-a")
	status, body := f.do(http.MethodPost, "/api/objects/note-a/invoke-async/set", "application/json", []byte(`"queued!"`))
	if status != http.StatusAccepted {
		t.Fatalf("invoke-async status = %d body=%v", status, body)
	}
	var id, st string
	json.Unmarshal(body["invocation"], &id)
	json.Unmarshal(body["status"], &st)
	if id == "" || st != "pending" {
		t.Fatalf("accept body = %v", body)
	}
	view := pollUntilTerminal(t, f, id, time.Now().Add(5*time.Second))
	if view.Status != "completed" || string(view.Result) != `"queued!"` {
		t.Fatalf("record = %+v", view)
	}
	if view.Object != "note-a" || view.Member != "set" {
		t.Fatalf("record target = %+v", view)
	}
	// The async write landed in object state.
	status, body = f.do(http.MethodGet, "/api/objects/note-a/state/text", "", nil)
	if status != http.StatusOK || string(body["value"]) != `"queued!"` {
		t.Fatalf("state after async = %d %v", status, body)
	}
}

// TestMetricsExportsEachQueueSeriesOnce scrapes /metrics after one
// async submission: each queue series goes out once, as the
// oparaca_queue_ family of the queue's registry, with no oparaca_async_
// mirror beside it; capacity, a scrape-time gauge in the same registry,
// is the one oparaca_async_ family.
func TestMetricsExportsEachQueueSeriesOnce(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("note-a")
	status, body := f.do(http.MethodPost, "/api/objects/note-a/invoke-async/set", "application/json", []byte(`"queued!"`))
	if status != http.StatusAccepted {
		t.Fatalf("invoke-async status = %d body=%v", status, body)
	}
	var id string
	json.Unmarshal(body["invocation"], &id)
	pollUntilTerminal(t, f, id, time.Now().Add(5*time.Second))
	resp, err := f.client.Get(f.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := map[string][]string{} // sample name → values
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[name] = append(samples[name], value)
		}
	}
	st := f.p.Stats().Async
	for series, want := range map[string]int64{
		"depth":           st.Depth,
		"inflight":        st.InFlight,
		"enqueued_total":  1,
		"rejected_total":  st.Rejected,
		"completed_total": 1,
		"failed_total":    st.Failed,
		"expired_total":   st.Expired,
		"requeued_total":  st.Requeued,
		"coalesced_total": st.Coalesced,
	} {
		if got := samples["oparaca_queue_"+series]; len(got) != 1 || got[0] != fmt.Sprint(want) {
			t.Errorf("oparaca_queue_%s samples = %v, want one of %d", series, got, want)
		}
	}
	for name := range samples {
		if strings.HasPrefix(name, "oparaca_async_") && name != "oparaca_async_capacity" {
			t.Errorf("%s mirrors a queue series", name)
		}
	}
	if got := samples["oparaca_async_capacity"]; len(got) != 1 || got[0] != fmt.Sprint(st.Capacity) {
		t.Errorf("oparaca_async_capacity samples = %v, want one of %d", got, st.Capacity)
	}
}

func TestInvokeAsyncFailureSurfacesInRecord(t *testing.T) {
	p, err := core.New(core.Config{Workers: 1, FaaS: faas.Settings{ColdStart: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/fail", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{}, fmt.Errorf("handler exploded")
	}))
	pkg := "classes:\n  - name: F\n    functions:\n      - name: f\n        image: img/fail\n"
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(ctx, "F", "f1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p))
	t.Cleanup(srv.Close)
	f := &fixture{t: t, srv: srv, client: srv.Client()}
	status, body := f.do(http.MethodPost, "/api/objects/f1/invoke-async/f", "application/json", nil)
	if status != http.StatusAccepted {
		t.Fatalf("status = %d", status)
	}
	var id string
	json.Unmarshal(body["invocation"], &id)
	view := pollUntilTerminal(t, f, id, time.Now().Add(5*time.Second))
	if view.Status != "failed" || view.Error == "" {
		t.Fatalf("record = %+v", view)
	}
}

// TestBatchEndToEnd is the subsystem's acceptance test: 100
// invocations enqueued through one batch request, every record polled
// to completed, the handler executed exactly once per invocation, and
// the platform stats matching the queue counters.
func TestBatchEndToEnd(t *testing.T) {
	var executions atomic.Int64
	p, err := core.New(core.Config{
		Workers: 2,
		FaaS:    faas.Settings{ColdStart: time.Millisecond},
		Async:   asyncq.Settings{Workers: 8, Capacity: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/count", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		n := executions.Add(1)
		out, _ := json.Marshal(n)
		return invoker.Result{Output: out}, nil
	}))
	pkg := "classes:\n  - name: Ctr\n    functions:\n      - name: bump\n        image: img/count\n"
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(ctx, "Ctr", "c1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p))
	t.Cleanup(srv.Close)
	f := &fixture{t: t, srv: srv, client: srv.Client()}

	const n = 100
	type entry struct {
		Object string `json:"object"`
		Member string `json:"member"`
	}
	entries := make([]entry, n)
	for i := range entries {
		entries[i] = entry{Object: "c1", Member: "bump"}
	}
	reqBody, _ := json.Marshal(map[string]any{"invocations": entries})
	status, body := f.do(http.MethodPost, "/api/invoke-batch", "application/json", reqBody)
	if status != http.StatusAccepted {
		t.Fatalf("batch status = %d body=%v", status, body)
	}
	var accepted int
	json.Unmarshal(body["accepted"], &accepted)
	if accepted != n {
		t.Fatalf("accepted = %d, want %d", accepted, n)
	}
	var results []struct {
		Invocation string `json:"invocation"`
		Error      string `json:"error"`
	}
	json.Unmarshal(body["results"], &results)
	if len(results) != n {
		t.Fatalf("results = %d", len(results))
	}
	deadline := time.Now().Add(15 * time.Second)
	for i, r := range results {
		if r.Error != "" || r.Invocation == "" {
			t.Fatalf("entry %d rejected: %+v", i, r)
		}
		view := pollUntilTerminal(t, f, r.Invocation, deadline)
		if view.Status != "completed" {
			t.Fatalf("entry %d: %+v", i, view)
		}
	}
	if got := executions.Load(); got != n {
		t.Fatalf("handler executed %d times, want exactly %d", got, n)
	}
	// Platform stats mirror the queue counters.
	status, body = f.do(http.MethodGet, "/api/stats", "", nil)
	if status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	var async struct {
		Depth     int64 `json:"depth"`
		Enqueued  int64 `json:"enqueued"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
	}
	if err := json.Unmarshal(body["async"], &async); err != nil {
		t.Fatal(err)
	}
	if async.Enqueued != n || async.Completed != n || async.Failed != 0 || async.Depth != 0 {
		t.Fatalf("async stats = %+v", async)
	}
}

func TestBatchValidationOverREST(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("nb")
	// Mixed batch: valid, unknown object, unknown member.
	reqBody := []byte(`{"invocations":[
		{"object":"nb","member":"set","payload":"\"x\""},
		{"object":"ghost","member":"set"},
		{"object":"nb","member":"nope"}
	]}`)
	status, body := f.do(http.MethodPost, "/api/invoke-batch", "application/json", reqBody)
	if status != http.StatusAccepted {
		t.Fatalf("status = %d body=%v", status, body)
	}
	var accepted, rejected int
	json.Unmarshal(body["accepted"], &accepted)
	json.Unmarshal(body["rejected"], &rejected)
	if accepted != 1 || rejected != 2 {
		t.Fatalf("accepted/rejected = %d/%d", accepted, rejected)
	}
	var results []struct {
		Invocation string `json:"invocation"`
		Error      string `json:"error"`
	}
	json.Unmarshal(body["results"], &results)
	if results[0].Invocation == "" || results[1].Error == "" || results[2].Error == "" {
		t.Fatalf("results = %+v", results)
	}
}

func TestInvokeAsyncBackpressure429(t *testing.T) {
	release := make(chan struct{})
	p, err := core.New(core.Config{
		Workers: 1,
		FaaS:    faas.Settings{ColdStart: time.Millisecond},
		Async:   asyncq.Settings{Workers: 1, Capacity: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	t.Cleanup(func() { close(release) }) // unblock before platform Close drains
	p.Images().Register("img/block", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		<-release
		return invoker.Result{}, nil
	}))
	pkg := "classes:\n  - name: B\n    functions:\n      - name: f\n        image: img/block\n"
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(ctx, "B", "b1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p))
	t.Cleanup(srv.Close)
	f := &fixture{t: t, srv: srv, client: srv.Client()}
	saw429 := false
	for i := 0; i < 16 && !saw429; i++ {
		status, _ := f.do(http.MethodPost, "/api/objects/b1/invoke-async/f", "application/json", nil)
		switch status {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
		default:
			t.Fatalf("unexpected status %d", status)
		}
	}
	if !saw429 {
		t.Fatal("queue never pushed back with 429")
	}
}

// newLongPollFixture builds a platform whose handler parks on the
// returned release channel, plus a REST fixture over it.
func newLongPollFixture(t *testing.T, cfg core.Config) (*fixture, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	cfg.FaaS.ColdStart = time.Millisecond
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/park", invoker.HandlerFunc(func(ctx context.Context, _ invoker.Task) (invoker.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return invoker.Result{}, ctx.Err()
		}
		return invoker.Result{Output: json.RawMessage(`"released"`)}, nil
	}))
	ctx := context.Background()
	pkg := "classes:\n  - name: P\n    functions:\n      - name: park\n        image: img/park\n"
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(ctx, "P", "p1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p))
	t.Cleanup(srv.Close)
	return &fixture{t: t, srv: srv, client: srv.Client()}, release
}

// submitAsync enqueues one async park invocation and returns its ID.
func submitAsync(t *testing.T, f *fixture) string {
	t.Helper()
	status, body := f.do(http.MethodPost, "/api/objects/p1/invoke-async/park", "application/json", nil)
	if status != http.StatusAccepted {
		t.Fatalf("invoke-async status = %d", status)
	}
	var id string
	json.Unmarshal(body["invocation"], &id)
	if id == "" {
		t.Fatalf("no invocation id in %v", body)
	}
	return id
}

// TestLongPollTable covers the GET /api/invocations/{id}?waitMs=N
// contract: terminal records return immediately, a bounded timeout
// returns the current non-terminal record, bad parameters are 400, and
// unknown IDs stay 404 even with a wait.
func TestLongPollTable(t *testing.T) {
	f, release := newLongPollFixture(t, core.Config{Async: asyncq.Settings{Workers: 1}})
	id := submitAsync(t, f)
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := getInvocation(t, f, id); v.Status == "completed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("seed invocation never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cases := []struct {
		name       string
		path       string
		wantStatus int
		wantBody   string // substring of the raw body ("" = skip)
	}{
		{"immediate hit on terminal record", "/api/invocations/" + id + "?waitMs=30000", http.StatusOK, `"completed"`},
		{"overflow-sized wait is clamped, not dropped", "/api/invocations/" + id + "?waitMs=10000000000000000", http.StatusOK, `"completed"`},
		{"zero wait behaves like plain get", "/api/invocations/" + id + "?waitMs=0", http.StatusOK, `"completed"`},
		{"bad waitMs", "/api/invocations/" + id + "?waitMs=soon", http.StatusBadRequest, "waitMs"},
		{"negative waitMs", "/api/invocations/" + id + "?waitMs=-5", http.StatusBadRequest, "waitMs"},
		{"unknown id with wait", "/api/invocations/inv-nope?waitMs=100", http.StatusNotFound, "not found"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			req, err := http.NewRequest(http.MethodGet, f.srv.URL+c.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := f.client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status = %d body=%s, want %d", resp.StatusCode, raw, c.wantStatus)
			}
			if c.wantBody != "" && !strings.Contains(string(raw), c.wantBody) {
				t.Fatalf("body = %s, want substring %q", raw, c.wantBody)
			}
			// A terminal or error response must not consume the wait.
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("response took %v — long poll blocked on a terminal record", elapsed)
			}
		})
	}
}

// TestLongPollTimeoutReturnsCurrentRecord parks the handler past the
// wait bound: the long poll must return 200 with the in-flight record
// instead of an error, after ~waitMs.
func TestLongPollTimeoutReturnsCurrentRecord(t *testing.T) {
	f, release := newLongPollFixture(t, core.Config{Async: asyncq.Settings{Workers: 1}})
	defer close(release)
	id := submitAsync(t, f)
	start := time.Now()
	req, err := http.NewRequest(http.MethodGet, f.srv.URL+"/api/invocations/"+id+"?waitMs=100", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	elapsed := time.Since(start)
	if elapsed < 90*time.Millisecond {
		t.Fatalf("long poll returned after %v, want ~100ms of blocking", elapsed)
	}
	var view invocationView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Status != "pending" && view.Status != "running" {
		t.Fatalf("timed-out long poll status = %q, want non-terminal", view.Status)
	}
}

// TestLongPollUnblocksOnCompletion issues a long poll against a parked
// invocation and releases the handler mid-wait: the response must
// carry the terminal record well before the wait bound.
func TestLongPollUnblocksOnCompletion(t *testing.T) {
	f, release := newLongPollFixture(t, core.Config{Async: asyncq.Settings{Workers: 1}})
	id := submitAsync(t, f)
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	req, err := http.NewRequest(http.MethodGet, f.srv.URL+"/api/invocations/"+id+"?waitMs=10000", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed >= 10*time.Second {
		t.Fatalf("long poll burned the whole wait (%v) despite completion", elapsed)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var view invocationView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Status != "completed" || string(view.Result) != `"released"` {
		t.Fatalf("record = %+v", view)
	}
}

// TestClassQuota429 drives a class past its async quota over REST and
// expects 429 with the class-quota error code, distinct from the
// queue-full 429.
func TestClassQuota429(t *testing.T) {
	f, release := newLongPollFixture(t, core.Config{
		Async: asyncq.Settings{Workers: 1, DrainBatch: 1, ClassQuotas: map[string]int{"P": 1}},
	})
	defer close(release)
	// First submission occupies the worker, second occupies the quota.
	submitAsync(t, f)
	waitForInFlight := time.Now().Add(5 * time.Second)
	for {
		status, body := f.do(http.MethodPost, "/api/objects/p1/invoke-async/park", "application/json", nil)
		if status == http.StatusAccepted {
			if time.Now().After(waitForInFlight) {
				t.Fatal("quota never engaged")
			}
			_ = body
			continue
		}
		if status != http.StatusTooManyRequests {
			t.Fatalf("over-quota status = %d body=%v", status, body)
		}
		var code string
		json.Unmarshal(body["code"], &code)
		if code != "class_quota_exceeded" {
			t.Fatalf("error code = %q body=%v, want class_quota_exceeded", code, body)
		}
		break
	}
}
