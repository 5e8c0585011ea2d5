package oaas

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// obsTraceView mirrors the gateway's trace JSON shape for assertions.
type obsTraceView struct {
	ID          string   `json:"id"`
	Root        string   `json:"root"`
	Reason      string   `json:"reason"`
	Invocations []string `json:"invocations"`
	Spans       []struct {
		Name   string         `json:"name"`
		Parent string         `json:"parent"`
		Error  string         `json:"error"`
		Attrs  map[string]any `json:"attrs"`
	} `json:"spans"`
}

func (v obsTraceView) spanNames() map[string]int {
	names := make(map[string]int, len(v.Spans))
	for _, s := range v.Spans {
		names[s.Name]++
	}
	return names
}

// TestObservabilityEndToEnd drives one asynchronous invocation through
// the REST gateway of a 2-node ownership cluster with a webhook
// trigger attached, then asserts the tentpole contract: a single kept
// trace — retrievable by the invocation ID — covers the whole life of
// the task (gateway HTTP, ownership admission, queue wait, drain,
// state load, handler, fenced commit, event-log append, trigger
// dispatch, webhook delivery), a forwarded synchronous invocation
// records its cross-node hop, and GET /metrics serves parseable
// Prometheus text including per-class series.
func TestObservabilityEndToEnd(t *testing.T) {
	ctx := context.Background()

	hookCh := make(chan []byte, 8)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		select {
		case hookCh <- raw:
		default:
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer hook.Close()

	noServe := false
	p, err := New(Config{
		Workers:           2,
		OwnershipLeaseTTL: 2 * time.Second,
		EnableTracing:     true,
		TraceSampleRate:   1, // keep every trace: assertions stay deterministic
		ServeObjectStore:  &noServe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	p.Images().Register("img/obs-set", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		return Result{Output: task.Payload, State: map[string]json.RawMessage{"v": task.Payload}}, nil
	}))
	pkg := "classes:\n  - name: Obs\n    keySpecs:\n      - name: v\n" +
		"    functions:\n      - name: set\n        image: img/obs-set\n"
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if err := p.SubscribeTrigger("obs-hook", TriggerSubscription{
		Class: "Obs", Type: EventStateChanged, Webhook: hook.URL,
	}); err != nil {
		t.Fatal(err)
	}

	objID, err := p.CreateObject(ctx, "Obs", "obs-1")
	if err != nil {
		t.Fatal(err)
	}

	gw := httptest.NewServer(NewGateway(p))
	defer gw.Close()

	// --- Async invocation under a caller-supplied W3C traceparent. The
	// sampled flag (…-01) forces a tail-sampling keep independently of
	// the probabilistic rate.
	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest(http.MethodPost,
		gw.URL+"/api/objects/"+objID+"/invoke-async/set", strings.NewReader(`{"x":1}`))
	req.Header.Set("traceparent", "00-"+wantTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("invoke-async status = %d: %s", resp.StatusCode, body)
	}
	if tp := resp.Header.Get("Traceparent"); !strings.Contains(tp, wantTrace) {
		t.Fatalf("response traceparent %q does not continue inbound trace %s", tp, wantTrace)
	}
	var accepted struct {
		Invocation string `json:"invocation"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil || accepted.Invocation == "" {
		t.Fatalf("invoke-async body = %s (%v)", body, err)
	}

	// Wait for the invocation to go terminal, then for the webhook.
	wreq, _ := http.NewRequest(http.MethodGet,
		gw.URL+"/api/invocations/"+accepted.Invocation+"?waitMs=10000", nil)
	wresp, err := http.DefaultClient.Do(wreq)
	if err != nil {
		t.Fatal(err)
	}
	wbody, _ := io.ReadAll(wresp.Body)
	wresp.Body.Close()
	var rec struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(wbody, &rec); err != nil || rec.Status != "completed" {
		t.Fatalf("invocation record = %s (%v)", wbody, err)
	}
	select {
	case <-hookCh:
	case <-time.After(10 * time.Second):
		t.Fatal("webhook delivery never arrived")
	}

	// --- One trace covers the whole async life. The webhook.delivery
	// span attaches to the kept view asynchronously, so poll briefly.
	wantSpans := []string{
		"gateway", "admission", "queue.wait", "queue.drain", "load",
		"handler", "commit", "eventlog.append", "trigger.dispatch",
		"webhook.delivery",
	}
	var view obsTraceView
	deadline := time.Now().Add(10 * time.Second)
	for {
		view = getTraceView(t, gw.URL+"/api/invocations/"+accepted.Invocation+"/trace")
		if _, ok := view.spanNames()["webhook.delivery"]; ok || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.ID != wantTrace {
		t.Fatalf("trace ID = %q, want %q (caller trace must continue through the platform)", view.ID, wantTrace)
	}
	names := view.spanNames()
	for _, want := range wantSpans {
		if names[want] == 0 {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}
	// The same view must be reachable by trace ID.
	byID := getTraceView(t, gw.URL+"/api/traces/"+wantTrace)
	if byID.ID != wantTrace {
		t.Fatalf("GET /api/traces/%s returned trace %q", wantTrace, byID.ID)
	}

	// --- A synchronous invocation pinned to a non-owner ingress node
	// records the cross-node hop as a "forward" span.
	mem := p.Membership()
	owner, ok := mem.Owner(objID)
	if !ok {
		t.Fatal("no owner for object")
	}
	var nonOwner string
	for _, mi := range mem.Members() {
		if mi.Name != owner {
			nonOwner = mi.Name
			break
		}
	}
	if nonOwner == "" {
		t.Fatalf("no non-owner member among %v", mem.Members())
	}
	freq, _ := http.NewRequest(http.MethodPost,
		gw.URL+"/api/objects/"+objID+"/invoke/set", strings.NewReader(`{"x":2}`))
	freq.Header.Set("X-Oparaca-Node", nonOwner)
	fresp, err := http.DefaultClient.Do(freq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded invoke status = %d", fresp.StatusCode)
	}
	ftp := fresp.Header.Get("Traceparent")
	if len(ftp) < 35 {
		t.Fatalf("forwarded invoke returned no traceparent (%q)", ftp)
	}
	fview := getTraceView(t, gw.URL+"/api/traces/"+ftp[3:35])
	if fview.spanNames()["forward"] == 0 {
		t.Errorf("forwarded trace missing \"forward\" span (have %v)", fview.spanNames())
	}

	// --- The trace list endpoint serves the kept traces.
	lresp, err := http.Get(gw.URL + "/api/traces?n=10")
	if err != nil {
		t.Fatal(err)
	}
	lbody, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	var list struct {
		Traces []obsTraceView `json:"traces"`
	}
	if err := json.Unmarshal(lbody, &list); err != nil || len(list.Traces) == 0 {
		t.Fatalf("GET /api/traces = %s (%v)", lbody, err)
	}

	// --- /metrics parses as Prometheus text exposition.
	mresp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	checkPromExposition(t, string(mbody))
	var families []string
	for _, line := range strings.Split(string(mbody), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, line)
		}
	}
	sort.Strings(families)
	if got, want := strings.Join(families, "\n"), strings.Join(wantFamilies, "\n"); got != want {
		t.Errorf("/metrics families:\n%s\nwant:\n%s", got, want)
	}
	for _, want := range []string{
		`oparaca_breaker_state{state="closed"} 1`,
		`oparaca_invoke_total{class="Obs"}`,
		`oparaca_cluster_member_objects{node="` + owner + `"}`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// --- /readyz and the oparaca_ready sample say the same thing.
	rresp, err := http.Get(gw.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Ready bool `json:"ready"`
	}
	err = json.NewDecoder(rresp.Body).Decode(&ready)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sample := "oparaca_ready 0\n"
	if ready.Ready {
		sample = "oparaca_ready 1\n"
	}
	if !ready.Ready || !strings.Contains(string(mbody), sample) {
		t.Errorf("/readyz ready = %v, /metrics does not carry %q", ready.Ready, sample)
	}
}

// wantFamilies is every family /metrics serves for the observability
// scrape above (tracing, ownership, a webhook trigger, an async call), as
// its sorted # TYPE lines.
var wantFamilies = []string{
	"# TYPE oparaca_async_capacity gauge",
	"# TYPE oparaca_breaker_closes_total counter",
	"# TYPE oparaca_breaker_failures_total counter",
	"# TYPE oparaca_breaker_half_opens_total counter",
	"# TYPE oparaca_breaker_opened_total counter",
	"# TYPE oparaca_breaker_rejected_total counter",
	"# TYPE oparaca_breaker_state gauge",
	"# TYPE oparaca_breaker_successes_total counter",
	"# TYPE oparaca_class_throughput_rps gauge",
	"# TYPE oparaca_cluster_converged gauge",
	"# TYPE oparaca_cluster_enabled gauge",
	"# TYPE oparaca_cluster_epoch gauge",
	"# TYPE oparaca_cluster_fence_rejections_total counter",
	"# TYPE oparaca_cluster_forwarded_total counter",
	"# TYPE oparaca_cluster_member_lease_remaining_seconds gauge",
	"# TYPE oparaca_cluster_member_objects gauge",
	"# TYPE oparaca_cluster_moving gauge",
	"# TYPE oparaca_cluster_owner_local_total counter",
	"# TYPE oparaca_cluster_rebalances_total counter",
	"# TYPE oparaca_degraded gauge",
	"# TYPE oparaca_degraded_reads gauge",
	"# TYPE oparaca_invoke_latency_seconds histogram",
	"# TYPE oparaca_invoke_readonly_total counter",
	"# TYPE oparaca_invoke_total counter",
	"# TYPE oparaca_leaked_handlers gauge",
	"# TYPE oparaca_occ_aborts_total counter",
	"# TYPE oparaca_occ_commits_total counter",
	"# TYPE oparaca_occ_fallbacks_total counter",
	"# TYPE oparaca_occ_retries_total counter",
	"# TYPE oparaca_queue_batched_drains_total counter",
	"# TYPE oparaca_queue_coalesced_total counter",
	"# TYPE oparaca_queue_completed_total counter",
	"# TYPE oparaca_queue_depth gauge",
	"# TYPE oparaca_queue_enqueued_total counter",
	"# TYPE oparaca_queue_evicted_total counter",
	"# TYPE oparaca_queue_exec_seconds histogram",
	"# TYPE oparaca_queue_expired_total counter",
	"# TYPE oparaca_queue_failed_total counter",
	"# TYPE oparaca_queue_inflight gauge",
	"# TYPE oparaca_queue_quota_rejected_total counter",
	"# TYPE oparaca_queue_recovered_total counter",
	"# TYPE oparaca_queue_rejected_total counter",
	"# TYPE oparaca_queue_requeued_total counter",
	"# TYPE oparaca_queue_wait_seconds histogram",
	"# TYPE oparaca_ready gauge",
	"# TYPE oparaca_traces_dropped_total counter",
	"# TYPE oparaca_traces_kept_total counter",
	"# TYPE oparaca_traces_retained gauge",
	"# TYPE oparaca_traces_started_total counter",
	"# TYPE oparaca_trigger_backlog gauge",
	"# TYPE oparaca_trigger_cycle_dropped_total counter",
	"# TYPE oparaca_trigger_delivered_total counter",
	"# TYPE oparaca_trigger_dropped_total counter",
	"# TYPE oparaca_trigger_emitted_total counter",
	"# TYPE oparaca_trigger_log_failed_total counter",
	"# TYPE oparaca_trigger_retried_total counter",
	"# TYPE oparaca_trigger_stream_skipped_total counter",
}

// getTraceView fetches and decodes one trace view, failing the test on
// transport or decode errors (a 404 decodes to a zero view, which the
// caller's assertions surface).
func getTraceView(t *testing.T, url string) obsTraceView {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v obsTraceView
	_ = json.Unmarshal(raw, &v)
	return v
}

// checkPromExposition validates the text format line by line: every
// non-comment line must be `name[{labels}] value`, every sample must
// follow a # TYPE for its family, and a family's samples must be
// contiguous.
func checkPromExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	var current string
	done := map[string]bool{}
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count", "_total"} {
			if strings.HasSuffix(name, suf) {
				return strings.TrimSuffix(name, suf)
			}
		}
		return name
	}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", i+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: bad TYPE line %q", i+1, line)
			}
			typed[family(parts[2])] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value on %q", i+1, line)
		}
		series := line[:sp]
		name := series
		if b := strings.IndexByte(series, '{'); b >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels on %q", i+1, line)
			}
			name = series[:b]
		}
		fam := family(name)
		if !typed[fam] {
			t.Fatalf("line %d: sample %q before its # TYPE", i+1, name)
		}
		if current != fam {
			if done[fam] {
				t.Fatalf("line %d: family %q not contiguous", i+1, fam)
			}
			if current != "" {
				done[current] = true
			}
			current = fam
		}
		var f float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &f); err != nil {
			t.Fatalf("line %d: bad value %q: %v", i+1, line[sp+1:], err)
		}
	}
}
