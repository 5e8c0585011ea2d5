package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/israce"
	"github.com/hpcclab/oparaca-go/internal/trace"
)

// TestTraceRouteIsThePattern invokes on two objects and reads both kept
// traces back from GET /api/traces: each gateway root names its route by
// the pattern the mux matched, the same for both, while its path
// attribute keeps the object that was called. The tail sampler keys its
// windows on that route, so distinct paths never grow new windows.
func TestTraceRouteIsThePattern(t *testing.T) {
	f := newFixtureCfg(t, core.Config{EnableTracing: true, Trace: trace.Settings{SampleRate: 1}})
	f.deploy()
	paths := map[string]bool{}
	for _, id := range []string{f.createObject("route-a"), f.createObject("route-b")} {
		path := "/api/objects/" + id + "/invoke/set"
		paths[path] = true
		if status, body := f.do(http.MethodPost, path, "application/json", []byte(`"x"`)); status != http.StatusOK {
			t.Fatalf("invoke %s = %d %v", id, status, body)
		}
	}
	status, body := f.do(http.MethodGet, "/api/traces", "", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /api/traces = %d %v", status, body)
	}
	var views []trace.TraceView
	if err := json.Unmarshal(body["traces"], &views); err != nil {
		t.Fatal(err)
	}
	const want = "POST /api/objects/{id}/invoke/{fn}"
	seen := map[string]bool{}
	for _, v := range views {
		root := v.Spans[0]
		path, _ := root.Attrs["path"].(string)
		if !paths[path] {
			continue
		}
		if route := root.Attrs["route"]; route != want {
			t.Errorf("trace of %s: route = %v, want %q", path, route, want)
		}
		seen[path] = true
	}
	if len(seen) != len(paths) {
		t.Fatalf("kept invoke traces for %v, want %v", seen, paths)
	}
}

// TestDetachedContext: the context an async submission runs under keeps
// the request's values, and a lookup through it allocates nothing; it
// never reports the request's cancellation; and it carries a deadline
// only when one is set.
func TestDetachedContext(t *testing.T) {
	tr := trace.New(trace.Config{})
	root := tr.Root("gateway", "")
	defer root.End()
	parent, cancel := context.WithCancel(trace.ContextWith(context.Background(), root))
	cancel()
	ctx := &detached{parent: parent}
	if trace.FromContext(ctx) != root {
		t.Fatal("the request's span does not reach through the detached context")
	}
	if ctx.Done() != nil || ctx.Err() != nil {
		t.Fatalf("detached context reports its parent's cancellation: Err = %v", ctx.Err())
	}
	child, stop := context.WithCancel(ctx)
	defer stop()
	if child.Err() != nil {
		t.Fatalf("a context derived from the detached one is cancelled: %v", child.Err())
	}
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("a detached context with no timeout reports a deadline")
	}
	dl := time.Now().Add(time.Minute)
	if got, ok := (&detached{parent: parent, dl: dl}).Deadline(); !ok || !got.Equal(dl) {
		t.Fatalf("Deadline = %v, %v; want %v", got, ok, dl)
	}
	if israce.Enabled {
		return // allocation counts are not meaningful under the race detector
	}
	if n := testing.AllocsPerRun(100, func() { trace.FromContext(ctx) }); n != 0 {
		t.Fatalf("a span lookup through the detached context allocates %v", n)
	}
}

// TestInvokeAsyncTimeoutReachesTheQueue: a ?timeoutMs= on invoke-async
// rides the detached context into the queue, which runs the call under
// that deadline after the request has returned.
func TestInvokeAsyncTimeoutReachesTheQueue(t *testing.T) {
	rig := newPollRig(t)
	rig.p.Images().Register("img/deadline", invoker.HandlerFunc(func(ctx context.Context, _ invoker.Task) (invoker.Result, error) {
		d, ok := ctx.Deadline()
		if !ok {
			return invoker.Result{Output: json.RawMessage(`null`)}, nil
		}
		out, err := json.Marshal(d)
		return invoker.Result{Output: out}, err
	}))
	pkg := "classes:\n  - name: D\n    functions:\n      - name: dl\n        image: img/deadline\n"
	if _, err := rig.p.DeployYAML(context.Background(), []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.p.CreateObject(context.Background(), "D", "d1"); err != nil {
		t.Fatal(err)
	}
	const timeout = time.Minute
	before := time.Now()
	w := httptest.NewRecorder()
	rig.gw.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/objects/d1/invoke-async/dl?timeoutMs=60000", nil))
	after := time.Now()
	var accepted asyncAccepted
	if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil || w.Code != http.StatusAccepted {
		t.Fatalf("invoke-async: status = %d, body = %s", w.Code, w.Body)
	}
	rec := rig.await(accepted.Invocation)
	var got *time.Time
	if err := json.Unmarshal(rec.Result, &got); err != nil || got == nil {
		t.Fatalf("the handler saw no deadline: %+v", rec)
	}
	if got.Before(before.Add(timeout)) || got.After(after.Add(timeout)) {
		t.Fatalf("deadline %v, want between %v and %v", got, before.Add(timeout), after.Add(timeout))
	}
}
