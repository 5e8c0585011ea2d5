package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/israce"
)

// TestWarmInvokeAllocationBudget pins what a warm readonly invocation
// may allocate between Gateway.ServeHTTP's entry and return — gateway,
// core and runtime together (the last two are about six with tracing
// on, four with it off). The wrapper, body read and envelope this
// guards cost 33 and 16 allocations before they were rebuilt, and one
// more each before the JSON Content-Type value was shared.
func TestWarmInvokeAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name           string
		traced, logged bool
		ceiling        float64
	}{
		{"traced+logged", true, true, 19},
		{"bare", false, false, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wi := newWarmInvoke(t, tc.traced, tc.logged)
			if n := testing.AllocsPerRun(500, wi.serve); n > tc.ceiling {
				t.Fatalf("warm invoke allocates %.1f per request, budget %.0f", n, tc.ceiling)
			}
		})
	}
}

// requestLog is the request logger's record for one response.
type requestLog struct {
	path       string
	status     int
	trace      string
	invocation string
}

// captureHandler is a slog.Handler that keeps every record's request
// fields. added holds a token whenever a record has arrived since it
// was last drained.
type captureHandler struct {
	mu    sync.Mutex
	recs  []requestLog
	added chan struct{}
}

func (h *captureHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *captureHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *captureHandler) WithGroup(string) slog.Handler            { return h }

func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	var rec requestLog
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "path":
			rec.path = a.Value.String()
		case "status":
			rec.status = int(a.Value.Int64())
		case "trace":
			rec.trace = a.Value.String()
		case "invocation":
			rec.invocation = a.Value.String()
		}
		return true
	})
	h.mu.Lock()
	h.recs = append(h.recs, rec)
	h.mu.Unlock()
	select {
	case h.added <- struct{}{}:
	default: // a token is already pending
	}
	return nil
}

// waitFor blocks until a record with the given trace ID has arrived.
func (h *captureHandler) waitFor(t *testing.T, trace string) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		h.mu.Lock()
		found := false
		for _, rec := range h.recs {
			found = found || rec.trace == trace
		}
		h.mu.Unlock()
		if found {
			return
		}
		select {
		case <-h.added:
		case <-timeout:
			t.Fatalf("no log record for trace %s", trace)
		}
	}
}

// TestPooledRecorderKeepsRequestsApart drives sync invokes of four
// outcomes, invoke-async and one open SSE stream through one gateway at
// once and checks that each response's log record — found by the trace
// ID the response carried — has that response's path, status and
// invocation ID. A recorder recycled while still in use, or recycled
// without being cleared, would log another request's status or
// invocation.
func TestPooledRecorderKeepsRequestsApart(t *testing.T) {
	h := &captureHandler{added: make(chan struct{}, 1)}
	p := newTestPlatform(t, core.Config{EnableTracing: true})
	gw := New(p)
	gw.SetLogger(slog.New(h))
	f := serveFixture(t, p, gw)
	f.deploy()
	id := f.createObject("alias-1")

	// send issues one request and reports what the client saw of it.
	send := func(ctx context.Context, method, path, body string) (requestLog, *http.Response) {
		req, err := http.NewRequestWithContext(ctx, method, f.srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return requestLog{}, nil
		}
		resp, err := f.client.Do(req)
		if err != nil {
			t.Error(err)
			return requestLog{}, nil
		}
		tp := resp.Header.Get("Traceparent")
		if len(tp) != 55 {
			t.Errorf("%s: traceparent = %q", path, tp)
			resp.Body.Close()
			return requestLog{}, nil
		}
		return requestLog{path: path, status: resp.StatusCode, trace: tp[3:35]}, resp
	}

	streamCtx, stopStream := context.WithCancel(context.Background())
	defer stopStream()
	stream, streamResp := send(streamCtx, http.MethodGet, "/api/objects/"+id+"/events", "")
	if streamResp == nil || stream.status != http.StatusOK {
		t.Fatalf("stream = %+v", stream)
	}
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		_, _ = io.Copy(io.Discard, streamResp.Body)
		streamResp.Body.Close()
	}()

	const workers, rounds = 8, 12
	var (
		mu  sync.Mutex
		saw = []requestLog{stream}
		wg  sync.WaitGroup
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				ghost := fmt.Sprintf("ghost-%d-%d", w, i)
				for _, c := range []struct {
					path, body string
					status     int
				}{
					{"/api/objects/" + id + "/invoke/set", `"v"`, http.StatusOK},
					{"/api/objects/" + ghost + "/invoke/set", `"v"`, http.StatusNotFound},
					{"/api/objects/" + id + "/invoke/set", `{broken`, http.StatusBadRequest},
					{"/api/objects/" + id + "/invoke-async/set", `"v"`, http.StatusAccepted},
					{"/api/objects/" + id + "/invoke/shout", ``, http.StatusOK},
				} {
					got, resp := send(context.Background(), http.MethodPost, c.path, c.body)
					if resp == nil {
						return
					}
					var out struct {
						Invocation string `json:"invocation"`
					}
					err := json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if err != nil || got.status != c.status || (c.status == http.StatusAccepted) != (out.Invocation != "") {
						t.Errorf("%s: status = %d, invocation = %q, err = %v; want %d", c.path, got.status, out.Invocation, err, c.status)
						return
					}
					got.invocation = out.Invocation
					mu.Lock()
					saw = append(saw, got)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// The stream's record is written when its handler returns, which is
	// also when its recorder goes back to the pool.
	stopStream()
	<-streamDone
	h.waitFor(t, stream.trace)

	h.mu.Lock()
	defer h.mu.Unlock()
	byTrace := make(map[string][]requestLog, len(h.recs))
	for _, rec := range h.recs {
		byTrace[rec.trace] = append(byTrace[rec.trace], rec)
	}
	for _, want := range saw {
		recs := byTrace[want.trace]
		if len(recs) != 1 || recs[0] != want {
			t.Errorf("response %+v logged as %+v", want, recs)
		}
	}
	// deploy + create + everything above, one record each.
	if want := 2 + len(saw); len(h.recs) != want {
		t.Errorf("%d log records for %d requests", len(h.recs), want)
	}
}

// TestInvokeAsyncAllocationBudget pins what accepting one asynchronous
// invocation may allocate between Gateway.ServeHTTP's entry and return:
// the route, the platform's submit and the queue's pending record. The
// queue's one worker is held inside a handler for the length of the
// measurement, so nothing drains and the count is the submission's
// alone.
func TestInvokeAsyncAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p, err := core.New(core.Config{Workers: 2, Async: asyncq.Settings{Workers: 1, Capacity: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	held, release := make(chan struct{}, 1), make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs before p.Close, which drains
	p.Images().Register("img/peek", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		select {
		case held <- struct{}{}:
		default:
		}
		<-release
		return invoker.Result{}, nil
	}))
	gw := New(p)
	for _, setup := range []struct{ path, body string }{
		{"/api/packages", peekPackage},
		{"/api/objects", `{"class":"Doc","id":"d1"}`},
	} {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, setup.path, strings.NewReader(setup.body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("POST %s: status = %d (%s)", setup.path, rec.Code, rec.Body)
		}
	}
	w := &fakeWriter{header: make(http.Header)}
	body := &replayBody{data: []byte(`"` + strings.Repeat("p", 62) + `"`)}
	req := httptest.NewRequest(http.MethodPost, "/api/objects/d1/invoke-async/peek", nil)
	req.Body, req.ContentLength = body, int64(len(body.data))
	submit := func() {
		w.reset()
		body.off = 0
		gw.ServeHTTP(w, req)
		if w.status != http.StatusAccepted {
			t.Fatalf("invoke-async: status = %d, body = %q", w.status, w.body.String())
		}
	}
	submit()
	<-held
	// One of these is the batch of one's result slice; a map for the
	// 202 body would be eight more. Detaching the request context with
	// context.WithoutCancel cost one more: its Value boxes its receiver
	// on the submit path's trace lookup.
	const ceiling = 10
	if n := testing.AllocsPerRun(500, submit); n > ceiling {
		t.Fatalf("invoke-async allocates %.1f per request, budget %d", n, ceiling)
	}
}

// TestInvokeBatchAllocationBudget pins what one POST /api/invoke-batch
// of 32 calls over 4 objects allocates, its JSON decode and 202 body
// included, with the queue's one worker parked so that only submission
// is measured. The batch is one submission: its pending records go to
// the record table in one write and its calls to the queue in one
// enqueue.
//
// The count is the fewest allocations any one of runs requests made,
// each measured alone. Over many requests the mean varies from process
// to process: the record table's shard maps grow when a shard gets more
// pending records between two flush passes than it has held, and are
// rebuilt when a pass finds a burst (memtable's burst), by amounts that
// depend on how the random invocation IDs fall over the shards and on
// when the flush goroutine runs; and a garbage collection empties the
// sync.Pools the gateway and the queue draw from. A request that none of
// these lands in costs what the request path itself allocates, every
// time.
func TestInvokeBatchAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const batch, objects, runs = 32, 4, 100
	// Each measured request runs twice, AllocsPerRun's warm-up and its
	// one run, after the first submission.
	p, err := core.New(core.Config{Workers: 2, Async: asyncq.Settings{Workers: 1, Capacity: batch * (2*runs + 1)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	held, release := make(chan struct{}, 1), make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs before p.Close, which drains
	p.Images().Register("img/peek", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		select {
		case held <- struct{}{}:
		default:
		}
		<-release
		return invoker.Result{}, nil
	}))
	gw := New(p)
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	if rec := post("/api/packages", peekPackage); rec.Code != http.StatusCreated {
		t.Fatalf("deploy: status = %d (%s)", rec.Code, rec.Body)
	}
	entries := make([]string, batch)
	for i := range objects {
		if rec := post("/api/objects", fmt.Sprintf(`{"class":"Doc","id":"d%d"}`, i)); rec.Code != http.StatusCreated {
			t.Fatalf("create d%d: status = %d (%s)", i, rec.Code, rec.Body)
		}
	}
	for i := range entries {
		entries[i] = fmt.Sprintf(`{"object":"d%d","member":"peek","payload":"%s"}`, i%objects, strings.Repeat("p", 62))
	}
	w := &fakeWriter{header: make(http.Header)}
	body := &replayBody{data: []byte(`{"invocations":[` + strings.Join(entries, ",") + `]}`)}
	req := httptest.NewRequest(http.MethodPost, "/api/invoke-batch", nil)
	req.Body, req.ContentLength = body, int64(len(body.data))
	submit := func() {
		w.reset()
		body.off = 0
		gw.ServeHTTP(w, req)
		if w.status != http.StatusAccepted || !strings.Contains(w.body.String(), `"accepted":32,`) {
			t.Fatalf("invoke-batch: status = %d, body = %q", w.status, w.body.String())
		}
	}
	submit()
	<-held
	// 77 in every one of 40 test runs, about two a call: the ID and the
	// pending record, encoded in a pooled scratch buffer and copied out
	// at its size, which is also the call's payload. The rest is the
	// request's own: the body, the calls the one-pass decoder reads it
	// into (their object and member strings shared across the batch, each
	// payload an alias of the body), the results and the 202 body, written
	// through jsonw into a pooled buffer. 253 when json.Unmarshal decoded
	// the body and encoding/json wrote the 202 body, the queue copied each
	// payload, and the record table cloned each record into a map built
	// per write; a request context detached with context.WithoutCancel
	// cost one more a call, since its Value boxes its receiver on each
	// call's trace lookup.
	const ceiling = 77
	least := testing.AllocsPerRun(1, submit)
	for range runs - 1 {
		least = min(least, testing.AllocsPerRun(1, submit))
	}
	if least > ceiling {
		t.Fatalf("invoke-batch of %d calls over %d objects allocates %.0f per request, budget %d", batch, objects, least, ceiling)
	}
}
