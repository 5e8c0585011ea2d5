package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/israce"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// TestBubbles runs this package's bubble tests; see internal/simtest.
func TestBubbles(t *testing.T) { simtest.Bubbles(t) }

// pollRig is a gateway driven in-process over a platform with one async
// worker draining one task at a time, and three functions on object g1:
// echo answers its payload, fail answers its payload (a JSON string) as
// an error, park holds the worker until release is closed and says on
// parked that it has begun.
type pollRig struct {
	t       testing.TB
	p       *core.Platform
	gw      *Gateway
	w       *fakeWriter
	release chan struct{}
	parked  chan struct{}
}

func newPollRig(t testing.TB) *pollRig {
	t.Helper()
	no := false // in-process: the object store opens no socket
	p, err := core.New(core.Config{Workers: 1, FaaS: faas.Settings{ColdStart: time.Millisecond},
		Async: asyncq.Settings{Workers: 1, DrainBatch: 1, Capacity: 4096}, ServeObjectStore: &no})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	rig := &pollRig{t: t, p: p, gw: New(p), w: &fakeWriter{header: make(http.Header)}, release: make(chan struct{}), parked: make(chan struct{}, 1)}
	p.Images().Register("img/echo", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.Payload}, nil
	}))
	p.Images().Register("img/fail", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var msg string
		_ = json.Unmarshal(task.Payload, &msg)
		return invoker.Result{}, errors.New(msg)
	}))
	p.Images().Register("img/park", invoker.HandlerFunc(func(ctx context.Context, _ invoker.Task) (invoker.Result, error) {
		select {
		case rig.parked <- struct{}{}:
		default:
		}
		select {
		case <-rig.release:
		case <-ctx.Done():
		}
		return invoker.Result{Output: json.RawMessage(`"released"`)}, nil
	}))
	pkg := "classes:\n  - name: G\n    functions:\n" +
		"      - name: echo\n        image: img/echo\n" +
		"      - name: fail\n        image: img/fail\n" +
		"      - name: park\n        image: img/park\n"
	if _, err := p.DeployYAML(context.Background(), []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(context.Background(), "G", "g1"); err != nil {
		t.Fatal(err)
	}
	return rig
}

// serve sends one request through Gateway.ServeHTTP and returns the
// response's status and body.
func (rig *pollRig) serve(method, path, body string) (int, string) {
	rig.w.reset()
	rig.gw.ServeHTTP(rig.w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rig.w.status, rig.w.body.String()
}

// submit accepts one invocation of g1's member (which may carry a query)
// and returns its ID.
func (rig *pollRig) submit(member, payload string) string {
	rig.t.Helper()
	status, body := rig.serve(http.MethodPost, "/api/objects/g1/invoke-async/"+member, payload)
	var accepted asyncAccepted
	if err := json.Unmarshal([]byte(body), &accepted); err != nil || status != http.StatusAccepted || accepted.Invocation == "" {
		rig.t.Fatalf("invoke-async %s: status = %d, body = %s", member, status, body)
	}
	return accepted.Invocation
}

// await returns id's record once its run has ended.
func (rig *pollRig) await(id string) asyncq.Record {
	rig.t.Helper()
	rec, err := rig.p.WaitInvocation(context.Background(), id)
	if err != nil {
		rig.t.Fatal(err)
	}
	return rec
}

// reflected is the body writeJSON's reflective encoder renders for v —
// what both routes below answered with before they had encoders of
// their own.
func reflected(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWriteRecordGolden holds writeRecord to writeJSON's response for
// the records the route above cannot be made to serve: a failure whose
// text is plain, an expiry, times with a zone offset, empty and null raw
// fields, and what encoding/json refuses (a time RFC 3339 cannot
// express, raw bytes that are not JSON), which must stay the 500
// envelope with encoding/json's error text.
func TestWriteRecordGolden(t *testing.T) {
	base := time.Date(2026, 10, 3, 10, 30, 0, 123456789, time.FixedZone("", 5*3600+30*60))
	for name, rec := range map[string]asyncq.Record{
		"plain failure": {ID: "inv-1", Object: "o", Member: "m", Status: asyncq.StatusFailed, Error: "asyncq: submission deadline elapsed while queued", Enqueued: base, Started: base, Finished: base},
		"expired":       {ID: "inv-2", Object: "o", Member: "m", Status: asyncq.StatusExpired, Error: "context deadline exceeded", Enqueued: base.UTC(), Started: base.Add(time.Second), Finished: base.Add(time.Minute)},
		"empty and null raws, args": {ID: "inv-3", Object: "o", Member: "m", Status: asyncq.StatusPending, Payload: json.RawMessage{}, Result: json.RawMessage(" null "),
			Args: map[string]string{"w": "1", "a": ""}, Enqueued: base},
		"both raws rewritten":  {ID: "inv-4", Object: "o", Member: "m", Status: asyncq.StatusRunning, Payload: json.RawMessage(`[ "<" ]`), Result: json.RawMessage("{ \"k\" : \"&\u2029\" }"), Enqueued: base, Started: base},
		"name needing escapes": {ID: "inv-5", Object: `o"<é>`, Member: "m", Status: asyncq.StatusCompleted, Result: json.RawMessage(`1`), Enqueued: base},
		"year 10000":           {ID: "inv-6", Object: "o", Member: "m", Status: asyncq.StatusCompleted, Enqueued: base, Finished: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		"result not JSON":      {ID: "inv-7", Object: "o", Member: "m", Status: asyncq.StatusCompleted, Result: json.RawMessage(`{bad`), Enqueued: base},
		"payload not JSON":     {ID: "inv-8", Object: "o", Member: "m", Status: asyncq.StatusPending, Payload: json.RawMessage(`nope`), Result: json.RawMessage(`1`), Enqueued: base},
	} {
		got, want := &fakeWriter{header: make(http.Header)}, &fakeWriter{header: make(http.Header)}
		writeRecord(got, &rec)
		writeJSON(want, http.StatusOK, rec)
		if got.status != want.status || got.body.String() != want.body.String() || got.header.Get("Content-Type") != "application/json" {
			t.Errorf("%s: status = %d, want %d\n got: %s\nwant: %s", name, got.status, want.status, got.body.String(), want.body.String())
		}
	}
}

// TestLongPollAllocationBudget pins what one GET /api/invocations/{id}
// ?waitMs= may allocate between Gateway.ServeHTTP's entry and return.
// A poll of a finished invocation — nearly every poll — is a table
// lookup, a scan of the stored document and a buffer write: the mux's
// route match, the table key, the record's object and member (one
// string); the response's Content-Type value is shared. It was 27 when
// the route parsed the query into a map, armed a timeout before
// looking, and decoded and re-encoded the record reflectively. A poll
// that really waits pays for the context, its timer and the waiter as
// well, and reads the record three times.
func TestLongPollAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rig := newPollRig(t)
	t.Cleanup(func() { close(rig.release) }) // runs before p.Close, which drains
	done := rig.submit("echo", `{"n":1}`)
	rig.await(done)
	rig.submit("park", ``)
	<-rig.parked // the only worker is held, so the next call stays queued
	queued := rig.submit("echo", `{"n":2}`)
	for _, tc := range []struct {
		name, path, want string
		ceiling          float64
	}{
		{"finished", "/api/invocations/" + done + "?waitMs=2000", `"status":"completed"`, 3},
		{"waits", "/api/invocations/" + queued + "?waitMs=1", `"status":"pending"`, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, tc.path, nil)
			poll := func() {
				rig.w.reset()
				rig.gw.ServeHTTP(rig.w, req)
				if rig.w.status != http.StatusOK || !bytes.Contains(rig.w.body.Bytes(), []byte(tc.want)) {
					t.Fatalf("GET %s: status = %d, body = %s", tc.path, rig.w.status, rig.w.body.String())
				}
			}
			if n := testing.AllocsPerRun(200, poll); n > tc.ceiling {
				t.Fatalf("the poll allocates %.1f per request, budget %.0f", n, tc.ceiling)
			}
		})
	}
}

// TestLongPollRacesCompletion polls each of a thousand invocations while
// it completes. Whether the route's first read finds the record
// terminal, or its wait registers before the completion, or between the
// completion's table write and its wake, the poll answers with the
// terminal record and long before the wait it asked for elapses — a
// missed wake would sit out the full waitMs.
func TestLongPollRacesCompletion(t *testing.T) {
	rig := newPollRig(t)
	const waitMs = "20000"
	for round := range 1000 {
		id := rig.submit("echo", `1`)
		start := time.Now()
		status, body := rig.serve(http.MethodGet, "/api/invocations/"+id+"?waitMs="+waitMs, "")
		if status != http.StatusOK || !strings.Contains(body, `"status":"completed"`) {
			t.Fatalf("round %d: status = %d, body = %s", round, status, body)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("round %d: the poll took %v: its wake was missed", round, elapsed)
		}
	}
}

// TestQueryValue holds queryValue to url.Values.Get on every shape of
// query the single-key routes can be sent, and the routes to the 400
// bodies they have always answered a bad value with.
func TestQueryValue(t *testing.T) {
	for _, query := range []string{
		"", "waitMs", "waitMs=", "waitMs=5", "x=1&waitMs=7", "waitMs=5&waitMs=9", "waitMs=&waitMs=9",
		"waitMs=5&x=%41", "waitMs=%35", "wait%4ds=5", "waitMs=1+2", "a=b;waitMs=1", "waitMs=1;a=b",
		"&&waitMs=3&", "=4&waitMs=4", "waitMs=a=b", "WaitMs=5", "waitMsx=5&xwaitMs=6", "x=waitMs=5",
	} {
		r := httptest.NewRequest(http.MethodGet, "/api/invocations/inv-1", nil)
		r.URL.RawQuery = query
		for _, key := range []string{"waitMs", "x", "a"} {
			if got, want := queryValue(r, key), r.URL.Query().Get(key); got != want {
				t.Errorf("queryValue(%q, %q) = %q, want %q", query, key, got, want)
			}
		}
	}
	rig := newPollRig(t)
	for path, want := range map[string]string{
		"/api/invocations/inv-1?waitMs=soon":   `{"error":"bad waitMs \"soon\": want a non-negative integer"}`,
		"/api/invocations/inv-1?waitMs=%2D5":   `{"error":"bad waitMs \"-5\": want a non-negative integer"}`,
		"/api/invocations/inv-1?x=1&waitMs=-5": `{"error":"bad waitMs \"-5\": want a non-negative integer"}`,
		"/api/objects/g1/events?fromOffset=-1": `{"error":"fromOffset must be a non-negative integer"}`,
		"/api/objects/g1/files/f/url?method=x": `{"error":"unsupported method \"X\""}`,
	} {
		if status, body := rig.serve(http.MethodGet, path, ""); status != http.StatusBadRequest || body != want+"\n" {
			t.Errorf("GET %s: status = %d, body = %s, want 400 %s", path, status, body, want)
		}
	}
}

// FuzzQueryIntegers sends one arbitrary value as ?timeoutMs= on a sync
// invoke, ?waitMs= on a poll of a finished invocation and ?fromOffset=
// on the event stream of an unknown object. No route may panic, and each
// answers 400 for a value outside what it takes, or honours the value:
// the invoked handler runs under a deadline no earlier than timeoutMs
// after the request, the poll answers the record, the stream its 404.
func FuzzQueryIntegers(f *testing.F) {
	for _, q := range []string{"", "0", "1", "50", "-1", "+7", "007", "soon", "0x10", " 5", "1e3",
		"9223372036854", "9223372036855", "18446744073710", "9300000000000", "99999999999999999999"} {
		f.Add(q)
	}
	rig := newPollRig(f)
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
		f.Fatal(err)
	}
	if _, err := rig.p.CreateObject(context.Background(), "D", "d1"); err != nil {
		f.Fatal(err)
	}
	done := rig.submit("echo", `1`)
	rig.await(done)
	serve := func(method, path string) (int, string) {
		w := httptest.NewRecorder()
		rig.gw.ServeHTTP(w, httptest.NewRequest(method, path, nil))
		return w.Code, w.Body.String()
	}
	// Warm dl with a call that has no deadline, so a 1 ms timeoutMs is
	// never the call that pays the function's cold start.
	if status, body := serve(http.MethodPost, "/api/objects/d1/invoke/dl"); status != http.StatusOK {
		f.Fatalf("warming dl: %d %s", status, body)
	}
	f.Fuzz(func(t *testing.T, q string) {
		n, err := strconv.ParseInt(q, 10, 64)
		valid := q == "" || err == nil && n >= 0
		arg := url.QueryEscape(q)

		before := time.Now()
		status, body := serve(http.MethodPost, "/api/objects/d1/invoke/dl?timeoutMs="+arg)
		switch {
		case !valid || n > model.MaxTimeoutMs:
			if status != http.StatusBadRequest || !strings.Contains(body, "bad timeoutMs") {
				t.Fatalf("timeoutMs=%q: %d %s, want 400", q, status, body)
			}
		case status != http.StatusOK:
			t.Fatalf("timeoutMs=%q: %d %s, want 200", q, status, body)
		case n > 0:
			var out struct{ Output *time.Time }
			if err := json.Unmarshal([]byte(body), &out); err != nil || out.Output == nil {
				t.Fatalf("timeoutMs=%q: the handler saw no deadline: %s", q, body)
			}
			if want := before.Add(time.Duration(n) * time.Millisecond); out.Output.Before(want) {
				t.Fatalf("timeoutMs=%q: deadline %v, earlier than the %v asked for", q, out.Output, want)
			}
		}

		status, body = serve(http.MethodGet, "/api/invocations/"+done+"?waitMs="+arg)
		if want := map[bool]int{true: http.StatusOK, false: http.StatusBadRequest}[valid && n <= math.MaxInt]; status != want {
			t.Fatalf("waitMs=%q: %d %s, want %d", q, status, body, want)
		}

		status, body = serve(http.MethodGet, "/api/objects/nope/events?fromOffset="+arg)
		if want := map[bool]int{true: http.StatusNotFound, false: http.StatusBadRequest}[valid]; status != want {
			t.Fatalf("fromOffset=%q: %d %s, want %d", q, status, body, want)
		}
	})
}

// batchAccepted is the 202 body of POST invoke-batch as encoding/json
// renders it: a struct whose fields are in the order the map it replaced
// was encoded in (sorted keys).
type batchAccepted struct {
	Accepted int          `json:"accepted"`
	Rejected int          `json:"rejected"`
	Results  []batchEntry `json:"results"`
}

// batchEntry is one call's outcome in batchAccepted.
type batchEntry struct {
	Invocation string `json:"invocation,omitempty"`
	Error      string `json:"error,omitempty"`
}

// TestInvokeBatchBodyGolden holds the 202 body of POST /api/invoke-batch
// to the bytes the map it used to be built from encodes to.
func TestInvokeBatchBodyGolden(t *testing.T) {
	rig := newPollRig(t)
	const ok, ghost, nope = `{"object":"g1","member":"echo","payload":1}`, `{"object":"ghost","member":"echo"}`, `{"object":"g1","member":"nope"}`
	for name, tc := range map[string]struct {
		entries            []string
		accepted, rejected int
	}{
		"all accepted": {[]string{ok, ok, ok}, 3, 0},
		"mixed":        {[]string{ghost, ok, nope, ok}, 2, 2},
		"all rejected": {[]string{ghost, nope}, 0, 2},
	} {
		status, body := rig.serve(http.MethodPost, "/api/invoke-batch", `{"invocations":[`+strings.Join(tc.entries, ",")+`]}`)
		var got batchAccepted
		if err := json.Unmarshal([]byte(body), &got); err != nil || status != http.StatusAccepted {
			t.Fatalf("%s: status = %d, body = %s", name, status, body)
		}
		if got.Accepted != tc.accepted || got.Rejected != tc.rejected || len(got.Results) != len(tc.entries) {
			t.Fatalf("%s: body = %s", name, body)
		}
		if want := reflected(t, map[string]any{"accepted": got.Accepted, "rejected": got.Rejected, "results": got.Results}); body != want {
			t.Fatalf("%s:\n got: %s\nwant: %s", name, body, want)
		}
	}
}
