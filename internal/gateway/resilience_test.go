package gateway

// Failure-semantics surface tests: per-request deadlines (408),
// breaker-open fast failure (503 + Retry-After), the degraded-mode
// header, and the readiness probe.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// resilienceFixture is a served platform on a Manual clock with a
// stalling handler, img/stall, that ignores cancellation: it signals
// entered and returns only once the test ends.
type resilienceFixture struct {
	p       *core.Platform
	srv     *httptest.Server
	clock   *vclock.Manual
	entered chan struct{}
}

func newResilienceFixture(t *testing.T) resilienceFixture {
	t.Helper()
	f := resilienceFixture{clock: vclock.NewManual(time.Unix(1_700_000_000, 0)), entered: make(chan struct{}, 1)}
	var err error
	f.p, err = core.New(core.Config{Workers: 2, FaaS: faas.Settings{IdleTimeout: time.Minute}, Clock: f.clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.p.Close)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs first: srv.Close waits for the handler
	f.p.Images().Register("img/stall", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		f.entered <- struct{}{}
		<-release // deliberately ignores ctx
		return invoker.Result{Output: json.RawMessage(`"late"`)}, nil
	}))
	f.deploy(t, "S", "stall", "s1")
	f.srv = httptest.NewServer(New(f.p))
	t.Cleanup(f.srv.Close)
	return f
}

// deploy deploys a class with one function of the same-named image
// (img/<fn>) and creates one object of it. The class is not persistent,
// so its pods serve without a cold start the Manual clock would have to
// be advanced through.
func (f resilienceFixture) deploy(t *testing.T, class, fn, object string) {
	t.Helper()
	pkg := "classes:\n  - name: " + class + "\n    constraint:\n      persistent: false\n    functions:\n      - name: " + fn + "\n        image: img/" + fn + "\n"
	if _, err := f.p.DeployYAML(context.Background(), []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.p.CreateObject(context.Background(), class, object); err != nil {
		t.Fatal(err)
	}
}

// TestInvokeTimeoutMsReturns408 asks for a 50ms deadline against a
// handler that never returns by itself: the gateway must answer
// 408/"deadline_exceeded" when the platform's clock reaches the
// deadline, without the handler finishing.
func TestInvokeTimeoutMsReturns408(t *testing.T) {
	f := newResilienceFixture(t)
	type answer struct {
		resp *http.Response
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := http.Post(f.srv.URL+"/api/objects/s1/invoke/stall?timeoutMs=50", "application/json", nil)
		done <- answer{resp, err}
	}()
	<-f.entered
	f.clock.Advance(50 * time.Millisecond)
	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}
	raw, _ := io.ReadAll(a.resp.Body)
	a.resp.Body.Close()
	if a.resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d body=%s, want 408", a.resp.StatusCode, raw)
	}
	var body struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(raw, &body); body.Code != "deadline_exceeded" {
		t.Fatalf("code = %q body=%s, want deadline_exceeded", body.Code, raw)
	}
}

// TestAsyncWaitsAreOnThePlatformClock: an async ?timeoutMs= deadline and
// a long poll's ?waitMs= bound both run on the platform's clock. On a
// Manual clock the submission expires when Advance reaches its deadline,
// and a long poll on a stalled invocation answers its running record
// once Advance passes the wait.
func TestAsyncWaitsAreOnThePlatformClock(t *testing.T) {
	f := newResilienceFixture(t)
	submit := func(query string) string {
		t.Helper()
		resp, err := http.Post(f.srv.URL+"/api/objects/s1/invoke-async/stall"+query, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct{ Invocation string }
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("invoke-async: status %d, %v", resp.StatusCode, err)
		}
		return body.Invocation
	}
	poll := func(id string) <-chan string {
		status := make(chan string, 1)
		go func() {
			var rec struct{ Status string }
			resp, err := http.Get(f.srv.URL + "/api/invocations/" + id + "?waitMs=30000")
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&rec)
				resp.Body.Close()
			}
			if err != nil {
				rec.Status = err.Error()
			}
			status <- rec.Status
		}()
		return status
	}
	id := submit("?timeoutMs=50")
	<-f.entered
	f.clock.Advance(50 * time.Millisecond)
	if got := <-poll(id); got != "expired" {
		t.Fatalf("a submission past its ?timeoutMs= is %q, want expired", got)
	}
	id = submit("")
	<-f.entered
	status := poll(id)
	for {
		select {
		case got := <-status:
			if got != "running" {
				t.Fatalf("the long poll answered %q, want the running record", got)
			}
			return
		default:
			// The poll arms its wait at some point after the request is
			// sent; moving the clock past any wait armed so far ends it.
			f.clock.Advance(time.Second)
			goruntime.Gosched()
		}
	}
}

// TestHandlerPanicUnderTimeoutMs: with ?timeoutMs= the handler runs on
// the runtime's watchdog goroutine, where no HTTP server recovers a
// panic. The invoke must answer a 5xx naming the panic, and the server
// must keep serving.
func TestHandlerPanicUnderTimeoutMs(t *testing.T) {
	f := newResilienceFixture(t)
	f.p.Images().Register("img/boom", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		panic("boom")
	}))
	f.deploy(t, "B", "boom", "b1")
	srv := f.srv
	resp, err := http.Post(srv.URL+"/api/objects/b1/invoke/boom?timeoutMs=1000", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 500 || !bytes.Contains(raw, []byte("handler panic in B.boom: boom")) {
		t.Fatalf("status = %d body=%s, want a 5xx naming the panic", resp.StatusCode, raw)
	}
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after the panic = %d, want 200", resp.StatusCode)
	}
}

// TestInvokeTimeoutMsValidation rejects malformed deadline overrides,
// and ones past model.MaxTimeoutMs, which would overflow the Duration
// they are converted to: 18446744073710 into a 448.384us deadline,
// 9300000000000 into a negative one, which means none. The query is
// read before the object is looked up, so an unknown object answers the
// same 400, and a value taken by mistake answers 404 instead of
// invoking the stalled handler.
func TestInvokeTimeoutMsValidation(t *testing.T) {
	srv := newResilienceFixture(t).srv
	for _, path := range []string{
		"/api/objects/s1/invoke/stall?timeoutMs=soon",
		"/api/objects/nope/invoke/stall?timeoutMs=-1",
		"/api/objects/nope/invoke/stall?timeoutMs=18446744073710",
		"/api/objects/nope/invoke-async/stall?timeoutMs=18446744073710",
		"/api/objects/nope/invoke/stall?timeoutMs=9300000000000",
		"/api/objects/nope/invoke-async/stall?timeoutMs=9300000000000",
		"/api/objects/nope/invoke-async/stall?timeoutMs=9223372036855",
		"/api/objects/nope/invoke-async/stall?timeoutMs=99999999999999999999",
	} {
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("bad timeoutMs")) {
			t.Errorf("POST %s: status = %d %s, want 400 bad timeoutMs", path, resp.StatusCode, body)
		}
	}
}

// TestBreakerOpenWritesFailFast trips the backing-store breaker and
// verifies control-plane writes answer 503 with the
// "backing_unavailable" code, a Retry-After hint, and the degraded
// header, and that /readyz flips to 503 until the breaker closes.
func TestBreakerOpenWritesFailFast(t *testing.T) {
	f := newResilienceFixture(t)
	p, srv := f.p, f.srv

	// Ready while healthy.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy readyz status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Oparaca-Degraded") != "" {
		t.Fatal("degraded header set on a healthy platform")
	}

	// Trip the breaker directly: enough recorded failures to cross the
	// default window threshold.
	for i := 0; i < 16; i++ {
		p.Breaker().Record(errors.New("store down"))
	}
	if p.Breaker().State().String() != "open" {
		t.Fatalf("breaker state = %v after failure burst, want open", p.Breaker().State())
	}

	// A create persists its directory record synchronously: fast 503
	// with the machine code, a Retry-After hint, and the degraded flag.
	reqBody := []byte(`{"class":"S","id":"s2"}`)
	resp, err = http.Post(srv.URL+"/api/objects", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create status = %d body=%s, want 503", resp.StatusCode, raw)
	}
	var body struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(raw, &body); body.Code != "backing_unavailable" {
		t.Fatalf("code = %q body=%s, want backing_unavailable", body.Code, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carried no Retry-After hint")
	}
	if resp.Header.Get("X-Oparaca-Degraded") != "true" {
		t.Fatal("degraded header missing while the breaker is open")
	}

	// Readiness flips while degraded.
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz status = %d body=%s, want 503", resp.StatusCode, raw)
	}
	var view struct {
		Ready   bool   `json:"ready"`
		Breaker string `json:"breaker"`
	}
	if json.Unmarshal(raw, &view); view.Ready || view.Breaker != "open" {
		t.Fatalf("readyz body = %s, want ready=false breaker=open", raw)
	}
}

// TestLatePollDuringAnOutage pins what a poll answers while the store's
// breaker is open. The record table is a write buffer: a finished
// invocation's record stays in memory only until its flush lands. So a
// poll for a record not flushed yet answers 200 from memory, and a poll
// for one already flushed must read the store and answers 503
// "backing_unavailable", as any uncached read does.
func TestLatePollDuringAnOutage(t *testing.T) {
	f := newResilienceFixture(t)
	f.p.Images().Register("img/quick", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: json.RawMessage(`"done"`)}, nil
	}))
	f.deploy(t, "Q", "quick", "q1")
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(f.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, raw
	}
	// finished submits one invocation and returns its ID once a long
	// poll has seen it completed.
	finished := func() string {
		t.Helper()
		resp, err := http.Post(f.srv.URL+"/api/objects/q1/invoke-async/quick", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Invocation string }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("invoke-async: status %d, %v", resp.StatusCode, err)
		}
		if status, raw := get("/api/invocations/" + body.Invocation + "?waitMs=30000"); status != http.StatusOK || !bytes.Contains(raw, []byte(`"status":"completed"`)) {
			t.Fatalf("long poll: status %d, body %s", status, raw)
		}
		return body.Invocation
	}
	flushed := finished()
	// One flush interval on the platform's clock flushes the record.
	f.clock.Advance(50 * time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if doc, err := f.p.Backing().Get(context.Background(), "invocations/"+flushed); err == nil && bytes.Contains(doc.Value, []byte(`"completed"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the finished record never flushed")
		}
	}
	unflushed := finished()
	for i := 0; i < 16; i++ {
		f.p.Breaker().Record(errors.New("store down"))
	}
	if status, raw := get("/api/invocations/" + unflushed); status != http.StatusOK || !bytes.Contains(raw, []byte(`"status":"completed"`)) {
		t.Fatalf("poll for an unflushed record during the outage: status %d, body %s, want 200 completed", status, raw)
	}
	// The flush pass drops the record from memory right after its batch
	// lands, so a poll may still find it there for a moment.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		status, raw := get("/api/invocations/" + flushed)
		if status == http.StatusServiceUnavailable {
			var body struct {
				Code string `json:"code"`
			}
			if json.Unmarshal(raw, &body); body.Code != "backing_unavailable" {
				t.Fatalf("code = %q body=%s, want backing_unavailable", body.Code, raw)
			}
			break
		}
		if status != http.StatusOK || time.Now().After(deadline) {
			t.Fatalf("poll for a flushed record during the outage: status %d, body %s, want 503", status, raw)
		}
	}
}
