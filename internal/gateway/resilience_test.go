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
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/invoker"
)

// newResilienceFixture serves a platform with a stalling handler that
// ignores cancellation, returning the platform for breaker access.
func newResilienceFixture(t *testing.T) (*core.Platform, *httptest.Server) {
	t.Helper()
	p, err := core.New(core.Config{Workers: 2, ColdStart: time.Millisecond, IdleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/stall", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		time.Sleep(400 * time.Millisecond) // deliberately ignores ctx
		return invoker.Result{Output: json.RawMessage(`"late"`)}, nil
	}))
	pkg := "classes:\n  - name: S\n    functions:\n      - name: stall\n        image: img/stall\n"
	if _, err := p.DeployYAML(context.Background(), []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(context.Background(), "S", "s1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p))
	t.Cleanup(srv.Close)
	return p, srv
}

// TestInvokeTimeoutMsReturns408 asks for a 50ms deadline against a
// handler that sleeps 400ms ignoring its context: the gateway must
// answer 408/"deadline_exceeded" well before the handler finishes.
func TestInvokeTimeoutMsReturns408(t *testing.T) {
	_, srv := newResilienceFixture(t)
	start := time.Now()
	resp, err := http.Post(srv.URL+"/api/objects/s1/invoke/stall?timeoutMs=50", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d body=%s, want 408", resp.StatusCode, raw)
	}
	var body struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(raw, &body); body.Code != "deadline_exceeded" {
		t.Fatalf("code = %q body=%s, want deadline_exceeded", body.Code, raw)
	}
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("408 took %v — the gateway waited for the stuck handler", elapsed)
	}
}

// TestHandlerPanicUnderTimeoutMs: with ?timeoutMs= the handler runs on
// the runtime's watchdog goroutine, where no HTTP server recovers a
// panic. The invoke must answer a 5xx naming the panic, and the server
// must keep serving.
func TestHandlerPanicUnderTimeoutMs(t *testing.T) {
	p, srv := newResilienceFixture(t)
	p.Images().Register("img/boom", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		panic("boom")
	}))
	pkg := "classes:\n  - name: B\n    functions:\n      - name: boom\n        image: img/boom\n"
	if _, err := p.DeployYAML(context.Background(), []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(context.Background(), "B", "b1"); err != nil {
		t.Fatal(err)
	}
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

// TestInvokeTimeoutMsValidation rejects malformed deadline overrides.
func TestInvokeTimeoutMsValidation(t *testing.T) {
	_, srv := newResilienceFixture(t)
	resp, err := http.Post(srv.URL+"/api/objects/s1/invoke/stall?timeoutMs=soon", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestBreakerOpenWritesFailFast trips the backing-store breaker and
// verifies control-plane writes answer 503 with the
// "backing_unavailable" code, a Retry-After hint, and the degraded
// header, and that /readyz flips to 503 until the breaker closes.
func TestBreakerOpenWritesFailFast(t *testing.T) {
	p, srv := newResilienceFixture(t)

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
