package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

const testPackage = `classes:
  - name: Note
    keySpecs:
      - name: text
        kind: string
        default: ""
      - name: attachment
        kind: file
    functions:
      - name: set
        image: img/set
      - name: shout
        image: img/shout
    dataflows:
      - name: setAndShout
        steps:
          - name: s
            function: set
          - name: sh
            function: shout
            after: [s]
`

// fixture is a served gateway plus helpers.
type fixture struct {
	t      *testing.T
	p      *core.Platform
	srv    *httptest.Server
	client *http.Client
}

func newFixture(t *testing.T) *fixture {
	return newFixtureCfg(t, core.Config{})
}

// newFixtureCfg builds a fixture over a platform with extra config
// (event-log knobs, webhook timing); zero fields get the test
// defaults.
func newFixtureCfg(t *testing.T, cfg core.Config) *fixture {
	t.Helper()
	p := newTestPlatform(t, cfg)
	return serveFixture(t, p, New(p))
}

// serveFixture puts gw, a gateway over p, behind a test server.
func serveFixture(t *testing.T, p *core.Platform, gw *Gateway) *fixture {
	t.Helper()
	srv := httptest.NewServer(gw)
	t.Cleanup(srv.Close)
	return &fixture{t: t, p: p, srv: srv, client: srv.Client()}
}

// newTestPlatform boots a platform with the test defaults and the
// img/set and img/shout handlers that testPackage names.
func newTestPlatform(t *testing.T, cfg core.Config) *core.Platform {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.FaaS.ScaleInterval == 0 {
		cfg.FaaS.ScaleInterval = 10 * time.Millisecond
	}
	if cfg.FaaS.IdleTimeout == 0 {
		cfg.FaaS.IdleTimeout = time.Minute
	}
	if cfg.FaaS.ColdStart == 0 {
		cfg.FaaS.ColdStart = time.Millisecond
	}
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/set", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{
			Output: task.Payload,
			State:  map[string]json.RawMessage{"text": task.Payload},
		}, nil
	}))
	p.Images().Register("img/shout", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var s string
		_ = json.Unmarshal(task.State["text"], &s)
		out, _ := json.Marshal(strings.ToUpper(s))
		return invoker.Result{Output: out}, nil
	}))
	return p
}

// do issues a request and returns status + decoded JSON body.
func (f *fixture) do(method, path, contentType string, body []byte) (int, map[string]json.RawMessage) {
	f.t.Helper()
	req, err := http.NewRequest(method, f.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		f.t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]json.RawMessage{}
	if len(raw) > 0 {
		_ = json.Unmarshal(raw, &out)
	}
	return resp.StatusCode, out
}

// deploy pushes the test package and fails the test on error.
func (f *fixture) deploy() {
	f.t.Helper()
	status, body := f.do(http.MethodPost, "/api/packages", "application/yaml", []byte(testPackage))
	if status != http.StatusCreated {
		f.t.Fatalf("deploy status = %d body=%v", status, body)
	}
}

// createObject makes a Note object and returns its id.
func (f *fixture) createObject(id string) string {
	f.t.Helper()
	reqBody, _ := json.Marshal(map[string]string{"class": "Note", "id": id})
	status, body := f.do(http.MethodPost, "/api/objects", "application/json", reqBody)
	if status != http.StatusCreated {
		f.t.Fatalf("create status = %d body=%v", status, body)
	}
	var got string
	json.Unmarshal(body["id"], &got)
	return got
}

func TestHealthz(t *testing.T) {
	f := newFixture(t)
	status, body := f.do(http.MethodGet, "/healthz", "", nil)
	if status != http.StatusOK || string(body["status"]) != `"ok"` {
		t.Fatalf("health = %d %v", status, body)
	}
}

func TestDeployAndListClasses(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	status, body := f.do(http.MethodGet, "/api/classes", "", nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var classes []string
	json.Unmarshal(body["classes"], &classes)
	if len(classes) != 1 || classes[0] != "Note" {
		t.Fatalf("classes = %v", classes)
	}
}

func TestDeployJSONContentType(t *testing.T) {
	f := newFixture(t)
	jsonPkg := `{"classes":[{"name":"JOnly","functions":[{"name":"f","image":"img/set"}]}]}`
	status, body := f.do(http.MethodPost, "/api/packages", "application/json", []byte(jsonPkg))
	if status != http.StatusCreated {
		t.Fatalf("status = %d body=%v", status, body)
	}
}

func TestDeployInvalidPackage(t *testing.T) {
	f := newFixture(t)
	status, _ := f.do(http.MethodPost, "/api/packages", "application/yaml", []byte("classes: []"))
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
}

func TestGetClassView(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	status, body := f.do(http.MethodGet, "/api/classes/Note", "", nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var tmpl string
	json.Unmarshal(body["template"], &tmpl)
	if tmpl == "" {
		t.Fatalf("template missing in %v", body)
	}
	var fns []map[string]any
	json.Unmarshal(body["functions"], &fns)
	if len(fns) != 2 {
		t.Fatalf("functions = %v", fns)
	}
}

func TestGetClassNotFound(t *testing.T) {
	f := newFixture(t)
	status, _ := f.do(http.MethodGet, "/api/classes/Ghost", "", nil)
	if status != http.StatusNotFound {
		t.Fatalf("status = %d", status)
	}
}

func TestObjectLifecycleOverREST(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	id := f.createObject("note-1")
	if id != "note-1" {
		t.Fatalf("id = %q", id)
	}

	// Invoke set.
	status, body := f.do(http.MethodPost, "/api/objects/note-1/invoke/set", "application/json", []byte(`"hello"`))
	if status != http.StatusOK {
		t.Fatalf("invoke status = %d %v", status, body)
	}
	if string(body["output"]) != `"hello"` {
		t.Fatalf("output = %s", body["output"])
	}

	// Read state.
	status, body = f.do(http.MethodGet, "/api/objects/note-1/state/text", "", nil)
	if status != http.StatusOK || string(body["value"]) != `"hello"` {
		t.Fatalf("state = %d %v", status, body)
	}

	// Put state directly.
	status, _ = f.do(http.MethodPut, "/api/objects/note-1/state/text", "application/json", []byte(`"direct"`))
	if status != http.StatusNoContent {
		t.Fatalf("put state status = %d", status)
	}

	// Invoke shout (uses state).
	status, body = f.do(http.MethodPost, "/api/objects/note-1/invoke/shout", "application/json", nil)
	if status != http.StatusOK || string(body["output"]) != `"DIRECT"` {
		t.Fatalf("shout = %d %v", status, body)
	}

	// Get object meta.
	status, body = f.do(http.MethodGet, "/api/objects/note-1", "", nil)
	if status != http.StatusOK || string(body["class"]) != `"Note"` {
		t.Fatalf("get object = %d %v", status, body)
	}

	// List objects.
	status, body = f.do(http.MethodGet, "/api/objects?class=Note", "", nil)
	var ids []string
	json.Unmarshal(body["objects"], &ids)
	if status != http.StatusOK || len(ids) != 1 {
		t.Fatalf("list = %d %v", status, body)
	}

	// Delete.
	status, _ = f.do(http.MethodDelete, "/api/objects/note-1", "", nil)
	if status != http.StatusNoContent {
		t.Fatalf("delete status = %d", status)
	}
	status, _ = f.do(http.MethodGet, "/api/objects/note-1", "", nil)
	if status != http.StatusNotFound {
		t.Fatalf("get after delete = %d", status)
	}
}

func TestInvokeDataflowOverREST(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("n")
	status, body := f.do(http.MethodPost, "/api/objects/n/invoke/setAndShout", "application/json", []byte(`"quiet"`))
	if status != http.StatusOK || string(body["output"]) != `"QUIET"` {
		t.Fatalf("dataflow = %d %v", status, body)
	}
}

func TestInvokeWithQueryArgs(t *testing.T) {
	f := newFixture(t)
	p, _ := core.New(core.Config{Workers: 1, FaaS: faas.Settings{ColdStart: time.Millisecond}})
	t.Cleanup(p.Close)
	p.Images().Register("img/echoargs", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		out, _ := json.Marshal(task.Args)
		return invoker.Result{Output: out}, nil
	}))
	pkg := "classes:\n  - name: A\n    functions:\n      - name: f\n        image: img/echoargs\n"
	if _, err := p.DeployYAML(context.Background(), []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(context.Background(), "A", "a1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p))
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL+"/api/objects/a1/invoke/f?w=100&fmt=png", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `"w":"100"`) || !strings.Contains(string(raw), `"fmt":"png"`) {
		t.Fatalf("args not forwarded: %s", raw)
	}
	_ = f
}

func TestInvokeErrors(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("n")
	// Unknown member.
	status, _ := f.do(http.MethodPost, "/api/objects/n/invoke/nope", "application/json", nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown member status = %d", status)
	}
	// Unknown object.
	status, _ = f.do(http.MethodPost, "/api/objects/ghost/invoke/set", "application/json", nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown object status = %d", status)
	}
	// Invalid payload.
	status, _ = f.do(http.MethodPost, "/api/objects/n/invoke/set", "application/json", []byte(`{broken`))
	if status != http.StatusBadRequest {
		t.Fatalf("bad payload status = %d", status)
	}
}

func TestCreateObjectErrors(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	// Missing class.
	status, _ := f.do(http.MethodPost, "/api/objects", "application/json", []byte(`{}`))
	if status != http.StatusBadRequest {
		t.Fatalf("missing class status = %d", status)
	}
	// Unknown class.
	status, _ = f.do(http.MethodPost, "/api/objects", "application/json", []byte(`{"class":"Ghost"}`))
	if status != http.StatusNotFound {
		t.Fatalf("unknown class status = %d", status)
	}
	// Duplicate id.
	f.createObject("dup")
	body, _ := json.Marshal(map[string]string{"class": "Note", "id": "dup"})
	status, _ = f.do(http.MethodPost, "/api/objects", "application/json", body)
	if status != http.StatusConflict {
		t.Fatalf("duplicate status = %d", status)
	}
}

func TestPresignEndpoint(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("n")
	status, body := f.do(http.MethodGet, "/api/objects/n/files/attachment/url?method=PUT", "", nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d %v", status, body)
	}
	var u string
	json.Unmarshal(body["url"], &u)
	if !strings.Contains(u, "X-Oprc-Signature=") {
		t.Fatalf("url = %q", u)
	}
	// Bad method rejected.
	status, _ = f.do(http.MethodGet, "/api/objects/n/files/attachment/url?method=PATCH", "", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("bad method status = %d", status)
	}
	// Non-file key rejected (500-family mapped error or 404 is fine;
	// assert not 200).
	status, _ = f.do(http.MethodGet, "/api/objects/n/files/text/url", "", nil)
	if status == http.StatusOK {
		t.Fatal("presign of structured key succeeded")
	}
}

func TestStatsEndpoint(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	status, body := f.do(http.MethodGet, "/api/stats", "", nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var workers int
	json.Unmarshal(body["workers"], &workers)
	if workers != 2 {
		t.Fatalf("workers = %d", workers)
	}
}

func TestOptimizerActionsEndpoint(t *testing.T) {
	f := newFixture(t)
	status, body := f.do(http.MethodGet, "/api/optimizer/actions", "", nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if string(body["actions"]) != "[]" {
		t.Fatalf("actions = %s", body["actions"])
	}
}

func TestStateErrors(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("n")
	// Unknown key behaves as server-side error (not 2xx).
	status, _ := f.do(http.MethodGet, "/api/objects/n/state/ghost", "", nil)
	if status == http.StatusOK {
		t.Fatal("unknown key read succeeded")
	}
	// Empty body on put.
	status, _ = f.do(http.MethodPut, "/api/objects/n/state/text", "application/json", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("empty put status = %d", status)
	}
}

func TestListObjectsEmpty(t *testing.T) {
	f := newFixture(t)
	status, body := f.do(http.MethodGet, "/api/objects", "", nil)
	if status != http.StatusOK || string(body["objects"]) != "[]" {
		t.Fatalf("empty list = %d %v", status, body)
	}
}

func TestConcurrentRESTInvocations(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("n")
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		i := i
		go func() {
			payload := fmt.Sprintf(`"msg-%d"`, i)
			resp, err := f.client.Post(f.srv.URL+"/api/objects/n/invoke/set", "application/json", strings.NewReader(payload))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < 20; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestInvokeRegionHeaderChargesLatency(t *testing.T) {
	p, err := core.New(core.Config{
		Workers:            1,
		Regions:            []core.RegionSpec{{Name: "eu", Workers: 1}},
		InterRegionLatency: 30 * time.Millisecond,
		FaaS:               faas.Settings{ColdStart: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/echo", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.Payload}, nil
	}))
	pkg := "classes:\n  - name: Eu\n    constraint:\n      jurisdiction: eu\n    functions:\n      - name: f\n        image: img/echo\n"
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(ctx, "Eu", "e1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p))
	t.Cleanup(srv.Close)

	invoke := func(region string) time.Duration {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/objects/e1/invoke/f", strings.NewReader(`"x"`))
		if region != "" {
			req.Header.Set("X-Oprc-Region", region)
		}
		start := time.Now()
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		return time.Since(start)
	}
	invoke("eu") // warm up (cold start)
	local := invoke("eu")
	remote := invoke("") // default-region client hits the eu object
	if remote < 60*time.Millisecond {
		t.Fatalf("cross-region REST invoke took %v, want >= 60ms RTT", remote)
	}
	if local >= remote {
		t.Fatalf("same-region (%v) not faster than cross-region (%v)", local, remote)
	}
}

// regionHopClock is the real clock, except that it counts the sleeps of
// one duration — the inter-region round trip — and returns from them at
// once.
type regionHopClock struct {
	vclock.Real
	hop  time.Duration
	hops atomic.Int64
}

func (c *regionHopClock) Sleep(ctx context.Context, d time.Duration) error {
	if d != c.hop {
		return c.Real.Sleep(ctx, d)
	}
	c.hops.Add(1)
	return ctx.Err()
}

// TestInvokeBatchRegionHeaderChargesOnce: POST /api/invoke-batch honors
// X-Client-Region like the single-invocation routes, and a batch is one
// message: eight cross-region entries pay one inter-region round trip,
// not eight and not none.
func TestInvokeBatchRegionHeaderChargesOnce(t *testing.T) {
	const oneWay = 30 * time.Millisecond
	clock := &regionHopClock{hop: 2 * oneWay}
	p, err := core.New(core.Config{
		Workers:            1,
		Regions:            []core.RegionSpec{{Name: "eu", Workers: 1}},
		InterRegionLatency: oneWay,
		FaaS:               faas.Settings{ColdStart: time.Millisecond},
		Clock:              clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/echo", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.Payload}, nil
	}))
	pkg := "classes:\n  - name: Eu\n    constraint:\n      jurisdiction: eu\n    functions:\n      - name: f\n        image: img/echo\n"
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(ctx, "Eu", "e1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p))
	t.Cleanup(srv.Close)
	body := `{"invocations":[` + strings.Repeat(`{"object":"e1","member":"f"},`, 7) + `{"object":"ghost","member":"f"}]}`
	post := func(region string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/invoke-batch", strings.NewReader(body))
		if region != "" {
			req.Header.Set("X-Client-Region", region)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct{ Accepted, Rejected int }
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status = %d, decode err = %v", resp.StatusCode, err)
		}
		if out.Accepted != 7 || out.Rejected != 1 {
			t.Fatalf("accepted %d rejected %d, want 7 and 1 (the unknown object alone)", out.Accepted, out.Rejected)
		}
	}
	post("eu")
	if n := clock.hops.Load(); n != 0 {
		t.Fatalf("a batch from the objects' own region paid %d inter-region round trips, want 0", n)
	}
	post("") // a default-region client
	if n := clock.hops.Load(); n != 1 {
		t.Fatalf("a cross-region batch of 7 paid %d inter-region round trips, want 1", n)
	}
}

// TestWriteJSONEncodeFailureIs500 verifies the buffered encoder fixes
// the status-before-encode ordering: an unencodable value produces a
// clean 500 error envelope, never a 200 glued to a broken body.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": func() {}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error envelope is not valid JSON: %v (%s)", err, rec.Body.Bytes())
	}
	if body.Error == "" {
		t.Fatal("error envelope is empty")
	}
}

// TestWriteJSONReusesPooledBuffers exercises the pooled path across
// concurrent writers and verifies responses stay intact.
func TestWriteJSONReusesPooledBuffers(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := httptest.NewRecorder()
				writeJSON(rec, http.StatusOK, map[string]int{"w": w, "i": i})
				var got map[string]int
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Errorf("corrupt body: %v", err)
					return
				}
				if got["w"] != w || got["i"] != i {
					t.Errorf("cross-talk: got %v, want w=%d i=%d", got, w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
