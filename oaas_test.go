package oaas

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// newTestPlatform builds a platform with a greeter handler.
func newTestPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := New(Config{Workers: 2, FaaS: FaaSSettings{ColdStart: time.Millisecond, IdleTimeout: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/greet", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		var name string
		if raw, ok := task.State["name"]; ok {
			_ = json.Unmarshal(raw, &name)
		}
		out, _ := json.Marshal("hello " + name)
		return Result{Output: out}, nil
	}))
	p.Images().Register("img/rename", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		return Result{State: map[string]json.RawMessage{"name": task.Payload}}, nil
	}))
	return p
}

const greeterYAML = `classes:
  - name: Greeter
    keySpecs:
      - name: name
        kind: string
        default: "world"
      - name: avatar
        kind: file
    functions:
      - name: greet
        image: img/greet
      - name: rename
        image: img/rename
`

func TestPublicAPIRoundTrip(t *testing.T) {
	p := newTestPlatform(t)
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(greeterYAML)); err != nil {
		t.Fatal(err)
	}
	obj, err := NewObject(ctx, p, "Greeter", "g1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := obj.Invoke(ctx, "greet", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `"hello world"` {
		t.Fatalf("out = %s", out)
	}
	if _, err := obj.Invoke(ctx, "rename", json.RawMessage(`"oaas"`), nil); err != nil {
		t.Fatal(err)
	}
	out, err = obj.Invoke(ctx, "greet", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `"hello oaas"` {
		t.Fatalf("out after rename = %s", out)
	}
	v, err := obj.State(ctx, "name")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != `"oaas"` {
		t.Fatalf("state = %s", v)
	}
	if err := p.PutState(ctx, obj.ID, "name", json.RawMessage(`"direct"`)); err != nil {
		t.Fatal(err)
	}
}

func TestBindObject(t *testing.T) {
	p := newTestPlatform(t)
	ctx := context.Background()
	p.DeployYAML(ctx, []byte(greeterYAML))
	created, err := NewObject(ctx, p, "Greeter", "bindme")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := BindObject(p, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Class != "Greeter" {
		t.Fatalf("class = %q", bound.Class)
	}
	if _, err := BindObject(p, "ghost"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestObjectDelete(t *testing.T) {
	p := newTestPlatform(t)
	ctx := context.Background()
	p.DeployYAML(ctx, []byte(greeterYAML))
	obj, _ := NewObject(ctx, p, "Greeter", "")
	if err := p.DeleteObject(ctx, obj.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Invoke(ctx, "greet", nil, nil); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestObjectFileURL(t *testing.T) {
	p := newTestPlatform(t)
	ctx := context.Background()
	p.DeployYAML(ctx, []byte(greeterYAML))
	obj, _ := NewObject(ctx, p, "Greeter", "")
	u, err := obj.FileURL("avatar", http.MethodPut)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, u, strings.NewReader("png"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	get, _ := obj.FileURL("avatar", http.MethodGet)
	resp, err = http.Get(get)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "png" {
		t.Fatalf("body = %q", body)
	}
}

func TestParseHelpers(t *testing.T) {
	pkg, err := ParseYAML([]byte(greeterYAML))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Classes) != 1 || pkg.Classes[0].Name != "Greeter" {
		t.Fatalf("parsed %+v", pkg.Classes)
	}
}

func TestDefaultTemplatesExposed(t *testing.T) {
	ts := DefaultTemplates()
	if len(ts) == 0 {
		t.Fatal("no default templates")
	}
	names := map[string]bool{}
	for _, tm := range ts {
		names[tm.Name] = true
	}
	if !names["standard"] || !names["ephemeral"] {
		t.Fatalf("templates = %v", names)
	}
}

func TestMergeStateExposed(t *testing.T) {
	merged := MergeState(
		map[string]json.RawMessage{"a": json.RawMessage(`1`)},
		map[string]json.RawMessage{"b": json.RawMessage(`2`)},
	)
	if len(merged) != 2 {
		t.Fatalf("merged = %v", merged)
	}
}

func TestGatewayConstructor(t *testing.T) {
	p := newTestPlatform(t)
	g := NewGateway(p)
	if g == nil {
		t.Fatal("nil gateway")
	}
}

// TestAsyncInvocationPublicAPI exercises the fire-and-poll flow from
// the package-doc quickstart: InvokeAsync, WaitInvocation, Invocation.
func TestAsyncInvocationPublicAPI(t *testing.T) {
	p := newTestPlatform(t)
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(greeterYAML)); err != nil {
		t.Fatal(err)
	}
	obj, err := NewObject(ctx, p, "Greeter", "")
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.InvokeAsync(ctx, obj.ID, "greet", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.WaitInvocation(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != InvocationCompleted {
		t.Fatalf("status = %s (error %q)", rec.Status, rec.Error)
	}
	if string(rec.Result) != `"hello world"` {
		t.Fatalf("result = %s", rec.Result)
	}
	if rec.Status.Terminal() != true {
		t.Fatal("completed status not terminal")
	}
	// Unknown invocation IDs map to the re-exported sentinel.
	if _, err := p.Invocation(ctx, "inv-missing"); !errors.Is(err, ErrInvocationNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Batch submission via the re-exported request type.
	results := p.InvokeAsyncBatch(ctx, []AsyncRequest{
		{Object: obj.ID, Member: "greet"},
		{Object: obj.ID, Member: "rename", Payload: json.RawMessage(`"oparaca"`)},
	})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("batch entry %d: %v", i, res.Err)
		}
		if rec, err := p.WaitInvocation(ctx, res.ID); err != nil || rec.Status != InvocationCompleted {
			t.Fatalf("batch entry %d: %+v, %v", i, rec, err)
		}
	}
	if s := p.Stats(); s.Async.Completed != 3 {
		t.Fatalf("async stats = %+v", s.Async)
	}
}

// BenchmarkMicroEndToEndInvoke measures a full platform invocation
// (state load -> task bundle -> engine -> state merge) on a warm
// nonpersist deployment.
func BenchmarkMicroEndToEndInvoke(b *testing.B) {
	noServe := false
	tmpl := Template{
		Name:       "micro",
		EngineMode: EngineDeployment, TableMode: TableMemoryOnly,
		DefaultConcurrency: 64, InitialScale: 2, MaxScale: 16,
	}
	plat, err := New(Config{Workers: 2, OpsPerMilliCPU: 1000, Templates: []Template{tmpl}, ServeObjectStore: &noServe})
	if err != nil {
		b.Fatal(err)
	}
	defer plat.Close()
	plat.Images().Register("img/echo", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		return Result{Output: task.Payload}, nil
	}))
	ctx := context.Background()
	pkg := "classes:\n  - name: E\n    keySpecs:\n      - name: k\n        default: 0\n    functions:\n      - name: f\n        image: img/echo\n"
	if _, err := plat.DeployYAML(ctx, []byte(pkg)); err != nil {
		b.Fatal(err)
	}
	id, err := plat.CreateObject(ctx, "E", "")
	if err != nil {
		b.Fatal(err)
	}
	payload := json.RawMessage(`{"n":1}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plat.Invoke(ctx, id, "f", payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}
