package runtime

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/objectstore"
	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// TestBubbles runs this package's bubble tests; see internal/simtest.
func TestBubbles(t *testing.T) { simtest.Bubbles(t) }

// counterClass is a class with a numeric counter and an increment
// function.
const counterYAML = `classes:
  - name: Counter
    keySpecs:
      - name: value
        kind: number
        default: 0
    functions:
      - name: incr
        image: img/incr
      - name: get
        image: img/get
    dataflows:
      - name: doubleIncr
        steps:
          - name: one
            function: incr
          - name: two
            function: incr
            after: [one]
`

func resolvedClass(t *testing.T, yaml, name string) *model.Class {
	t.Helper()
	pkg, err := model.ParseYAML([]byte(yaml))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := model.Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := classes[name]
	if !ok {
		t.Fatalf("class %q missing", name)
	}
	return c
}

// testInfra builds shared infrastructure with registered handlers.
func testInfra(t *testing.T) Infra {
	t.Helper()
	c := cluster.New(cluster.Config{OpsPerMilliCPU: 1000})
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(fmt.Sprintf("vm-%d", i), cluster.Resources{MilliCPU: 8000, MemoryMB: 16384}); err != nil {
			t.Fatal(err)
		}
	}
	reg := invoker.NewRegistry()
	reg.Register("img/incr", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var n float64
		if raw, ok := task.State["value"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		out, _ := json.Marshal(n + 1)
		return invoker.Result{Output: out, State: map[string]json.RawMessage{"value": out}}, nil
	}))
	reg.Register("img/get", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.State["value"]}, nil
	}))
	reg.Register("img/fail", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{}, errors.New("deliberate")
	}))
	reg.Register("img/rogue", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{State: map[string]json.RawMessage{"undeclared": json.RawMessage(`1`)}}, nil
	}))
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	return Infra{
		Cluster:   c,
		Transport: invoker.NewLocal(reg),
		Backing:   db,
		FaaS:      faas.Settings{ScaleInterval: 10 * time.Millisecond, IdleTimeout: time.Minute, ColdStart: 5 * time.Millisecond},
	}
}

func stdTemplate() Template {
	return Template{
		Name: "test", EngineMode: faas.ModeDeployment, TableMode: memtable.ModeWriteBehind,
		FlushInterval: 10 * time.Millisecond, DefaultConcurrency: 16, InitialScale: 1, MaxScale: 8,
	}
}

func newRuntime(t *testing.T, yaml, class string) *ClassRuntime {
	t.Helper()
	rt, err := New(testInfra(t), resolvedClass(t, yaml, class), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestMatchConditions(t *testing.T) {
	yes, no := true, false
	persistent := &model.Class{Name: "P", QoS: model.QoS{ThroughputRPS: 2000, LatencyMs: 20}}
	ephemeral := &model.Class{Name: "E", Constraint: model.Constraints{Persistent: &no}}
	cases := []struct {
		name  string
		m     Match
		c     *model.Class
		match bool
	}{
		{"empty matches all", Match{}, persistent, true},
		{"persistent true", Match{Persistent: &yes}, persistent, true},
		{"persistent false vs persistent class", Match{Persistent: &no}, persistent, false},
		{"persistent false vs ephemeral", Match{Persistent: &no}, ephemeral, true},
		{"throughput met", Match{MinThroughputRPS: 1000}, persistent, true},
		{"throughput unmet", Match{MinThroughputRPS: 5000}, persistent, false},
		{"latency met", Match{MaxLatencyMs: 50}, persistent, true},
		{"latency unmet", Match{MaxLatencyMs: 10}, persistent, false},
		{"latency unset on class", Match{MaxLatencyMs: 50}, ephemeral, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.m.Matches(c.c); got != c.match {
				t.Fatalf("Matches = %v, want %v", got, c.match)
			}
		})
	}
}

func TestTemplateRegistrySelection(t *testing.T) {
	reg, err := NewTemplateRegistry(DefaultTemplates()...)
	if err != nil {
		t.Fatal(err)
	}
	no := false
	cases := []struct {
		class *model.Class
		want  string
	}{
		{&model.Class{Name: "A"}, "standard"},
		{&model.Class{Name: "B", Constraint: model.Constraints{Persistent: &no}}, "ephemeral"},
		{&model.Class{Name: "C", QoS: model.QoS{ThroughputRPS: 5000}}, "high-throughput"},
		{&model.Class{Name: "D", QoS: model.QoS{LatencyMs: 10}}, "low-latency"},
	}
	for _, c := range cases {
		tmpl, err := reg.Select(c.class)
		if err != nil {
			t.Fatalf("Select(%s): %v", c.class.Name, err)
		}
		if tmpl.Name != c.want {
			t.Errorf("Select(%s) = %q, want %q", c.class.Name, tmpl.Name, c.want)
		}
	}
}

func TestTemplateRegistryPriorityOrder(t *testing.T) {
	a := Template{Name: "low", Priority: 1, EngineMode: faas.ModeDeployment, TableMode: memtable.ModeMemoryOnly, InitialScale: 1}
	b := Template{Name: "high", Priority: 10, EngineMode: faas.ModeDeployment, TableMode: memtable.ModeMemoryOnly, InitialScale: 1}
	reg, err := NewTemplateRegistry(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reg.Select(&model.Class{Name: "X"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "high" {
		t.Fatalf("Select = %q, want priority winner", got.Name)
	}
}

func TestTemplateRegistryDuplicateName(t *testing.T) {
	a := Template{Name: "dup", EngineMode: faas.ModeDeployment, TableMode: memtable.ModeMemoryOnly, InitialScale: 1}
	reg, err := NewTemplateRegistry(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(a); err == nil {
		t.Fatal("duplicate template accepted")
	}
}

func TestTemplateValidate(t *testing.T) {
	bad := []Template{
		{},
		{Name: "x"},
		{Name: "x", EngineMode: faas.ModeKnative},
		{Name: "x", EngineMode: faas.ModeDeployment, TableMode: memtable.ModeMemoryOnly, InitialScale: 0},
	}
	for i, tmpl := range bad {
		if err := tmpl.Validate(); err == nil {
			t.Errorf("template %d validated", i)
		}
	}
}

func TestTemplateRegistryNoMatch(t *testing.T) {
	yes := true
	only := Template{
		Name: "picky", Match: Match{Persistent: &yes, MinThroughputRPS: 1e6},
		EngineMode: faas.ModeDeployment, TableMode: memtable.ModeMemoryOnly, InitialScale: 1,
	}
	reg, _ := NewTemplateRegistry(only)
	if _, err := reg.Select(&model.Class{Name: "X"}); err == nil {
		t.Fatal("Select with no match succeeded")
	}
}

func TestInvokeStatefulRoundTrip(t *testing.T) {
	rt := newRuntime(t, counterYAML, "Counter")
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "obj1"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		out, err := rt.Invoke(ctx, "obj1", "incr", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var n float64
		json.Unmarshal(out, &n)
		if n != float64(i) {
			t.Fatalf("incr #%d = %v", i, n)
		}
	}
	// State persisted across invocations.
	v, err := rt.GetState(ctx, "obj1", "value")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "3" {
		t.Fatalf("state value = %s", v)
	}
}

func TestObjectsAreIsolated(t *testing.T) {
	rt := newRuntime(t, counterYAML, "Counter")
	ctx := context.Background()
	rt.InitObjectState(ctx, "a")
	rt.InitObjectState(ctx, "b")
	rt.Invoke(ctx, "a", "incr", nil, nil)
	rt.Invoke(ctx, "a", "incr", nil, nil)
	rt.Invoke(ctx, "b", "incr", nil, nil)
	va, _ := rt.GetState(ctx, "a", "value")
	vb, _ := rt.GetState(ctx, "b", "value")
	if string(va) != "2" || string(vb) != "1" {
		t.Fatalf("state leaked across objects: a=%s b=%s", va, vb)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	rt := newRuntime(t, counterYAML, "Counter")
	if _, err := rt.Invoke(context.Background(), "o", "ghost", nil, nil); !errors.Is(err, ErrFunctionUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeRejectsUndeclaredStateWrites(t *testing.T) {
	const rogueYAML = `classes:
  - name: Rogue
    keySpecs:
      - name: legit
    functions:
      - name: hack
        image: img/rogue
`
	rt := newRuntime(t, rogueYAML, "Rogue")
	_, err := rt.Invoke(context.Background(), "o", "hack", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("err = %v, want undeclared-key rejection", err)
	}
}

func TestDefaultValueVisibleBeforeInit(t *testing.T) {
	rt := newRuntime(t, counterYAML, "Counter")
	v, err := rt.GetState(context.Background(), "fresh", "value")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "0" {
		t.Fatalf("default = %s", v)
	}
}

func TestGetStateUnknownKey(t *testing.T) {
	rt := newRuntime(t, counterYAML, "Counter")
	if _, err := rt.GetState(context.Background(), "o", "nope"); err == nil {
		t.Fatal("unknown key read succeeded")
	}
}

func TestPutState(t *testing.T) {
	rt := newRuntime(t, counterYAML, "Counter")
	ctx := context.Background()
	if err := rt.PutState(ctx, "o", "value", json.RawMessage(`42`)); err != nil {
		t.Fatal(err)
	}
	v, _ := rt.GetState(ctx, "o", "value")
	if string(v) != "42" {
		t.Fatalf("value = %s", v)
	}
	if err := rt.PutState(ctx, "o", "ghost", json.RawMessage(`1`)); err == nil {
		t.Fatal("put to unknown key succeeded")
	}
}

func TestDeleteObjectState(t *testing.T) {
	rt := newRuntime(t, counterYAML, "Counter")
	ctx := context.Background()
	rt.PutState(ctx, "o", "value", json.RawMessage(`5`))
	if err := rt.DeleteObjectState(ctx, "o"); err != nil {
		t.Fatal(err)
	}
	// Reads fall back to the default after deletion.
	v, err := rt.GetState(ctx, "o", "value")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "0" {
		t.Fatalf("value after delete = %s", v)
	}
}

func TestInvokeDataflow(t *testing.T) {
	rt := newRuntime(t, counterYAML, "Counter")
	ctx := context.Background()
	rt.InitObjectState(ctx, "o")
	res, err := rt.InvokeDataflow(ctx, "o", "doubleIncr", nil)
	if err != nil {
		t.Fatal(err)
	}
	var n float64
	json.Unmarshal(res.Output, &n)
	if n != 2 {
		t.Fatalf("dataflow output = %v, want 2", n)
	}
	v, _ := rt.GetState(ctx, "o", "value")
	if string(v) != "2" {
		t.Fatalf("state after dataflow = %s", v)
	}
}

func TestInvokeDataflowUnknown(t *testing.T) {
	rt := newRuntime(t, counterYAML, "Counter")
	if _, err := rt.InvokeDataflow(context.Background(), "o", "ghost", nil); !errors.Is(err, ErrDataflowUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatePersistsToBackingStore(t *testing.T) {
	infra := testInfra(t)
	rt, err := New(infra, resolvedClass(t, counterYAML, "Counter"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt.Invoke(ctx, "o", "incr", nil, nil)
	rt.Close() // final flush
	keys, err := infra.Backing.List(ctx, "state/Counter/o/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("backing keys = %v", keys)
	}
}

func TestPresignedFileRefsInTask(t *testing.T) {
	const fileYAML = `classes:
  - name: Image
    keySpecs:
      - name: image
        kind: file
    functions:
      - name: inspect
        image: img/inspect
`
	infra := testInfra(t)
	store := newObjectStore(t)
	infra.Objects = store.store
	infra.ObjectsBaseURL = store.url

	var captured invoker.Task
	reg := invoker.NewRegistry()
	reg.Register("img/inspect", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		captured = task
		return invoker.Result{}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)

	rt, err := New(infra, resolvedClass(t, fileYAML, "Image"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Invoke(context.Background(), "o1", "inspect", nil, nil); err != nil {
		t.Fatal(err)
	}
	get, put := captured.Refs["image"], captured.Refs["image!put"]
	if !strings.Contains(get, "X-Oprc-Signature=") || !strings.Contains(put, "X-Oprc-Signature=") {
		t.Fatalf("refs not presigned: %v", captured.Refs)
	}
	if !strings.Contains(get, "cls-image/o1/image") {
		t.Fatalf("GET ref path wrong: %s", get)
	}
}

func TestTemplateDrivesTableMode(t *testing.T) {
	infra := testInfra(t)
	tmpl := stdTemplate()
	tmpl.TableMode = memtable.ModeMemoryOnly
	rt, err := New(infra, resolvedClass(t, counterYAML, "Counter"), tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	rt.Invoke(ctx, "o", "incr", nil, nil)
	rt.Flush(ctx)
	// Nothing must reach the backing store.
	keys, _ := infra.Backing.List(ctx, "state/")
	if len(keys) != 0 {
		t.Fatalf("memory-only runtime persisted: %v", keys)
	}
}

func TestRuntimeMetricsRecorded(t *testing.T) {
	rt := newRuntime(t, counterYAML, "Counter")
	ctx := context.Background()
	rt.Invoke(ctx, "o", "incr", nil, nil)
	reg := rt.Metrics()
	if got := reg.Counter("invoke.total").Value(); got != 1 {
		t.Fatalf("invoke.total = %d", got)
	}
	if got := reg.Histogram("invoke.latency").Count(); got != 1 {
		t.Fatalf("latency samples = %d", got)
	}
}

func TestNewValidation(t *testing.T) {
	infra := testInfra(t)
	class := resolvedClass(t, counterYAML, "Counter")
	if _, err := New(infra, nil, stdTemplate()); err == nil {
		t.Fatal("nil class accepted")
	}
	if _, err := New(Infra{}, class, stdTemplate()); err == nil {
		t.Fatal("empty infra accepted")
	}
	badTmpl := stdTemplate()
	badTmpl.TableMode = memtable.ModeWriteBehind
	noBacking := infra
	noBacking.Backing = nil
	if _, err := New(noBacking, class, badTmpl); err == nil {
		t.Fatal("persistent template without backing accepted")
	}
}

// objectStoreFixture serves an object store over HTTP for tests.
type objectStoreFixture struct {
	store *objectstore.Store
	url   string
}

func newObjectStore(t *testing.T) objectStoreFixture {
	t.Helper()
	s := objectstore.New("test-secret", nil)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return objectStoreFixture{store: s, url: srv.URL}
}

// TestColdStateLoadIsOneBatchRead verifies the invocation path loads a
// multi-key object's cold state in a single backing-store round trip.
func TestColdStateLoadIsOneBatchRead(t *testing.T) {
	const wideYAML = `classes:
  - name: Wide
    keySpecs:
      - name: a
      - name: b
      - name: c
      - name: d
    functions:
      - name: get
        image: img/get
`
	infra := testInfra(t)
	rt, err := New(infra, resolvedClass(t, wideYAML, "Wide"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	// Seed all four keys straight into the backing store so the first
	// invocation misses every one of them.
	seed := make(map[string]json.RawMessage, 4)
	for _, k := range []string{"a", "b", "c", "d"} {
		seed["state/Wide/o1/"+k] = json.RawMessage(`1`)
	}
	if err := infra.Backing.BatchPut(ctx, seed); err != nil {
		t.Fatal(err)
	}
	before := infra.Backing.Stats()
	if _, err := rt.Invoke(ctx, "o1", "get", nil, nil); err != nil {
		t.Fatal(err)
	}
	after := infra.Backing.Stats()
	if got := after.ReadOps - before.ReadOps; got != 1 {
		t.Fatalf("cold 4-key load cost %d read ops, want 1", got)
	}
	if got := after.DocsRead - before.DocsRead; got != 4 {
		t.Fatalf("docs read = %d, want 4", got)
	}
}

// TestRogueDeltaPersistsNothing verifies an undeclared key anywhere in
// the state delta rejects the whole delta: no partial writes.
func TestRogueDeltaPersistsNothing(t *testing.T) {
	const mixedYAML = `classes:
  - name: Mixed
    keySpecs:
      - name: legit
    functions:
      - name: hack
        image: img/mixed-rogue
`
	infra := testInfra(t)
	reg := invoker.NewRegistry()
	reg.Register("img/mixed-rogue", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{State: map[string]json.RawMessage{
			"legit":      json.RawMessage(`1`),
			"undeclared": json.RawMessage(`1`),
		}}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	rt, err := New(infra, resolvedClass(t, mixedYAML, "Mixed"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	if _, err := rt.Invoke(ctx, "o", "hack", nil, nil); err == nil {
		t.Fatal("rogue delta accepted")
	}
	if _, err := rt.GetState(ctx, "o", "legit"); !errors.Is(err, memtable.ErrNotFound) {
		t.Fatalf("legit = %v, want not-found (no partial persist)", err)
	}
}

// TestConcurrentInvocationsOnOneObjectAreExact is the lost-update
// regression test at the runtime layer: concurrent increments on one
// object must all land. The handler yields between state load and
// merge (as any real function with nonzero service time does), which
// reliably opens the read-modify-write race window even on GOMAXPROCS=1
// — without per-object serialization this test loses updates.
func TestConcurrentInvocationsOnOneObjectAreExact(t *testing.T) {
	infra := testInfra(t)
	reg := invoker.NewRegistry()
	reg.Register("img/incr", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		var n float64
		if raw, ok := task.State["value"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		select { // yield mid-window, like a real function's service time
		case <-time.After(100 * time.Microsecond):
		case <-ctx.Done():
			return invoker.Result{}, ctx.Err()
		}
		out, _ := json.Marshal(n + 1)
		return invoker.Result{Output: out, State: map[string]json.RawMessage{"value": out}}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	rt, err := New(infra, resolvedClass(t, counterYAML, "Counter"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "hot"); err != nil {
		t.Fatal(err)
	}
	const (
		clients = 8
		perEach = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				if _, err := rt.Invoke(ctx, "hot", "incr", nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v, err := rt.GetState(ctx, "hot", "value")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != fmt.Sprintf("%d", clients*perEach) {
		t.Fatalf("counter = %s, want %d (lost updates)", v, clients*perEach)
	}
}

// TestPresignedRefsAcceptedByObjectStore: the refs a task is handed are
// signed for it, and the object store serving them accepts each for its
// own method — the PUT ref uploads the file, the GET ref reads it back —
// and refuses the GET ref as a PUT.
func TestPresignedRefsAcceptedByObjectStore(t *testing.T) {
	const fileYAML = `classes:
  - name: Doc
    keySpecs:
      - name: blob
        kind: file
    functions:
      - name: peek
        image: img/peek
`
	infra := testInfra(t)
	store := newObjectStore(t)
	infra.Objects = store.store
	infra.ObjectsBaseURL = store.url
	var refs map[string]string
	reg := invoker.NewRegistry()
	reg.Register("img/peek", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		refs = task.Refs
		return invoker.Result{}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	rt, err := New(infra, resolvedClass(t, fileYAML, "Doc"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Invoke(context.Background(), "o1", "peek", nil, nil); err != nil {
		t.Fatal(err)
	}
	do := func(method, url, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(got)
	}
	if code, body := do(http.MethodPut, refs["blob!put"], "hello"); code != http.StatusOK {
		t.Fatalf("PUT through the task's ref: %d %s", code, body)
	}
	if code, body := do(http.MethodGet, refs["blob"], ""); code != http.StatusOK || body != "hello" {
		t.Fatalf("GET through the task's ref: %d %q, want 200 \"hello\"", code, body)
	}
	if code, _ := do(http.MethodPut, refs["blob"], "forged"); code != http.StatusForbidden {
		t.Fatalf("the GET ref used as a PUT: %d, want 403", code)
	}
}

// TestTaskIDsUnique verifies the atomic-counter ID scheme never reuses
// an ID across rapid-fire invocations.
func TestTaskIDsUnique(t *testing.T) {
	infra := testInfra(t)
	seen := make(map[string]bool)
	var mu sync.Mutex
	reg := invoker.NewRegistry()
	reg.Register("img/idcheck", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		if seen[task.ID] {
			return invoker.Result{}, fmt.Errorf("duplicate task ID %q", task.ID)
		}
		seen[task.ID] = true
		return invoker.Result{}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	const idYAML = `classes:
  - name: ID
    functions:
      - name: f
        image: img/idcheck
`
	rt, err := New(infra, resolvedClass(t, idYAML, "ID"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := rt.Invoke(ctx, "o", "f", nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(seen) != 800 {
		t.Fatalf("unique IDs = %d, want 800", len(seen))
	}
}
