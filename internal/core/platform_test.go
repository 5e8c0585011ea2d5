package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/runtime"
)

// imagePackage is the paper's Listing 1 with a jsonrandom sibling used
// across tests.
const testPackage = `classes:
  - name: Image
    qos:
      throughput: 100
    constraint:
      persistent: true
    keySpecs:
      - name: image
        kind: file
      - name: meta
        default: {}
    functions:
      - name: resize
        image: img/resize
      - name: changeFormat
        image: img/change-format
  - name: LabelledImage
    parent: Image
    functions:
      - name: detectObject
        image: img/detect-object
`

// newPlatform builds a small platform with handlers registered.
func newPlatform(t *testing.T, mutate func(*Config)) *Platform {
	t.Helper()
	cfg := Config{
		Workers: 2,
		FaaS:    faas.Settings{ScaleInterval: 10 * time.Millisecond, IdleTimeout: time.Minute, ColdStart: time.Millisecond},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	reg := p.Images()
	// resize records the requested width into meta.
	reg.Register("img/resize", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		meta := map[string]any{}
		if raw, ok := task.State["meta"]; ok {
			_ = json.Unmarshal(raw, &meta)
		}
		meta["width"] = task.Args["w"]
		raw, _ := json.Marshal(meta)
		return invoker.Result{
			Output: json.RawMessage(`"resized"`),
			State:  map[string]json.RawMessage{"meta": raw},
		}, nil
	}))
	reg.Register("img/change-format", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: json.RawMessage(`"converted"`)}, nil
	}))
	reg.Register("img/detect-object", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: json.RawMessage(`["cat"]`)}, nil
	}))
	return p
}

func deployTest(t *testing.T, p *Platform) {
	t.Helper()
	if _, err := p.DeployYAML(context.Background(), []byte(testPackage)); err != nil {
		t.Fatal(err)
	}
}

func TestDeployPackageListsClasses(t *testing.T) {
	p := newPlatform(t, nil)
	names, err := p.DeployYAML(context.Background(), []byte(testPackage))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "Image,LabelledImage" {
		t.Fatalf("deployed = %v", names)
	}
	if got := strings.Join(p.Classes(), ","); got != "Image,LabelledImage" {
		t.Fatalf("Classes = %s", got)
	}
}

func TestDeployInvalidYAML(t *testing.T) {
	p := newPlatform(t, nil)
	if _, err := p.DeployYAML(context.Background(), []byte("classes: []")); err == nil {
		t.Fatal("invalid package deployed")
	}
}

func TestTemplateSelectionFailureDeploysNothing(t *testing.T) {
	p := newPlatform(t, func(c *Config) {
		// The only template requires throughput no class declares.
		c.Templates = []runtime.Template{{
			Name:       "picky",
			Match:      runtime.Match{MinThroughputRPS: 1e9},
			EngineMode: faas.ModeDeployment, TableMode: memtable.ModeMemoryOnly,
			InitialScale: 1,
		}}
	})
	if _, err := p.DeployYAML(context.Background(), []byte(testPackage)); err == nil {
		t.Fatal("deploy succeeded with unmatchable template")
	}
	if len(p.Classes()) != 0 {
		t.Fatalf("partial deploy: %v", p.Classes())
	}
}

func TestCreateObjectAndInvoke(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, err := p.CreateObject(ctx, "Image", "")
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty generated id")
	}
	out, err := p.Invoke(ctx, id, "resize", nil, map[string]string{"w": "100"})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `"resized"` {
		t.Fatalf("output = %s", out)
	}
	meta, err := p.GetState(ctx, id, "meta")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(meta), `"width":"100"`) {
		t.Fatalf("meta = %s", meta)
	}
}

func TestCreateObjectUnknownClass(t *testing.T) {
	p := newPlatform(t, nil)
	if _, err := p.CreateObject(context.Background(), "Ghost", ""); !errors.Is(err, ErrClassNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateObjectDuplicateID(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	if _, err := p.CreateObject(ctx, "Image", "fixed"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(ctx, "Image", "fixed"); !errors.Is(err, ErrObjectExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestPolymorphicInvocation(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, err := p.CreateObject(ctx, "LabelledImage", "")
	if err != nil {
		t.Fatal(err)
	}
	// Inherited method works on the subclass object.
	if _, err := p.Invoke(ctx, id, "resize", nil, map[string]string{"w": "1"}); err != nil {
		t.Fatalf("inherited method: %v", err)
	}
	// Subclass-only method works too.
	out, err := p.Invoke(ctx, id, "detectObject", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `["cat"]` {
		t.Fatalf("output = %s", out)
	}
}

func TestListObjectsPolymorphic(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	p.CreateObject(ctx, "Image", "img1")
	p.CreateObject(ctx, "LabelledImage", "lbl1")
	// Listing the parent class includes subclass instances.
	got := p.ListObjects("Image")
	if strings.Join(got, ",") != "img1,lbl1" {
		t.Fatalf("ListObjects(Image) = %v", got)
	}
	if got := p.ListObjects("LabelledImage"); strings.Join(got, ",") != "lbl1" {
		t.Fatalf("ListObjects(LabelledImage) = %v", got)
	}
	if got := p.ListObjects(""); len(got) != 2 {
		t.Fatalf("ListObjects() = %v", got)
	}
}

func TestInvokeUnknownMember(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, _ := p.CreateObject(ctx, "Image", "")
	if _, err := p.Invoke(ctx, id, "ghost", nil, nil); !errors.Is(err, ErrMemberNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeUnknownObject(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	if _, err := p.Invoke(context.Background(), "nope", "resize", nil, nil); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteObject(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, _ := p.CreateObject(ctx, "Image", "victim")
	if err := p.DeleteObject(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ObjectClass(id); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("object survives delete: %v", err)
	}
	if _, err := p.Invoke(ctx, id, "resize", nil, nil); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("invoke after delete = %v", err)
	}
}

func TestPresignedFileUploadDownload(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, _ := p.CreateObject(ctx, "Image", "")

	putURL, err := p.PresignFile(id, "image", http.MethodPut)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, putURL, strings.NewReader("fake-png"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}

	getURL, err := p.PresignFile(id, "image", http.MethodGet)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(getURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "fake-png" {
		t.Fatalf("downloaded %q", body)
	}
}

func TestObjectClassLookup(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, _ := p.CreateObject(ctx, "LabelledImage", "")
	class, err := p.ObjectClass(id)
	if err != nil {
		t.Fatal(err)
	}
	if class != "LabelledImage" {
		t.Fatalf("class = %q", class)
	}
}

func TestStats(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, _ := p.CreateObject(ctx, "Image", "")
	p.Invoke(ctx, id, "resize", nil, map[string]string{"w": "9"})
	s := p.Stats()
	if s.Workers != 2 || s.Objects != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Invocations != 1 {
		t.Fatalf("invocations = %d", s.Invocations)
	}
	if len(s.Classes) != 2 {
		t.Fatalf("classes = %v", s.Classes)
	}
}

func TestRedeployReplacesRuntime(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, _ := p.CreateObject(ctx, "Image", "keepme")
	p.Invoke(ctx, id, "resize", nil, map[string]string{"w": "7"})
	p.Flush(ctx)
	// Redeploy the same package.
	if _, err := p.DeployYAML(ctx, []byte(testPackage)); err != nil {
		t.Fatal(err)
	}
	// Object state survives because it lives in the shared backing
	// store (read-through on the fresh runtime).
	meta, err := p.GetState(ctx, id, "meta")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(meta), `"width":"7"`) {
		t.Fatalf("state lost on redeploy: %s", meta)
	}
}

func TestCloseRejectsOperations(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, _ := p.CreateObject(ctx, "Image", "")
	p.Close()
	if _, err := p.Invoke(ctx, id, "resize", nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("invoke after close = %v", err)
	}
	if _, err := p.DeployYAML(ctx, []byte(testPackage)); !errors.Is(err, ErrClosed) {
		t.Fatalf("deploy after close = %v", err)
	}
	if _, err := p.CreateObject(ctx, "Image", "x"); err == nil {
		t.Fatal("create after close succeeded")
	}
	p.Close() // idempotent
}

func TestExtendDeployedClassInSecondPackage(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	ext := `classes:
  - name: ThumbImage
    parent: Image
`
	if _, err := p.DeployYAML(ctx, []byte(ext)); err != nil {
		t.Fatal(err)
	}
	id, err := p.CreateObject(ctx, "ThumbImage", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(ctx, id, "resize", nil, map[string]string{"w": "3"}); err != nil {
		t.Fatalf("inherited method via cross-package inheritance: %v", err)
	}
}

func TestDataflowThroughPlatform(t *testing.T) {
	p := newPlatform(t, nil)
	flowPkg := `classes:
  - name: Pipeline
    keySpecs:
      - name: log
        default: []
    functions:
      - name: stepA
        image: img/step
      - name: stepB
        image: img/step
    dataflows:
      - name: run
        steps:
          - name: a
            function: stepA
          - name: b
            function: stepB
            input: steps.a.output
`
	p.Images().Register("img/step", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var s string
		if len(task.Payload) > 0 {
			json.Unmarshal(task.Payload, &s)
		}
		out, _ := json.Marshal(s + ">" + task.Function)
		return invoker.Result{Output: out}, nil
	}))
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(flowPkg)); err != nil {
		t.Fatal(err)
	}
	id, _ := p.CreateObject(ctx, "Pipeline", "")
	out, err := p.Invoke(ctx, id, "run", json.RawMessage(`"in"`), nil)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	json.Unmarshal(out, &s)
	if s != "in>stepA>stepB" {
		t.Fatalf("dataflow output = %q", s)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	ids := make([]string, 8)
	for i := range ids {
		id, err := p.CreateObject(ctx, "Image", fmt.Sprintf("obj-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	errCh := make(chan error, len(ids)*10)
	for _, id := range ids {
		id := id
		go func() {
			for j := 0; j < 10; j++ {
				_, err := p.Invoke(ctx, id, "changeFormat", nil, nil)
				errCh <- err
			}
		}()
	}
	for i := 0; i < len(ids)*10; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// --- Asynchronous invocation ----------------------------------------

func TestInvokeAsyncLifecycle(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, err := p.CreateObject(ctx, "Image", "")
	if err != nil {
		t.Fatal(err)
	}
	invID, err := p.InvokeAsync(ctx, id, "resize", nil, map[string]string{"w": "120"})
	if err != nil {
		t.Fatal(err)
	}
	if invID == "" {
		t.Fatal("empty invocation id")
	}
	rec, err := p.WaitInvocation(ctx, invID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != asyncq.StatusCompleted {
		t.Fatalf("status = %s (error %q)", rec.Status, rec.Error)
	}
	if string(rec.Result) != `"resized"` {
		t.Fatalf("result = %s", rec.Result)
	}
	// The handler's state write landed like a synchronous call.
	meta, err := p.GetState(ctx, id, "meta")
	if err != nil || !strings.Contains(string(meta), `"120"`) {
		t.Fatalf("meta = %s, %v", meta, err)
	}
	// Polling by ID returns the same terminal record.
	again, err := p.Invocation(ctx, invID)
	if err != nil || again.Status != asyncq.StatusCompleted {
		t.Fatalf("re-poll = %+v, %v", again, err)
	}
	if s := p.Stats(); s.Async.Completed != 1 || s.Async.Enqueued != 1 {
		t.Fatalf("async stats = %+v", s.Async)
	}
}

func TestInvokeAsyncValidatesTarget(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, err := p.CreateObject(ctx, "Image", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.InvokeAsync(ctx, "ghost", "resize", nil, nil); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("unknown object err = %v", err)
	}
	if _, err := p.InvokeAsync(ctx, id, "nope", nil, nil); !errors.Is(err, ErrMemberNotFound) {
		t.Fatalf("unknown member err = %v", err)
	}
	if _, err := p.Invocation(ctx, "inv-ghost"); !errors.Is(err, ErrInvocationNotFound) {
		t.Fatalf("unknown invocation err = %v", err)
	}
}

func TestInvokeAsyncDataflowMember(t *testing.T) {
	p := newPlatform(t, nil)
	pkg := `classes:
  - name: Chain
    functions:
      - name: step
        image: img/change-format
    dataflows:
      - name: run
        steps:
          - name: a
            function: step
          - name: b
            function: step
            after: [a]
`
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	id, err := p.CreateObject(ctx, "Chain", "")
	if err != nil {
		t.Fatal(err)
	}
	invID, err := p.InvokeAsync(ctx, id, "run", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.WaitInvocation(ctx, invID)
	if err != nil || rec.Status != asyncq.StatusCompleted {
		t.Fatalf("dataflow record = %+v, %v", rec, err)
	}
}

func TestInvokeAsyncBatchMixedValidity(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, err := p.CreateObject(ctx, "Image", "")
	if err != nil {
		t.Fatal(err)
	}
	results := p.InvokeAsyncBatch(ctx, []asyncq.Request{
		{Object: id, Member: "changeFormat"},
		{Object: "ghost", Member: "resize"},
		{Object: id, Member: "nope"},
		{Object: id, Member: "resize", Args: map[string]string{"w": "9"}},
	})
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("valid entries rejected: %v %v", results[0].Err, results[3].Err)
	}
	if !errors.Is(results[1].Err, ErrObjectNotFound) || !errors.Is(results[2].Err, ErrMemberNotFound) {
		t.Fatalf("invalid entries = %v %v", results[1].Err, results[2].Err)
	}
	for _, i := range []int{0, 3} {
		rec, err := p.WaitInvocation(ctx, results[i].ID)
		if err != nil || rec.Status != asyncq.StatusCompleted {
			t.Fatalf("entry %d: %+v, %v", i, rec, err)
		}
	}
}

func TestCloseDrainsAsyncQueue(t *testing.T) {
	p := newPlatform(t, nil)
	deployTest(t, p)
	ctx := context.Background()
	id, err := p.CreateObject(ctx, "Image", "")
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := p.InvokeAsync(ctx, id, "changeFormat", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	p.Close() // drains the queue before tearing runtimes down
	s := p.AsyncQueue().Stats()
	if s.Completed != n || s.Failed != 0 || s.Depth != 0 {
		t.Fatalf("post-close async stats = %+v", s)
	}
	if _, err := p.InvokeAsync(ctx, id, "changeFormat", nil, nil); err == nil {
		t.Fatal("InvokeAsync after Close succeeded")
	}
}

// TestInvokeBatchMixedMembers drives the coalesced-group dispatch
// (invokeGroup) with a function, a dataflow, and an unknown member in
// one group: the functions share the group's window, the dataflow runs
// on its own, and the unknown member fails only its own entry
// (TestMixedGroupCommitsItsFunctionsOnce counts the commits).
func TestInvokeBatchMixedMembers(t *testing.T) {
	p := newPlatform(t, nil)
	pkg := `classes:
  - name: Mixed
    keySpecs:
      - name: meta
        default: {}
    functions:
      - name: resize
        image: img/resize
      - name: convert
        image: img/change-format
    dataflows:
      - name: flow
        steps:
          - name: s0
            function: convert
`
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(pkg)); err != nil {
		t.Fatal(err)
	}
	id, err := p.CreateObject(ctx, "Mixed", "mx")
	if err != nil {
		t.Fatal(err)
	}
	results := drainGroup(ctx, p, id, []call.Call{
		{Member: "resize", Args: map[string]string{"w": "64"}},
		{Member: "flow"},
		{Member: "nosuch"},
		{Member: "convert"},
	})
	if results[0].Err != nil || string(results[0].Output) != `"resized"` {
		t.Fatalf("function call = %+v", results[0])
	}
	if results[1].Err != nil || string(results[1].Output) != `"converted"` {
		t.Fatalf("dataflow fallback = %+v", results[1])
	}
	if !errors.Is(results[2].Err, ErrMemberNotFound) {
		t.Fatalf("unknown member err = %v, want ErrMemberNotFound", results[2].Err)
	}
	if results[3].Err != nil || string(results[3].Output) != `"converted"` {
		t.Fatalf("second function call = %+v", results[3])
	}
	// The resize delta landed through the merged commit.
	meta, err := p.GetState(ctx, id, "meta")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(meta), `"width":"64"`) {
		t.Fatalf("meta = %s, want width recorded", meta)
	}
	// An unknown object fails the whole batch.
	if res := drainGroup(ctx, p, "ghost", []call.Call{{Member: "resize"}}); !errors.Is(res[0].Err, ErrObjectNotFound) {
		t.Fatalf("unknown object err = %v, want ErrObjectNotFound", res[0].Err)
	}
}
