package faas

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// TestBubbles runs this package's bubble tests; see internal/simtest.
func TestBubbles(t *testing.T) { simtest.Bubbles(t) }

// testRig bundles a cluster, registry and engine for tests.
type testRig struct {
	cluster  *cluster.Cluster
	registry *invoker.Registry
	engine   *Engine
}

func newRig(t *testing.T, mode Mode, nodes int, opts func(*Config)) *testRig {
	t.Helper()
	c := cluster.New(cluster.Config{OpsPerMilliCPU: 1000})
	for i := 0; i < nodes; i++ {
		if _, err := c.AddNode(fmt.Sprintf("vm-%02d", i), cluster.Resources{MilliCPU: 4000, MemoryMB: 8192}); err != nil {
			t.Fatal(err)
		}
	}
	reg := invoker.NewRegistry()
	reg.Register("img/echo", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.Payload}, nil
	}))
	cfg := Config{
		Mode:      mode,
		Cluster:   c,
		Transport: invoker.NewLocal(reg),
		Settings: Settings{
			ScaleInterval: 10 * time.Millisecond,
			IdleTimeout:   50 * time.Millisecond,
			ColdStart:     20 * time.Millisecond,
		},
	}
	if opts != nil {
		opts(&cfg)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return &testRig{cluster: c, registry: reg, engine: e}
}

func echoSpec(name string) FunctionSpec {
	return FunctionSpec{Name: name, Image: "img/echo", Concurrency: 8, MaxScale: 8}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	c := cluster.New(cluster.Config{})
	if _, err := NewEngine(Config{Mode: ModeKnative, Cluster: c}); err == nil {
		t.Fatal("missing transport accepted")
	}
	if _, err := NewEngine(Config{Mode: Mode(99), Cluster: c, Transport: invoker.NewLocal(invoker.NewRegistry())}); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestDeployValidation(t *testing.T) {
	rig := newRig(t, ModeDeployment, 1, nil)
	if err := rig.engine.Deploy(FunctionSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if err := rig.engine.Deploy(echoSpec("f")); err != nil {
		t.Fatal(err)
	}
	if err := rig.engine.Deploy(echoSpec("f")); !errors.Is(err, ErrFunctionExists) {
		t.Fatalf("duplicate deploy = %v", err)
	}
}

func TestDeploymentModeStartsWarm(t *testing.T) {
	rig := newRig(t, ModeDeployment, 1, nil)
	spec := echoSpec("f")
	spec.InitialScale = 2
	if err := rig.engine.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	n, err := rig.engine.Replicas("f")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Replicas = %d, want 2", n)
	}
	// Warm pods serve immediately (no cold-start wait).
	start := time.Now()
	res, err := rig.engine.Invoke(context.Background(), "f", invoker.Task{Payload: json.RawMessage(`"hi"`)})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != `"hi"` {
		t.Fatalf("output = %s", res.Output)
	}
	if time.Since(start) > 15*time.Millisecond {
		t.Fatalf("warm invoke took %v; cold start charged incorrectly", time.Since(start))
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	rig := newRig(t, ModeDeployment, 1, nil)
	if _, err := rig.engine.Invoke(context.Background(), "ghost", invoker.Task{}); !errors.Is(err, ErrFunctionNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestKnativeScaleFromZero(t *testing.T) {
	rig := newRig(t, ModeKnative, 1, nil)
	spec := echoSpec("f") // MinScale 0, InitialScale 0
	if err := rig.engine.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	if n, _ := rig.engine.Replicas("f"); n != 0 {
		t.Fatalf("initial replicas = %d, want 0", n)
	}
	start := time.Now()
	if _, err := rig.engine.Invoke(context.Background(), "f", invoker.Task{}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 15*time.Millisecond {
		t.Fatalf("scale-from-zero invoke took %v; cold start not charged", elapsed)
	}
	if n, _ := rig.engine.Replicas("f"); n < 1 {
		t.Fatalf("replicas after invoke = %d", n)
	}
	stats := rig.engine.Stats()
	if len(stats) != 1 || stats[0].ColdStarts < 1 {
		t.Fatalf("stats = %+v, want >=1 cold start", stats)
	}
}

func TestMaxScaleRespected(t *testing.T) {
	rig := newRig(t, ModeKnative, 2, func(c *Config) {
		c.IdleTimeout = time.Minute
	})
	spec := FunctionSpec{
		Name: "f", Image: "img/echo",
		Concurrency: 1, MaxScale: 2,
		ServiceTime: 20 * time.Millisecond,
	}
	if err := rig.engine.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = rig.engine.Invoke(ctx, "f", invoker.Task{})
		}()
	}
	wg.Wait()
	if n, _ := rig.engine.Replicas("f"); n > 2 {
		t.Fatalf("replicas %d exceeded MaxScale 2", n)
	}
}

func TestConcurrencyLimitEnforced(t *testing.T) {
	rig := newRig(t, ModeDeployment, 1, nil)
	spec := FunctionSpec{
		Name: "f", Image: "img/echo",
		Concurrency: 1, InitialScale: 1, MaxScale: 1,
		ServiceTime: 40 * time.Millisecond,
	}
	if err := rig.engine.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	// Two sequentialized invocations through one slot must take at
	// least 2x the service time.
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rig.engine.Invoke(ctx, "f", invoker.Task{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 75*time.Millisecond {
		t.Fatalf("2 invocations with concurrency 1 took %v, want >= ~80ms", elapsed)
	}
}

func TestRemoveFunction(t *testing.T) {
	rig := newRig(t, ModeDeployment, 1, nil)
	if err := rig.engine.Deploy(echoSpec("f")); err != nil {
		t.Fatal(err)
	}
	if err := rig.engine.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.engine.Invoke(context.Background(), "f", invoker.Task{}); !errors.Is(err, ErrFunctionNotFound) {
		t.Fatalf("invoke after remove = %v", err)
	}
	if err := rig.engine.Remove("f"); !errors.Is(err, ErrFunctionNotFound) {
		t.Fatalf("double remove = %v", err)
	}
	// Cluster pods released.
	for _, n := range rig.cluster.Nodes() {
		if got := n.PodCount(); got != 0 {
			t.Fatalf("%d pods left on %s after remove", got, n.Name())
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	rig := newRig(t, ModeKnative, 1, nil)
	rig.engine.Close()
	rig.engine.Close()
}

func TestInvokeAfterClose(t *testing.T) {
	rig := newRig(t, ModeDeployment, 1, nil)
	rig.engine.Deploy(echoSpec("f"))
	rig.engine.Close()
	if _, err := rig.engine.Invoke(context.Background(), "f", invoker.Task{}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestThroughputBoundedByNodeCompute(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// One node with 200 ops/sec of compute; 100 invocations of cost 1
	// must take roughly >= 350ms (bucket burst absorbs some).
	c := cluster.New(cluster.Config{OpsPerMilliCPU: 0.05}) // 4000 mCPU * 0.05 = 200 ops/s
	if _, err := c.AddNode("vm", cluster.Resources{MilliCPU: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	reg := invoker.NewRegistry()
	reg.Register("img/echo", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{}, nil
	}))
	e, err := NewEngine(Config{Mode: ModeDeployment, Cluster: c, Transport: invoker.NewLocal(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Deploy(FunctionSpec{Name: "f", Image: "img/echo", Concurrency: 64, InitialScale: 1}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Invoke(ctx, "f", invoker.Task{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 100 ops at 200/s with ~20 burst → ≥ 350ms.
	if elapsed < 300*time.Millisecond {
		t.Fatalf("100 ops finished in %v; node compute cap not enforced", elapsed)
	}
}

func TestModeString(t *testing.T) {
	if ModeKnative.String() != "knative" || ModeDeployment.String() != "deployment" {
		t.Fatal("mode strings wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Fatal("unknown mode string wrong")
	}
}
