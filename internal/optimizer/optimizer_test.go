package optimizer

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/runtime"
)

// sleeper is a handler that takes d to serve.
func sleeper(d time.Duration) invoker.Handler {
	return invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		if d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return invoker.Result{}, ctx.Err()
			}
		}
		return invoker.Result{Output: json.RawMessage(`"done"`)}, nil
	})
}

// newTestRuntime builds a Counter-class runtime with the given QoS whose
// one function is work.
func newTestRuntime(t *testing.T, qos model.QoS, work invoker.Handler) *runtime.ClassRuntime {
	t.Helper()
	yaml := `classes:
  - name: Svc
    keySpecs:
      - name: value
        kind: number
        default: 0
    functions:
      - name: work
        image: img/work
`
	pkg, err := model.ParseYAML([]byte(yaml))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := model.Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	class := classes["Svc"]
	class.QoS = qos

	c := cluster.New(cluster.Config{OpsPerMilliCPU: 1000})
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(fmt.Sprintf("vm-%d", i), cluster.Resources{MilliCPU: 8000, MemoryMB: 16384}); err != nil {
			t.Fatal(err)
		}
	}
	reg := invoker.NewRegistry()
	reg.Register("img/work", work)
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	infra := runtime.Infra{
		Cluster:       c,
		Transport:     invoker.NewLocal(reg),
		Backing:       db,
		ScaleInterval: 10 * time.Millisecond,
		IdleTimeout:   time.Minute,
		ColdStart:     time.Millisecond,
	}
	tmpl := runtime.Template{
		Name: "test", EngineMode: faas.ModeDeployment, TableMode: memtable.ModeWriteBehind,
		FlushInterval: 10 * time.Millisecond, DefaultConcurrency: 4, InitialScale: 1, MaxScale: 16,
	}
	rt, err := runtime.New(infra, class, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestNoQoSNoActions(t *testing.T) {
	rt := newTestRuntime(t, model.QoS{}, sleeper(0))
	o := New(Config{})
	o.Manage(rt)
	for i := 0; i < 5; i++ {
		o.Tick()
	}
	if got := len(o.Actions()); got != 0 {
		t.Fatalf("%d actions on QoS-less class", got)
	}
}

func TestLatencyViolationScalesUp(t *testing.T) {
	// Target 1ms p95 but the handler takes ~20ms: guaranteed violation.
	rt := newTestRuntime(t, model.QoS{LatencyMs: 1}, sleeper(20*time.Millisecond))
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := rt.Invoke(ctx, "o", "work", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	o := New(Config{})
	o.Manage(rt)
	before, _ := rt.Engine().Replicas("Svc.work")
	o.Tick()
	acts := o.Actions()
	if len(acts) == 0 {
		t.Fatal("no action on latency violation")
	}
	if acts[0].Kind != ActionScaleUp {
		t.Fatalf("action = %v", acts[0].Kind)
	}
	after, _ := rt.Engine().Replicas("Svc.work")
	if after <= before {
		t.Fatalf("replicas %d -> %d; scale-up had no effect", before, after)
	}
}

func TestRepeatedViolationsKeepRaisingFloor(t *testing.T) {
	rt := newTestRuntime(t, model.QoS{LatencyMs: 1}, sleeper(15*time.Millisecond))
	ctx := context.Background()
	o := New(Config{})
	o.Manage(rt)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			rt.Invoke(ctx, "o", "work", nil, nil)
		}
		o.Tick()
	}
	if floor := floorOf(o, "Svc"); floor < 3 {
		t.Fatalf("floor = %d after 3 violating rounds", floor)
	}
}

// TestCooldownScalesBackDown: a floor raised by a violation steps back
// down after cooldownTicks violation-free evaluations, and not before.
func TestCooldownScalesBackDown(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	rt := newTestRuntime(t, model.QoS{ThroughputRPS: 1e6}, invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		started <- struct{}{}
		<-release
		return invoker.Result{}, nil
	}))
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	t.Cleanup(free) // before rt.Close, should the test stop early
	o := New(Config{})
	o.Manage(rt)
	floor := floorOf(o, "Svc")
	// One invocation in flight and far short of the required rate.
	done := make(chan error, 1)
	go func() {
		_, err := rt.Invoke(context.Background(), "o", "work", nil, nil)
		done <- err
	}()
	<-started
	o.Tick()
	if got := floorOf(o, "Svc"); got != floor+1 {
		t.Fatalf("floor = %d after a violation, want %d", got, floor+1)
	}
	free()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Idle: no demand, so no violation.
	for i := 1; i < cooldownTicks; i++ {
		o.Tick()
	}
	if got := floorOf(o, "Svc"); got != floor+1 {
		t.Fatalf("floor = %d after %d calm ticks, want %d", got, cooldownTicks-1, floor+1)
	}
	o.Tick()
	if got := floorOf(o, "Svc"); got != floor {
		t.Fatalf("floor = %d after %d calm ticks, want %d", got, cooldownTicks, floor)
	}
	if acts := o.Actions(); len(acts) != 2 || acts[1].Kind != ActionScaleDown {
		t.Fatalf("actions = %+v, want a scale-up then a scale-down", acts)
	}
}

func TestThroughputViolationRequiresDemand(t *testing.T) {
	// Throughput QoS unmet but zero in-flight demand: no action
	// (nothing to scale for).
	rt := newTestRuntime(t, model.QoS{ThroughputRPS: 1e6}, sleeper(0))
	o := New(Config{})
	o.Manage(rt)
	o.Tick()
	if len(o.Actions()) != 0 {
		t.Fatalf("optimizer acted without demand: %+v", o.Actions())
	}
}

func TestThroughputCooldownPath(t *testing.T) {
	// With a trivially satisfiable requirement and no violations, the
	// floor never rises and never drops below the template minimum.
	rt := newTestRuntime(t, model.QoS{ThroughputRPS: 0.001}, sleeper(0))
	ctx := context.Background()
	rt.Invoke(ctx, "o", "work", nil, nil)
	o := New(Config{})
	o.Manage(rt)
	for i := 0; i < 2*cooldownTicks; i++ {
		o.Tick()
	}
	if floor := floorOf(o, "Svc"); floor != rt.Template().MinScale {
		t.Fatalf("floor = %d, want template min %d", floor, rt.Template().MinScale)
	}
}

func TestUnmanageStopsActions(t *testing.T) {
	rt := newTestRuntime(t, model.QoS{LatencyMs: 1}, sleeper(15*time.Millisecond))
	ctx := context.Background()
	rt.Invoke(ctx, "o", "work", nil, nil)
	o := New(Config{})
	o.Manage(rt)
	o.Unmanage("Svc")
	o.Tick()
	if len(o.Actions()) != 0 {
		t.Fatal("unmanaged runtime still acted on")
	}
	if floorOf(o, "Svc") != 0 {
		t.Fatal("floor for unmanaged class non-zero")
	}
}

func TestStartStopLifecycle(t *testing.T) {
	rt := newTestRuntime(t, model.QoS{LatencyMs: 1}, sleeper(10*time.Millisecond))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		rt.Invoke(ctx, "o", "work", nil, nil)
	}
	o := New(Config{Interval: 5 * time.Millisecond})
	o.Manage(rt)
	o.Start()
	o.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for len(o.Actions()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never acted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	o.Stop()
	o.Stop() // idempotent
}

func TestActionLogBounded(t *testing.T) {
	o := New(Config{})
	for i := 0; i < maxActions+3; i++ {
		o.record(Action{Replicas: i})
	}
	acts := o.Actions()
	if len(acts) != maxActions || acts[0].Replicas != 3 {
		t.Fatalf("action log holds %d, oldest %d; want the newest %d", len(acts), acts[0].Replicas, maxActions)
	}
}

func TestActionKindString(t *testing.T) {
	if ActionScaleUp.String() != "scale-up" || ActionScaleDown.String() != "scale-down" {
		t.Fatal("kind strings wrong")
	}
	if ActionKind(9).String() != "ActionKind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}

// floorOf returns o's current replica floor for a class (0 when
// unmanaged).
func floorOf(o *Optimizer, className string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if t, ok := o.targets[className]; ok {
		return t.floor
	}
	return 0
}
