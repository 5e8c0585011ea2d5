// Package optimizer implements requirement-driven optimization (paper
// §III-B): "Oparaca connects the runtime to the monitoring system and
// reacts to changes in workload or performance by adjusting the
// allocated resources or system configuration."
//
// The optimizer periodically compares each class runtime's measured
// throughput and latency against the class's declared QoS and adjusts
// the per-function replica floor: scale up on violation, step back
// down after a sustained period without violations. Every decision is
// recorded so operators (and tests) can audit the control loop.
package optimizer

import (
	"fmt"
	"sync"
	"time"

	"github.com/hpcclab/oparaca-go/internal/runtime"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// ActionKind classifies an optimizer decision.
type ActionKind int

const (
	// ActionScaleUp raised a function's replica floor.
	ActionScaleUp ActionKind = iota + 1
	// ActionScaleDown lowered a function's replica floor.
	ActionScaleDown
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case ActionScaleUp:
		return "scale-up"
	case ActionScaleDown:
		return "scale-down"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action records one optimizer decision.
type Action struct {
	Time     time.Time  `json:"time"`
	Class    string     `json:"class"`
	Function string     `json:"function"`
	Kind     ActionKind `json:"kind"`
	Reason   string     `json:"reason"`
	Replicas int        `json:"replicas"`
}

// Config tunes the optimizer.
type Config struct {
	// Interval is the evaluation period. Defaults to 500ms.
	Interval time.Duration
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	return c
}

const (
	// cooldownTicks is how many violation-free evaluations must pass
	// before scaling back down.
	cooldownTicks = 10
	// maxActions bounds the retained action log.
	maxActions = 256
)

// target is one managed runtime plus its control state.
type target struct {
	rt        *runtime.ClassRuntime
	floor     int // current replica floor set by the optimizer
	calmTicks int // consecutive violation-free evaluations
}

// Optimizer drives the QoS control loop over a set of class runtimes.
type Optimizer struct {
	cfg Config

	mu      sync.Mutex
	targets map[string]*target
	actions []Action
	running bool

	stop chan struct{}
	done chan struct{}
}

// New creates an optimizer. Call Manage to add runtimes and Start to
// begin the loop.
func New(cfg Config) *Optimizer {
	return &Optimizer{
		cfg:     cfg.withDefaults(),
		targets: make(map[string]*target),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Manage adds a class runtime to the control loop. Runtimes whose
// classes declare no QoS are accepted but never acted on.
func (o *Optimizer) Manage(rt *runtime.ClassRuntime) {
	o.mu.Lock()
	defer o.mu.Unlock()
	// The starting floor reflects current provisioning so the first
	// scale-up actually adds capacity.
	floor := rt.Template().MinScale
	if is := rt.Template().InitialScale; is > floor {
		floor = is
	}
	o.targets[rt.Class().Name] = &target{rt: rt, floor: floor}
}

// Unmanage removes a class from the loop.
func (o *Optimizer) Unmanage(className string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.targets, className)
}

// Start launches the control loop. It is a no-op when already running.
func (o *Optimizer) Start() {
	o.mu.Lock()
	if o.running {
		o.mu.Unlock()
		return
	}
	o.running = true
	o.mu.Unlock()
	go o.loop()
}

// Stop halts the loop and waits for it to exit.
func (o *Optimizer) Stop() {
	o.mu.Lock()
	if !o.running {
		o.mu.Unlock()
		return
	}
	o.running = false
	o.mu.Unlock()
	close(o.stop)
	<-o.done
}

func (o *Optimizer) loop() {
	defer close(o.done)
	for {
		select {
		case <-o.stop:
			return
		case <-o.cfg.Clock.After(o.cfg.Interval):
		}
		o.Tick()
	}
}

// Tick runs one synchronous evaluation over all managed runtimes. It
// is exported so tests and benches can drive the optimizer
// deterministically without the background loop.
func (o *Optimizer) Tick() {
	o.mu.Lock()
	targets := make([]*target, 0, len(o.targets))
	for _, t := range o.targets {
		targets = append(targets, t)
	}
	o.mu.Unlock()
	for _, t := range targets {
		o.evaluate(t)
	}
}

// evaluate applies the QoS policy to one runtime.
func (o *Optimizer) evaluate(t *target) {
	class := t.rt.Class()
	q := class.QoS
	if q.IsZero() {
		return
	}
	measured := t.rt.ThroughputRPS()
	p95 := t.rt.Metrics().Histogram("invoke.latency").Quantile(0.95)

	var violation string
	engineStats := t.rt.Engine().Stats()
	var inflight int64
	for _, s := range engineStats {
		inflight += s.Inflight
	}
	switch {
	case q.ThroughputRPS > 0 && inflight > 0 && measured < q.ThroughputRPS*0.95:
		// Demand exists but throughput is short of the requirement.
		violation = fmt.Sprintf("throughput %.0f rps < required %.0f rps", measured, q.ThroughputRPS)
	case q.LatencyMs > 0 && p95 > 0 && p95 > time.Duration(q.LatencyMs*float64(time.Millisecond)):
		violation = fmt.Sprintf("p95 %s > target %.0fms", p95, q.LatencyMs)
	}

	if violation != "" {
		t.calmTicks = 0
		t.floor++
		o.applyFloor(t, ActionScaleUp, violation)
		return
	}
	t.calmTicks++
	min := t.rt.Template().MinScale
	if t.calmTicks >= cooldownTicks && t.floor > min {
		t.calmTicks = 0
		t.floor--
		o.applyFloor(t, ActionScaleDown, "sustained QoS compliance")
	}
}

// applyFloor pushes the new floor to every function of the class and
// logs the action.
func (o *Optimizer) applyFloor(t *target, kind ActionKind, reason string) {
	class := t.rt.Class()
	engine := t.rt.Engine()
	for _, fn := range class.Functions {
		name := class.Name + "." + fn.Name
		if err := engine.SetMinScale(name, t.floor); err != nil {
			continue
		}
		o.record(Action{
			Time:     o.cfg.Clock.Now(),
			Class:    class.Name,
			Function: fn.Name,
			Kind:     kind,
			Reason:   reason,
			Replicas: t.floor,
		})
	}
}

// record appends to the bounded action log.
func (o *Optimizer) record(a Action) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.actions = append(o.actions, a)
	if len(o.actions) > maxActions {
		o.actions = o.actions[len(o.actions)-maxActions:]
	}
}

// Actions returns a copy of the decision log, oldest first.
func (o *Optimizer) Actions() []Action {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Action(nil), o.actions...)
}
