// Package faas implements the function-execution engine substrate.
//
// Two engine modes mirror the systems in the paper's evaluation (§V):
//
//   - ModeKnative models Knative serving: a request-driven autoscaler
//     (desired replicas follow in-flight concurrency), scale-to-zero
//     after an idle window, cold-start delay before a new pod accepts
//     traffic, and an activator/queue-proxy hop charged to every
//     request.
//   - ModeDeployment models a plain Kubernetes Deployment (the
//     `oprc-bypass` configuration): a fixed replica set with no
//     activator hop and no scale-to-zero.
//
// Pods are placed on cluster nodes; each invocation draws compute
// tokens from its pod's node, which makes aggregate throughput scale
// with worker-VM count exactly as in the paper's Figure 3 experiment.
package faas

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Sentinel errors.
var (
	// ErrFunctionNotFound is returned for unknown function names.
	ErrFunctionNotFound = errors.New("faas: function not found")
	// ErrFunctionExists is returned when deploying a duplicate name.
	ErrFunctionExists = errors.New("faas: function already deployed")
	// ErrEngineClosed is returned after Close.
	ErrEngineClosed = errors.New("faas: engine closed")
)

// Mode selects the engine's execution policy.
type Mode int

const (
	// ModeKnative autoscales on demand with scale-to-zero.
	ModeKnative Mode = iota + 1
	// ModeDeployment keeps a fixed replica set (bypass mode).
	ModeDeployment
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeKnative:
		return "knative"
	case ModeDeployment:
		return "deployment"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// FunctionSpec describes a deployable function.
type FunctionSpec struct {
	// Name is the unique function name (class.method in Oparaca).
	Name string
	// Image is the container image resolved through the invoker
	// registry (e.g. "img/resize").
	Image string
	// Concurrency is the per-pod concurrent request limit
	// (Knative's containerConcurrency). Defaults to 16.
	Concurrency int
	// ServiceTime is the simulated execution duration charged per
	// invocation in addition to running the handler.
	ServiceTime time.Duration
	// Cost is the node-compute tokens consumed per invocation.
	// Defaults to 1.
	Cost float64
	// MinScale / MaxScale bound the autoscaler. MinScale 0 enables
	// scale-to-zero (Knative mode only). MaxScale defaults to 100.
	MinScale int
	MaxScale int
	// InitialScale is the replica count right after Deploy. Knative
	// mode defaults to MinScale; Deployment mode defaults to 1.
	InitialScale int
	// Resources is the per-pod resource request. Defaults to
	// 250 mCPU / 128 MB.
	Resources cluster.Resources
	// Region, when non-empty, restricts pod placement to nodes in
	// that region (jurisdiction constraints).
	Region string
}

func (s FunctionSpec) withDefaults(mode Mode) FunctionSpec {
	if s.Concurrency <= 0 {
		s.Concurrency = 16
	}
	if s.Cost <= 0 {
		s.Cost = 1
	}
	if s.MaxScale <= 0 {
		s.MaxScale = 100
	}
	if s.MinScale < 0 {
		s.MinScale = 0
	}
	if s.MinScale > s.MaxScale {
		s.MinScale = s.MaxScale
	}
	if s.InitialScale == 0 {
		if mode == ModeDeployment {
			s.InitialScale = 1
		} else {
			s.InitialScale = s.MinScale
		}
	}
	if s.InitialScale > s.MaxScale {
		s.InitialScale = s.MaxScale
	}
	if s.Resources.MilliCPU <= 0 {
		s.Resources.MilliCPU = 250
	}
	if s.Resources.MemoryMB <= 0 {
		s.Resources.MemoryMB = 128
	}
	return s
}

// Config configures an Engine.
type Config struct {
	// Mode selects the execution policy; required.
	Mode Mode
	// Cluster hosts the function pods; required.
	Cluster *cluster.Cluster
	// Transport executes tasks against function code; required.
	Transport invoker.Transport
	// ScaleInterval is the autoscaler evaluation period. Defaults to
	// 100ms.
	ScaleInterval time.Duration
	// IdleTimeout is how long a function must be idle before
	// scale-to-zero. Defaults to 30s.
	IdleTimeout time.Duration
	// ColdStart is the delay before a new pod serves traffic.
	// Defaults to 100ms.
	ColdStart time.Duration
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.ScaleInterval <= 0 {
		c.ScaleInterval = 100 * time.Millisecond
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.ColdStart <= 0 {
		c.ColdStart = 100 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	return c
}

// targetUtilization is the autoscaler's per-pod in-flight target as a
// share of each function's Concurrency (Knative's target utilization).
const targetUtilization = 0.7

// pod is one live replica and the node its compute is charged to.
type pod struct{ id, node string }

// function is the runtime state of one deployed function.
type function struct {
	spec       FunctionSpec
	deployment *cluster.Deployment
	// slots holds a pod's index in pods once per free unit of its
	// concurrency: 4 bytes a unit in a channel made once, at full scale.
	slots chan uint32

	mu      sync.Mutex
	pods    map[uint32]pod // live pods by index; an evicted pod's slots miss
	nextPod uint32         // the next announced pod's index; none is reused

	inflight   atomic.Int64
	lastActive atomic.Int64 // unix nanos

	invocations atomic.Int64
	coldStarts  atomic.Int64
}

// Engine executes functions on a cluster. It is safe for concurrent
// use.
type Engine struct {
	cfg Config
	// namespace prefixes the engine's cluster deployment names, so that
	// the engines of several class runtimes share a cluster without
	// collisions.
	namespace string

	mu        sync.Mutex
	functions map[string]*function
	closed    bool

	stop chan struct{}
	done chan struct{}
}

// NewEngine creates an engine and, in Knative mode, starts its
// autoscaler.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Mode != ModeKnative && cfg.Mode != ModeDeployment {
		return nil, fmt.Errorf("faas: invalid mode %v", cfg.Mode)
	}
	if cfg.Cluster == nil {
		return nil, errors.New("faas: Config.Cluster is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("faas: Config.Transport is required")
	}
	var ns [4]byte
	_, _ = rand.Read(ns[:]) // never fails: it fills ns or crashes the program
	e := &Engine{
		cfg:       cfg.withDefaults(),
		namespace: hex.EncodeToString(ns[:]),
		functions: make(map[string]*function),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if e.cfg.Mode == ModeKnative {
		go e.autoscaleLoop()
	} else {
		close(e.done)
	}
	return e, nil
}

// Deploy registers a function and scales it to its initial replica
// count.
func (e *Engine) Deploy(spec FunctionSpec) error {
	if spec.Name == "" || spec.Image == "" {
		return errors.New("faas: FunctionSpec needs Name and Image")
	}
	spec = spec.withDefaults(e.cfg.Mode)
	if e.cfg.Mode == ModeDeployment && spec.InitialScale < 1 {
		return fmt.Errorf("faas: deployment mode function %q needs at least 1 replica", spec.Name)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrEngineClosed
	}
	if _, ok := e.functions[spec.Name]; ok {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrFunctionExists, spec.Name)
	}
	dep, err := e.cfg.Cluster.CreateRegionDeployment("fn-"+e.namespace+"-"+spec.Name, spec.Resources, 0, cluster.StrategySpread, spec.Region)
	if err != nil {
		e.mu.Unlock()
		return fmt.Errorf("faas: creating deployment: %w", err)
	}
	fn := &function{
		spec:       spec,
		deployment: dep,
		slots:      make(chan uint32, (spec.MaxScale+1)*spec.Concurrency),
		pods:       make(map[uint32]pod),
	}
	fn.lastActive.Store(e.cfg.Clock.Now().UnixNano())
	e.functions[spec.Name] = fn
	e.mu.Unlock()
	if spec.InitialScale > 0 {
		// Initial replicas are warm: no cold-start delay, matching a
		// completed rollout.
		if err := e.scaleTo(fn, spec.InitialScale, false); err != nil {
			_ = e.Remove(spec.Name)
			return err
		}
	}
	return nil
}

// Remove deletes a function and frees its pods.
func (e *Engine) Remove(name string) error {
	e.mu.Lock()
	fn, ok := e.functions[name]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrFunctionNotFound, name)
	}
	delete(e.functions, name)
	e.mu.Unlock()
	fn.mu.Lock()
	clear(fn.pods)
	fn.mu.Unlock()
	return e.cfg.Cluster.DeleteDeployment(fn.deployment.Name())
}

// lookup returns the named function.
func (e *Engine) lookup(name string) (*function, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	fn, ok := e.functions[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrFunctionNotFound, name)
	}
	return fn, nil
}

// Replicas returns the current replica count of a function.
func (e *Engine) Replicas(name string) (int, error) {
	fn, err := e.lookup(name)
	if err != nil {
		return 0, err
	}
	return fn.deployment.Replicas(), nil
}

// Functions returns deployed function names, sorted.
func (e *Engine) Functions() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.functions))
	for name := range e.functions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Invoke executes one task on the named function, blocking until a
// pod slot is available (triggering scale-from-zero when needed).
func (e *Engine) Invoke(ctx context.Context, name string, task invoker.Task) (invoker.Result, error) {
	fn, err := e.lookup(name)
	if err != nil {
		return invoker.Result{}, err
	}
	fn.inflight.Add(1)
	fn.lastActive.Store(e.cfg.Clock.Now().UnixNano())
	defer fn.inflight.Add(-1)

	// Scale from zero: the activator kicks the autoscaler
	// synchronously rather than waiting for the next tick.
	if e.cfg.Mode == ModeKnative && fn.deployment.Replicas() == 0 {
		fn.coldStarts.Add(1)
		fn.mu.Lock()
		floor := fn.spec.MinScale
		fn.mu.Unlock()
		if floor < 1 {
			floor = 1
		}
		if err := e.scaleTo(fn, floor, true); err != nil {
			return invoker.Result{}, err
		}
	}

	slot, nodeName, err := e.acquireSlot(ctx, fn)
	if err != nil {
		return invoker.Result{}, err
	}
	defer e.releaseSlot(fn, slot)

	// Charge the pod's node for the compute.
	node, err := e.cfg.Cluster.Node(nodeName)
	if err == nil {
		cost := task.Cost
		if cost <= 0 {
			cost = fn.spec.Cost
		}
		if err := node.Compute().Take(ctx, cost); err != nil {
			if errors.Is(err, vclock.ErrBucketClosed) {
				// Node was removed mid-flight; drop the slot and fail
				// the request like a terminated pod would.
				return invoker.Result{}, fmt.Errorf("faas: node %s terminated", nodeName)
			}
			return invoker.Result{}, err
		}
	}
	if fn.spec.ServiceTime > 0 {
		if err := e.cfg.Clock.Sleep(ctx, fn.spec.ServiceTime); err != nil {
			return invoker.Result{}, err
		}
	}
	fn.invocations.Add(1)
	return e.cfg.Transport.Offload(ctx, fn.spec.Image, task)
}

// acquireSlot pops a live pod's slot and names the pod's node,
// discarding slots of evicted pods. A free slot is taken without asking
// for ctx.Done(): a cancelCtx makes its channel on the first Done call,
// and net/http hands every request one, so a warm invocation that never
// waits must not pay for it.
func (e *Engine) acquireSlot(ctx context.Context, fn *function) (slot uint32, node string, err error) {
	for {
		select {
		case slot = <-fn.slots:
		case <-e.stop:
			return 0, "", ErrEngineClosed
		default:
			select {
			case slot = <-fn.slots:
			case <-ctx.Done():
				return 0, "", ctx.Err()
			case <-e.stop:
				return 0, "", ErrEngineClosed
			}
		}
		fn.mu.Lock()
		p, alive := fn.pods[slot]
		fn.mu.Unlock()
		if alive {
			return slot, p.node, nil
		}
	}
}

// releaseSlot returns a slot unless its pod has been evicted.
func (e *Engine) releaseSlot(fn *function, slot uint32) {
	fn.mu.Lock()
	_, alive := fn.pods[slot]
	fn.mu.Unlock()
	if !alive {
		return
	}
	select {
	case fn.slots <- slot:
	default:
		// Channel full can only happen after a scale-down raced a
		// release; dropping is safe (capacity is re-synced on the
		// next scale).
	}
}

// scaleTo adjusts the function to n replicas and synchronizes slot
// tokens with the actual pod set. When coldStart is true, slots for
// new pods become available only after the cold-start delay.
func (e *Engine) scaleTo(fn *function, n int, coldStart bool) error {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	if n > fn.spec.MaxScale {
		n = fn.spec.MaxScale
	}
	if err := fn.deployment.Scale(n); err != nil {
		if !errors.Is(err, cluster.ErrNoCapacity) {
			return err
		}
		// Partial scale: keep whatever was placed.
	}
	actual := make(map[string]string)
	for _, p := range fn.deployment.Pods() {
		actual[p.ID] = p.Node
	}
	// Evict removed pods; what is left of actual is new.
	evicted := false
	for slot, p := range fn.pods {
		if _, ok := actual[p.id]; !ok {
			delete(fn.pods, slot)
			evicted = true
		}
		delete(actual, p.id)
	}
	if evicted {
		// Sweep the evicted pods' free slots out of the channel. Left for
		// acquireSlot to discard as they surface, they pile up when
		// nothing is invoked between scale-downs, and once they fill the
		// channel an announcement below blocks for good, holding fn.mu.
		// Putting a live slot back cannot block: live slots number at
		// most MaxScale·Concurrency, a pod's worth under the capacity.
	sweep:
		for n := len(fn.slots); n > 0; n-- {
			select {
			case slot := <-fn.slots:
				if _, alive := fn.pods[slot]; alive {
					fn.slots <- slot
				}
			default:
				break sweep // invocations took the rest first
			}
		}
	}
	// Announce new pods.
	for id, node := range actual {
		slot := fn.nextPod
		fn.nextPod++
		fn.pods[slot] = pod{id: id, node: node}
		conc := fn.spec.Concurrency
		if coldStart && e.cfg.ColdStart > 0 {
			go e.warmup(fn, slot, conc)
			continue
		}
		for i := 0; i < conc; i++ {
			fn.slots <- slot
		}
	}
	return nil
}

// warmup publishes a new pod's slots after the cold-start delay.
func (e *Engine) warmup(fn *function, slot uint32, conc int) {
	select {
	case <-e.cfg.Clock.After(e.cfg.ColdStart):
	case <-e.stop:
		return
	}
	fn.mu.Lock()
	_, alive := fn.pods[slot]
	fn.mu.Unlock()
	if !alive {
		return
	}
	for i := 0; i < conc; i++ {
		select {
		case fn.slots <- slot:
		case <-e.stop:
			return
		}
	}
}

// autoscaleLoop is the Knative-style autoscaler: desired replicas
// follow in-flight demand, bounded by Min/MaxScale, with scale-to-zero
// after IdleTimeout.
func (e *Engine) autoscaleLoop() {
	defer close(e.done)
	for {
		select {
		case <-e.stop:
			return
		case <-e.cfg.Clock.After(e.cfg.ScaleInterval):
		}
		e.mu.Lock()
		fns := make([]*function, 0, len(e.functions))
		for _, fn := range e.functions {
			fns = append(fns, fn)
		}
		e.mu.Unlock()
		now := e.cfg.Clock.Now()
		for _, fn := range fns {
			e.evaluate(fn, now)
		}
	}
}

// evaluate computes and applies one autoscale decision for fn.
func (e *Engine) evaluate(fn *function, now time.Time) {
	fn.mu.Lock()
	spec := fn.spec // SetMinScale may mutate the spec concurrently
	fn.mu.Unlock()
	inflight := fn.inflight.Load()
	cur := fn.deployment.Replicas()
	target := float64(spec.Concurrency) * targetUtilization
	desired := int(math.Ceil(float64(inflight) / target))
	if inflight > 0 && desired < 1 {
		desired = 1
	}
	if desired < spec.MinScale {
		desired = spec.MinScale
	}
	if desired > spec.MaxScale {
		desired = spec.MaxScale
	}
	if inflight == 0 {
		idle := now.Sub(time.Unix(0, fn.lastActive.Load()))
		if idle >= e.cfg.IdleTimeout {
			desired = spec.MinScale
		} else {
			// Not idle long enough: never scale below current (but
			// also never below MinScale).
			if desired < cur {
				desired = cur
			}
		}
	}
	if desired != cur {
		_ = e.scaleTo(fn, desired, true)
	}
}

// SetMinScale updates a function's autoscaler floor (and ceiling-clamps
// it to MaxScale). The optimizer uses this to hold capacity for QoS.
func (e *Engine) SetMinScale(name string, minScale int) error {
	if minScale < 0 {
		return fmt.Errorf("faas: negative min scale %d", minScale)
	}
	fn, err := e.lookup(name)
	if err != nil {
		return err
	}
	fn.mu.Lock()
	if minScale > fn.spec.MaxScale {
		minScale = fn.spec.MaxScale
	}
	fn.spec.MinScale = minScale
	fn.mu.Unlock()
	if fn.deployment.Replicas() < minScale {
		return e.scaleTo(fn, minScale, true)
	}
	return nil
}

// FunctionStats reports one function's counters.
type FunctionStats struct {
	Name        string `json:"name"`
	Replicas    int    `json:"replicas"`
	Inflight    int64  `json:"inflight"`
	Invocations int64  `json:"invocations"`
	ColdStarts  int64  `json:"cold_starts"`
}

// Stats returns counters for every deployed function, sorted by name.
func (e *Engine) Stats() []FunctionStats {
	e.mu.Lock()
	fns := make([]*function, 0, len(e.functions))
	for _, fn := range e.functions {
		fns = append(fns, fn)
	}
	e.mu.Unlock()
	out := make([]FunctionStats, 0, len(fns))
	for _, fn := range fns {
		out = append(out, FunctionStats{
			Name:        fn.spec.Name,
			Replicas:    fn.deployment.Replicas(),
			Inflight:    fn.inflight.Load(),
			Invocations: fn.invocations.Load(),
			ColdStarts:  fn.coldStarts.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close stops the autoscaler and fails pending invocations.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stop)
	<-e.done
}
