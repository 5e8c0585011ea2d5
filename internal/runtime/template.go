// Package runtime implements Oparaca's class runtime and class runtime
// templates (paper §III-B).
//
// A ClassRuntime is the dedicated deployment realizing one class: its
// functions deployed on a FaaS engine, its structured state held in a
// distributed in-memory table, its unstructured state in the object
// store, and its dataflows compiled for execution. Because sharing a
// runtime across classes with conflicting requirements "is difficult
// to manage", each class gets its own runtime instantiated from a
// Template — "a configurable class runtime design optimized for a
// specific set of requirement combinations" — chosen by matching the
// class's declared non-functional requirements. Platform providers can
// register their own templates, selection conditions and priorities.
package runtime

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/model"
)

// Match is a template's selection condition against a class's
// non-functional requirements.
type Match struct {
	// Persistent, when non-nil, requires the class's persistence
	// constraint to equal the value.
	Persistent *bool
	// MinThroughputRPS, when > 0, requires the class to declare at
	// least this required throughput.
	MinThroughputRPS float64
	// MaxLatencyMs, when > 0, requires the class to declare a latency
	// target at or below this value.
	MaxLatencyMs float64
}

// Matches reports whether class c satisfies the condition.
func (m Match) Matches(c *model.Class) bool {
	if m.Persistent != nil && c.Constraint.IsPersistent() != *m.Persistent {
		return false
	}
	if m.MinThroughputRPS > 0 && c.QoS.ThroughputRPS < m.MinThroughputRPS {
		return false
	}
	if m.MaxLatencyMs > 0 && (c.QoS.LatencyMs == 0 || c.QoS.LatencyMs > m.MaxLatencyMs) {
		return false
	}
	return true
}

// Template is a configurable class-runtime design.
type Template struct {
	// Name identifies the template.
	Name string
	// Priority orders template selection (higher wins among matches).
	Priority int
	// Match is the selection condition.
	Match Match

	// EngineMode selects the function execution engine.
	EngineMode faas.Mode
	// TableMode selects state persistence behaviour.
	TableMode memtable.Mode
	// FlushInterval / FlushBatchSize tune the write-behind flusher.
	FlushInterval  time.Duration
	FlushBatchSize int
	// Shards is the state table partition count (0 = default).
	Shards int

	// DefaultConcurrency is the per-pod request limit applied to
	// functions that do not declare their own.
	DefaultConcurrency int
	// InvokeCost is the node-compute tokens charged per invocation
	// (0 = engine default of 1). Templates with heavier data paths
	// (state serialization, synchronous persistence) set this higher;
	// the benchmark harness uses it to model the per-request CPU cost
	// differences between the paper's system variants.
	InvokeCost float64
	// MinScale / MaxScale / InitialScale bound each function's
	// replicas.
	MinScale     int
	MaxScale     int
	InitialScale int
}

// Validate checks a template is self-consistent.
func (t Template) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("runtime: template needs a name")
	}
	switch t.EngineMode {
	case faas.ModeKnative, faas.ModeDeployment:
	default:
		return fmt.Errorf("runtime: template %q has invalid engine mode", t.Name)
	}
	switch t.TableMode {
	case memtable.ModeWriteBehind, memtable.ModeWriteThrough, memtable.ModeMemoryOnly:
	default:
		return fmt.Errorf("runtime: template %q has invalid table mode", t.Name)
	}
	if t.EngineMode == faas.ModeDeployment && t.InitialScale < 1 {
		return fmt.Errorf("runtime: template %q: deployment engine needs InitialScale >= 1", t.Name)
	}
	return nil
}

// TemplateRegistry holds the provider's templates and selects the best
// match for each class. It is safe for concurrent use.
type TemplateRegistry struct {
	mu        sync.RWMutex
	templates []Template
}

// NewTemplateRegistry returns a registry preloaded with the given
// templates (use DefaultTemplates() for the stock set).
func NewTemplateRegistry(templates ...Template) (*TemplateRegistry, error) {
	r := &TemplateRegistry{}
	for _, t := range templates {
		if err := r.Add(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Add registers a template. Duplicate names are rejected.
func (r *TemplateRegistry) Add(t Template) error {
	if err := t.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, existing := range r.templates {
		if existing.Name == t.Name {
			return fmt.Errorf("runtime: duplicate template %q", t.Name)
		}
	}
	r.templates = append(r.templates, t)
	sort.SliceStable(r.templates, func(i, j int) bool {
		return r.templates[i].Priority > r.templates[j].Priority
	})
	return nil
}

// Select returns the highest-priority template matching the class.
func (r *TemplateRegistry) Select(c *model.Class) (Template, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, t := range r.templates {
		if t.Match.Matches(c) {
			return t, nil
		}
	}
	return Template{}, fmt.Errorf("runtime: no template matches class %q (qos=%+v persistent=%v)",
		c.Name, c.QoS, c.Constraint.IsPersistent())
}

// DefaultTemplates returns the stock template set:
//
//   - "ephemeral":       non-persistent classes → deployment engine +
//     memory-only table (the paper's nonpersist variant).
//   - "high-throughput": persistent classes demanding ≥1000 rps →
//     deployment engine (no Knative data-path overhead) + write-behind.
//   - "low-latency":     persistent classes with a tight latency target
//     → Knative engine held warm (MinScale 1) + write-behind.
//   - "standard":        everything else → Knative engine with
//     scale-to-zero + write-behind.
func DefaultTemplates() []Template {
	no := false
	return []Template{
		{
			Name:       "ephemeral",
			Priority:   40,
			Match:      Match{Persistent: &no},
			EngineMode: faas.ModeDeployment, TableMode: memtable.ModeMemoryOnly,
			DefaultConcurrency: 64, InitialScale: 1, MaxScale: 200,
		},
		{
			Name:       "high-throughput",
			Priority:   30,
			Match:      Match{MinThroughputRPS: 1000},
			EngineMode: faas.ModeDeployment, TableMode: memtable.ModeWriteBehind,
			FlushInterval: 20 * time.Millisecond, FlushBatchSize: 256,
			DefaultConcurrency: 64, InitialScale: 2, MaxScale: 200,
		},
		{
			Name:       "low-latency",
			Priority:   20,
			Match:      Match{MaxLatencyMs: 50},
			EngineMode: faas.ModeKnative, TableMode: memtable.ModeWriteBehind,
			FlushInterval: 20 * time.Millisecond, FlushBatchSize: 128,
			DefaultConcurrency: 16, MinScale: 1, InitialScale: 1, MaxScale: 100,
		},
		{
			Name:       "standard",
			Priority:   0,
			Match:      Match{},
			EngineMode: faas.ModeKnative, TableMode: memtable.ModeWriteBehind,
			FlushInterval: 50 * time.Millisecond, FlushBatchSize: 256,
			DefaultConcurrency: 16, MinScale: 0, MaxScale: 100,
		},
	}
}
