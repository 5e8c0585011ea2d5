// Package dataflow implements the dataflow abstraction (paper §II-B):
// execution order derives from the flow of data rather than explicit
// invocation order. The platform "handles parallelism and data
// navigation in the background" — steps whose data dependencies are
// satisfied run concurrently, and a step's input can reference a prior
// step's output. Developers can change the invocation flow by editing
// the dataflow definition alone, never the function code.
package dataflow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/hpcclab/oparaca-go/internal/model"
)

// Sentinel errors.
var (
	// ErrCycle is returned when step dependencies form a cycle.
	ErrCycle = errors.New("dataflow: dependency cycle")
	// ErrStepFailed wraps the first step failure of a run.
	ErrStepFailed = errors.New("dataflow: step failed")
	// ErrBadInputRef is returned for unresolvable input references.
	ErrBadInputRef = errors.New("dataflow: bad input reference")
)

// Invoke executes one function of the owning class with the given
// payload and returns its output. The core platform supplies this; the
// dataflow engine itself is agnostic of objects and state.
type Invoke func(ctx context.Context, function string, payload json.RawMessage) (json.RawMessage, error)

// StepResult records one step's execution.
type StepResult struct {
	// Name is the step name.
	Name string `json:"name"`
	// Output is the step's function output.
	Output json.RawMessage `json:"output,omitempty"`
	// Err holds a failure message ("" on success).
	Err string `json:"error,omitempty"`
}

// Result is the outcome of a dataflow run.
type Result struct {
	// Output is the flow's final output (the designated output
	// step's, or the last topological step's).
	Output json.RawMessage `json:"output,omitempty"`
	// Steps holds per-step results keyed by step name.
	Steps map[string]StepResult `json:"steps"`
}

// Plan is a validated, executable dataflow.
type Plan struct {
	def    model.DataflowDef
	order  []string            // topological order (for determinism in tests)
	deps   map[string][]string // step -> prerequisites
	output string
}

// Compile validates def (dependency closure, acyclicity) and prepares
// an executable plan.
func Compile(def model.DataflowDef) (*Plan, error) {
	if len(def.Steps) == 0 {
		return nil, fmt.Errorf("dataflow: %q has no steps", def.Name)
	}
	steps := make(map[string]model.DataflowStep, len(def.Steps))
	for _, s := range def.Steps {
		if _, dup := steps[s.Name]; dup {
			return nil, fmt.Errorf("dataflow: duplicate step %q", s.Name)
		}
		steps[s.Name] = s
	}
	deps := make(map[string][]string, len(def.Steps))
	for _, s := range def.Steps {
		for _, d := range s.After {
			if _, ok := steps[d]; !ok {
				return nil, fmt.Errorf("dataflow: step %q depends on unknown step %q", s.Name, d)
			}
		}
		deps[s.Name] = append([]string(nil), s.After...)
		// An input reference to another step is an implicit data
		// dependency (this is the "flow of data" part).
		if ref, ok := stepOfInputRef(s.Input); ok {
			if _, known := steps[ref]; !known {
				return nil, fmt.Errorf("%w: step %q input references unknown step %q", ErrBadInputRef, s.Name, ref)
			}
			if ref == s.Name {
				return nil, fmt.Errorf("%w: step %q references its own output", ErrBadInputRef, s.Name)
			}
			if !contains(deps[s.Name], ref) {
				deps[s.Name] = append(deps[s.Name], ref)
			}
		}
	}
	order, err := topoSort(def.Steps, deps)
	if err != nil {
		return nil, err
	}
	output := def.Output
	if output == "" {
		output = order[len(order)-1]
	}
	if _, ok := steps[output]; !ok {
		return nil, fmt.Errorf("dataflow: output step %q not found", output)
	}
	return &Plan{def: def, order: order, deps: deps, output: output}, nil
}

// stepOfInputRef extracts the step name from "steps.<name>.output".
func stepOfInputRef(ref string) (string, bool) {
	if !strings.HasPrefix(ref, "steps.") {
		return "", false
	}
	rest := strings.TrimPrefix(ref, "steps.")
	name, field, ok := strings.Cut(rest, ".")
	if !ok || field != "output" || name == "" {
		return "", false
	}
	return name, true
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// topoSort returns a deterministic topological order or ErrCycle.
func topoSort(steps []model.DataflowStep, deps map[string][]string) ([]string, error) {
	indeg := make(map[string]int, len(steps))
	dependents := make(map[string][]string, len(steps))
	for _, s := range steps {
		indeg[s.Name] = len(deps[s.Name])
		for _, d := range deps[s.Name] {
			dependents[d] = append(dependents[d], s.Name)
		}
	}
	// Ready queue seeded in definition order for determinism.
	var ready []string
	for _, s := range steps {
		if indeg[s.Name] == 0 {
			ready = append(ready, s.Name)
		}
	}
	var order []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, m := range dependents[n] {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(order) != len(steps) {
		var stuck []string
		for n, d := range indeg {
			if d > 0 {
				stuck = append(stuck, n)
			}
		}
		return nil, fmt.Errorf("%w involving steps %v", ErrCycle, stuck)
	}
	return order, nil
}

// Name returns the dataflow's name.
func (p *Plan) Name() string { return p.def.Name }

// Execute runs the plan. Steps run as soon as their dependencies
// complete; independent steps run concurrently. The first failure
// cancels outstanding steps and is returned wrapped in ErrStepFailed.
func (p *Plan) Execute(ctx context.Context, input json.RawMessage, invoke Invoke) (Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type doneMsg struct {
		name string
		res  StepResult
	}
	doneCh := make(chan doneMsg)

	stepsByName := make(map[string]model.DataflowStep, len(p.def.Steps))
	for _, s := range p.def.Steps {
		stepsByName[s.Name] = s
	}
	remainingDeps := make(map[string]int, len(p.def.Steps))
	dependents := make(map[string][]string, len(p.def.Steps))
	for name, ds := range p.deps {
		remainingDeps[name] = len(ds)
		for _, d := range ds {
			dependents[d] = append(dependents[d], name)
		}
	}

	results := make(map[string]StepResult, len(p.def.Steps))
	var mu sync.Mutex // guards results for the goroutines resolving inputs

	start := func(name string) {
		step := stepsByName[name]
		go func() {
			sr := StepResult{Name: name}
			payload, err := p.resolveInput(step, input, &mu, results)
			if err == nil {
				sr.Output, err = invoke(ctx, step.Function, payload)
			}
			if err != nil {
				sr.Err = err.Error()
			}
			select {
			case doneCh <- doneMsg{name: name, res: sr}:
			case <-ctx.Done():
			}
		}()
	}

	launched := 0
	for _, name := range p.order {
		if remainingDeps[name] == 0 {
			start(name)
			launched++
		}
	}

	completed := 0
	var firstErr error
	for completed < len(p.def.Steps) {
		select {
		case msg := <-doneCh:
			completed++
			mu.Lock()
			results[msg.name] = msg.res
			mu.Unlock()
			if msg.res.Err != "" {
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: step %q: %s", ErrStepFailed, msg.name, msg.res.Err)
					cancel() // stop in-flight steps; do not launch more
				}
				continue
			}
			if firstErr == nil {
				for _, dep := range dependents[msg.name] {
					remainingDeps[dep]--
					if remainingDeps[dep] == 0 {
						start(dep)
						launched++
					}
				}
			}
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = ctx.Err()
			}
			// Give up waiting for outstanding steps.
			completed = len(p.def.Steps)
		}
		// If a failure pruned the frontier, the steps that never
		// launched will never complete; exit once all launched steps
		// have reported.
		if firstErr != nil && completed >= launched {
			break
		}
	}

	res := Result{Steps: results}
	if firstErr != nil {
		return res, firstErr
	}
	res.Output = results[p.output].Output
	return res, nil
}

// resolveInput produces a step's payload from the flow input or a
// prior step's output.
func (p *Plan) resolveInput(step model.DataflowStep, input json.RawMessage, mu *sync.Mutex, results map[string]StepResult) (json.RawMessage, error) {
	switch {
	case step.Input == "" || step.Input == "payload":
		return input, nil
	default:
		ref, ok := stepOfInputRef(step.Input)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrBadInputRef, step.Input)
		}
		mu.Lock()
		defer mu.Unlock()
		sr, done := results[ref]
		if !done {
			// Compile added the implicit dependency, so this is a bug
			// guard rather than an expected path.
			return nil, fmt.Errorf("%w: step %q not finished", ErrBadInputRef, ref)
		}
		return sr.Output, nil
	}
}
