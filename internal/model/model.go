// Package model defines the OaaS class model: the deployment package
// a developer writes (paper §IV, Listing 1), with classes that
// encapsulate state (key specs), logic (functions realized by
// serverless images), non-functional requirements (QoS and
// constraints), dataflow definitions, and OOP-style inheritance and
// polymorphism (paper §II-A, §III-A).
//
// Definitions load from YAML (via internal/yamlx) or JSON, are
// validated, and are resolved: inheritance flattening merges parent
// state and functions into each class, with child functions overriding
// parents' by name (polymorphism).
package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"regexp"
	"sort"
	"strings"
	"time"

	"github.com/hpcclab/oparaca-go/internal/yamlx"
)

// Sentinel errors.
var (
	// ErrValidation wraps all definition validation failures.
	ErrValidation = errors.New("model: invalid definition")
	// ErrClassNotFound is returned when a referenced class is absent.
	ErrClassNotFound = errors.New("model: class not found")
	// ErrInheritanceCycle is returned when parent links form a cycle.
	ErrInheritanceCycle = errors.New("model: inheritance cycle")
)

// MaxTimeoutMs is the largest timeoutMs a deadline can carry, in a
// package or a request: one more millisecond overflows the nanoseconds
// of a time.Duration.
const MaxTimeoutMs = math.MaxInt64 / int64(time.Millisecond)

// nameRE constrains identifiers (class, function, key names).
var nameRE = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_-]*$`)

// KeyKind is the type of a state key.
type KeyKind string

// Supported state key kinds. KindFile keys hold unstructured data in
// the object store and are surfaced to functions as presigned URLs;
// all other kinds are structured JSON state.
const (
	KindJSON   KeyKind = "json"
	KindString KeyKind = "string"
	KindNumber KeyKind = "number"
	KindBool   KeyKind = "bool"
	KindFile   KeyKind = "file"
)

// valid reports whether k is a known kind.
func (k KeyKind) valid() bool {
	switch k {
	case KindJSON, KindString, KindNumber, KindBool, KindFile:
		return true
	}
	return false
}

// KeySpec declares one state attribute of a class.
type KeySpec struct {
	// Name identifies the key.
	Name string `json:"name"`
	// Kind is the value type; defaults to "json".
	Kind KeyKind `json:"kind,omitempty"`
	// Default is the initial value for structured kinds.
	Default json.RawMessage `json:"default,omitempty"`
}

// QoS carries the measurable quality requirements of a class (paper
// §II-C: "high-level and measurable metrics").
type QoS struct {
	// ThroughputRPS is the required requests/second, 0 = unspecified.
	ThroughputRPS float64 `json:"throughput,omitempty"`
	// LatencyMs is the target p95 latency in milliseconds.
	LatencyMs float64 `json:"latencyMs,omitempty"`
	// Availability is the target fraction of successful requests
	// (e.g. 0.999).
	Availability float64 `json:"availability,omitempty"`
}

// IsZero reports whether no QoS requirement is set.
func (q QoS) IsZero() bool { return q == QoS{} }

// Constraints carries deployment constraints (paper §II-C: "budget and
// jurisdiction").
type Constraints struct {
	// Persistent requires object state to survive restarts. The
	// paper's `oprc-bypass-nonpersist` variant turns this off.
	Persistent *bool `json:"persistent,omitempty"`
	// BudgetUSD caps monthly spend; informational to the optimizer.
	BudgetUSD float64 `json:"budget,omitempty"`
	// Jurisdiction pins data placement (e.g. "eu").
	Jurisdiction string `json:"jurisdiction,omitempty"`
}

// IsPersistent resolves the Persistent flag (default true: losing user
// data must be opt-in).
func (c Constraints) IsPersistent() bool {
	if c.Persistent == nil {
		return true
	}
	return *c.Persistent
}

// ConcurrencyMode selects how the class runtime handles concurrent
// invocations on one object.
type ConcurrencyMode string

// Concurrency modes.
const (
	// ConcurrencyDefault defers to the platform's configured default
	// (ConcurrencyAdaptive unless overridden).
	ConcurrencyDefault ConcurrencyMode = ""
	// ConcurrencyOCC runs invocations lock-free and commits state
	// deltas through a version-validated compare-and-swap, retrying on
	// conflict: hot-object invocations interleave instead of queueing.
	ConcurrencyOCC ConcurrencyMode = "occ"
	// ConcurrencyLocked serializes the whole load→invoke→merge window
	// under the object's exclusive guard (the pessimistic baseline).
	ConcurrencyLocked ConcurrencyMode = "locked"
	// ConcurrencyAdaptive starts optimistic and falls back to the
	// exclusive guard per object while CAS aborts run hot, returning to
	// OCC when contention subsides.
	ConcurrencyAdaptive ConcurrencyMode = "adaptive"
)

// Valid reports whether m is a known mode (including the default).
// The class loader rejects invalid modes at validation; the runtime
// re-checks so a bad platform-level default (core.Config) cannot
// silently select an unintended path.
func (m ConcurrencyMode) Valid() bool {
	switch m {
	case ConcurrencyDefault, ConcurrencyOCC, ConcurrencyLocked, ConcurrencyAdaptive:
		return true
	}
	return false
}

// OCCValidate selects how wide an optimistic commit's validation set
// is for a class running under occ or adaptive concurrency.
type OCCValidate string

// Validation scopes.
const (
	// OCCValidateDefault defers to OCCValidateReadset.
	OCCValidateDefault OCCValidate = ""
	// OCCValidateReadset validates every structured key the handler's
	// snapshot carried (the full read set): decisions a handler made
	// against unwritten keys cannot commit against changed state, so
	// write skew is excluded. This is the safe default.
	OCCValidateReadset OCCValidate = "readset"
	// OCCValidateKeys validates only the keys the handler actually
	// wrote. Methods touching disjoint keys of one wide object no
	// longer abort each other, trading write-skew protection for
	// fewer false conflicts — opt in only when the class's methods
	// do not make decisions based on keys they leave unwritten.
	OCCValidateKeys OCCValidate = "keys"
)

// Valid reports whether v is a known validation scope.
func (v OCCValidate) Valid() bool {
	switch v {
	case OCCValidateDefault, OCCValidateReadset, OCCValidateKeys:
		return true
	}
	return false
}

// FunctionDef declares one method of a class, realized by a serverless
// function image.
type FunctionDef struct {
	// Name is the method name.
	Name string `json:"name"`
	// Image is the container image implementing it (e.g. "img/resize").
	Image string `json:"image"`
	// Readonly declares that the method never writes object state: the
	// runtime serves such invocations concurrently straight from the
	// state table, skipping per-object locking and the delta
	// merge/commit entirely. A readonly function that returns a state
	// delta fails the invocation. Multi-key state is snapshotted
	// without a lock, so a readonly method may observe keys from two
	// different committed states during a concurrent write.
	Readonly bool `json:"readonly,omitempty"`
	// Concurrency is the per-pod concurrent request limit (0 = engine
	// default).
	Concurrency int `json:"concurrency,omitempty"`
	// TimeoutMs is the invocation deadline for this method in
	// milliseconds, measured on the platform's clock: an invocation
	// (handler run plus state commit) that exceeds it fails with the
	// runtime's deadline error and never commits. 0 defers to the class
	// TimeoutMs, then the platform default.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// QoS optionally overrides the class QoS for this method (paper
	// §II-C: requirements "for a whole object or even for a specific
	// part (method)").
	QoS QoS `json:"qos,omitempty"`
}

// DataflowStep is one node of a dataflow definition.
type DataflowStep struct {
	// Name identifies the step within the flow.
	Name string `json:"name"`
	// Function is the class method the step invokes.
	Function string `json:"function"`
	// After lists step names whose outputs this step depends on;
	// empty means the step starts immediately (dataflow semantics:
	// execution order derives from data dependencies, paper §II-B).
	After []string `json:"after,omitempty"`
	// Input optionally maps the payload from a prior step's output:
	// "steps.<name>.output" or "payload" (the flow input). Empty
	// defaults to the flow input.
	Input string `json:"input,omitempty"`
}

// DataflowDef declares a named dataflow (macro-function) on a class.
type DataflowDef struct {
	// Name is the dataflow's method-like name.
	Name string `json:"name"`
	// Steps are the flow's nodes.
	Steps []DataflowStep `json:"steps"`
	// Output names the step whose output is the flow result; defaults
	// to the last step.
	Output string `json:"output,omitempty"`
}

// Event names a TriggerDef can subscribe to via On. They mirror the
// trigger subsystem's event types (internal/trigger); the model keeps
// string literals so definitions stay dependency-free.
const (
	// EventStateChanged fires once per committed write invocation on
	// an object of the class.
	EventStateChanged = "stateChanged"
	// EventInvocationCompleted / EventInvocationFailed fire when an
	// asynchronous invocation on an object of the class reaches the
	// corresponding terminal status.
	EventInvocationCompleted = "invocationCompleted"
	EventInvocationFailed    = "invocationFailed"
)

// validEventName reports whether on names a known platform event.
func validEventName(on string) bool {
	switch on {
	case EventStateChanged, EventInvocationCompleted, EventInvocationFailed:
		return true
	}
	return false
}

// TriggerDef binds a platform event to a reaction. Two shapes exist:
//
//   - Upload triggers (OnUpload): an object-store write to the named
//     file key invokes Function on the same object (paper §II-D: "a
//     multimedia processing application that gets triggered when
//     customers upload their files to cloud storage").
//   - Event triggers (On): a committed state mutation or a terminal
//     asynchronous invocation on an object of the class routes through
//     the event bus to either another object's method (data-triggered
//     chaining via the async queue) or a webhook URL.
//
// Exactly one of OnUpload and On must be set.
type TriggerDef struct {
	// OnUpload names the file key whose uploads fire the trigger.
	OnUpload string `json:"onUpload,omitempty"`
	// Function is the method invoked with the event as its payload:
	// on the same object for upload triggers, on TargetObject (or the
	// emitting object when empty) for event triggers.
	Function string `json:"function,omitempty"`
	// On names the platform event an event trigger subscribes to:
	// "stateChanged", "invocationCompleted" or "invocationFailed".
	On string `json:"on,omitempty"`
	// KeyPrefix restricts a stateChanged trigger to commits that wrote
	// at least one state key with this prefix.
	KeyPrefix string `json:"keyPrefix,omitempty"`
	// TargetObject routes the chained invocation to a specific object
	// ID instead of the emitting object. Only valid with Function.
	TargetObject string `json:"targetObject,omitempty"`
	// Webhook delivers the event to a URL instead of invoking a
	// method: an absolute http or https URL with a host. Mutually
	// exclusive with Function/TargetObject.
	Webhook string `json:"webhook,omitempty"`
}

// IsEvent reports whether the trigger is an event trigger (vs. an
// upload trigger).
func (t TriggerDef) IsEvent() bool { return t.On != "" }

// Identity is the trigger's stable identity, derived from its
// declaration: upload triggers identify per file key; event triggers
// per (event, filter, sink) tuple — two identical declarations
// collapse, distinct ones coexist. Fields are quoted so
// user-controlled strings containing the separator cannot make
// distinct triggers collide. Inheritance merging overrides by this
// identity, and the platform keys an event trigger's durable delivery
// cursors under it, so redeploying a class (even with the trigger
// list reordered) resumes the same cursors instead of redelivering
// from scratch.
func (t TriggerDef) Identity() string {
	if !t.IsEvent() {
		return "upload/" + t.OnUpload
	}
	return fmt.Sprintf("event/%s/%q/%q/%q/%q", t.On, t.KeyPrefix, t.TargetObject, t.Function, t.Webhook)
}

// id keeps the short internal spelling for inheritance merging.
func (t TriggerDef) id() string { return t.Identity() }

// ClassDef is a class as written by the developer.
type ClassDef struct {
	// Name is the class name.
	Name string `json:"name"`
	// Parent optionally names the class this one inherits from.
	Parent string `json:"parent,omitempty"`
	// KeySpecs declare the object state attributes.
	KeySpecs []KeySpec `json:"keySpecs,omitempty"`
	// Functions declare the methods.
	Functions []FunctionDef `json:"functions,omitempty"`
	// Dataflows declare composite methods.
	Dataflows []DataflowDef `json:"dataflows,omitempty"`
	// Triggers bind file-key uploads to method invocations.
	Triggers []TriggerDef `json:"triggers,omitempty"`
	// Concurrency selects how concurrent invocations on one object are
	// handled ("occ", "locked", or "adaptive"; empty defers to the
	// platform default). Inherited from the parent unless overridden.
	Concurrency ConcurrencyMode `json:"concurrencyMode,omitempty"`
	// OCCValidate selects the optimistic commit's validation scope
	// ("readset" validates every snapshotted key — the default — or
	// "keys" validates only written keys, so disjoint-key writers on
	// one object stop aborting each other). Only meaningful under occ
	// or adaptive concurrency. Inherited from the parent unless
	// overridden.
	OCCValidate OCCValidate `json:"occValidate,omitempty"`
	// TimeoutMs is the class-level default invocation deadline in
	// milliseconds on the platform's clock, for every function without
	// its own TimeoutMs and for each dataflow as a whole. 0 defers to
	// the platform default; inherited from the parent unless overridden.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// QoS and Constraint are the class's non-functional requirements.
	QoS        QoS         `json:"qos,omitempty"`
	Constraint Constraints `json:"constraint,omitempty"`
}

// Package is a deployment package: a named collection of classes
// deployed together.
type Package struct {
	// Name identifies the package; optional.
	Name string `json:"name,omitempty"`
	// Classes are the class definitions.
	Classes []ClassDef `json:"classes"`
}

// ParseYAML loads a Package from YAML bytes.
func ParseYAML(data []byte) (*Package, error) {
	var pkg Package
	if err := yamlx.Unmarshal(data, &pkg); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrValidation, err)
	}
	if err := pkg.Validate(); err != nil {
		return nil, err
	}
	return &pkg, nil
}

// ParseJSON loads a Package from JSON bytes.
func ParseJSON(data []byte) (*Package, error) {
	var pkg Package
	if err := json.Unmarshal(data, &pkg); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrValidation, err)
	}
	if err := pkg.Validate(); err != nil {
		return nil, err
	}
	return &pkg, nil
}

// Validate checks structural validity of the raw definitions (before
// inheritance resolution).
func (p *Package) Validate() error {
	if len(p.Classes) == 0 {
		return fmt.Errorf("%w: package has no classes", ErrValidation)
	}
	seen := make(map[string]bool, len(p.Classes))
	for i := range p.Classes {
		c := &p.Classes[i]
		if err := c.validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: duplicate class %q", ErrValidation, c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// validate checks one class definition.
func (c *ClassDef) validate() error {
	if !nameRE.MatchString(c.Name) {
		return fmt.Errorf("%w: bad class name %q", ErrValidation, c.Name)
	}
	if c.Parent != "" && !nameRE.MatchString(c.Parent) {
		return fmt.Errorf("%w: class %q has bad parent name %q", ErrValidation, c.Name, c.Parent)
	}
	if c.Parent == c.Name {
		return fmt.Errorf("%w: class %q inherits from itself", ErrValidation, c.Name)
	}
	keys := make(map[string]bool, len(c.KeySpecs))
	for i := range c.KeySpecs {
		k := &c.KeySpecs[i]
		if !nameRE.MatchString(k.Name) {
			return fmt.Errorf("%w: class %q has bad key name %q", ErrValidation, c.Name, k.Name)
		}
		if keys[k.Name] {
			return fmt.Errorf("%w: class %q has duplicate key %q", ErrValidation, c.Name, k.Name)
		}
		keys[k.Name] = true
		if k.Kind == "" {
			k.Kind = KindJSON
		}
		if !k.Kind.valid() {
			return fmt.Errorf("%w: class %q key %q has unknown kind %q", ErrValidation, c.Name, k.Name, k.Kind)
		}
		if k.Kind == KindFile && len(k.Default) > 0 {
			return fmt.Errorf("%w: class %q key %q: file keys cannot have defaults", ErrValidation, c.Name, k.Name)
		}
	}
	fns := make(map[string]bool, len(c.Functions))
	for i := range c.Functions {
		f := &c.Functions[i]
		if !nameRE.MatchString(f.Name) {
			return fmt.Errorf("%w: class %q has bad function name %q", ErrValidation, c.Name, f.Name)
		}
		if f.Image == "" {
			return fmt.Errorf("%w: class %q function %q has no image", ErrValidation, c.Name, f.Name)
		}
		if fns[f.Name] {
			return fmt.Errorf("%w: class %q has duplicate function %q", ErrValidation, c.Name, f.Name)
		}
		fns[f.Name] = true
		if f.TimeoutMs < 0 || int64(f.TimeoutMs) > MaxTimeoutMs {
			return fmt.Errorf("%w: class %q function %q has timeoutMs %d, want 0 to %d", ErrValidation, c.Name, f.Name, f.TimeoutMs, MaxTimeoutMs)
		}
		if err := validateQoS(f.QoS, c.Name, f.Name); err != nil {
			return err
		}
	}
	flows := make(map[string]bool, len(c.Dataflows))
	for i := range c.Dataflows {
		df := &c.Dataflows[i]
		if !nameRE.MatchString(df.Name) {
			return fmt.Errorf("%w: class %q has bad dataflow name %q", ErrValidation, c.Name, df.Name)
		}
		if fns[df.Name] || flows[df.Name] {
			return fmt.Errorf("%w: class %q dataflow %q collides with another member", ErrValidation, c.Name, df.Name)
		}
		flows[df.Name] = true
		if len(df.Steps) == 0 {
			return fmt.Errorf("%w: class %q dataflow %q has no steps", ErrValidation, c.Name, df.Name)
		}
		steps := make(map[string]bool, len(df.Steps))
		for _, st := range df.Steps {
			if !nameRE.MatchString(st.Name) {
				return fmt.Errorf("%w: class %q dataflow %q has bad step name %q", ErrValidation, c.Name, df.Name, st.Name)
			}
			if steps[st.Name] {
				return fmt.Errorf("%w: class %q dataflow %q has duplicate step %q", ErrValidation, c.Name, df.Name, st.Name)
			}
			steps[st.Name] = true
			if st.Function == "" {
				return fmt.Errorf("%w: class %q dataflow %q step %q has no function", ErrValidation, c.Name, df.Name, st.Name)
			}
		}
		for _, st := range df.Steps {
			for _, dep := range st.After {
				if !steps[dep] {
					return fmt.Errorf("%w: class %q dataflow %q step %q depends on unknown step %q",
						ErrValidation, c.Name, df.Name, st.Name, dep)
				}
			}
		}
		if df.Output != "" && !steps[df.Output] {
			return fmt.Errorf("%w: class %q dataflow %q output references unknown step %q",
				ErrValidation, c.Name, df.Name, df.Output)
		}
	}
	seenTriggers := make(map[string]bool, len(c.Triggers))
	for _, tr := range c.Triggers {
		if err := tr.validate(c.Name); err != nil {
			return err
		}
		if seenTriggers[tr.id()] {
			return fmt.Errorf("%w: class %q has duplicate trigger %q", ErrValidation, c.Name, tr.id())
		}
		seenTriggers[tr.id()] = true
		// Key/function existence is checked after inheritance
		// resolution (they may come from a parent).
	}
	if !c.Concurrency.Valid() {
		return fmt.Errorf("%w: class %q has unknown concurrency mode %q (want occ, locked or adaptive)",
			ErrValidation, c.Name, c.Concurrency)
	}
	if !c.OCCValidate.Valid() {
		return fmt.Errorf("%w: class %q has unknown occValidate scope %q (want readset or keys)",
			ErrValidation, c.Name, c.OCCValidate)
	}
	if c.TimeoutMs < 0 || int64(c.TimeoutMs) > MaxTimeoutMs {
		return fmt.Errorf("%w: class %q has timeoutMs %d, want 0 to %d", ErrValidation, c.Name, c.TimeoutMs, MaxTimeoutMs)
	}
	if err := validateQoS(c.QoS, c.Name, ""); err != nil {
		return err
	}
	if c.Constraint.BudgetUSD < 0 {
		return fmt.Errorf("%w: class %q has negative budget", ErrValidation, c.Name)
	}
	return nil
}

// validate checks one trigger definition's shape (references are
// checked post-resolution).
func (t TriggerDef) validate(class string) error {
	if (t.OnUpload == "") == (t.On == "") {
		return fmt.Errorf("%w: class %q trigger needs exactly one of onUpload and on", ErrValidation, class)
	}
	if !t.IsEvent() {
		if t.Function == "" {
			return fmt.Errorf("%w: class %q trigger needs onUpload and function", ErrValidation, class)
		}
		if t.KeyPrefix != "" || t.TargetObject != "" || t.Webhook != "" {
			return fmt.Errorf("%w: class %q upload trigger on %q cannot set keyPrefix, targetObject or webhook",
				ErrValidation, class, t.OnUpload)
		}
		return nil
	}
	if !validEventName(t.On) {
		return fmt.Errorf("%w: class %q trigger has unknown event %q (want %s, %s or %s)",
			ErrValidation, class, t.On, EventStateChanged, EventInvocationCompleted, EventInvocationFailed)
	}
	hasFn, hasHook := t.Function != "", t.Webhook != ""
	if hasFn == hasHook {
		return fmt.Errorf("%w: class %q trigger on %q needs exactly one of function and webhook",
			ErrValidation, class, t.On)
	}
	if t.TargetObject != "" && !hasFn {
		return fmt.Errorf("%w: class %q trigger on %q: targetObject requires function", ErrValidation, class, t.On)
	}
	if t.KeyPrefix != "" && t.On != EventStateChanged {
		return fmt.Errorf("%w: class %q trigger on %q: keyPrefix only applies to %s",
			ErrValidation, class, t.On, EventStateChanged)
	}
	if hasHook {
		if _, err := WebhookURL(t.Webhook); err != nil {
			return fmt.Errorf("%w: class %q trigger on %q: %v", ErrValidation, class, t.On, err)
		}
	}
	return nil
}

// WebhookURL parses a webhook sink URL, refusing anything that is not
// an absolute http or https URL with a host: every delivery to such a
// sink would fail and stall its consumer for good. It is the one rule
// for package triggers and event-bus subscriptions alike.
func WebhookURL(s string) (*url.URL, error) {
	u, err := url.Parse(s)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Hostname() == "" {
		return nil, fmt.Errorf("webhook %q is not an absolute http or https URL with a host", s)
	}
	return u, nil
}

func validateQoS(q QoS, class, fn string) error {
	where := "class " + class
	if fn != "" {
		where += " function " + fn
	}
	if q.ThroughputRPS < 0 {
		return fmt.Errorf("%w: %s has negative throughput", ErrValidation, where)
	}
	if q.LatencyMs < 0 {
		return fmt.Errorf("%w: %s has negative latency", ErrValidation, where)
	}
	if q.Availability < 0 || q.Availability > 1 {
		return fmt.Errorf("%w: %s availability must be in [0,1]", ErrValidation, where)
	}
	return nil
}

// Class is a resolved class: inheritance flattened, overrides applied.
type Class struct {
	// Name is the class name.
	Name string
	// Parent is the immediate parent name ("" for roots).
	Parent string
	// Ancestry lists the inheritance chain from root to this class.
	Ancestry []string
	// Keys is the merged state schema, sorted by name.
	Keys []KeySpec
	// Functions is the merged method set, sorted by name; child
	// definitions override parents' with the same name.
	Functions []FunctionDef
	// Dataflows is the merged dataflow set, sorted by name.
	Dataflows []DataflowDef
	// Triggers is the merged trigger set, sorted by key; child
	// triggers on the same key override the parent's.
	Triggers []TriggerDef
	// Concurrency is the effective invocation concurrency mode
	// (inherited from the parent unless the child sets one; empty
	// defers to the platform default).
	Concurrency ConcurrencyMode
	// OCCValidate is the effective optimistic-commit validation scope
	// (inherited from the parent unless the child sets one; empty
	// means readset).
	OCCValidate OCCValidate
	// TimeoutMs is the effective class-level invocation deadline in
	// milliseconds (inherited from the parent unless the child sets
	// one; 0 defers to the platform default).
	TimeoutMs int
	// QoS and Constraint are the effective non-functional
	// requirements (child overrides parent field-by-field).
	QoS        QoS
	Constraint Constraints
}

// Trigger returns the upload trigger bound to a file key.
func (c *Class) Trigger(onUpload string) (TriggerDef, bool) {
	for _, tr := range c.Triggers {
		if !tr.IsEvent() && tr.OnUpload == onUpload {
			return tr, true
		}
	}
	return TriggerDef{}, false
}

// EventTriggers returns the class's event triggers (On set), in merge
// order.
func (c *Class) EventTriggers() []TriggerDef {
	var out []TriggerDef
	for _, tr := range c.Triggers {
		if tr.IsEvent() {
			out = append(out, tr)
		}
	}
	return out
}

// Function returns the named function definition.
func (c *Class) Function(name string) (FunctionDef, bool) {
	for _, f := range c.Functions {
		if f.Name == name {
			return f, true
		}
	}
	return FunctionDef{}, false
}

// Dataflow returns the named dataflow definition.
func (c *Class) Dataflow(name string) (DataflowDef, bool) {
	for _, d := range c.Dataflows {
		if d.Name == name {
			return d, true
		}
	}
	return DataflowDef{}, false
}

// Key returns the named key spec.
func (c *Class) Key(name string) (KeySpec, bool) {
	for _, k := range c.Keys {
		if k.Name == name {
			return k, true
		}
	}
	return KeySpec{}, false
}

// IsSubclassOf reports whether c inherits (transitively) from name, or
// is name itself — the polymorphic assignability check.
func (c *Class) IsSubclassOf(name string) bool {
	if c.Name == name {
		return true
	}
	for _, a := range c.Ancestry {
		if a == name {
			return true
		}
	}
	return false
}

// Resolve flattens inheritance for every class in the package against
// an optional set of already-deployed classes (so a package can extend
// classes from earlier deployments). It returns resolved classes
// keyed by name.
func Resolve(pkg *Package, existing map[string]*Class) (map[string]*Class, error) {
	defs := make(map[string]*ClassDef, len(pkg.Classes))
	for i := range pkg.Classes {
		defs[pkg.Classes[i].Name] = &pkg.Classes[i]
	}
	resolved := make(map[string]*Class, len(pkg.Classes))
	var resolve func(name string, trail []string) (*Class, error)
	resolve = func(name string, trail []string) (*Class, error) {
		if c, ok := resolved[name]; ok {
			return c, nil
		}
		for _, t := range trail {
			if t == name {
				return nil, fmt.Errorf("%w: %s", ErrInheritanceCycle, strings.Join(append(trail, name), " -> "))
			}
		}
		def, ok := defs[name]
		if !ok {
			// Fall back to a previously deployed class.
			if existing != nil {
				if c, ok := existing[name]; ok {
					return c, nil
				}
			}
			return nil, fmt.Errorf("%w: %q (referenced as parent)", ErrClassNotFound, name)
		}
		var parent *Class
		if def.Parent != "" {
			p, err := resolve(def.Parent, append(trail, name))
			if err != nil {
				return nil, err
			}
			parent = p
		}
		c := merge(def, parent)
		resolved[name] = c
		return c, nil
	}
	for name := range defs {
		if _, err := resolve(name, nil); err != nil {
			return nil, err
		}
	}
	return resolved, nil
}

// merge produces the resolved class for def given its resolved parent
// (nil for root classes).
func merge(def *ClassDef, parent *Class) *Class {
	c := &Class{Name: def.Name, Parent: def.Parent}
	keyIdx := make(map[string]int)
	fnIdx := make(map[string]int)
	flowIdx := make(map[string]int)
	trigIdx := make(map[string]int)
	if parent != nil {
		c.Ancestry = append(append([]string(nil), parent.Ancestry...), parent.Name)
		for _, k := range parent.Keys {
			keyIdx[k.Name] = len(c.Keys)
			c.Keys = append(c.Keys, k)
		}
		for _, f := range parent.Functions {
			fnIdx[f.Name] = len(c.Functions)
			c.Functions = append(c.Functions, f)
		}
		for _, d := range parent.Dataflows {
			flowIdx[d.Name] = len(c.Dataflows)
			c.Dataflows = append(c.Dataflows, d)
		}
		for _, tr := range parent.Triggers {
			trigIdx[tr.id()] = len(c.Triggers)
			c.Triggers = append(c.Triggers, tr)
		}
		c.QoS = parent.QoS
		c.Constraint = parent.Constraint
		c.Concurrency = parent.Concurrency
		c.OCCValidate = parent.OCCValidate
		c.TimeoutMs = parent.TimeoutMs
	}
	if def.Concurrency != ConcurrencyDefault {
		c.Concurrency = def.Concurrency
	}
	if def.OCCValidate != OCCValidateDefault {
		c.OCCValidate = def.OCCValidate
	}
	if def.TimeoutMs != 0 {
		c.TimeoutMs = def.TimeoutMs
	}
	for _, k := range def.KeySpecs {
		if i, ok := keyIdx[k.Name]; ok {
			c.Keys[i] = k // override
			continue
		}
		keyIdx[k.Name] = len(c.Keys)
		c.Keys = append(c.Keys, k)
	}
	for _, f := range def.Functions {
		if i, ok := fnIdx[f.Name]; ok {
			c.Functions[i] = f // polymorphic override
			continue
		}
		fnIdx[f.Name] = len(c.Functions)
		c.Functions = append(c.Functions, f)
	}
	for _, d := range def.Dataflows {
		if i, ok := flowIdx[d.Name]; ok {
			c.Dataflows[i] = d
			continue
		}
		flowIdx[d.Name] = len(c.Dataflows)
		c.Dataflows = append(c.Dataflows, d)
	}
	for _, tr := range def.Triggers {
		if i, ok := trigIdx[tr.id()]; ok {
			c.Triggers[i] = tr // child overrides parent's trigger
			continue
		}
		trigIdx[tr.id()] = len(c.Triggers)
		c.Triggers = append(c.Triggers, tr)
	}
	// Field-by-field QoS override: a child only overrides what it
	// sets explicitly.
	if def.QoS.ThroughputRPS != 0 {
		c.QoS.ThroughputRPS = def.QoS.ThroughputRPS
	}
	if def.QoS.LatencyMs != 0 {
		c.QoS.LatencyMs = def.QoS.LatencyMs
	}
	if def.QoS.Availability != 0 {
		c.QoS.Availability = def.QoS.Availability
	}
	if def.Constraint.Persistent != nil {
		c.Constraint.Persistent = def.Constraint.Persistent
	}
	if def.Constraint.BudgetUSD != 0 {
		c.Constraint.BudgetUSD = def.Constraint.BudgetUSD
	}
	if def.Constraint.Jurisdiction != "" {
		c.Constraint.Jurisdiction = def.Constraint.Jurisdiction
	}
	sort.Slice(c.Keys, func(i, j int) bool { return c.Keys[i].Name < c.Keys[j].Name })
	sort.Slice(c.Functions, func(i, j int) bool { return c.Functions[i].Name < c.Functions[j].Name })
	sort.Slice(c.Dataflows, func(i, j int) bool { return c.Dataflows[i].Name < c.Dataflows[j].Name })
	sort.Slice(c.Triggers, func(i, j int) bool { return c.Triggers[i].id() < c.Triggers[j].id() })
	return c
}

// ValidateResolved checks cross-member invariants that require the
// flattened view: an upload trigger must reference a declared file key
// and an existing function or dataflow; a self-targeting event trigger
// (no targetObject) must name a member of this class. Event triggers
// targeting another object cannot be checked here — the target's class
// is unknown until dispatch, where a bad reference fails the delivery.
func (c *Class) ValidateResolved() error {
	for _, tr := range c.Triggers {
		if tr.IsEvent() {
			if tr.Function != "" && tr.TargetObject == "" {
				if _, isFn := c.Function(tr.Function); !isFn {
					if _, isFlow := c.Dataflow(tr.Function); !isFlow {
						return fmt.Errorf("%w: class %q trigger on %q references unknown member %q",
							ErrValidation, c.Name, tr.On, tr.Function)
					}
				}
			}
			continue
		}
		spec, ok := c.Key(tr.OnUpload)
		if !ok || spec.Kind != KindFile {
			return fmt.Errorf("%w: class %q trigger references %q which is not a file key",
				ErrValidation, c.Name, tr.OnUpload)
		}
		if _, isFn := c.Function(tr.Function); !isFn {
			if _, isFlow := c.Dataflow(tr.Function); !isFlow {
				return fmt.Errorf("%w: class %q trigger on %q references unknown member %q",
					ErrValidation, c.Name, tr.OnUpload, tr.Function)
			}
		}
	}
	return nil
}

// FileKeys returns the names of file (unstructured) keys, sorted.
func (c *Class) FileKeys() []string {
	var out []string
	for _, k := range c.Keys {
		if k.Kind == KindFile {
			out = append(out, k.Name)
		}
	}
	return out
}
