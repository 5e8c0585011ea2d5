package runtime

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/dataflow"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/metrics"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/objectstore"
	"github.com/hpcclab/oparaca-go/internal/striped"
	"github.com/hpcclab/oparaca-go/internal/trace"
	"github.com/hpcclab/oparaca-go/internal/trigger"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Sentinel errors.
var (
	// ErrFunctionUnknown is returned for invocations of undeclared
	// methods.
	ErrFunctionUnknown = errors.New("runtime: function not declared on class")
	// ErrDataflowUnknown is returned for undeclared dataflows.
	ErrDataflowUnknown = errors.New("runtime: dataflow not declared on class")
	// ErrDeadlineExceeded is returned when an invocation outlives its
	// effective deadline (function TimeoutMs > class TimeoutMs >
	// platform default > request deadline). It wraps
	// context.DeadlineExceeded so errors.Is matches either sentinel.
	// An expired invocation never commits its state delta.
	ErrDeadlineExceeded = fmt.Errorf("runtime: invocation deadline exceeded: %w", context.DeadlineExceeded)
)

// Infra bundles the shared platform substrates a class runtime is
// wired to.
type Infra struct {
	// Cluster hosts function pods; required.
	Cluster *cluster.Cluster
	// Transport executes invocation tasks; required.
	Transport invoker.Transport
	// Backing is the persistent document store (required unless every
	// template is memory-only).
	Backing *kvstore.Store
	// Objects stores unstructured state; optional (file keys fail
	// without it).
	Objects *objectstore.Store
	// ObjectsBaseURL is the address the object store is served on,
	// used to render presigned URLs.
	ObjectsBaseURL string
	Settings
	// FaaS tunes the class's function engine.
	FaaS faas.Settings
	// Events receives the trigger.StateChanged events of one commit, one
	// per write invocation it carried whose state delta was non-empty, as
	// a single publication (all of them share the object): one for a call
	// that ran alone, up to one per call for a group, so the durable event
	// log appends them in one backing write like the commit itself. The
	// write window emits them after its commit landed, whatever the
	// regime — never on abort, for readonly calls, or for committed calls
	// that wrote nothing (no state changed, so there is nothing to react
	// to). The slice is the runtime's own and is reused once Events
	// returns: copy what you keep (trigger.Bus.PublishBatch keeps copies
	// of the events, never the slice). nil disables emission.
	Events func([]trigger.Event)
	// EventsNeeded, when set, reports whether an event of class on the
	// object could be read by anyone: a subscription on the class, a live
	// stream on the object, or an event log the object has already begun
	// (trigger.Bus.NeedsEvents). The write window consults it after the
	// commit landed and before constructing an event, so a commit nobody
	// can observe costs the warm path nothing. nil means events are
	// always needed.
	EventsNeeded func(class, objectID string) bool
	// Degraded reports whether the backing store is currently
	// unavailable (the platform wires it to the store's circuit
	// breaker); forwarded to the state table so cache hits served
	// during an outage are surfaced as degraded reads. nil means never
	// degraded.
	Degraded func() bool
	// Fence, when set, is consulted by the commit exit — the one place a
	// delta reaches the state table, in every regime and for single
	// calls and groups alike — immediately before the delta is
	// persisted. A non-nil return aborts the commit without writing
	// anything — the cluster ownership layer uses it to reject commits
	// admitted under an ownership epoch that has since moved, so a
	// paused or partitioned ex-owner can never double-commit. nil (the
	// default, and whenever ownership is disabled) costs the warm path
	// nothing. Read-only invocations and empty deltas never fence: they
	// commit nothing, so there is nothing to protect.
	Fence func(ctx context.Context, objectID string) error
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

// Settings are the invocation defaults a platform operator tunes
// (core.Config.Runtime).
type Settings struct {
	// ConcurrencyMode is the platform default for classes that do not
	// declare their own (model.ClassDef.Concurrency). Empty means
	// model.ConcurrencyAdaptive.
	ConcurrencyMode model.ConcurrencyMode
	// DefaultInvokeTimeout bounds invocations whose function and class
	// declare no TimeoutMs of their own. Zero leaves such invocations
	// without a platform-imposed deadline (request contexts still
	// apply).
	DefaultInvokeTimeout time.Duration
	// PprofLabels wraps handler execution in runtime/pprof.Do with
	// class/function labels so CPU profiles attribute samples to
	// handlers. Off by default: a goroutine-label swap per invocation
	// is measurable on the warm path.
	PprofLabels bool
}

func (i Infra) withDefaults() Infra {
	if i.Clock == nil {
		i.Clock = vclock.NewReal()
	}
	return i
}

// ClassRuntime is the dedicated deployment for one class.
type ClassRuntime struct {
	class *model.Class
	tmpl  Template
	infra Infra

	engine *faas.Engine
	table  *memtable.Table
	plans  map[string]*dataflow.Plan

	// stateSpecs are the class's structured (non-file) keys, cached so
	// the hot path never re-filters class.Keys.
	stateSpecs []model.KeySpec
	// fnKeys maps each declared function name to its engine-level key,
	// precomputed at construction so the hot path never re-concatenates
	// it. Read-only after New.
	fnKeys map[string]string
	// pprofLabels holds the per-function class/fn label set used when
	// Infra.PprofLabels is on, precomputed so the hot path never
	// rebuilds it. Read-only after New.
	pprofLabels map[string]pprof.LabelSet
	// statePrefix is "state/<class>/", the head of every state-table key
	// of the class; keyIndex maps a structured key name to its index in
	// stateSpecs. Membership in keyIndex doubles as the "in the versioned
	// snapshot" test, so file keys are deliberately absent (a file key
	// written as state takes commit's unconditional-write arm). Read-only
	// after New.
	statePrefix string
	keyIndex    map[string]int
	// concMode is the resolved concurrency mode for this class (class
	// declaration > platform default > adaptive).
	concMode model.ConcurrencyMode
	// occKeysOnly narrows optimistic commit validation from the full
	// read set to the written keys (model.OCCValidateKeys): methods
	// touching disjoint keys of one wide object stop aborting each
	// other, at the cost of admitting write skew on unwritten reads.
	occKeysOnly bool
	// delGuard is the per-object window guard, striped by object ID: two
	// distinct objects contend only on a stripe collision
	// (1/guardStripes per pair), trading a bounded chance of transient
	// false sharing for constant memory. A write window holds its
	// object's stripe from load to commit on the side its regime names
	// (see window.go): shared windows interleave with each other,
	// exclusive ones queue. DeleteObjectState/InitObjectState take it
	// exclusive, so a delete waits out every in-flight window and no
	// commit retry can resurrect a deleted object.
	delGuard *striped.RWMutexes
	// contention tracks CAS abort pressure per object (striped like
	// delGuard; a collision merely shares an EWMA, which only skews
	// the adaptive heuristic, never correctness).
	contention []contentionTracker
	// taskSeq generates invocation task IDs; seeded from the clock at
	// construction so IDs stay unique across runtime generations.
	taskSeq atomic.Uint64
	// leakedHandlers gauges handlers still running detached after
	// their invocation's deadline expired: the watchdog fails the
	// invocation and abandons the handler goroutine, and a reaper
	// decrements the gauge when the handler finally returns. A bounded
	// value means abandoned handlers terminate rather than pile up.
	leakedHandlers *metrics.Gauge

	reg   *metrics.Registry
	meter *metrics.Meter
}

// presignTTL bounds the validity of the presigned file URLs a task is
// handed and PresignFile renders.
const presignTTL = 15 * time.Minute

// guardStripes sizes the per-object guard table. 1024 stripes is 24KiB
// per class runtime and keeps the per-pair collision probability at
// ~0.1%, so false serialization between distinct hot objects is rare
// and transient.
const guardStripes = 1024

// Optimistic-concurrency tuning.
const (
	// maxOCCAttempts bounds the lock-free retry loop; past it the
	// invocation finishes behind the object's exclusive barrier so
	// progress never depends on winning a CAS race.
	maxOCCAttempts = 4
	// maxLockedCASAttempts bounds the under-barrier retry loop. Aborts
	// there come only from lock-free stragglers or direct PutState
	// writes, each of which implies another commit succeeded, so the
	// cap is a livelock backstop rather than an expected path.
	maxLockedCASAttempts = 16
	// contentionAlpha is the abort-rate EWMA smoothing factor.
	contentionAlpha = 0.125
	// lockFallbackRate / occResumeRate are the adaptive hysteresis
	// thresholds: above the first the object's invocations take the
	// barrier, below the second they return to lock-free OCC.
	lockFallbackRate = 0.5
	occResumeRate    = 0.15
)

// contentionTracker is a per-stripe abort-rate EWMA plus the sticky
// barrier/optimistic decision it drives. All fields are atomics: the
// tracker sits on the hot path of every invocation in adaptive mode.
type contentionTracker struct {
	ewma   atomic.Uint64 // math.Float64bits of the abort-rate EWMA
	locked atomic.Bool   // currently degraded to the barrier
}

// record folds one commit-attempt outcome (abort or success) into the
// EWMA.
func (c *contentionTracker) record(abort bool) {
	x := 0.0
	if abort {
		x = 1.0
	}
	for {
		old := c.ewma.Load()
		cur := math.Float64frombits(old)
		next := cur + contentionAlpha*(x-cur)
		if c.ewma.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// useLocked decides, with hysteresis, whether the next window on this
// stripe should run behind the barrier.
func (c *contentionTracker) useLocked() bool {
	rate := math.Float64frombits(c.ewma.Load())
	if c.locked.Load() {
		if rate < occResumeRate {
			c.locked.Store(false)
			return false
		}
		return true
	}
	if rate > lockFallbackRate {
		c.locked.Store(true)
		return true
	}
	return false
}

// New instantiates a class runtime from a template (paper Figure 2:
// "for a specific class, Oparaca uses one of its predefined templates
// to create a class runtime").
func New(infra Infra, class *model.Class, tmpl Template) (*ClassRuntime, error) {
	if class == nil {
		return nil, errors.New("runtime: nil class")
	}
	if err := tmpl.Validate(); err != nil {
		return nil, err
	}
	infra = infra.withDefaults()
	if infra.Cluster == nil || infra.Transport == nil {
		return nil, errors.New("runtime: Infra needs Cluster and Transport")
	}
	if tmpl.TableMode != memtable.ModeMemoryOnly && infra.Backing == nil {
		return nil, fmt.Errorf("runtime: template %q needs Infra.Backing", tmpl.Name)
	}

	table, err := memtable.New(memtable.Config{
		Mode:           tmpl.TableMode,
		Backing:        infra.Backing,
		Shards:         tmpl.Shards,
		FlushInterval:  tmpl.FlushInterval,
		FlushBatchSize: tmpl.FlushBatchSize,
		Degraded:       infra.Degraded,
		Clock:          infra.Clock,
	})
	if err != nil {
		return nil, fmt.Errorf("runtime: creating state table: %w", err)
	}

	engine, err := faas.NewEngine(faas.Config{
		Mode:      tmpl.EngineMode,
		Cluster:   infra.Cluster,
		Transport: infra.Transport,
		Settings:  infra.FaaS,
		Clock:     infra.Clock,
	})
	if err != nil {
		table.Close()
		return nil, fmt.Errorf("runtime: creating engine: %w", err)
	}

	delGuard := striped.NewRW(guardStripes)
	rt := &ClassRuntime{
		class:      class,
		tmpl:       tmpl,
		infra:      infra,
		engine:     engine,
		table:      table,
		plans:      make(map[string]*dataflow.Plan, len(class.Dataflows)),
		delGuard:   delGuard,
		contention: make([]contentionTracker, delGuard.Len()),
		reg:        metrics.NewRegistry(),
		meter:      metrics.NewMeter(10*time.Second, 10, infra.Clock.Now),
	}
	// Reading the stats creates every series they read: /metrics shows
	// each from the start.
	rt.reg.Counter("invoke.total")
	rt.ConcurrencyStats()
	rt.leakedHandlers = rt.reg.Gauge("leaked_handlers")
	rt.reg.GaugeFunc("class.throughput_rps", rt.ThroughputRPS)
	rt.reg.GaugeFunc("degraded_reads", func() float64 { return float64(table.Stats().DegradedHits) })
	rt.statePrefix = "state/" + class.Name + "/"
	rt.keyIndex = make(map[string]int, len(class.Keys))
	for _, k := range class.Keys {
		if k.Kind != model.KindFile {
			rt.keyIndex[k.Name] = len(rt.stateSpecs)
			rt.stateSpecs = append(rt.stateSpecs, k)
		}
	}
	rt.fnKeys = make(map[string]string, len(class.Functions))
	for _, fn := range class.Functions {
		rt.fnKeys[fn.Name] = rt.fnKey(fn.Name)
	}
	if infra.PprofLabels {
		rt.pprofLabels = make(map[string]pprof.LabelSet, len(class.Functions))
		for _, fn := range class.Functions {
			rt.pprofLabels[fn.Name] = pprof.Labels("class", class.Name, "fn", fn.Name)
		}
	}
	rt.occKeysOnly = class.OCCValidate == model.OCCValidateKeys
	rt.concMode = class.Concurrency
	if rt.concMode == model.ConcurrencyDefault {
		rt.concMode = infra.ConcurrencyMode
	}
	if rt.concMode == model.ConcurrencyDefault {
		rt.concMode = model.ConcurrencyAdaptive
	}
	if !rt.concMode.Valid() {
		rt.Close()
		return nil, fmt.Errorf("runtime: invalid concurrency mode %q (want occ, locked or adaptive)", rt.concMode)
	}
	rt.taskSeq.Store(uint64(infra.Clock.Now().UnixNano()))

	for _, fn := range class.Functions {
		conc := fn.Concurrency
		if conc <= 0 {
			conc = tmpl.DefaultConcurrency
		}
		spec := faas.FunctionSpec{
			Name:         rt.fnKey(fn.Name),
			Image:        fn.Image,
			Concurrency:  conc,
			Cost:         tmpl.InvokeCost,
			MinScale:     tmpl.MinScale,
			MaxScale:     tmpl.MaxScale,
			InitialScale: tmpl.InitialScale,
			// The jurisdiction constraint pins function pods to the
			// matching data center (paper §II-C).
			Region: class.Constraint.Jurisdiction,
		}
		if err := engine.Deploy(spec); err != nil {
			rt.Close()
			return nil, fmt.Errorf("runtime: deploying %s: %w", spec.Name, err)
		}
	}
	for _, df := range class.Dataflows {
		plan, err := dataflow.Compile(df)
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("runtime: compiling dataflow %s.%s: %w", class.Name, df.Name, err)
		}
		rt.plans[df.Name] = plan
	}
	if rt.infra.Objects != nil && len(class.FileKeys()) > 0 {
		if err := rt.infra.Objects.EnsureBucket(rt.Bucket()); err != nil {
			rt.Close()
			return nil, fmt.Errorf("runtime: creating bucket: %w", err)
		}
	}
	return rt, nil
}

// Class returns the runtime's resolved class.
func (rt *ClassRuntime) Class() *model.Class { return rt.class }

// Template returns the template the runtime was instantiated from.
func (rt *ClassRuntime) Template() Template { return rt.tmpl }

// Engine exposes the runtime's FaaS engine (used by the optimizer).
func (rt *ClassRuntime) Engine() *faas.Engine { return rt.engine }

// Table exposes the runtime's state table (used by benches/tests).
func (rt *ClassRuntime) Table() *memtable.Table { return rt.table }

// Metrics exposes the runtime's metric registry.
func (rt *ClassRuntime) Metrics() *metrics.Registry { return rt.reg }

// ConcurrencyStats counts optimistic-concurrency outcomes for one
// class runtime.
type ConcurrencyStats struct {
	// Mode is the resolved concurrency mode ("occ", "locked",
	// "adaptive").
	Mode string `json:"mode"`
	// Commits counts committed write invocations: one per successful
	// version-validated per-call commit, and one per call carried by a
	// successful merged group commit (InvokeBatch), so the counter
	// tracks invocations, not CAS operations. Aborts counts commit
	// passes rejected on a version mismatch; Retries counts
	// re-load+re-run passes after an abort; Fallbacks counts
	// invocations (or groups) that ran behind the exclusive barrier
	// because of retry exhaustion or an adaptive degradation.
	Commits   int64 `json:"commits"`
	Aborts    int64 `json:"aborts"`
	Retries   int64 `json:"retries"`
	Fallbacks int64 `json:"fallbacks"`
	// Readonly counts invocations served by the lock-free read-only
	// fast path.
	Readonly int64 `json:"readonly"`
}

// ConcurrencyStats snapshots the runtime's OCC counters.
func (rt *ClassRuntime) ConcurrencyStats() ConcurrencyStats {
	return ConcurrencyStats{
		Mode:      string(rt.concMode),
		Commits:   rt.reg.Counter("occ.commits").Value(),
		Aborts:    rt.reg.Counter("occ.aborts").Value(),
		Retries:   rt.reg.Counter("occ.retries").Value(),
		Fallbacks: rt.reg.Counter("occ.fallbacks").Value(),
		Readonly:  rt.reg.Counter("invoke.readonly").Value(),
	}
}

// ThroughputRPS reports the invocation rate over the last window.
func (rt *ClassRuntime) ThroughputRPS() float64 { return rt.meter.Rate() }

// Bucket returns the class's object-store bucket name.
func (rt *ClassRuntime) Bucket() string {
	return "cls-" + strings.ToLower(rt.class.Name)
}

// fnKey is the engine-level function name for a class method.
func (rt *ClassRuntime) fnKey(fn string) string {
	return rt.class.Name + "." + fn
}

// fnKeyFor is fnKey served from the precomputed table (falling back to
// concatenation for undeclared names, e.g. probes in tests).
func (rt *ClassRuntime) fnKeyFor(fn string) string {
	if k, ok := rt.fnKeys[fn]; ok {
		return k
	}
	return rt.fnKey(fn)
}

// stateKey is the table key for one object's state attribute.
func (rt *ClassRuntime) stateKey(objectID, key string) string {
	return rt.statePrefix + objectID + "/" + key
}

// fileKey is the object-store key for one object's file attribute.
func (rt *ClassRuntime) fileKey(objectID, key string) string {
	return objectID + "/" + key
}

// InitObjectState writes the class's default values for a new object.
// It holds the object's delete guard exclusive so no write window
// can interleave with initialization.
func (rt *ClassRuntime) InitObjectState(ctx context.Context, objectID string) error {
	if len(rt.stateSpecs) > 0 {
		guard := rt.delGuard.For(objectID)
		guard.Lock()
		defer guard.Unlock()
	}
	for _, k := range rt.class.Keys {
		if k.Kind == model.KindFile || len(k.Default) == 0 {
			continue
		}
		if err := rt.table.Put(ctx, rt.stateKey(objectID, k.Name), k.Default); err != nil {
			return fmt.Errorf("runtime: initializing %s/%s: %w", objectID, k.Name, err)
		}
	}
	return nil
}

// DeleteObjectState removes all of an object's state. It holds the
// object's delete guard exclusive, so it waits out every in-flight
// write window and no commit retry can resurrect state for a deleted
// object.
func (rt *ClassRuntime) DeleteObjectState(ctx context.Context, objectID string) error {
	if len(rt.stateSpecs) > 0 {
		guard := rt.delGuard.For(objectID)
		guard.Lock()
		defer guard.Unlock()
	}
	for _, k := range rt.class.Keys {
		if k.Kind == model.KindFile {
			if rt.infra.Objects != nil {
				if err := rt.infra.Objects.Delete(rt.Bucket(), rt.fileKey(objectID, k.Name)); err != nil &&
					!errors.Is(err, objectstore.ErrNoSuchBucket) {
					return err
				}
			}
			continue
		}
		if err := rt.table.Delete(ctx, rt.stateKey(objectID, k.Name)); err != nil {
			return err
		}
	}
	return nil
}

// GetState reads one structured state key of an object. Missing keys
// resolve to the class default (or kvstore.ErrNotFound-compatible
// memtable.ErrNotFound when there is none).
func (rt *ClassRuntime) GetState(ctx context.Context, objectID, key string) (json.RawMessage, error) {
	spec, ok := rt.class.Key(key)
	if !ok {
		return nil, fmt.Errorf("runtime: class %s has no key %q", rt.class.Name, key)
	}
	if spec.Kind == model.KindFile {
		return nil, fmt.Errorf("runtime: key %q is a file; use PresignFile", key)
	}
	v, err := rt.table.Get(ctx, rt.stateKey(objectID, key))
	if errors.Is(err, memtable.ErrNotFound) && len(spec.Default) > 0 {
		return spec.Default, nil
	}
	return v, err
}

// PutState writes one structured state key of an object directly
// (outside a method invocation — used by the gateway's state API). It
// is a blind write: unless some read asks for the key first, the value
// leaves the state table once its flush lands (memtable package doc),
// and the next read of it reads through the store.
func (rt *ClassRuntime) PutState(ctx context.Context, objectID, key string, value json.RawMessage) error {
	spec, ok := rt.class.Key(key)
	if !ok {
		return fmt.Errorf("runtime: class %s has no key %q", rt.class.Name, key)
	}
	if spec.Kind == model.KindFile {
		return fmt.Errorf("runtime: key %q is a file; upload via presigned URL", key)
	}
	return rt.table.Put(ctx, rt.stateKey(objectID, key), value)
}

// PresignFile returns a presigned URL authorizing method on an
// object's file key (paper §III-D).
func (rt *ClassRuntime) PresignFile(objectID, key, method string) (string, error) {
	spec, ok := rt.class.Key(key)
	if !ok || spec.Kind != model.KindFile {
		return "", fmt.Errorf("runtime: class %s has no file key %q", rt.class.Name, key)
	}
	if rt.infra.Objects == nil {
		return "", errors.New("runtime: no object store configured")
	}
	return rt.infra.Objects.PresignURL(rt.infra.ObjectsBaseURL, method, rt.Bucket(),
		rt.fileKey(objectID, key), presignTTL), nil
}

// loadState gathers an object's structured state for task bundling in
// one batched table read: every key of the object travels in a single
// GetManyInto, so a fully cold object costs one backing-store round trip
// instead of one per key.
func (rt *ClassRuntime) loadState(ctx context.Context, objectID string) (_ map[string]json.RawMessage, err error) {
	state := make(map[string]json.RawMessage, len(rt.stateSpecs))
	if len(rt.stateSpecs) == 0 {
		return state, nil
	}
	sp := trace.FromContext(ctx).Child("load")
	defer func() { sp.Error(err); sp.End() }()
	sc := getScratch()
	defer sc.release()
	keys := rt.keysFor(objectID, sc)
	if err := rt.table.GetManyInto(ctx, keys, sc.raw); err != nil {
		return nil, fmt.Errorf("runtime: loading state %s: %w", objectID, err)
	}
	for i, k := range rt.stateSpecs {
		if v, ok := sc.raw[keys[i]]; ok {
			state[k.Name] = v
		} else if len(k.Default) > 0 {
			state[k.Name] = k.Default
		}
	}
	return state, nil
}

// buildRefs signs presigned URLs for the object's file keys, fresh for
// each task: for each file key K the task gets K (GET) and "K!put"
// (PUT), each valid for presignTTL. The map is the task's own.
func (rt *ClassRuntime) buildRefs(objectID string) (map[string]string, error) {
	files := rt.class.FileKeys()
	if len(files) == 0 {
		return nil, nil
	}
	if rt.infra.Objects == nil {
		return nil, errors.New("runtime: class has file keys but no object store configured")
	}
	refs := make(map[string]string, 2*len(files))
	for _, k := range files {
		refs[k] = rt.infra.Objects.PresignURL(rt.infra.ObjectsBaseURL, http.MethodGet,
			rt.Bucket(), rt.fileKey(objectID, k), presignTTL)
		refs[k+"!put"] = rt.infra.Objects.PresignURL(rt.infra.ObjectsBaseURL, http.MethodPut,
			rt.Bucket(), rt.fileKey(objectID, k), presignTTL)
	}
	return refs, nil
}

// LeakedHandlers gauges handlers abandoned past their deadline that
// have not yet returned (see ClassRuntime.leakedHandlers).
func (rt *ClassRuntime) LeakedHandlers() int64 { return rt.leakedHandlers.Value() }

// EffectiveTimeout resolves one function's invocation deadline:
// function TimeoutMs beats the class default beats the platform
// default. Zero means no declared deadline (the request context may
// still carry one). The zero FunctionDef — a dataflow has none of its
// own — resolves to the class or platform default.
func (rt *ClassRuntime) EffectiveTimeout(fn model.FunctionDef) time.Duration {
	if fn.TimeoutMs > 0 {
		return time.Duration(fn.TimeoutMs) * time.Millisecond
	}
	if rt.class.TimeoutMs > 0 {
		return time.Duration(rt.class.TimeoutMs) * time.Millisecond
	}
	return rt.infra.DefaultInvokeTimeout
}

// withDeadline arms fn's effective deadline (the zero FunctionDef: a
// dataflow's) on ctx on the platform's clock, min-combining with any ctx
// carries. It is the runtime's one arm site; cancel must always be called.
func (rt *ClassRuntime) withDeadline(ctx context.Context, fn model.FunctionDef) (context.Context, context.CancelFunc) {
	if d := rt.EffectiveTimeout(fn); d > 0 {
		return rt.infra.Clock.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// deadlineError is the sentinel-wrapping error surfaced for one
// function's expired invocation.
func (rt *ClassRuntime) deadlineError(fn model.FunctionDef) error {
	return fmt.Errorf("%s.%s: %w", rt.class.Name, fn.Name, ErrDeadlineExceeded)
}

// ctxAbort translates an expired or cancelled invocation context into
// the error surfaced to the caller: deadline expiry maps to the
// runtime sentinel, plain cancellation passes through.
func (rt *ClassRuntime) ctxAbort(ctx context.Context, fn model.FunctionDef) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return rt.deadlineError(fn)
	}
	return ctx.Err()
}

// Invoke executes one method on an object: it bundles the object's
// state and the request into a standalone task, offloads it to the
// FaaS engine, and merges the returned state delta back into the state
// table (the pure-function contract, paper §III-C). The function's
// effective deadline (if any) is applied here, min-combining with
// whatever deadline the request context already carries.
func (rt *ClassRuntime) Invoke(ctx context.Context, objectID, function string, payload json.RawMessage, args map[string]string) (json.RawMessage, error) {
	fn, ok := rt.class.Function(function)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrFunctionUnknown, rt.class.Name, function)
	}
	ctx, cancel := rt.withDeadline(ctx, fn)
	defer cancel()
	start := rt.infra.Clock.Now()
	out, err := rt.invokeFn(ctx, objectID, fn, payload, args)
	rt.reg.Histogram("invoke.latency").Observe(rt.infra.Clock.Since(start))
	rt.reg.Counter("invoke.total").Inc()
	rt.meter.Mark(1)
	if err != nil {
		rt.reg.Counter("invoke.errors").Inc()
		return nil, err
	}
	return out, nil
}

// invokeFn is the uninstrumented invocation path. A function annotated
// readonly skips the guard and the commit entirely and serves
// concurrently straight from the state table, in every concurrency
// mode. Any other call is a one-call writeWindow: runWindow (window.go)
// picks the regime that protects its load→run→commit window from the
// class's concurrency mode, and commit is its only way to the table.
func (rt *ClassRuntime) invokeFn(ctx context.Context, objectID string, fn model.FunctionDef, payload json.RawMessage, args map[string]string) (json.RawMessage, error) {
	if fn.Readonly {
		return rt.invokeReadonly(ctx, objectID, fn, payload, args)
	}
	w := writeWindow{objectID: objectID, fn: fn, payload: payload, args: args}
	if err := rt.runWindow(ctx, &w); err != nil {
		return nil, err
	}
	return w.out, nil
}

// contentionFor returns the contention tracker of an object's stripe
// (aligned with its delete-guard stripe).
func (rt *ClassRuntime) contentionFor(objectID string) *contentionTracker {
	return &rt.contention[rt.delGuard.Index(objectID)]
}

// eventsNeeded reports whether a committed delta on one of this class's
// objects should be turned into a StateChanged event at all: an event
// sink must be wired, the class must be stateful, and — when the
// platform exposes consumer interest — someone must be able to read it
// (Infra.EventsNeeded). Checked before any event or key-slice
// allocation so an unobserved commit costs nothing.
func (rt *ClassRuntime) eventsNeeded(objectID string) bool {
	if rt.infra.Events == nil || len(rt.stateSpecs) == 0 {
		return false
	}
	return rt.infra.EventsNeeded == nil || rt.infra.EventsNeeded(rt.class.Name, objectID)
}

// deltaKeys returns a delta's key names, sorted (nil for an empty
// delta).
func deltaKeys(delta map[string]json.RawMessage) []string {
	if len(delta) == 0 {
		return nil
	}
	keys := make([]string, 0, len(delta))
	for k := range delta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// engineInvoke offloads one task to the FaaS engine, tagging the
// handler's CPU samples with class/function pprof labels when
// Infra.PprofLabels is on. Every handler runs through here, on whichever
// goroutine — the caller's, or the watchdog's when a deadline is armed —
// so this is where a handler panic is recovered, into that call's error:
// a panicking handler fails its own call, alone or in a group, and
// never the process.
func (rt *ClassRuntime) engineInvoke(ctx context.Context, fnk string, task invoker.Task) (res invoker.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = invoker.Result{}, fmt.Errorf("runtime: handler panic in %s.%s: %v", rt.class.Name, task.Function, r)
		}
	}()
	ls, ok := rt.pprofLabels[task.Function]
	if !ok {
		return rt.engine.Invoke(ctx, fnk, task)
	}
	pprof.Do(ctx, ls, func(ctx context.Context) {
		res, err = rt.engine.Invoke(ctx, fnk, task)
	})
	return res, err
}

// runTask bundles state and request into a standalone task and
// offloads it to the FaaS engine (the pure-function contract, paper
// §III-C). The stage runs under a "handler" span; a deadline expiry
// surfaces as the span's error, which keeps the trace.
func (rt *ClassRuntime) runTask(ctx context.Context, objectID string, fn model.FunctionDef, payload json.RawMessage, args map[string]string, state map[string]json.RawMessage) (_ invoker.Result, err error) {
	hs := trace.FromContext(ctx).Child("handler")
	if hs != nil {
		hs.SetAttr("class", rt.class.Name)
		hs.SetAttr("fn", fn.Name)
		defer func() { hs.Error(err); hs.End() }()
	}
	refs, err := rt.buildRefs(objectID)
	if err != nil {
		return invoker.Result{}, err
	}
	task := invoker.Task{
		ID:       buildTaskID(objectID, fn.Name, rt.taskSeq.Add(1)),
		Class:    rt.class.Name,
		Object:   objectID,
		Function: fn.Name,
		State:    state,
		Payload:  payload,
		Args:     args,
		Refs:     refs,
	}
	fnk := rt.fnKeyFor(fn.Name)
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		// No deadline, no watchdog: the warm path stays a plain call.
		return rt.engineInvoke(ctx, fnk, task)
	}
	type outcome struct {
		res invoker.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := rt.engineInvoke(ctx, fnk, task)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The handler noticed the expiry itself (or failed after
			// it); either way the invocation is expired, not failed.
			return invoker.Result{}, rt.deadlineError(fn)
		}
		return out.res, out.err
	case <-ctx.Done():
		// A handler stuck past its deadline: fail the invocation now —
		// the commit guards guarantee it can never commit — and leave a
		// reaper behind so the leaked-handler gauge drops when the
		// abandoned goroutine finally returns.
		rt.leakedHandlers.Add(1)
		go func() {
			<-done
			rt.leakedHandlers.Add(-1)
		}()
		return invoker.Result{}, rt.ctxAbort(ctx, fn)
	}
}

// invokeReadonly is the read-only fast path: no lock, no merge, no
// commit — the state snapshot is served straight from the memtable and
// any state delta the handler returns is a contract violation.
func (rt *ClassRuntime) invokeReadonly(ctx context.Context, objectID string, fn model.FunctionDef, payload json.RawMessage, args map[string]string) (json.RawMessage, error) {
	state, err := rt.loadState(ctx, objectID)
	if err != nil {
		return nil, err
	}
	res, err := rt.runTask(ctx, objectID, fn, payload, args, state)
	if err != nil {
		return nil, err
	}
	if len(res.State) > 0 {
		return nil, fmt.Errorf("runtime: readonly function %s.%s returned a state delta", rt.class.Name, fn.Name)
	}
	rt.reg.Counter("invoke.readonly").Inc()
	return res.Output, nil
}

// stateSnapshot is one version-stamped view of an object's structured
// state. state maps key names to values (class defaults resolved) and
// is handler-facing, so it is allocated fresh per attempt — never
// pooled. keys and sc are invocation-internal: keys are the object's
// table keys (keysFor: aligned with stateSpecs, backed by sc) and
// sc.got holds the versioned read set (every snapshot key present;
// absent keys carry the version a creating CAS expects). The owning
// attempt releases sc, which ends the snapshot.
type stateSnapshot struct {
	state map[string]json.RawMessage
	keys  []string
	sc    *invokeScratch
}

// loadStateVersioned gathers the object's structured state with the
// version of every key (including absent ones, whose version anchors a
// creating CAS), in one batched table read into the attempt's pooled
// scratch (fresh from the pool, so sc.got starts empty).
func (rt *ClassRuntime) loadStateVersioned(ctx context.Context, objectID string, sc *invokeScratch) (_ stateSnapshot, err error) {
	keys := rt.keysFor(objectID, sc)
	state := make(map[string]json.RawMessage, len(rt.stateSpecs))
	if len(rt.stateSpecs) == 0 {
		// A stateless class has nothing to read, and traces no load.
		return stateSnapshot{state: state, keys: keys, sc: sc}, nil
	}
	sp := trace.FromContext(ctx).Child("load")
	defer func() { sp.Error(err); sp.End() }()
	if err := rt.table.GetManyVersionedInto(ctx, keys, sc.got); err != nil {
		return stateSnapshot{}, fmt.Errorf("runtime: loading state %s: %w", objectID, err)
	}
	for i, k := range rt.stateSpecs {
		if vv := sc.got[keys[i]]; vv.Value != nil {
			state[k.Name] = vv.Value
		} else if len(k.Default) > 0 {
			state[k.Name] = k.Default
		}
	}
	return stateSnapshot{state: state, keys: keys, sc: sc}, nil
}

// InvokeDataflow runs a declared dataflow on an object. Each step
// invokes a class method on the same object; state deltas persist
// step-by-step per the pure-function contract. The flow runs under the
// class or platform default deadline as a whole, each step under its
// own. Only the flow's deadline surfaces as ErrDeadlineExceeded: a step's
// error stays text, as earlier steps may have committed.
func (rt *ClassRuntime) InvokeDataflow(ctx context.Context, objectID, flow string, payload json.RawMessage) (dataflow.Result, error) {
	plan, ok := rt.plans[flow]
	if !ok {
		return dataflow.Result{}, fmt.Errorf("%w: %s.%s", ErrDataflowUnknown, rt.class.Name, flow)
	}
	ctx, cancel := rt.withDeadline(ctx, model.FunctionDef{})
	defer cancel()
	res, err := plan.Execute(ctx, payload, func(ctx context.Context, function string, payload json.RawMessage) (json.RawMessage, error) {
		return rt.Invoke(ctx, objectID, function, payload, nil)
	})
	if err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		err = fmt.Errorf("%s.%s: %w (%s)", rt.class.Name, flow, ErrDeadlineExceeded, err)
	}
	return res, err
}

// Flush forces pending state to the backing store.
func (rt *ClassRuntime) Flush(ctx context.Context) { rt.table.Flush(ctx) }

// Close tears the runtime down: engine first (stops traffic), then the
// state table (final flush).
func (rt *ClassRuntime) Close() {
	if rt.engine != nil {
		rt.engine.Close()
	}
	if rt.table != nil {
		rt.table.Close()
	}
}

// Kill tears the runtime down WITHOUT the state table's final flush,
// modeling process death: dirty write-behind state is abandoned, as a
// crash would abandon it.
func (rt *ClassRuntime) Kill() {
	if rt.engine != nil {
		rt.engine.Close()
	}
	if rt.table != nil {
		rt.table.Kill()
	}
}
