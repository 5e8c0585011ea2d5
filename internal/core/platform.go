// Package core implements the Oparaca platform façade: the package
// manager that deploys class definitions through template-selected
// class runtimes, and the object manager that creates objects and
// routes method/dataflow invocations (paper §III).
//
// The platform owns the shared substrates — simulated cluster,
// document store, object store (served over HTTP for presigned URL
// access), function-image registry — and exposes the developer-facing
// operations the Oparaca CLI and REST gateway build on. Its own store
// writes (objects/, triggersubs/) hand over json.Marshal output, which
// the store keeps as is (kvstore's ownership rule).
package core

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/metrics"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/objectstore"
	"github.com/hpcclab/oparaca-go/internal/optimizer"
	"github.com/hpcclab/oparaca-go/internal/resilience"
	"github.com/hpcclab/oparaca-go/internal/runtime"
	"github.com/hpcclab/oparaca-go/internal/trace"
	"github.com/hpcclab/oparaca-go/internal/trigger"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Sentinel errors.
var (
	// ErrClassNotFound is returned for operations on unknown classes.
	ErrClassNotFound = errors.New("core: class not found")
	// ErrObjectNotFound is returned for operations on unknown objects.
	ErrObjectNotFound = errors.New("core: object not found")
	// ErrObjectExists is returned when creating a duplicate object ID.
	ErrObjectExists = errors.New("core: object already exists")
	// ErrMemberNotFound is returned when an invoked name is neither a
	// function nor a dataflow of the class.
	ErrMemberNotFound = errors.New("core: no such function or dataflow")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("core: platform closed")
	// ErrQueueFull is the async path's backpressure signal
	// (re-exported for errors.Is at the API boundary).
	ErrQueueFull = asyncq.ErrQueueFull
	// ErrInvocationNotFound is returned when polling an unknown
	// asynchronous invocation ID.
	ErrInvocationNotFound = asyncq.ErrNotFound
	// ErrClassQuotaExceeded is returned for async submissions that
	// would push a class past its Config.Async.ClassQuotas cap.
	ErrClassQuotaExceeded = asyncq.ErrClassQuotaExceeded
	// ErrOffsetCompacted is returned when reading an object's event log
	// below its retained floor (re-exported for errors.Is at the API
	// boundary; HTTP 410 at the gateway).
	ErrOffsetCompacted = eventlog.ErrOffsetCompacted
)

// Config sizes and tunes a Platform. The subsystem settings (DB, FaaS,
// Runtime, Async, Triggers, Trace) are declared, and their defaults
// documented, by the package that applies them; the platform passes
// each through whole.
type Config struct {
	// Workers is the number of simulated worker VMs (4 vCPU / 8 GiB
	// each). Defaults to 3 (the paper's smallest configuration).
	Workers int
	// OpsPerMilliCPU converts VM CPU into function executions/sec.
	// Defaults to 1 (i.e. 4000 ops/s per 4-vCPU VM).
	OpsPerMilliCPU float64
	// DB tunes the private document store New opens when Backing is
	// nil — the write ceiling behind the paper's Figure 3.
	DB kvstore.Settings
	// FaaS tunes every class runtime's function engine.
	FaaS faas.Settings
	// Runtime holds the invocation defaults of every class runtime.
	Runtime runtime.Settings
	// Async sizes the asynchronous invocation queue.
	Async asyncq.Settings
	// Triggers bounds trigger chains and tunes webhook delivery.
	Triggers trigger.Settings
	// Trace tunes the kept-trace ring when EnableTracing is on.
	Trace trace.Settings
	// Templates is the provider's template set; defaults to
	// runtime.DefaultTemplates().
	Templates []runtime.Template
	// EnableOptimizer starts the QoS control loop. Defaults off; the
	// gateway/daemon turns it on.
	EnableOptimizer bool
	// EnableTracing turns on end-to-end invocation tracing: every
	// gateway request / invocation opens a trace, spans cover each
	// pipeline stage, and completed traces are tail-sampled into a
	// bounded ring surfaced via the gateway's /api/traces. Defaults off
	// (like EnableOptimizer); the daemon turns it on. Off, the warm
	// invoke path pays zero allocations for the plumbing.
	EnableTracing bool
	// OptimizerInterval overrides the control-loop period.
	OptimizerInterval time.Duration
	// Regions adds extra data centers beyond the default region's
	// Workers (paper §VI future work: multi-datacenter deployment).
	// Classes whose Jurisdiction constraint names a region have their
	// function pods pinned there.
	Regions []RegionSpec
	// InterRegionLatency is the one-way network latency charged to an
	// invocation whose client region differs from the object's home
	// region (see InvokeRoutedFrom). Defaults to 0.
	InterRegionLatency time.Duration
	// OwnershipLeaseTTL enables the lease-based ownership layer when
	// positive: every worker VM holds a kvstore-persisted lease renewed
	// on a jittered heartbeat, objects map to live workers by
	// rendezvous hash, every state commit is epoch-fenced, and lease
	// expiry triggers rebalancing plus requeue of the dead node's
	// durable async work (see internal/cluster.Membership). Zero — the
	// default — disables the layer entirely: no heartbeats, no fence,
	// no hot-path overhead. Leases renew every TTL/3, and after a
	// rebalance routed invocations fast-fail with a retryable
	// "ownership moving" error for one such heartbeat.
	OwnershipLeaseTTL time.Duration
	// Breaker tunes the backing-store circuit breaker (zero fields take
	// the resilience package's defaults). While the breaker is open,
	// reads are served from the memtable cache where populated
	// (degraded mode) and writes fail fast with a Retry-After hint.
	Breaker resilience.Config
	// Chaos installs a seeded probabilistic fault schedule on the
	// backing store (the chaos harness). The zero plan injects nothing.
	Chaos kvstore.FaultPlan
	// EventLogMaxPerObject caps each object's retained log entries
	// (oldest evicted first). Defaults to 1024; negative disables the
	// cap.
	EventLogMaxPerObject int
	// ServeObjectStore starts a loopback HTTP server for the object
	// store so presigned URLs are fetchable. Defaults to true; benches
	// that never touch file keys can disable it.
	ServeObjectStore *bool
	// Backing injects an existing document store instead of opening a
	// fresh one — the restart path: a new platform against the store a
	// killed one wrote recovers its object directory, named trigger
	// subscriptions, event log and delivery cursors. The caller keeps
	// ownership (Close/Kill leave the store open). Nil opens a private
	// store tuned by DB.
	Backing *kvstore.Store
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.OpsPerMilliCPU <= 0 {
		c.OpsPerMilliCPU = 1
	}
	if len(c.Templates) == 0 {
		c.Templates = runtime.DefaultTemplates()
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	if c.ServeObjectStore == nil {
		yes := true
		c.ServeObjectStore = &yes
	}
	return c
}

// vmResources is every worker VM's capacity: 4 vCPU / 8 GiB.
var vmResources = cluster.Resources{MilliCPU: 4000, MemoryMB: 8192}

// RegionSpec sizes one additional data center.
type RegionSpec struct {
	// Name is the region identifier referenced by jurisdiction
	// constraints.
	Name string
	// Workers is the VM count in this region.
	Workers int
}

// objectRecord is the directory entry for one object, resident whether
// or not the object is ever invoked: the class, as an index into
// Platform.classNames (a 24-byte map slot with the id's header).
type objectRecord struct{ class uint32 }

// objectDoc is the persisted form of an objectRecord (objects/<id>);
// the creation time lives only here, nothing in memory reads it.
type objectDoc struct {
	Class   string    `json:"class"`
	Created time.Time `json:"created"`
}

// Platform is the Oparaca control plane plus its simulated data plane.
type Platform struct {
	cfg       Config
	cluster   *cluster.Cluster
	backing   *kvstore.Store
	objects   *objectstore.Store
	objectsLn net.Listener
	objectsSv *http.Server
	images    *invoker.Registry
	templates *runtime.TemplateRegistry
	optim     *optimizer.Optimizer
	queue     *asyncq.Queue
	bus       *trigger.Bus
	elog      *eventlog.Log
	breaker   *resilience.Breaker
	// tracer is the invocation trace collector; nil unless
	// Config.EnableTracing turned the subsystem on.
	tracer *trace.Tracer
	// own is the lease-based ownership layer; nil unless
	// Config.OwnershipLeaseTTL enabled it.
	own *ownership

	// ownsBacking is false when Config.Backing injected the store; the
	// caller then keeps it open across platform restarts.
	ownsBacking bool

	mu       sync.Mutex
	classes  map[string]*model.Class
	runtimes map[string]*runtime.ClassRuntime
	dir      map[string]objectRecord
	// classNames interns directory records' classes; classIDs inverts it.
	classNames []string
	classIDs   map[string]uint32
	closed     bool
}

// New builds a platform: worker VMs, document store, object store
// (optionally served over loopback HTTP), template registry and
// optimizer.
func New(cfg Config) (*Platform, error) {
	cfg = cfg.withDefaults()
	cl := cluster.New(cluster.Config{OpsPerMilliCPU: cfg.OpsPerMilliCPU, Clock: cfg.Clock})
	for i := 0; i < cfg.Workers; i++ {
		if _, err := cl.AddNode(fmt.Sprintf("vm-%02d", i), vmResources); err != nil {
			return nil, fmt.Errorf("core: adding worker: %w", err)
		}
	}
	for _, region := range cfg.Regions {
		if region.Name == "" || region.Workers <= 0 {
			return nil, fmt.Errorf("core: region spec needs a name and positive workers: %+v", region)
		}
		for i := 0; i < region.Workers; i++ {
			name := fmt.Sprintf("%s-vm-%02d", region.Name, i)
			if _, err := cl.AddRegionNode(name, region.Name, vmResources); err != nil {
				return nil, fmt.Errorf("core: adding worker in %s: %w", region.Name, err)
			}
		}
	}
	templates, err := runtime.NewTemplateRegistry(cfg.Templates...)
	if err != nil {
		return nil, err
	}
	backing := cfg.Backing
	ownsBacking := backing == nil
	if ownsBacking {
		backing = kvstore.Open(kvstore.Config{Settings: cfg.DB, Clock: cfg.Clock})
	}
	// undo stops what New has started so far, newest first — the order
	// Close tears a platform down in — when a later step fails.
	var undo []func()
	fail := func(err error) (*Platform, error) {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		return nil, err
	}
	if ownsBacking {
		undo = append(undo, backing.Close)
	}
	// One circuit breaker guards the backing store: the store consults
	// it on every operation (Allow before, Record after), so kvstore
	// failures trip it and successful probes close it regardless of
	// which subsystem — state tables, async records, event log — issued
	// the operation.
	breakerCfg := cfg.Breaker
	if breakerCfg.Clock == nil {
		breakerCfg.Clock = cfg.Clock
	}
	breaker := resilience.New(breakerCfg)
	backing.SetBreaker(breaker)
	if cfg.Chaos != (kvstore.FaultPlan{}) {
		backing.SetFaultPlan(cfg.Chaos)
	}
	p := &Platform{
		cfg:         cfg,
		cluster:     cl,
		backing:     backing,
		breaker:     breaker,
		ownsBacking: ownsBacking,
		objects:     objectstore.New(randomID(), cfg.Clock),
		images:      invoker.NewRegistry(),
		templates:   templates,
		classes:     make(map[string]*model.Class),
		runtimes:    make(map[string]*runtime.ClassRuntime),
		dir:         make(map[string]objectRecord),
		classIDs:    make(map[string]uint32),
	}
	p.optim = optimizer.New(optimizer.Config{Interval: cfg.OptimizerInterval, Clock: cfg.Clock})
	if cfg.EnableTracing {
		p.tracer = trace.New(trace.Config{
			Settings: cfg.Trace,
			Seed:     uint64(cfg.Chaos.Seed),
			Now:      cfg.Clock.Now,
		})
	}
	// The durable event log: every published event is appended (one
	// write-through batch per publication) before dispatch, and sink
	// delivery cursors persist beside it, so published events and
	// delivery progress survive process death. What gets published is
	// decided per object by trigger.Bus.NeedsEvents.
	p.elog, err = eventlog.New(eventlog.Config{
		Backing:      p.backing,
		MaxPerObject: cfg.EventLogMaxPerObject,
		Clock:        cfg.Clock,
	})
	if err != nil {
		return fail(fmt.Errorf("core: event log: %w", err))
	}
	undo = append(undo, p.elog.Close)
	if err := p.elog.LoadCursors(context.Background()); err != nil {
		return fail(fmt.Errorf("core: recovering event cursors: %w", err))
	}
	// The event bus routes committed-state and terminal-invocation
	// events to data-triggered methods (record-less groups on the async
	// queue, see chain), webhooks, and live streams.
	p.bus, err = trigger.New(trigger.Config{
		InvokeAsync: p.chain,
		Log:         p.elog,
		Settings:    cfg.Triggers,
		JitterSeed:  cfg.Chaos.Seed,
		Tracer:      p.tracer,
		Clock:       cfg.Clock,
	})
	if err != nil {
		return fail(fmt.Errorf("core: event bus: %w", err))
	}
	undo = append(undo, p.bus.Close)
	// The async queue drains every group it pulls — a lone task is a
	// group of one — through invokeGroup, and persists its invocation
	// records in the shared document store. Terminal records publish
	// InvocationCompleted/InvocationFailed events, and the queue's Close
	// drains the bus so pending webhook deliveries flush before teardown.
	// Ownership fence/transition errors mean "the work is fine, the
	// owner moved": the queue requeues such tasks to be re-dispatched
	// under the new ownership instead of failing them.
	var requeue func(error) bool
	if cfg.OwnershipLeaseTTL > 0 {
		requeue = requeueable
	}
	p.queue, err = asyncq.New(asyncq.Config{
		Invoke:     p.invokeGroup,
		Settings:   cfg.Async,
		Target:     p.asyncTarget,
		OnTerminal: p.onAsyncTerminal,
		Drain:      p.bus.Drain,
		Backing:    p.backing,
		Requeue:    requeue,
		Clock:      cfg.Clock,
	})
	if err != nil {
		return fail(fmt.Errorf("core: async queue: %w", err))
	}
	undo = append(undo, p.queue.Close)
	// The ownership layer joins every worker VM once the queue and bus
	// exist, because its rebalance hook requeues stranded async work
	// through them.
	if cfg.OwnershipLeaseTTL > 0 {
		p.own, err = newOwnership(p, cfg)
		if err != nil {
			return fail(err)
		}
		undo = append(undo, p.own.members.Close)
	}
	// Recover durable control-plane state from the backing store: the
	// object directory and named trigger subscriptions. Re-registering
	// a subscription schedules redelivery of any backlog its stored
	// cursors point at, so deliveries a crash interrupted resume here.
	if err := p.recover(context.Background()); err != nil {
		return fail(err)
	}
	if *cfg.ServeObjectStore {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("core: object store listener: %w", err))
		}
		p.objectsLn = ln
		p.objectsSv = &http.Server{Handler: p.objects.Handler()}
		go func() { _ = p.objectsSv.Serve(ln) }()
	}
	if cfg.EnableOptimizer {
		p.optim.Start()
	}
	// Upload triggers (paper §II-D): object-store writes fire the
	// functions declared in class trigger definitions.
	p.objects.Subscribe(p.handleUpload)
	return p, nil
}

// recover reloads durable control-plane state persisted by a previous
// platform against the same backing store: the object directory and
// the named trigger subscriptions. Re-registering a subscription
// schedules consumer runs for its stored cursors, so deliveries a
// crash interrupted are re-attempted. On a fresh store both scans are
// empty and recovery is two cheap reads.
func (p *Platform) recover(ctx context.Context) error {
	keys, err := p.backing.List(ctx, "objects/")
	if err != nil {
		return fmt.Errorf("core: recovering object directory: %w", err)
	}
	if len(keys) > 0 {
		docs, err := p.backing.BatchGet(ctx, keys)
		if err != nil {
			return fmt.Errorf("core: recovering object directory: %w", err)
		}
		p.mu.Lock()
		for _, k := range keys {
			doc, ok := docs[k]
			if !ok {
				continue
			}
			var rec objectDoc
			if json.Unmarshal(doc.Value, &rec) != nil || rec.Class == "" {
				continue
			}
			p.dir[strings.TrimPrefix(k, "objects/")] = p.recordLocked(rec.Class)
		}
		p.mu.Unlock()
	}
	subKeys, err := p.backing.List(ctx, "triggersubs/")
	if err != nil {
		return fmt.Errorf("core: recovering trigger subscriptions: %w", err)
	}
	if len(subKeys) > 0 {
		docs, err := p.backing.BatchGet(ctx, subKeys)
		if err != nil {
			return fmt.Errorf("core: recovering trigger subscriptions: %w", err)
		}
		for _, k := range subKeys {
			doc, ok := docs[k]
			if !ok {
				continue
			}
			var sub trigger.Subscription
			if json.Unmarshal(doc.Value, &sub) != nil {
				continue
			}
			// Subscribe re-stamps the deterministic "named/<name>"
			// identity, so the recovered subscription finds the same
			// cursors the killed platform persisted.
			_ = p.bus.Subscribe(strings.TrimPrefix(k, "triggersubs/"), sub)
		}
	}
	return nil
}

// handleUpload dispatches object-store upload events to the triggers
// declared on the owning class. Like S3+Lambda, a trigger function
// that writes back to its own trigger key will loop; avoiding that is
// the application's responsibility.
func (p *Platform) handleUpload(ev objectstore.UploadEvent) {
	p.mu.Lock()
	var rt *runtime.ClassRuntime
	for _, r := range p.runtimes {
		if r.Bucket() == ev.Bucket {
			rt = r
			break
		}
	}
	closed := p.closed
	p.mu.Unlock()
	if rt == nil || closed {
		return
	}
	idx := strings.LastIndex(ev.Key, "/")
	if idx <= 0 {
		return
	}
	objectID, fileKey := ev.Key[:idx], ev.Key[idx+1:]
	tr, ok := rt.Class().Trigger(fileKey)
	if !ok {
		return
	}
	if _, err := p.ObjectClass(objectID); err != nil {
		return // upload to an unknown object: nothing to trigger
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return
	}
	ctx, cancel := p.cfg.Clock.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The upload has landed whatever the function does; its failures
	// show in the class runtime's own invoke metrics.
	_, _ = p.Invoke(ctx, objectID, tr.Function, payload, map[string]string{"trigger": "onUpload"})
}

// onAsyncTerminal publishes the terminal event of an asynchronous
// invocation (wired as the queue's OnTerminal hook) when someone can
// read it — the same predicate the commit exit asks. The submission
// args carry the trigger-chain depth, so reactions to completions stay
// cycle-limited like state-change chains.
func (p *Platform) onAsyncTerminal(rec asyncq.Record, args map[string]string) {
	class, _ := p.ObjectClass(rec.Object) // "" once the object is deleted
	if !p.bus.NeedsEvents(class, rec.Object) {
		return
	}
	typ := trigger.InvocationCompleted
	if rec.Status == asyncq.StatusFailed || rec.Status == asyncq.StatusExpired {
		// An expired invocation never ran to commit; reactions treat it
		// like any other failure (the record keeps the precise status).
		typ = trigger.InvocationFailed
	}
	p.bus.Publish(trigger.Event{
		Type:       typ,
		Class:      class,
		Object:     rec.Object,
		Function:   rec.Member,
		Invocation: rec.ID,
		Error:      rec.Error,
		Depth:      trigger.DepthOf(args),
	})
}

// TriggerBus exposes the event bus (stats and tests).
func (p *Platform) TriggerBus() *trigger.Bus { return p.bus }

// SubscribeTrigger registers (or replaces) a named dynamic event
// subscription and persists it, so a platform restart against the
// same backing store restores the subscription — and resumes its
// delivery cursors. The subscription is live only once it is stored:
// an invalid one (errors.Is trigger.ErrInvalidSubscription) or a failed
// store write changes nothing. YAML-declared class triggers are managed
// separately by DeployPackage and are not addressable here.
func (p *Platform) SubscribeTrigger(name string, sub trigger.Subscription) error {
	if name == "" {
		return fmt.Errorf("%w: needs a name", trigger.ErrInvalidSubscription)
	}
	if err := sub.Validate(); err != nil {
		return err
	}
	raw, err := json.Marshal(sub)
	if err != nil {
		return err
	}
	if _, err := p.backing.Put(context.Background(), "triggersubs/"+name, raw); err != nil {
		return fmt.Errorf("core: persisting trigger subscription: %w", err)
	}
	return p.bus.Subscribe(name, sub)
}

// UnsubscribeTrigger removes a named dynamic subscription, reporting
// whether it existed. It deletes the stored subscription first, so a
// failed delete leaves it live and returns the error rather than let a
// restart resurrect it. The stored delivery cursors are kept:
// re-subscribing under the same name resumes them.
func (p *Platform) UnsubscribeTrigger(name string) (bool, error) {
	if err := p.backing.Delete(context.Background(), "triggersubs/"+name); err != nil {
		return false, fmt.Errorf("core: deleting trigger subscription: %w", err)
	}
	return p.bus.Unsubscribe(name), nil
}

// TriggerSubscriptions lists the named dynamic subscriptions (sorted
// names plus the subscription per name).
func (p *Platform) TriggerSubscriptions() ([]string, map[string]trigger.Subscription) {
	return p.bus.Subscriptions()
}

// StreamEvents opens a live event tail for one object (the gateway's
// SSE feed). buf bounds consumer lag (<=0 selects the default); a
// stream whose buffer fills loses events rather than stalling
// dispatch — the gateway heals such gaps by replaying ReadEvents.
// Callers must Close the stream.
func (p *Platform) StreamEvents(objectID string, buf int) (*trigger.Stream, error) {
	if _, err := p.ObjectClass(objectID); err != nil {
		return nil, err
	}
	return p.bus.Stream(objectID, buf), nil
}

// EventLog exposes the durable event log (tests and stats).
func (p *Platform) EventLog() *eventlog.Log { return p.elog }

// EventLogEntry is one stored event-log record, re-exported so API
// consumers (gateway, CLI helpers) need not import internal/eventlog.
type EventLogEntry = eventlog.Entry

// ReadEvents returns up to max retained entries of one object's
// durable event log starting at offset from (1-based; <=0 reads from
// the start, max<=0 is unlimited). Reading below the retained floor
// fails with ErrOffsetCompacted.
func (p *Platform) ReadEvents(ctx context.Context, objectID string, from int64, max int) ([]eventlog.Entry, error) {
	if _, err := p.ObjectClass(objectID); err != nil {
		return nil, err
	}
	return p.elog.Read(ctx, objectID, from, max)
}

// randomID returns an 8-byte hex identifier.
func randomID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("core: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Images returns the container-image registry. Developers register
// their function handlers here, keyed by the image names used in
// class definitions.
func (p *Platform) Images() *invoker.Registry { return p.images }

// Cluster exposes the simulated cluster (benches scale VM counts).
func (p *Platform) Cluster() *cluster.Cluster { return p.cluster }

// Backing exposes the document store (benches inspect write stats).
func (p *Platform) Backing() *kvstore.Store { return p.backing }

// Clock is the platform's clock, on which the gateway arms the deadlines
// a request asks for, so they expire in the time the platform keeps.
func (p *Platform) Clock() vclock.Clock { return p.cfg.Clock }

// ObjectStoreURL returns the loopback base URL of the served object
// store ("" when serving is disabled).
func (p *Platform) ObjectStoreURL() string {
	if p.objectsLn == nil {
		return ""
	}
	return "http://" + p.objectsLn.Addr().String()
}

// Optimizer exposes the QoS control loop.
func (p *Platform) Optimizer() *optimizer.Optimizer { return p.optim }

// infra assembles the Infra view handed to class runtimes.
func (p *Platform) infra() runtime.Infra {
	inf := runtime.Infra{
		Cluster:        p.cluster,
		Transport:      newRoutingTransport(p.images, p.cfg.Clock),
		Backing:        p.backing,
		Objects:        p.objects,
		ObjectsBaseURL: p.ObjectStoreURL(),
		Settings:       p.cfg.Runtime,
		FaaS:           p.cfg.FaaS,
		Events:         p.bus.PublishBatch,
		EventsNeeded:   p.bus.NeedsEvents,
		Degraded:       p.Degraded,
		Clock:          p.cfg.Clock,
	}
	if p.own != nil {
		// Only installed when the ownership layer exists, so a platform
		// without it pays nothing on the commit path.
		inf.Fence = p.fence
	}
	return inf
}

// Breaker exposes the backing-store circuit breaker.
func (p *Platform) Breaker() *resilience.Breaker { return p.breaker }

// Tracer exposes the invocation trace collector (nil when tracing is
// disabled). The gateway roots request spans here and serves the kept
// ring via /api/traces.
func (p *Platform) Tracer() *trace.Tracer { return p.tracer }

// Degraded reports whether the platform is in degraded mode: the
// backing-store breaker is not closed, so reads serve from the
// memtable cache where populated and writes fail fast.
func (p *Platform) Degraded() bool {
	return p.breaker.State() != resilience.StateClosed
}

// DeployPackage resolves and deploys every class in pkg, selecting a
// template per class from the declared non-functional requirements and
// instantiating a dedicated class runtime (paper §IV step 5).
// Redeploying an existing class replaces its runtime; object state
// survives in the shared stores.
func (p *Platform) DeployPackage(ctx context.Context, pkg *model.Package) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := pkg.Validate(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	resolved, err := model.Resolve(pkg, p.classes)
	if err != nil {
		return nil, err
	}
	// Cross-member checks need the flattened view (triggers may
	// reference inherited keys/functions).
	for _, class := range resolved {
		if err := class.ValidateResolved(); err != nil {
			return nil, err
		}
	}
	// Select templates first so a selection failure deploys nothing.
	selections := make(map[string]runtime.Template, len(resolved))
	for name, class := range resolved {
		tmpl, err := p.templates.Select(class)
		if err != nil {
			return nil, err
		}
		selections[name] = tmpl
	}
	deployed := make([]string, 0, len(resolved))
	for name, class := range resolved {
		rt, err := runtime.New(p.infra(), class, selections[name])
		if err != nil {
			return nil, fmt.Errorf("core: deploying class %s: %w", name, err)
		}
		if old, ok := p.runtimes[name]; ok {
			p.optim.Unmanage(name)
			old.Close()
		}
		p.classes[name] = class
		p.runtimes[name] = rt
		p.optim.Manage(rt)
		// Register the class's YAML-declared event triggers; a redeploy
		// replaces the whole set.
		subs := make([]trigger.Subscription, 0, len(class.Triggers))
		for _, tr := range class.EventTriggers() {
			subs = append(subs, trigger.Subscription{
				// The declaration-derived identity keys the trigger's
				// durable delivery cursors, so redeploys (even with the
				// trigger list reordered) resume rather than restart.
				ID:             "class/" + name + "/" + tr.Identity(),
				Class:          name,
				Type:           trigger.EventType(tr.On),
				KeyPrefix:      tr.KeyPrefix,
				TargetObject:   tr.TargetObject,
				TargetFunction: tr.Function,
				Webhook:        tr.Webhook,
			})
		}
		p.bus.SetClassTriggers(name, subs)
		deployed = append(deployed, name)
	}
	sort.Strings(deployed)
	return deployed, nil
}

// DeployYAML parses and deploys a YAML package.
func (p *Platform) DeployYAML(ctx context.Context, data []byte) ([]string, error) {
	pkg, err := model.ParseYAML(data)
	if err != nil {
		return nil, err
	}
	return p.DeployPackage(ctx, pkg)
}

// Class returns a deployed, resolved class.
func (p *Platform) Class(name string) (*model.Class, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.classes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrClassNotFound, name)
	}
	return c, nil
}

// Classes returns deployed class names, sorted.
func (p *Platform) Classes() []string {
	classes, _, _ := p.runtimeList()
	return classes
}

// Runtime returns the class runtime for a deployed class.
func (p *Platform) Runtime(class string) (*runtime.ClassRuntime, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rt, ok := p.runtimes[class]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrClassNotFound, class)
	}
	return rt, nil
}

// CreateObject instantiates an object of a class. Empty id generates
// one. The object's default state is initialized and the directory
// entry persisted.
func (p *Platform) CreateObject(ctx context.Context, class, id string) (string, error) {
	rt, err := p.Runtime(class)
	if err != nil {
		return "", err
	}
	if id == "" {
		id = class + "-" + randomID()
	}
	if strings.ContainsAny(id, "/ ") {
		return "", fmt.Errorf("core: object id %q must not contain '/' or spaces", id)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return "", ErrClosed
	}
	if _, exists := p.dir[id]; exists {
		p.mu.Unlock()
		return "", fmt.Errorf("%w: %q", ErrObjectExists, id)
	}
	rec := objectDoc{Class: class, Created: p.cfg.Clock.Now()}
	p.dir[id] = p.recordLocked(class)
	p.mu.Unlock()
	if err := rt.InitObjectState(ctx, id); err != nil {
		p.mu.Lock()
		delete(p.dir, id)
		p.mu.Unlock()
		return "", err
	}
	// Persist the directory entry (control plane write).
	raw, _ := json.Marshal(rec)
	if _, err := p.backing.Put(ctx, "objects/"+id, raw); err != nil {
		p.mu.Lock()
		delete(p.dir, id)
		p.mu.Unlock()
		return "", fmt.Errorf("core: persisting object record: %w", err)
	}
	return id, nil
}

// recordLocked builds a directory record. Callers hold p.mu.
func (p *Platform) recordLocked(class string) objectRecord {
	id, ok := p.classIDs[class]
	if !ok {
		id = uint32(len(p.classNames))
		p.classNames = append(p.classNames, class)
		p.classIDs[class] = id
	}
	return objectRecord{class: id}
}

// DeleteObject removes an object and all its state.
func (p *Platform) DeleteObject(ctx context.Context, id string) error {
	rt, _, err := p.objectRuntime(id)
	if err != nil {
		return err
	}
	if err := rt.DeleteObjectState(ctx, id); err != nil {
		return err
	}
	p.mu.Lock()
	delete(p.dir, id)
	p.mu.Unlock()
	if err := p.elog.Drop(ctx, id); err != nil {
		return fmt.Errorf("core: dropping %s event log: %w", id, err)
	}
	return p.backing.Delete(ctx, "objects/"+id)
}

// ObjectClass returns the class name of an object.
func (p *Platform) ObjectClass(id string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.dir[id]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrObjectNotFound, id)
	}
	return p.classNames[rec.class], nil
}

// ListObjects returns object IDs (optionally filtered by class),
// sorted. The filter honors polymorphism: objects of subclasses are
// included when listing a parent class.
func (p *Platform) ListObjects(class string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for id, rec := range p.dir {
		if class != "" {
			c, ok := p.classes[p.classNames[rec.class]]
			if !ok || !c.IsSubclassOf(class) {
				continue
			}
		}
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// objectRuntime resolves an object ID to its class runtime.
func (p *Platform) objectRuntime(id string) (*runtime.ClassRuntime, string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, "", ErrClosed
	}
	rec, ok := p.dir[id]
	if !ok {
		return nil, "", fmt.Errorf("%w: %q", ErrObjectNotFound, id)
	}
	class := p.classNames[rec.class]
	rt, ok := p.runtimes[class]
	if !ok {
		return nil, "", fmt.Errorf("%w: %q (object %q orphaned)", ErrClassNotFound, class, id)
	}
	return rt, class, nil
}

// HomeRegion returns the data center an object's class runtime lives
// in: its class's jurisdiction constraint, or the default region.
func (p *Platform) HomeRegion(objectID string) (string, error) {
	rt, _, err := p.objectRuntime(objectID)
	if err != nil {
		return "", err
	}
	return homeRegion(rt), nil
}

func homeRegion(rt *runtime.ClassRuntime) string {
	if j := rt.Class().Constraint.Jurisdiction; j != "" {
		return j
	}
	return cluster.DefaultRegion
}

// Invocation returns the record of an asynchronous invocation: the
// durable document, read as running while the invocation executes in
// this process. The record's Payload and Result are shared with the
// record table or the backing store — keep them as long as you like, a
// later transition or an eviction never touches their bytes — and must
// not be written into.
func (p *Platform) Invocation(ctx context.Context, id string) (asyncq.Record, error) {
	return p.queue.Get(ctx, id)
}

// WaitInvocation blocks until the invocation reaches a terminal status
// (completed, failed or expired) or ctx is done. Like Invocation's, the
// record's Result is shared — here with the record table, the backing
// store or the worker that woke the wait — and must not be written into.
func (p *Platform) WaitInvocation(ctx context.Context, id string) (asyncq.Record, error) {
	return p.queue.Wait(ctx, id)
}

// AsyncQueue exposes the asynchronous invocation queue (metrics and
// stats inspection).
func (p *Platform) AsyncQueue() *asyncq.Queue { return p.queue }

// GetState reads one structured state key of an object.
func (p *Platform) GetState(ctx context.Context, objectID, key string) (json.RawMessage, error) {
	rt, _, err := p.objectRuntime(objectID)
	if err != nil {
		return nil, err
	}
	return rt.GetState(ctx, objectID, key)
}

// PutState writes one structured state key of an object.
func (p *Platform) PutState(ctx context.Context, objectID, key string, value json.RawMessage) error {
	rt, _, err := p.objectRuntime(objectID)
	if err != nil {
		return err
	}
	return rt.PutState(ctx, objectID, key, value)
}

// PresignFile returns a presigned URL for an object's file key.
func (p *Platform) PresignFile(objectID, key, method string) (string, error) {
	rt, _, err := p.objectRuntime(objectID)
	if err != nil {
		return "", err
	}
	return rt.PresignFile(objectID, key, method)
}

// ResilienceStats is the failure-semantics view of a platform
// snapshot.
type ResilienceStats struct {
	// Breaker is the backing-store circuit breaker snapshot.
	Breaker resilience.Stats `json:"breaker"`
	// Degraded reports whether the platform is currently serving in
	// degraded mode (breaker not closed).
	Degraded bool `json:"degraded"`
	// DegradedReads counts state-table cache hits served while the
	// backing store was unavailable, summed across class runtimes.
	DegradedReads int64 `json:"degraded_reads"`
	// LeakedHandlers gauges handlers abandoned past their invocation
	// deadline that have not yet returned, summed across class
	// runtimes. A bounded value means stuck handlers terminate rather
	// than accumulate.
	LeakedHandlers int64 `json:"leaked_handlers"`
}

// Stats is a platform-wide snapshot.
type Stats struct {
	Workers     int                                 `json:"workers"`
	Classes     []string                            `json:"classes"`
	Objects     int                                 `json:"objects"`
	DB          kvstore.Stats                       `json:"db"`
	ByClass     map[string]float64                  `json:"throughput_rps"`
	Invocations int64                               `json:"invocations"`
	Async       asyncq.Stats                        `json:"async"`
	Concurrency map[string]runtime.ConcurrencyStats `json:"concurrency"`
	Triggers    trigger.Stats                       `json:"triggers"`
	Resilience  ResilienceStats                     `json:"resilience"`
	Cluster     ClusterStats                        `json:"cluster"`
}

// Stats snapshots the platform. It holds p.mu only to copy lists and
// count objects, never while reading a component.
func (p *Platform) Stats() Stats {
	classes, rts, objects := p.runtimeList()
	s := Stats{
		Workers:     p.cluster.NodeCount(),
		Classes:     classes,
		Objects:     objects,
		DB:          p.backing.Stats(),
		ByClass:     make(map[string]float64, len(rts)),
		Async:       p.queue.Stats(),
		Concurrency: make(map[string]runtime.ConcurrencyStats, len(rts)),
		Triggers:    p.bus.Stats(),
		Resilience:  p.Resilience(),
		Cluster:     p.ClusterStats(),
	}
	for i, rt := range rts {
		s.ByClass[classes[i]] = rt.ThroughputRPS()
		s.Invocations += rt.Metrics().Counter("invoke.total").Value()
		s.Concurrency[classes[i]] = rt.ConcurrencyStats()
	}
	return s
}

// Resilience snapshots the failure-semantics view (the gateway's
// readiness reads it), holding p.mu only to copy the class runtimes.
func (p *Platform) Resilience() ResilienceStats {
	_, rts, _ := p.runtimeList()
	rs := ResilienceStats{Breaker: p.breaker.Stats()}
	rs.Degraded = rs.Breaker.State != resilience.StateClosed.String()
	for _, rt := range rts {
		rs.DegradedReads += rt.Table().Stats().DegradedHits
		rs.LeakedHandlers += rt.LeakedHandlers()
	}
	return rs
}

// Registries lists every component registry /metrics renders: each
// class runtime's, labeled {class}, the queue's, the bus's, the
// breaker's, and the tracer's and the ownership layer's when they are
// on. Like Stats, it holds p.mu only to copy lists and count objects.
func (p *Platform) Registries() []metrics.LabeledRegistry {
	classes, rts, _ := p.runtimeList()
	regs := make([]metrics.LabeledRegistry, 0, len(rts)+5)
	for i, rt := range rts {
		regs = append(regs, metrics.LabeledRegistry{Labels: metrics.Labels("class", classes[i]), Reg: rt.Metrics()})
	}
	regs = append(regs,
		metrics.LabeledRegistry{Reg: p.queue.Metrics()},
		metrics.LabeledRegistry{Reg: p.bus.Metrics()},
		metrics.LabeledRegistry{Reg: p.breaker.Metrics()},
		metrics.LabeledRegistry{Reg: p.tracer.Metrics()},
	)
	if p.own != nil {
		regs = append(regs, p.ownershipRegistries()...)
	}
	return regs
}

// runtimeList copies, under p.mu, the deployed classes (sorted) with
// their runtimes, and the directory's object count.
func (p *Platform) runtimeList() (classes []string, rts []*runtime.ClassRuntime, objects int) {
	p.mu.Lock()
	classes = make([]string, 0, len(p.runtimes))
	for name := range p.runtimes {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	rts = make([]*runtime.ClassRuntime, len(classes))
	for i, name := range classes {
		rts[i] = p.runtimes[name]
	}
	objects = len(p.dir)
	p.mu.Unlock()
	return classes, rts, objects
}

// Flush forces all runtimes' pending state to the backing store.
func (p *Platform) Flush(ctx context.Context) {
	_, rts, _ := p.runtimeList()
	for _, rt := range rts {
		rt.Flush(ctx)
	}
}

// Close tears the platform down: async queue (drains accepted
// invocations — and, through its Drain hook, pending trigger
// deliveries — first, while runtimes are still alive), optimizer,
// runtimes (final state flushes), event bus (drains events emitted by
// the final flushes' window and closes live streams), object store
// server, and document store.
func (p *Platform) Close() {
	// Stop membership first: no rebalance may fire into a tearing-down
	// queue/bus. The fence stays answerable (epoch is in memory) for
	// invocations the queue drains below.
	if p.own != nil {
		p.own.members.Close()
	}
	// Drain before marking closed: queued invocations still route
	// through Invoke, which rejects work on a closed platform.
	p.queue.Close()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	// Closed, the platform deploys nothing more: the list is final.
	_, rts, _ := p.runtimeList()
	p.optim.Stop()
	for _, rt := range rts {
		rt.Close()
	}
	p.bus.Close()
	p.elog.Close()
	if p.objectsSv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = p.objectsSv.Shutdown(ctx)
		cancel()
	}
	if p.ownsBacking {
		p.backing.Close()
	}
}

// Kill models process death for crash/replay testing: nothing drains
// and nothing flushes. Queued async tasks and undispatched events are
// abandoned, in-flight webhook deliveries are cancelled, and every
// write-behind table (class state, async records, delivery cursors)
// is dropped without its final flush — only state already persisted
// in the backing store survives. An injected Config.Backing store is
// left open so a successor platform can recover from it.
func (p *Platform) Kill() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	_, rts, _ := p.runtimeList()
	if p.own != nil {
		// Heartbeats stop but leases are left to expire, so a successor
		// platform against the same backing store sees the death.
		p.own.members.Close()
	}
	p.optim.Stop()
	p.queue.Kill()
	p.bus.Kill()
	for _, rt := range rts {
		rt.Kill()
	}
	p.elog.Kill()
	if p.objectsSv != nil {
		_ = p.objectsSv.Close()
	}
	if p.ownsBacking {
		p.backing.Close()
	}
}
