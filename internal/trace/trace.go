// Package trace is the platform's dependency-free distributed-tracing
// layer: one trace per end-to-end invocation, spans for every stage it
// crosses (gateway HTTP, ownership admission, queue wait, drain
// dispatch, state load, handler execution, OCC attempts, commit, event
// log append, trigger dispatch, webhook delivery), linked across the
// async submit→drain boundary and across forwarded ingress→owner hops
// so a queued task's whole life is one trace.
//
// The design constraints come from the warm-path allocation contract
// (see internal/runtime/pool.go): a nil *Tracer — and a nil *Span —
// disables everything at the cost of a nil check, spans and trace
// accumulators are pooled, and a trace that the tail-based sampler
// drops returns every transient to its pool without materializing
// anything. A kept trace allocates only what the ring has to hold: one
// slice of span values and one of the attributes actually set, whatever
// the span count. The TraceView the API serves (hex IDs, attribute maps)
// is rendered when somebody reads the trace, outside the tracer lock —
// Root takes that lock on every request.
//
// Sampling is tail-based: the keep decision is made when the last span
// (or cross-goroutine link) of a trace finishes, so it can see the
// whole outcome. A trace is kept when any of:
//
//   - it was forced (the inbound W3C traceparent carried the sampled
//     flag — CI and debugging force traces this way);
//   - any span recorded an error (failures, fence rejections and
//     deadline expiries all surface as span errors);
//   - its root duration reaches the slowest-percentile threshold
//     learned from its route's recent roots (the "where did this one
//     slow invocation go" case). A route is the gateway's matched
//     pattern (Span.SetRoute) or else the root's span name, so an
//     invoke-batch is judged against other batches, not against the
//     long-polls around it. A route makes no slow keeps until it has
//     finished recomputeEvery roots;
//   - a seeded probabilistic sample (Config.SampleRate) selects it.
//
// Kept traces land in a bounded ring (Config.Capacity), indexed by
// trace ID and by the invocation IDs the trace touched, and are served
// by the gateway (`GET /api/traces`, `GET /api/invocations/{id}/trace`)
// and `ocli trace`.
//
// Propagation is W3C traceparent ("00-<trace-id>-<span-id>-<flags>"):
// the gateway accepts and emits the header, Event.Trace carries it into
// the trigger/event-log plane, and Tracer.Attach re-joins a trace from
// the bare header — attaching to the live trace when it is still open,
// or appending a late span to the kept trace when it already
// finalized (late spans after a sampled-out drop are lost by design).
package trace

import (
	"context"
	"encoding/hex"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/metrics"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// String returns the lowercase-hex form.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String returns the lowercase-hex form.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports an all-zero (invalid per W3C) trace ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// maxAttrs bounds the per-span attribute array; attrs past the bound
// are dropped. Fixed so attribute recording never allocates.
const maxAttrs = 6

// Attr is one span attribute. The fixed string/int split avoids
// interface boxing on the record path.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// Settings are the keep policy a platform operator tunes
// (core.Config.Trace).
type Settings struct {
	// Capacity bounds the kept-trace ring. Defaults to 256.
	Capacity int
	// SampleRate is the probabilistic keep rate for traces that are
	// neither forced, errored, nor slow. Defaults to 0.05 when zero;
	// negative disables probabilistic keeps entirely (forced / error /
	// slow traces are still kept).
	SampleRate float64
}

// Config tunes a Tracer.
type Config struct {
	Settings
	// Seed seeds the tracer's deterministic ID/sampling generator;
	// zero picks a fixed default.
	Seed uint64
	// Now supplies time (the platform passes its vclock). Defaults to
	// the real clock's.
	Now func() time.Time
}

// Tracer owns the active-trace table, the kept-trace ring, and the
// span/trace pools. A nil *Tracer is a valid disabled tracer: every
// method no-ops and Root/Attach return nil spans.
type Tracer struct {
	now        func() time.Time
	sampleRate float64
	capacity   int

	rng atomic.Uint64 // splitmix64 state

	mu sync.Mutex
	// settled is signalled under mu whenever finalize takes a trace out
	// of active; an Attach that found its trace finalizing waits on it.
	settled sync.Cond
	// active holds every trace until finalize has stored its kept view
	// in byID (or dropped it), so a trace is always in one or the other
	// while anything can still attach to it.
	active map[TraceID]*traceData
	ring   []*keptTrace // circular, capacity entries
	next   int
	byID   map[TraceID]*keptTrace
	byInv  map[string]*keptTrace
	// tails holds one recent-duration window per route. Routes are
	// strings fixed in the code (span names, mux patterns), so the map
	// stays small.
	tails map[string]*tail
	// sorted is where a threshold recompute sorts a window's copy.
	sorted [recentWindow]time.Duration

	// reg holds the traces.* series; the counters are resolved once, so
	// Root and finalize look nothing up.
	reg                    *metrics.Registry
	started, kept, dropped *metrics.Counter
}

const (
	recentWindow   = 128
	recomputeEvery = 64
	slowQuantile   = 0.95
)

// tail is one route's latest root durations and the slow-keep threshold
// learned from them, refreshed every recomputeEvery of its roots.
type tail struct {
	recent [recentWindow]time.Duration // ring, filled from index 0
	roots  int                         // roots finalized on the route
	slow   time.Duration               // 0 until learned
}

// observe records one root duration, refreshing the threshold on every
// recomputeEvery-th root; scratch is where the window is sorted.
func (tl *tail) observe(d time.Duration, scratch *[recentWindow]time.Duration) {
	tl.recent[tl.roots%recentWindow] = d
	tl.roots++
	if tl.roots%recomputeEvery == 0 {
		sorted := scratch[:min(tl.roots, recentWindow)]
		copy(sorted, tl.recent[:])
		slices.Sort(sorted)
		idx := min(int(float64(len(sorted))*slowQuantile), len(sorted)-1)
		if thr := sorted[idx]; thr > 0 {
			tl.slow = thr
		}
	}
}

// New builds a tracer.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 0.05
	}
	if cfg.Now == nil {
		cfg.Now = vclock.NewReal().Now
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x6f70617261636131 // arbitrary fixed default
	}
	t := &Tracer{
		now:        cfg.Now,
		sampleRate: cfg.SampleRate,
		capacity:   cfg.Capacity,
		active:     make(map[TraceID]*traceData),
		ring:       make([]*keptTrace, cfg.Capacity),
		byID:       make(map[TraceID]*keptTrace),
		byInv:      make(map[string]*keptTrace),
		tails:      make(map[string]*tail),
		reg:        metrics.NewRegistry(),
	}
	t.settled.L = &t.mu
	t.started = t.reg.Counter("traces.started")
	t.kept = t.reg.Counter("traces.kept")
	t.dropped = t.reg.Counter("traces.dropped")
	t.reg.GaugeFunc("traces.retained", func() float64 { return float64(t.Stats().Retained) })
	t.rng.Store(cfg.Seed)
	return t
}

// Metrics exposes the tracer's registry (nil on a nil tracer).
func (t *Tracer) Metrics() *metrics.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// rand is splitmix64 over an atomic counter: deterministic under a
// fixed seed, allocation-free, and safe for concurrent use.
func (t *Tracer) rand() uint64 {
	x := t.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		a, b := t.rand(), t.rand()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id == (SpanID{}) {
		a := t.rand()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
		}
	}
	return id
}

// traceData accumulates one in-flight trace. It is pooled: finalize
// returns it (and every parked span) to the pools whether the trace is
// kept or dropped.
type traceData struct {
	tr     *Tracer
	id     TraceID
	start  time.Time
	forced bool

	mu sync.Mutex
	// open is the reference count holding the trace alive: open spans
	// plus outstanding Links. The trace finalizes when it hits zero.
	open        int
	done        bool
	errored     bool
	spans       []*Span // ended spans, parked until finalize
	rootName    string
	route       string // the root's tail window key
	rootDur     time.Duration
	invocations []string
}

// join takes one more reference on the trace, reporting false when
// the accumulator can no longer take it: the trace finalized, or —
// the caller having looked td up before finalize recycled it — the
// pool has already handed it to another trace.
func (td *traceData) join(id TraceID) bool {
	td.mu.Lock()
	defer td.mu.Unlock()
	if td.done || td.id != id {
		return false
	}
	td.open++
	return true
}

var dataPool = sync.Pool{New: func() any { return &traceData{} }}

var spanPool = sync.Pool{New: func() any { return &Span{} }}

// Span is one stage of a trace. All methods are nil-receiver safe, so
// instrumentation sites need no enabled-checks. A span is owned by one
// goroutine at a time; End must be called exactly once.
type Span struct {
	td     *traceData
	kept   *keptTrace // late-attach target when td is nil
	tr     *Tracer    // set for late spans only
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	dur    time.Duration
	errMsg string
	route  string
	root   bool
	attrs  [maxAttrs]Attr
	nattrs int
}

func (t *Tracer) getSpan(td *traceData, parent SpanID, name string) *Span {
	s := spanPool.Get().(*Span)
	s.td = td
	s.kept = nil
	s.tr = nil
	s.id = t.newSpanID()
	s.parent = parent
	s.name = name
	s.start = t.now()
	s.dur = 0
	s.errMsg = ""
	s.route = ""
	s.root = false
	s.nattrs = 0
	return s
}

func releaseSpan(s *Span) {
	s.td = nil
	s.kept = nil
	s.tr = nil
	s.name = ""
	s.errMsg = ""
	s.route = ""
	s.attrs = [maxAttrs]Attr{}
	s.nattrs = 0
	spanPool.Put(s)
}

// Root starts a new trace (or continues the one named by the inbound
// W3C traceparent header; its sampled flag forces the keep decision)
// and returns its root span. If the named trace is already active in
// this process — the forwarded-hop case — the returned span joins it
// as a child instead of colliding. Returns nil on a nil tracer.
func (t *Tracer) Root(name, traceparent string) *Span {
	if t == nil {
		return nil
	}
	t.started.Inc()
	var (
		tid    TraceID
		parent SpanID
		forced bool
	)
	if p, ok := parseTraceparent(traceparent); ok {
		tid, parent, forced = p.traceID, p.spanID, p.flags&1 == 1
	} else {
		tid = t.newTraceID()
	}
	t.mu.Lock()
	for {
		td := t.active[tid]
		if td == nil {
			break
		}
		// The trace is already live here: a second ingress of the same
		// trace (forwarded hop) joins it rather than forking it. One that
		// is finalizing is waited out, and the trace starts afresh.
		if td.join(tid) {
			t.mu.Unlock()
			return t.getSpan(td, parent, name)
		}
		t.settled.Wait()
	}
	td := dataPool.Get().(*traceData)
	// Reset under td.mu: a late Attach that looked this accumulator up
	// while it still belonged to its previous trace may be about to
	// inspect it (join tells the two incarnations apart by id).
	td.mu.Lock()
	td.tr = t
	td.id = tid
	td.start = t.now()
	td.forced = forced
	td.open = 1
	td.done = false
	td.errored = false
	td.spans = td.spans[:0]
	td.rootName = ""
	td.route = ""
	td.rootDur = 0
	td.invocations = td.invocations[:0]
	td.mu.Unlock()
	t.active[tid] = td
	t.mu.Unlock()
	sp := t.getSpan(td, parent, name)
	sp.root = true
	sp.route = name // until SetRoute names it
	sp.start = td.start
	return sp
}

// Attach re-joins a trace from a bare traceparent (Event.Trace — the
// publish/delivery planes have no context). An active trace gets a
// normal child span; a finalized-and-kept trace gets a late span
// appended to its stored spans on End; anything else (unknown, or
// sampled out) returns nil. A trace caught finalizing is waited for, so
// a kept one is never missed.
func (t *Tracer) Attach(traceparent, name string) *Span {
	if t == nil || traceparent == "" {
		return nil
	}
	p, ok := parseTraceparent(traceparent)
	if !ok {
		return nil
	}
	t.mu.Lock()
	for {
		td := t.active[p.traceID]
		if td == nil {
			break
		}
		if td.join(p.traceID) {
			t.mu.Unlock()
			return t.getSpan(td, p.spanID, name)
		}
		t.settled.Wait()
	}
	kept := t.byID[p.traceID]
	t.mu.Unlock()
	if kept == nil {
		return nil
	}
	s := t.getSpan(nil, p.spanID, name)
	s.kept = kept
	s.tr = t
	return s
}

// Child starts a sub-span. Nil-safe: a nil receiver returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	if s.td == nil {
		// Children of a late span stay on the same kept trace.
		c := s.tr.getSpan(nil, s.id, name)
		c.kept = s.kept
		c.tr = s.tr
		return c
	}
	td := s.td
	td.mu.Lock()
	td.open++
	td.mu.Unlock()
	return td.tr.getSpan(td, s.id, name)
}

// SetAttr records a string attribute (dropped past the fixed bound).
func (s *Span) SetAttr(key, val string) {
	if s == nil || s.nattrs >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Str: val}
	s.nattrs++
}

// SetInt records an integer attribute (dropped past the fixed bound).
func (s *Span) SetInt(key string, v int) {
	if s == nil || s.nattrs >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Int: int64(v), IsInt: true}
	s.nattrs++
}

// SetRoute names the route a root span serves and records it as the
// "route" attribute. The tail sampler judges a root's duration against
// the recent roots of its route (its span name when none is set), and
// keeps one window per route, so route must come from a fixed set —
// a mux pattern, never a path, an object ID or a header. Only a root
// span's route is a window key.
func (s *Span) SetRoute(route string) {
	if s == nil || route == "" {
		return
	}
	s.route = route
	s.SetAttr("route", route)
}

// Error records a failure on the span (and, at End, marks the whole
// trace errored — errored traces are always kept). Nil err is a no-op.
func (s *Span) Error(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// SetInvocation associates an asynchronous invocation ID with the
// trace, so the kept view is retrievable by invocation.
func (s *Span) SetInvocation(id string) {
	if s == nil || s.td == nil || id == "" {
		return
	}
	td := s.td
	td.mu.Lock()
	for _, have := range td.invocations {
		if have == id {
			td.mu.Unlock()
			return
		}
	}
	td.invocations = append(td.invocations, id)
	td.mu.Unlock()
}

// Traceparent renders the W3C header for propagating this span as a
// parent ("" when disabled). The sampled flag carries the trace's
// forced bit.
func (s *Span) Traceparent() string {
	if s == nil || s.td == nil {
		return ""
	}
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], s.td.id[:])
	b[35] = '-'
	hex.Encode(b[36:52], s.id[:])
	b[52], b[53] = '-', '0'
	if s.td.forced {
		b[54] = '1'
	} else {
		b[54] = '0'
	}
	return string(b[:])
}

// End finishes the span. The last End (or Link.Release) of a trace
// triggers finalization: the tail-based keep decision, then the
// trace's span values landing in the ring (if kept) and every transient
// returning to its pool. The span must not be used after End.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.td == nil {
		s.endLate()
		return
	}
	td := s.td
	// The span holds a reference, so td.tr is stable here; after the
	// unlock below a racing Attach+End may finalize and recycle td.
	tr := td.tr
	s.dur = tr.now().Sub(s.start)
	td.mu.Lock()
	if s.errMsg != "" {
		td.errored = true
	}
	if s.root {
		td.rootName, td.route, td.rootDur = s.name, s.route, s.dur
	}
	td.spans = append(td.spans, s)
	td.open--
	fin := td.open == 0
	td.mu.Unlock()
	if fin {
		tr.finalize(td)
	}
}

// endLate appends a finished late span to its kept trace, after the
// start-ordered block finalize stored.
func (s *Span) endLate() {
	s.dur = s.tr.now().Sub(s.start)
	tr := s.tr
	tr.mu.Lock()
	s.kept.add(s)
	tr.mu.Unlock()
	releaseSpan(s)
}

// Link is a cross-goroutine handle holding a trace open across an
// asynchronous boundary (queue submit → worker drain). The zero Link
// is inert. Release must be called exactly once per Link; Start may be
// called any number of times before that.
type Link struct {
	td     *traceData
	parent SpanID
}

// Link returns a handle pinning the span's trace open until Release.
func (s *Span) Link() Link {
	if s == nil || s.td == nil {
		return Link{}
	}
	s.td.mu.Lock()
	s.td.open++
	s.td.mu.Unlock()
	return Link{td: s.td, parent: s.id}
}

// Start opens a new span under the link's parent (nil on a zero Link).
func (l Link) Start(name string) *Span {
	if l.td == nil {
		return nil
	}
	l.td.mu.Lock()
	l.td.open++
	l.td.mu.Unlock()
	return l.td.tr.getSpan(l.td, l.parent, name)
}

// Release drops the link's hold on the trace, finalizing it if this
// was the last reference.
func (l Link) Release() {
	if l.td == nil {
		return
	}
	td := l.td
	td.mu.Lock()
	tr := td.tr
	td.open--
	fin := td.open == 0 && !td.done
	td.mu.Unlock()
	if fin {
		tr.finalize(td)
	}
}

// finalize makes the tail-based keep decision for a completed trace
// and recycles its transients. Safe against concurrent late Attach:
// the done flag is settled under td.mu before anything is torn down.
func (t *Tracer) finalize(td *traceData) {
	td.mu.Lock()
	if td.open != 0 || td.done || td.tr != t {
		// An Attach/Link revived the trace between the zero-crossing
		// and here; its eventual End re-finalizes (and may already have
		// recycled td, even into another tracer's hands).
		td.mu.Unlock()
		return
	}
	td.done = true
	td.mu.Unlock()

	t.mu.Lock()
	// Learn the slowest-percentile threshold from the route's recent
	// roots.
	tl := t.tails[td.route]
	if tl == nil {
		tl = new(tail)
		t.tails[td.route] = tl
	}
	tl.observe(td.rootDur, &t.sorted)
	reason := ""
	switch {
	case td.forced:
		reason = "forced"
	case td.errored:
		reason = "error"
	case tl.slow > 0 && td.rootDur > tl.slow:
		reason = "slow"
	case t.sampleRate > 0 && float64(t.rand()>>11)/(1<<53) < t.sampleRate:
		reason = "sampled"
	}
	if reason == "" {
		delete(t.active, td.id)
		t.mu.Unlock()
		t.settled.Broadcast()
		t.dropped.Inc()
		t.release(td)
		return
	}
	t.mu.Unlock()
	t.kept.Inc()
	// The trace stays in active while its spans are copied out, outside
	// the lock; it leaves active in the section that stores its view.
	kt := keep(td, reason)
	t.mu.Lock()
	delete(t.active, td.id)
	if old := t.ring[t.next]; old != nil {
		delete(t.byID, old.id)
		for _, inv := range old.invocations {
			if t.byInv[inv] == old {
				delete(t.byInv, inv)
			}
		}
	}
	t.ring[t.next] = kt
	t.next = (t.next + 1) % len(t.ring)
	t.byID[td.id] = kt
	for _, inv := range kt.invocations {
		t.byInv[inv] = kt
	}
	t.mu.Unlock()
	t.settled.Broadcast()
	t.release(td)
}

// release recycles a finalized trace's spans and accumulator.
func (t *Tracer) release(td *traceData) {
	td.mu.Lock()
	for i, s := range td.spans {
		td.spans[i] = nil
		releaseSpan(s)
	}
	td.spans = td.spans[:0]
	td.invocations = td.invocations[:0]
	td.tr = nil
	td.mu.Unlock()
	dataPool.Put(td)
}

// keptSpan is one finished span of a kept trace, held by value: nothing
// in the ring points at a pooled *Span.
type keptSpan struct {
	id, parent SpanID
	name       string
	start      time.Time
	dur        time.Duration
	errMsg     string
	// attrs[attr0:attr0+nattrs] of the owning keptTrace are this span's.
	attr0, nattrs int32
}

// keptTrace is one kept trace as the ring stores it. Late spans append
// to spans and attrs under Tracer.mu and nothing else changes after
// keep, so a reader may walk a copy of the struct taken under that lock
// outside it.
type keptTrace struct {
	id          TraceID
	root        string
	start       time.Time
	dur         time.Duration
	reason      string
	invocations []string
	spans       []keptSpan // start-ordered as of keep; late spans follow
	attrs       []Attr
}

// add appends one finished span's values. The caller owns kt (keep) or
// holds Tracer.mu (endLate).
func (kt *keptTrace) add(s *Span) {
	kt.spans = append(kt.spans, keptSpan{
		id: s.id, parent: s.parent, name: s.name, start: s.start, dur: s.dur, errMsg: s.errMsg,
		attr0: int32(len(kt.attrs)), nattrs: int32(s.nattrs),
	})
	kt.attrs = append(kt.attrs, s.attrs[:s.nattrs]...)
}

// keep copies a finalized trace's spans out of their pooled structs.
func keep(td *traceData, reason string) *keptTrace {
	kt := &keptTrace{id: td.id, root: td.rootName, start: td.start, dur: td.rootDur, reason: reason}
	if len(td.invocations) > 0 {
		kt.invocations = append([]string(nil), td.invocations...)
	}
	// Spans park in end order; store them in start order so the view
	// reads as a timeline.
	slices.SortStableFunc(td.spans, func(a, b *Span) int { return a.start.Compare(b.start) })
	nattrs := 0
	for _, s := range td.spans {
		nattrs += s.nattrs
	}
	kt.spans = make([]keptSpan, 0, len(td.spans))
	if nattrs > 0 {
		kt.attrs = make([]Attr, 0, nattrs)
	}
	for _, s := range td.spans {
		kt.add(s)
	}
	return kt
}

// SpanView is one finished span of a kept trace.
type SpanView struct {
	ID       string         `json:"id"`
	Parent   string         `json:"parent,omitempty"`
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration time.Duration  `json:"duration_ns"`
	Error    string         `json:"error,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// TraceView is one kept trace as the API serves it, rendered per read.
type TraceView struct {
	ID          string        `json:"id"`
	Root        string        `json:"root"`
	Start       time.Time     `json:"start"`
	Duration    time.Duration `json:"duration_ns"`
	Reason      string        `json:"reason"`
	Invocations []string      `json:"invocations,omitempty"`
	Spans       []SpanView    `json:"spans"`
}

// view renders a snapshot of a kept trace. Called outside Tracer.mu.
func (kt keptTrace) view() TraceView {
	v := TraceView{
		ID:          kt.id.String(),
		Root:        kt.root,
		Start:       kt.start,
		Duration:    kt.dur,
		Reason:      kt.reason,
		Invocations: kt.invocations,
		Spans:       make([]SpanView, len(kt.spans)),
	}
	for i, s := range kt.spans {
		sv := SpanView{
			ID:       s.id.String(),
			Name:     s.name,
			Start:    s.start,
			Duration: s.dur,
			Error:    s.errMsg,
		}
		if s.parent != (SpanID{}) {
			sv.Parent = s.parent.String()
		}
		if s.nattrs > 0 {
			sv.Attrs = make(map[string]any, s.nattrs)
			for _, a := range kt.attrs[s.attr0 : s.attr0+s.nattrs] {
				if a.IsInt {
					sv.Attrs[a.Key] = a.Int
				} else {
					sv.Attrs[a.Key] = a.Str
				}
			}
		}
		v.Spans[i] = sv
	}
	return v
}

// Traces returns up to limit kept traces, newest first (limit <= 0
// returns all retained).
func (t *Tracer) Traces(limit int) []TraceView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	snaps := make([]keptTrace, 0, len(t.byID))
	for i := 0; i < len(t.ring); i++ {
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		kt := t.ring[idx]
		if kt == nil {
			continue
		}
		snaps = append(snaps, *kt)
		if limit > 0 && len(snaps) >= limit {
			break
		}
	}
	t.mu.Unlock()
	out := make([]TraceView, len(snaps))
	for i, kt := range snaps {
		out[i] = kt.view()
	}
	return out
}

// TraceByID returns one kept trace by hex trace ID.
func (t *Tracer) TraceByID(id string) (TraceView, bool) {
	if t == nil {
		return TraceView{}, false
	}
	raw, err := hex.DecodeString(id)
	if err != nil || len(raw) != 16 {
		return TraceView{}, false
	}
	var tid TraceID
	copy(tid[:], raw)
	return t.serve(func() *keptTrace { return t.byID[tid] })
}

// ByInvocation returns the kept trace that touched an asynchronous
// invocation ID.
func (t *Tracer) ByInvocation(inv string) (TraceView, bool) {
	if t == nil {
		return TraceView{}, false
	}
	return t.serve(func() *keptTrace { return t.byInv[inv] })
}

// serve renders the kept trace find returns (under the tracer lock)
// from a snapshot, outside that lock.
func (t *Tracer) serve(find func() *keptTrace) (TraceView, bool) {
	t.mu.Lock()
	kt := find()
	if kt == nil {
		t.mu.Unlock()
		return TraceView{}, false
	}
	snap := *kt
	t.mu.Unlock()
	return snap.view(), true
}

// Stats is a tracer snapshot.
type Stats struct {
	// Started counts root spans opened; Kept/Dropped partition the
	// finalized traces by the tail-sampling decision.
	Started int64 `json:"started"`
	Kept    int64 `json:"kept"`
	Dropped int64 `json:"dropped"`
	// Retained is the number of traces currently in the ring.
	Retained int `json:"retained"`
}

// Stats snapshots the tracer's counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	retained := len(t.byID)
	t.mu.Unlock()
	return Stats{
		Started:  t.started.Value(),
		Kept:     t.kept.Value(),
		Dropped:  t.dropped.Value(),
		Retained: retained,
	}
}

// ctxKey carries the current span through context.
type ctxKey struct{}

// ContextWith returns ctx carrying the span (ctx unchanged for a nil
// span, so the disabled path allocates nothing).
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// parsed is a decoded traceparent header.
type parsed struct {
	traceID TraceID
	spanID  SpanID
	flags   byte
}

// parseTraceparent decodes a W3C traceparent header
// ("00-<32 hex>-<16 hex>-<2 hex>", lowercase hex throughout). Version
// 00 is exactly those 55 bytes; a later version is accepted per spec
// (the known fields parse identically) and may carry more fields after
// a '-'. Version ff and all-zero trace or span IDs are rejected.
func parseTraceparent(s string) (parsed, bool) {
	var p parsed
	var version, flags [1]byte
	ok := len(s) >= 55 && s[2] == '-' && s[35] == '-' && s[52] == '-' &&
		lowerHex(version[:], s[:2]) && lowerHex(p.traceID[:], s[3:35]) &&
		lowerHex(p.spanID[:], s[36:52]) && lowerHex(flags[:], s[53:55]) &&
		version[0] != 0xff && (len(s) == 55 || version[0] != 0 && s[55] == '-') &&
		!p.traceID.IsZero() && p.spanID != (SpanID{})
	p.flags = flags[0]
	return p, ok
}

// lowerHex decodes s into dst, taking only HEXDIGLC digits (0-9, a-f).
func lowerHex(dst []byte, s string) bool {
	for i := range dst {
		hi, lo := strings.IndexByte("0123456789abcdef", s[2*i]), strings.IndexByte("0123456789abcdef", s[2*i+1])
		if hi < 0 || lo < 0 {
			return false
		}
		dst[i] = byte(hi<<4 | lo)
	}
	return true
}
