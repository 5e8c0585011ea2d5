// Package trigger implements the platform's event and trigger
// subsystem: an event bus that turns committed state mutations and
// terminal asynchronous invocations into durable routed deliveries,
// making objects reactive instead of purely pull-based.
//
// Producers publish Events (the runtime emits StateChanged once per
// committed write invocation; the async queue emits
// InvocationCompleted/InvocationFailed on terminal records).
// Subscriptions — declared per class in YAML or managed dynamically —
// route matching events to one of three sinks:
//
//   - an object method, run through the platform's asynchronous queue
//     (data-triggered function chaining);
//   - a webhook URL, POSTed with bounded doubling-backoff retry;
//   - a live per-object stream (the gateway's SSE tail).
//
// # Durability
//
// Publish writes every event through the per-object append-only event
// log (Config.Log, which New requires) BEFORE dispatch, stamping the
// assigned Offset into the event. What reaches Publish is decided by
// NeedsEvents, which both producers ask first: an object's log begins
// with the first event produced while someone could read it — a
// subscription names its class, or a stream is open on the object — and
// a log that has begun never stops: every later event of that object is
// appended, subscribed or not, in this process and its successors (the
// log's persisted bounds are the memory). So offsets number logged
// events gap-free from 1, an Unsubscribed cursor finds its interim
// backlog on re-Subscribe, and a reader resuming with fromOffset loses
// nothing after the first event it could have seen. Commits on an
// object nobody ever observed are not events: its log is empty, and
// reading it from offset 1 returns nothing rather than an error
// (ErrOffsetCompacted keeps its one meaning, below the retained
// floor). Stats().Emitted counts events, not commits.
//
// Webhook and object-method sinks become cursor-based log consumers:
// each (subscription, object) pair owns a durable cursor that only
// advances past an event once its delivery is done — the webhook
// answered 2xx, or the chained call the event fired committed — or
// failed terminally (the chained call failed, the chain-depth limit).
// The log is a method sink's only queue: its calls ride the async queue
// as record-less tasks, which nothing persists, and the cursor moves past
// their events when they commit, not when they are submitted. A crash
// loses in-flight deliveries and chained calls but not the events — on
// restart, re-registering a subscription resumes its consumers from the
// stored cursors, giving at-least-once delivery. Live streams stay
// best-effort: an event a full stream buffer cannot take is skipped
// (counted in Stats().StreamSkipped, not Dropped), and the gateway heals
// the gap by replaying the log.
//
// # Delivery path
//
// An event is encoded once: the bytes Publish marshals for the log
// entry are the bytes a webhook POSTs and a method sink submits, so
// they are immutable from then on (see AsyncInvoker). The decoded
// event rides along only while in flight — in a small per-consumer
// hand-off — and never lives in the log. A consumer whose
// cursor equals the offset of the event dispatch just handed it is
// caught up and delivers that event as is; any other consumer
// (recovery, a retried failure, a backlog deeper than the hand-off,
// non-matching entries in between, compaction) is behind and reads log
// entries — from the store, since the log keeps none in memory — then
// decodes and matches them until the offsets meet again. The choice is
// made by comparing offsets, never by a setting. A run that ends on a
// retriable failure (webhook retry budget spent, async queue too full
// to take any of a group, a log read the store refused) leaves the
// cursor in place and is re-armed after a doubling, jittered delay that
// starts at WebhookBackoff and is capped, so a recovered endpoint or
// store catches up without a new event or a restart and a dead one is
// probed at a bounded cadence (its backlog shows as CursorLag).
//
// A method sink delivers what one run holds — the hand-off's events, or
// one log read's — as one group: the calls of every event it wants, in
// offset order, up to the first at the chain-depth limit, submitted in
// one AsyncInvoker call. At most one group is in flight per consumer.
// While it is, the consumer stays queued and dispatch only fills its
// hand-off; when the group's calls have committed or failed, its done
// hook persists the cursor past it, counts the committed calls in
// Delivered and the failed ones in Dropped, and puts the consumer back
// on the pool if events wait behind it. Drain waits for groups in flight
// too, so once it returns every chained call of an event published
// before it has committed or failed.
//
// A webhook delivery attempt is one HTTP/1.1 exchange that the delivery
// worker drives itself on a connection it takes from the bus's pool,
// which keeps up to one idle connection per delivery worker and
// endpoint, so steady-state deliveries do not dial. The worker writes
// the request in one write and reads the answer on its own goroutine;
// no other goroutine touches the connection. Each attempt POSTs the
// event's log entry, byte for byte, with Content-Type: application/json
// and X-Oprc-Event: <event type>, plus the Host, User-Agent
// (Go-http-client/1.1) and Content-Length net/http would send, and a
// URL with user:password@ adds the Basic Authorization header net/http's
// client derives from it. The body is not compressed and no
// Accept-Encoding is asked for: the response is drained up to a few
// kilobytes and thrown away, and its connection goes back to the pool
// only when the body ended within that and the answer did not say
// Connection: close. Redirects are not followed — a 3xx is a failed
// attempt like any other non-2xx, so a delivery never reaches a host
// the subscription does not name. The bus dials the endpoint directly:
// HTTP_PROXY, HTTPS_PROXY and NO_PROXY are not consulted, and https
// offers HTTP/1.1 alone in its TLS handshake. The URL must be an
// absolute http or https URL with a host (model.WebhookURL); it is
// checked and parsed once, when the subscription is stored (Subscribe,
// SetClassTriggers), and the request every attempt sends, but for its
// Content-Length and body, is rendered then from the parsed form and
// the header shared by every event of its type (a copy of it per
// subscription with credentials).
//
// Dispatch is part of Publish: right after the append, on the
// publisher's goroutine, each event is matched against the
// subscriptions, handed to every matching cursor consumer and copied to
// its object's live streams. None of that waits on a sink. Webhook POSTs
// and method submissions run on a bounded delivery pool, so one stalled
// endpoint (backoff sleeps of up to retries × timeout) delays neither a
// commit nor a stream nor another object's chain. The log is the only
// queue; nothing appended is shed. What else holds events is bounded by
// the consumers, not by event volume: a consumer keeps at most
// handoffCap of them, sits on the pool's queue at most once and has at
// most one group in flight, and one whose hand-off is full reads the
// log. The one event without an offset is one whose append failed: no
// cursor can wait behind it, so it goes to the pool once per matching
// subscription, best-effort (a group of one for a method sink), and is
// counted in Stats().LogFailed. (Two racing OCC commits on one object
// may publish in either order — emission happens after the validated
// commit lands, outside the table's shard locks — so stream order
// tracks publish order across concurrent lock-free committers; log
// offsets and cursor-based consumers are ordered regardless.)
//
// # Consumer lifecycle
//
// A (subscription, object) pair's durable state is its cursor, which the
// log keeps; the bus holds the pair's consumer only while it has work.
// Dispatch (or recovery, on Subscribe and ReplayCursors) makes the
// consumer when the pair has none, from a pool of spent ones, and queues
// it. The consumer then runs, and each run ends one of four ways: caught
// up, stalled (it waits for its re-arm, still queued), parked (its
// chained group is in flight, and the group's done resumes it), or with
// more to do (it goes back on the queue). A consumer that ends a run
// caught up, with nothing handed off to it, leaves the bus for the pool:
// nothing else refers to it then, since a queued, stalled or parked
// consumer is never released. The next event for the pair makes a fresh
// one at the cursor. So an idle pair costs its cursor and nothing here,
// and the consumer map, which a Go map would otherwise keep at the size
// of its largest burst, is copied into a smaller one as it empties.
//
// Object→object chains are cycle-limited: an event whose trigger-chain
// depth has reached Config.MaxChainDepth is not dispatched to method
// sinks, so a self- or mutually-triggering class terminates instead of
// looping forever. Close drains the delivery pool before returning;
// Kill models process death (nothing drains, nothing flushes).
package trigger

import (
	"cmp"
	"context"
	"crypto/tls"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/fifo"
	"github.com/hpcclab/oparaca-go/internal/metrics"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/trace"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// EventType discriminates the platform event kinds.
type EventType string

// Platform event types.
const (
	// StateChanged is emitted once per committed write invocation with
	// a non-empty state delta by the runtime's write window, in every
	// concurrency mode and for single calls and InvokeBatch groups alike.
	// Aborted and readonly calls emit nothing, and neither do committed
	// calls that wrote no keys — no state changed.
	StateChanged EventType = "stateChanged"
	// InvocationCompleted / InvocationFailed are emitted when an
	// asynchronous invocation record reaches its terminal status.
	InvocationCompleted EventType = "invocationCompleted"
	InvocationFailed    EventType = "invocationFailed"
)

// Valid reports whether t is a known event type.
func (t EventType) Valid() bool {
	switch t {
	case StateChanged, InvocationCompleted, InvocationFailed:
		return true
	}
	return false
}

// Invocation-argument keys the bus stamps onto trigger-fired
// invocations. The runtime reads ArgDepth back when the chained
// invocation commits, so the resulting event carries the chain depth
// and the cycle limit can terminate object→object loops.
const (
	// ArgSource names the event type that fired the invocation.
	ArgSource = "trigger"
	// ArgDepth is the trigger-chain depth of the invocation (1 for the
	// first chained hop).
	ArgDepth = "triggerDepth"
)

// DepthOf extracts the trigger-chain depth from invocation args (0 for
// client-initiated invocations).
func DepthOf(args map[string]string) int {
	if args == nil {
		return 0
	}
	d, err := strconv.Atoi(args[ArgDepth])
	if err != nil || d < 0 {
		return 0
	}
	return d
}

// Event is one platform occurrence routed by the bus.
type Event struct {
	// Seq is a bus-assigned monotone sequence number (process-local,
	// resets on restart; Offset is the durable coordinate).
	Seq uint64 `json:"seq"`
	// Offset is the event's position in its object's durable log,
	// 1-based and monotone per object. Zero only when the append failed
	// and the event was delivered best-effort.
	Offset int64 `json:"offset,omitempty"`
	// Type discriminates the event kind.
	Type EventType `json:"type"`
	// Class and Object identify the emitting object.
	Class  string `json:"class"`
	Object string `json:"object"`
	// Function is the committing method (StateChanged) or the invoked
	// member (terminal invocation events).
	Function string `json:"function,omitempty"`
	// Keys lists the structured state keys the commit wrote, sorted
	// (StateChanged only; always non-empty for freshly emitted events —
	// empty-delta commits emit nothing — but logs written before that
	// rule may replay key-less StateChanged entries).
	Keys []string `json:"keys,omitempty"`
	// Invocation is the asynchronous invocation ID (terminal events).
	Invocation string `json:"invocation,omitempty"`
	// Error is the failure message (InvocationFailed).
	Error string `json:"error,omitempty"`
	// Depth is the trigger-chain depth of the invocation that produced
	// the event (0 = client-initiated).
	Depth int `json:"depth,omitempty"`
	// Trace is the W3C traceparent of the invocation that produced the
	// event (empty when tracing is off or the trace was not sampled at
	// the root). The bus re-joins the trace through it, so log append,
	// dispatch and sink delivery appear as spans of the originating
	// invocation's trace even though they run on bus goroutines.
	Trace string `json:"trace,omitempty"`
	// Time is the emission instant.
	Time time.Time `json:"time"`
}

// Subscription routes matching events to one sink.
type Subscription struct {
	// ID is the subscription's durable identity — the key its delivery
	// cursors and counters persist under, stable across restarts. The
	// bus stamps "named/<name>" on Subscribe and "class/<class>/<i>"
	// on SetClassTriggers when empty; the platform passes
	// declaration-derived identities for YAML triggers so a redeploy
	// resumes the same cursors. Not part of the wire shape.
	ID string `json:"-"`
	// Class filters events to one emitting class; required.
	Class string `json:"class"`
	// Type is the event type subscribed to; required.
	Type EventType `json:"type"`
	// KeyPrefix restricts StateChanged events to commits that wrote at
	// least one state key with this prefix. Only valid with
	// StateChanged.
	KeyPrefix string `json:"keyPrefix,omitempty"`
	// TargetObject / TargetFunction name the object-method sink: the
	// method is submitted through the async queue with the event as its
	// payload. An empty TargetObject targets the emitting object
	// itself.
	TargetObject   string `json:"targetObject,omitempty"`
	TargetFunction string `json:"targetFunction,omitempty"`
	// Webhook is the webhook-sink URL, POSTed the event JSON with
	// bounded doubling-backoff retry. It must be an absolute http or
	// https URL with a host.
	Webhook string `json:"webhook,omitempty"`

	// hook is Webhook as its attempts use it, rendered when the bus
	// stored the subscription (see Bus.store); nil for a method sink.
	// Read-only, like the subscription holding it.
	hook *endpoint
}

// ErrInvalidSubscription matches (errors.Is) every error Validate
// returns; the error's own message names the rule the subscription
// broke.
var ErrInvalidSubscription = errors.New("trigger: invalid subscription")

// invalid is a Validate error: its message unchanged, matching
// ErrInvalidSubscription.
type invalid struct{ error }

func (invalid) Is(target error) bool { return target == ErrInvalidSubscription }

// Validate checks the subscription shape: a known type, a class,
// exactly one sink, and for a webhook sink an absolute http or https
// URL with a host.
func (s Subscription) Validate() error {
	if _, err := s.validate(); err != nil {
		return invalid{err}
	}
	return nil
}

// validate is Validate returning the parsed webhook URL (nil for a
// method sink), so the bus parses a URL once, when it stores the
// subscription.
func (s Subscription) validate() (*url.URL, error) {
	if s.Class == "" {
		return nil, errors.New("trigger: subscription needs a class")
	}
	if !s.Type.Valid() {
		return nil, fmt.Errorf("trigger: unknown event type %q (want %s, %s or %s)",
			s.Type, StateChanged, InvocationCompleted, InvocationFailed)
	}
	hasFn, hasHook := s.TargetFunction != "", s.Webhook != ""
	if hasFn == hasHook {
		return nil, errors.New("trigger: subscription needs exactly one sink (targetFunction or webhook)")
	}
	if s.TargetObject != "" && !hasFn {
		return nil, errors.New("trigger: targetObject requires targetFunction")
	}
	if s.KeyPrefix != "" && s.Type != StateChanged {
		return nil, fmt.Errorf("trigger: keyPrefix only applies to %s subscriptions", StateChanged)
	}
	if !hasHook {
		return nil, nil
	}
	u, err := model.WebhookURL(s.Webhook)
	if err != nil {
		return nil, fmt.Errorf("trigger: %w", err)
	}
	return u, nil
}

// matches reports whether the subscription wants ev.
func (s Subscription) matches(ev Event) bool {
	if s.Class != ev.Class || s.Type != ev.Type {
		return false
	}
	if s.KeyPrefix == "" {
		return true
	}
	for _, k := range ev.Keys {
		if len(k) >= len(s.KeyPrefix) && k[:len(s.KeyPrefix)] == s.KeyPrefix {
			return true
		}
	}
	return false
}

// AsyncInvoker submits one group of chained calls on objectID: a method
// sink's share of one consumer run, in offset order (the platform passes
// its async queue's record-less group submission; the indirection keeps
// this package core-free). A call's Payload is its event's log entry and
// its Args are shared by every call the bus fires for that event type
// and depth: an implementation must not write to either, nor hand the
// payload to code that may (a handler gets a copy). It returns
// how many calls it accepted — a prefix of them; none is a retriable
// refusal. When it accepted any, it must run done once, after every
// accepted call committed or failed terminally, with how many committed
// — possibly before it returns — and never if the process dies first:
// the events are still in the log, behind the cursor.
type AsyncInvoker func(objectID string, calls []call.Call, done func(committed int)) (accepted int, err error)

// Settings are the chain bound and webhook policy a platform operator
// tunes (core.Config.Triggers).
type Settings struct {
	// MaxChainDepth bounds object→object trigger chains: an event at
	// this depth is not dispatched to method sinks (counted in
	// CycleDropped and Dropped). Defaults to 8. The bus builds the args
	// of chained invocations up front, one map per event type and depth
	// below this bound, up to 64.
	MaxChainDepth int
	// WebhookMaxRetries re-POSTs a failed webhook delivery up to this
	// many additional times before dropping it. Defaults to 3;
	// negative disables retries entirely.
	WebhookMaxRetries int
	// WebhookBackoff is the delay before the first webhook retry,
	// doubled per attempt. Defaults to 10ms.
	WebhookBackoff time.Duration
	// WebhookTimeout bounds each delivery attempt. Defaults to 5s.
	WebhookTimeout time.Duration
}

// Config sizes a Bus.
type Config struct {
	// InvokeAsync realizes the object-method sink. A method sink's cursor
	// advances past a group of events only once the calls they fired have
	// committed or failed terminally, so the event log is the chain's only
	// durable queue: a crash before the commit redelivers the events from
	// the log. nil fails such deliveries (counted dropped).
	InvokeAsync AsyncInvoker
	// Log is the durable event log, and New fails without one: Publish
	// appends every event to it before dispatch, and webhook and method
	// sinks are cursor-based consumers of it with at-least-once
	// redelivery.
	Log *eventlog.Log
	Settings
	// DeliveryWorkers sizes the sink delivery pool (webhook POSTs and
	// cursor-consumer runs) and the idle webhook connections the bus
	// keeps per endpoint. Defaults to 4.
	DeliveryWorkers int
	// BackoffJitter spreads each webhook retry delay uniformly over
	// [d*(1-j), d*(1+j)] so many endpoints failing at once don't
	// re-POST in lockstep. Defaults to 0.2; negative disables.
	BackoffJitter float64
	// JitterSeed seeds the backoff jitter source (wired to the chaos
	// RNG seed so runs replay). Zero seeds from 1.
	JitterSeed int64
	// Tracer, when set, re-joins event traces (Event.Trace) so log
	// appends, dispatch and webhook deliveries span under the
	// originating invocation's trace. Nil disables bus-side spans.
	Tracer *trace.Tracer
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.MaxChainDepth <= 0 {
		c.MaxChainDepth = 8
	}
	if c.DeliveryWorkers <= 0 {
		c.DeliveryWorkers = 4
	}
	if c.WebhookMaxRetries < 0 {
		c.WebhookMaxRetries = 0
	} else if c.WebhookMaxRetries == 0 {
		c.WebhookMaxRetries = 3
	}
	if c.WebhookBackoff <= 0 {
		c.WebhookBackoff = 10 * time.Millisecond
	}
	if c.BackoffJitter == 0 {
		c.BackoffJitter = 0.2
	}
	if c.BackoffJitter < 0 {
		c.BackoffJitter = 0
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	if c.WebhookTimeout <= 0 {
		c.WebhookTimeout = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	return c
}

// inflight is one published event on its way to the sinks: the decoded
// form plus the bytes Publish marshalled for its log entry (nil when the
// append failed). It lives in consumer hand-offs and one-shot pool items
// only — never in the log — and raw is shared with the log entry, so no
// sink may write to it.
type inflight struct {
	ev  Event
	raw json.RawMessage
}

// Stream is one live per-object event tail (the gateway's SSE feed).
// Events arrive on Events() in commit order; a slow consumer whose
// buffer fills skips events (counted in Stats().StreamSkipped) rather
// than stalling the publisher.
type Stream struct {
	bus    *Bus
	object string
	ch     chan Event
	once   sync.Once
}

// Events is the stream's receive side; it is closed when the stream or
// the bus closes.
func (s *Stream) Events() <-chan Event { return s.ch }

// Close detaches the stream from the bus and closes Events(). The
// once runs under streamMu (never the other way around), so it cannot
// deadlock against Bus.Close firing the same once while holding the
// lock.
func (s *Stream) Close() {
	b := s.bus
	b.streamMu.Lock()
	defer b.streamMu.Unlock()
	s.once.Do(func() {
		if set, ok := b.streams[s.object]; ok {
			delete(set, s)
			if len(set) == 0 {
				delete(b.streams, s.object)
			}
			b.streamed.Store(int64(len(b.streams)))
		}
		close(s.ch)
	})
}

// consumerState is one (subscription, object) cursor consumer. At most
// one run is in flight per state; a notify arriving mid-run sets rerun
// so the worker loops again instead of enqueuing a duplicate — the
// delivery queue is therefore bounded by the number of distinct
// (subscription, object) pairs with work, not by event volume. A
// consumer whose chained group is in flight stays queued: parked is set
// once the run that submitted the group has returned, so the group's
// done resumes it. A consumer lives in Bus.delState only while it has
// work (see Bus.release).
type consumerState struct {
	key consumerKey
	// sub points at the subscription as the bus last published it: the
	// entry of subs or classSubs dispatch or recovery matched, which
	// nothing writes after it is stored. Every consumer of a subscription
	// shares it.
	sub    *Subscription
	queued bool
	rerun  bool
	parked bool
	// handoff holds, oldest first, the in-flight events dispatch matched
	// for this consumer and the consumer has not reached yet. A full
	// hand-off, or a stalled consumer's, records nothing: the consumer
	// finds the event in the log.
	handoff  [handoffCap]*inflight
	nHandoff int
	// stall is the current re-arm delay; zero while deliveries succeed.
	stall time.Duration
}

// consumerKey identifies a consumer: subscription identity and object.
type consumerKey struct{ sub, object string }

// idleConsumers holds zeroed consumer states for notify to reuse, so an
// object that goes idle between events re-creates its consumer without
// allocating. A state is put here only by Bus.release, and only once
// nothing holds it: it is not queued — so it is on no delivery queue,
// no run has it, and no re-arm sleeper holds it, since a stalled
// consumer stays queued until its re-arm runs — and not parked, so no
// chained group in flight will resume it.
var idleConsumers = sync.Pool{New: func() any { return new(consumerState) }}

const (
	// handoffCap bounds the decoded events one consumer keeps alive.
	handoffCap = 4
	// rearmCapFactor caps the re-arm delay, in WebhookBackoffs.
	rearmCapFactor = 1 << 10
)

// delItem is one unit of delivery-pool work: a consumer run (st set)
// or the one-shot delivery of an event whose append failed (run set).
type delItem struct {
	st  *consumerState
	run func()
}

// sendTable is what every delivery of one event type carries: the
// webhook request header, which each webhook subscription's request is
// rendered from when it is stored (Bus.store), and, indexed by the
// event's depth, the args of the method-sink call it fires (the async
// queue keeps them as they are). Both are read only.
type sendTable struct {
	header http.Header
	args   []map[string]string
}

// argsTableDepth caps sendTable.args: MaxChainDepth has no upper bound,
// and chains deeper than this build their args per event.
const argsTableDepth = 64

// delStateKeep is the high-water mark below which Bus.delState is never
// rebuilt: a map that size costs a few kilobytes, and rebuilding it as
// it empties would allocate on every quiet spell.
const delStateKeep = 64

// subCounters accumulates one subscription's delivery outcomes.
type subCounters struct {
	delivered atomic.Int64
	retried   atomic.Int64
	dropped   atomic.Int64
}

// Bus is the event router. It is safe for concurrent use.
type Bus struct {
	cfg     Config
	metrics *metrics.Registry
	seq     atomic.Uint64

	// killCtx is cancelled by Kill so backoff sleeps and in-flight
	// webhook requests abort instead of delaying the simulated crash.
	killCtx    context.Context
	killCancel context.CancelFunc
	killed     atomic.Bool

	// subs holds named subscriptions; classSubs the YAML-declared sets,
	// replaced wholesale on class redeploy. Both guarded by subMu. A
	// stored subscription is never written again — a change stores a new
	// one — so dispatch and the consumers hold pointers to them.
	// subscribed is the set of class names some subscription of either
	// kind names: an immutable map rebuilt and swapped under subMu by
	// every change to the two, so NeedsEvents reads it with one atomic
	// load and no lock.
	subMu      sync.RWMutex
	subs       map[string]*Subscription
	classSubs  map[string][]Subscription
	subscribed atomic.Pointer[map[string]struct{}]

	// streamed mirrors len(streams) — the objects with a live stream —
	// and is stored under streamMu, so NeedsEvents skips the lock while
	// nobody tails. Close sets streams to nil: a stream opened after that
	// starts closed.
	streamMu sync.Mutex
	streams  map[string]map[*Stream]struct{}
	streamed atomic.Int64

	// The delivery pool, guarded by delMu. delQueue is its FIFO, as deep
	// as the consumer states bound it (see consumerState); recovery,
	// which queues every consumer at once, is the burst its ring lets go
	// of once drained. delCond wakes one worker per enqueued item; quiet
	// is broadcast whenever Drain's predicate may
	// have turned true (a pool item completed, a chained group settled,
	// the bus stopped). chains counts the chained groups submitted and
	// not yet settled. delWg counts the workers and the re-arm sleepers,
	// which stop closes.
	delMu     sync.Mutex
	delCond   *sync.Cond
	quiet     *sync.Cond
	delQueue  fifo.Ring[delItem]
	delState  map[consumerKey]*consumerState
	delHigh   int // the most entries delState has held since it was made
	delBusy   int
	chains    int
	delClosed bool
	delWg     sync.WaitGroup
	stop      chan struct{}
	// hooks keeps the idle webhook connections (postWebhook).
	// tlsConfig, when set, is what an https endpoint's handshake starts
	// from; only tests set it, to trust their own server's certificate.
	hooks     hookPool
	tlsConfig *tls.Config
	// sends holds, per event type, what every delivery of that type
	// carries; built by New and never written again.
	sends map[EventType]sendTable

	subStatsMu sync.Mutex
	subStats   map[string]*subCounters

	// rnd drives webhook backoff jitter; guarded by rndMu.
	rndMu sync.Mutex
	rnd   *rand.Rand

	// pubMu fences intake against Close: PublishBatch holds the read side
	// across its closed-check, log append and dispatch; Close flips
	// closed under the write side, so once Close proceeds no publisher
	// is mid-dispatch and only consumer runs still queue pool work.
	pubMu  sync.RWMutex
	closed bool

	// afterAppend, when set, runs in PublishBatch between the append and
	// the dispatch, with the first offset appended (0 when the append
	// failed). Only tests set it, to hold a publisher there.
	afterAppend func(first int64)
}

// New builds a bus and starts its delivery pool. cfg.Log is required.
func New(cfg Config) (*Bus, error) {
	if cfg.Log == nil {
		return nil, errors.New("trigger: Config.Log is required")
	}
	cfg = cfg.withDefaults()
	b := &Bus{
		cfg:       cfg,
		metrics:   metrics.NewRegistry(),
		subs:      make(map[string]*Subscription),
		classSubs: make(map[string][]Subscription),
		streams:   make(map[string]map[*Stream]struct{}),
		delState:  make(map[consumerKey]*consumerState),
		subStats:  make(map[string]*subCounters),
		rnd:       rand.New(rand.NewSource(cfg.JitterSeed)),
		stop:      make(chan struct{}),
	}
	b.subscribed.Store(&map[string]struct{}{})
	b.Stats() // creates every series it reads: /metrics shows each from the start
	b.metrics.GaugeFunc("trigger.backlog", func() float64 { return float64(b.Backlog()) })
	// One idle connection per worker and endpoint: with fewer, every
	// other delivery would dial.
	b.hooks.perHost = cfg.DeliveryWorkers
	b.sends = make(map[EventType]sendTable, 3)
	for _, typ := range []EventType{StateChanged, InvocationCompleted, InvocationFailed} {
		st := sendTable{
			header: http.Header{"Content-Type": {"application/json"}, "X-Oprc-Event": {string(typ)}},
			args:   make([]map[string]string, min(cfg.MaxChainDepth, argsTableDepth)),
		}
		for d := range st.args {
			st.args[d] = chainArgs(typ, d)
		}
		b.sends[typ] = st
	}
	b.killCtx, b.killCancel = context.WithCancel(context.Background())
	b.delCond = sync.NewCond(&b.delMu)
	b.quiet = sync.NewCond(&b.delMu)
	for i := 0; i < cfg.DeliveryWorkers; i++ {
		b.delWg.Add(1)
		go b.deliveryWorker()
	}
	return b, nil
}

// Metrics exposes the bus's registry.
func (b *Bus) Metrics() *metrics.Registry { return b.metrics }

// subCountersFor returns (creating if needed) one subscription's
// counters.
func (b *Bus) subCountersFor(id string) *subCounters {
	b.subStatsMu.Lock()
	defer b.subStatsMu.Unlock()
	c, ok := b.subStats[id]
	if !ok {
		c = &subCounters{}
		b.subStats[id] = c
	}
	return c
}

// store validates a subscription about to be stored and, for a webhook
// sink, renders the requests its attempts send (newEndpoint) from the
// parsed URL and the header. That is the event type's shared header, or,
// when the URL carries user:password@, a copy of it with the Basic
// Authorization net/http's client would derive from them; the userinfo
// itself is never sent.
func (b *Bus) store(s *Subscription) error {
	hook, err := s.validate()
	if err != nil || hook == nil {
		return err
	}
	header := b.sends[s.Type].header
	if u := hook.User; u != nil {
		pass, _ := u.Password()
		header = header.Clone()
		header.Set("Authorization", "Basic "+base64.StdEncoding.EncodeToString([]byte(u.Username()+":"+pass)))
	}
	s.hook = newEndpoint(hook, header)
	return nil
}

// Subscribe registers (or replaces) a named subscription. Its durable
// identity is "named/<name>" (unless the caller pre-stamped one), so
// re-subscribing after a restart resumes the stored cursors — any
// backlog behind them is scheduled for redelivery immediately.
func (b *Bus) Subscribe(name string, sub Subscription) error {
	if name == "" {
		return errors.New("trigger: subscription needs a name")
	}
	if err := b.store(&sub); err != nil {
		return err
	}
	if sub.ID == "" {
		sub.ID = "named/" + name
	}
	b.subMu.Lock()
	b.subs[name] = &sub
	b.publishSubscribed()
	b.subMu.Unlock()
	b.recoverSub(&sub)
	return nil
}

// Unsubscribe removes a named subscription, reporting whether it
// existed. Stored cursors are kept: a later Subscribe under the same
// name resumes them (delivering the interim backlog) rather than
// starting fresh.
func (b *Bus) Unsubscribe(name string) bool {
	b.subMu.Lock()
	_, ok := b.subs[name]
	delete(b.subs, name)
	b.publishSubscribed()
	b.subMu.Unlock()
	return ok
}

// Subscriptions returns the named subscriptions, keys sorted.
func (b *Bus) Subscriptions() (names []string, subs map[string]Subscription) {
	b.subMu.RLock()
	subs = make(map[string]Subscription, len(b.subs))
	for name, sub := range b.subs {
		subs[name] = *sub
		names = append(names, name)
	}
	b.subMu.RUnlock()
	sort.Strings(names)
	return names, subs
}

// SetClassTriggers replaces the YAML-declared subscription set of one
// class (called on every class deploy; redeploys swap the whole set).
// Invalid entries are skipped — the model layer validates declarations
// before they reach the bus. Subscriptions without a pre-stamped ID
// get a positional "class/<class>/<i>" identity; the platform stamps
// declaration-derived identities instead so cursors survive reordered
// redeploys.
func (b *Bus) SetClassTriggers(class string, subs []Subscription) {
	kept := make([]Subscription, 0, len(subs))
	for i, s := range subs {
		if b.store(&s) != nil {
			continue
		}
		if s.ID == "" {
			s.ID = "class/" + class + "/" + strconv.Itoa(i)
		}
		kept = append(kept, s)
	}
	b.subMu.Lock()
	if len(kept) == 0 {
		delete(b.classSubs, class)
	} else {
		b.classSubs[class] = kept
	}
	b.publishSubscribed()
	b.subMu.Unlock()
	for i := range kept {
		b.recoverSub(&kept[i])
	}
}

// recoverSub schedules a consumer run for every stored cursor of one
// subscription: after a restart (or a re-subscribe) any backlog the
// crash interrupted is redelivered without waiting for fresh events.
func (b *Bus) recoverSub(sub *Subscription) {
	for object := range b.cfg.Log.CursorsFor(sub.ID) {
		b.notify(sub, object, nil)
	}
}

// ReplayCursors re-runs cursor recovery for every registered
// subscription — named and class-declared. The cluster rebalancer
// calls it after an ownership change so deliveries a dead owner left
// mid-backlog resume under the new owner without waiting for fresh
// commits. At-least-once semantics make the occasional duplicate
// delivery safe.
func (b *Bus) ReplayCursors() {
	b.subMu.RLock()
	all := make([]*Subscription, 0, len(b.subs))
	for _, s := range b.subs {
		all = append(all, s)
	}
	for _, subs := range b.classSubs {
		for i := range subs {
			all = append(all, &subs[i])
		}
	}
	b.subMu.RUnlock()
	for _, s := range all {
		b.recoverSub(s)
	}
}

// jittered spreads d uniformly over [d*(1-j), d*(1+j)] with the
// seeded jitter source.
func (b *Bus) jittered(d time.Duration) time.Duration {
	j := b.cfg.BackoffJitter
	if j <= 0 {
		return d
	}
	b.rndMu.Lock()
	f := 1 - j + 2*j*b.rnd.Float64()
	b.rndMu.Unlock()
	return time.Duration(float64(d) * f)
}

// Stream opens a live event tail for one object. buf bounds the
// consumer lag; <=0 selects 64. On a closed bus the stream is closed
// already.
func (b *Bus) Stream(object string, buf int) *Stream {
	if buf <= 0 {
		buf = 64
	}
	s := &Stream{bus: b, object: object, ch: make(chan Event, buf)}
	b.streamMu.Lock()
	defer b.streamMu.Unlock()
	if b.streams == nil {
		s.once.Do(func() { close(s.ch) })
		return s
	}
	set, ok := b.streams[object]
	if !ok {
		set = make(map[*Stream]struct{})
		b.streams[object] = set
	}
	set[s] = struct{}{}
	b.streamed.Store(int64(len(b.streams)))
	return s
}

// Publish routes one event: PublishBatch of one.
func (b *Bus) Publish(ev Event) { b.PublishBatch([]Event{ev}) }

// encode stamps the offset the log assigned and marshals the event —
// the one encoding: the log stores these bytes and the sinks send them.
func (it *inflight) encode(off int64) (json.RawMessage, error) {
	it.ev.Offset = off
	raw, err := json.Marshal(&it.ev)
	it.raw = raw
	return raw, err
}

// PublishBatch routes the events of one object — a commit's, one per
// call it carried. It assigns each its Seq and Time, appends all of them
// to the durable log (stamping Offsets) in a single backing write — the
// commit itself was one write, its events should not cost n — counts
// the emissions, and dispatches each in turn before it returns (see the
// package doc). Publishing on a closed bus discards the events. The bus
// copies the events and keeps nothing of evs. All events must carry the
// same Object.
func (b *Bus) PublishBatch(evs []Event) {
	if len(evs) == 0 {
		return
	}
	m := b.metrics
	its := make([]inflight, len(evs))
	for i := range evs {
		its[i].ev = evs[i]
		its[i].ev.Seq = b.seq.Add(1)
		if its[i].ev.Time.IsZero() {
			its[i].ev.Time = b.cfg.Clock.Now()
		}
	}
	m.Counter("trigger.emitted").Add(int64(len(evs)))
	b.pubMu.RLock()
	defer b.pubMu.RUnlock()
	if b.closed {
		m.Counter("trigger.dropped").Add(int64(len(evs)))
		return
	}
	// Durability before dispatch: the events are in the log before any
	// consumer can observe them, so an acknowledged append can never be
	// lost to a crash. A failed append degrades to best-effort delivery
	// (Offset zero) rather than losing the dispatch too.
	asp := b.cfg.Tracer.Attach(batchTrace(evs), "eventlog.append")
	asp.SetInt("events", len(evs))
	first, err := b.cfg.Log.AppendBatch(b.killCtx, evs[0].Object, len(evs), func(i int, off int64) (json.RawMessage, error) {
		raw, err := its[i].encode(off)
		if err == nil {
			b.seed(&its[i].ev)
		}
		return raw, err
	})
	if err != nil {
		for i := range its {
			its[i].ev.Offset, its[i].raw = 0, nil
		}
		m.Counter("trigger.log_failed").Add(int64(len(evs)))
		asp.Error(err)
	}
	asp.End()
	if b.afterAppend != nil {
		b.afterAppend(first)
	}
	// The match scratch lives on this stack: a commit's events rarely
	// match more subscriptions than it holds.
	var matched [8]*Subscription
	for i := range its {
		if b.killed.Load() {
			return
		}
		b.dispatch(&its[i], matched[:0])
	}
}

// batchTrace picks the first traceparent a batch carries (groups are
// appended in one backing write, so the one span stands for all).
func batchTrace(evs []Event) string {
	for _, ev := range evs {
		if ev.Trace != "" {
			return ev.Trace
		}
	}
	return ""
}

// publishSubscribed rebuilds the subscribed-class set from subs and
// classSubs and swaps it in. Callers hold subMu's write side, so the
// set a Subscribe or SetClassTriggers publishes is visible to
// NeedsEvents before that call returns.
func (b *Bus) publishSubscribed() {
	set := make(map[string]struct{}, len(b.subs)+len(b.classSubs))
	for _, sub := range b.subs {
		set[sub.Class] = struct{}{}
	}
	for _, subs := range b.classSubs {
		for _, sub := range subs {
			set[sub.Class] = struct{}{}
		}
	}
	b.subscribed.Store(&set)
}

// NeedsEvents reports whether an event of class on object could be read
// by anyone, now or later. It is true iff
//
//   - a named or class-declared subscription names the class, or
//   - a live stream is open on that object, or
//   - the object's durable log has ever recorded an entry (see the
//     package doc: a log that has begun never stops),
//
// and nothing else. Both producers — the runtime's commit exit
// (Infra.EventsNeeded) and the platform's terminal-record hook — ask
// it before constructing an event, so a commit nobody can observe
// costs no event, no encoding and no log write. Subscribe,
// SetClassTriggers and Stream make it true before they return, so an
// event produced after any of them returned is never skipped. A log
// that cannot answer (breaker open, backing fault) counts as begun:
// Publish then delivers best-effort if its append fails too, rather
// than this predicate guessing false. It does not allocate.
func (b *Bus) NeedsEvents(class, object string) bool {
	if _, ok := (*b.subscribed.Load())[class]; ok {
		return true
	}
	if b.streamed.Load() > 0 {
		b.streamMu.Lock()
		_, open := b.streams[object]
		b.streamMu.Unlock()
		if open {
			return true
		}
	}
	begun, err := b.cfg.Log.Begun(b.killCtx, object)
	return begun || err != nil
}

// dispatch fans one event out to every matching subscription and
// stream, collecting matches into the caller's scratch slice. It runs on
// the publisher and only schedules sink work: webhook POSTs and method
// submissions execute on the delivery pool, so a slow endpoint cannot
// stall a commit (the head-of-line defect the pool exists to fix).
func (b *Bus) dispatch(it *inflight, matched []*Subscription) {
	ev := it.ev
	dsp := b.cfg.Tracer.Attach(ev.Trace, "trigger.dispatch")
	matched = b.match(&ev, matched)
	for _, sub := range matched {
		if ev.Offset > 0 {
			// The subscription's cursor consumer takes the event — from
			// the hand-off when it is caught up, from the log when it is
			// behind.
			b.notify(sub, ev.Object, it)
		} else {
			b.enqueueOneShot(sub, it)
		}
	}
	b.deliverStreams(ev)
	dsp.SetInt("matched", len(matched))
	dsp.SetAttr("type", string(ev.Type))
	dsp.End()
}

// match appends to matched every subscription ev matches.
func (b *Bus) match(ev *Event, matched []*Subscription) []*Subscription {
	b.subMu.RLock()
	defer b.subMu.RUnlock()
	for _, sub := range b.subs {
		if sub.matches(*ev) {
			matched = append(matched, sub)
		}
	}
	for _, subs := range b.classSubs {
		for i := range subs {
			if subs[i].matches(*ev) {
				matched = append(matched, &subs[i])
			}
		}
	}
	return matched
}

// seed makes first contact for ev, whose offset the log is assigning:
// every subscription ev matches that has no cursor on ev's object gets
// one at ev's offset — a consumer starts at its first matching event,
// not at the log floor, so subscribing does not replay history.
// PublishBatch calls it inside the append, which holds the object's
// order, so of two publishers racing to first contact the lower offset
// seeds, and the higher one's dispatch finds the cursor below it and the
// gap in the log (see eventlog.Log.SeedCursor).
func (b *Bus) seed(ev *Event) {
	var matched [8]*Subscription
	for _, sub := range b.match(ev, matched[:0]) {
		b.cfg.Log.SeedCursor(sub.ID, ev.Object, ev.Offset)
	}
}

// notify schedules (or re-arms) the cursor consumer of one
// (subscription, object) pair and hands it the in-flight event dispatch
// just matched. A subscription that became active between the event's
// append and its dispatch has no cursor yet (seed did not see it): the
// event in hand seeds it. A nil event means "resume from the stored
// cursor" (recovery).
func (b *Bus) notify(sub *Subscription, object string, it *inflight) {
	if _, ok := b.cfg.Log.Cursor(sub.ID, object); !ok {
		if it == nil {
			return
		}
		// First contact: persist the cursor write-through so a crash
		// after this point redelivers the event instead of forgetting
		// the consumer ever existed.
		if err := b.cfg.Log.SetCursor(b.killCtx, sub.ID, object, it.ev.Offset); err != nil {
			b.count(b.subCountersFor(sub.ID), 0, 1)
			return
		}
	}
	key := consumerKey{sub.ID, object}
	b.delMu.Lock()
	defer b.delMu.Unlock()
	if b.delClosed {
		return
	}
	st, ok := b.delState[key]
	if !ok {
		st = idleConsumers.Get().(*consumerState)
		st.key = key
		b.delState[key] = st
		b.delHigh = max(b.delHigh, len(b.delState))
	}
	st.sub = sub // refresh: a redeploy may have changed the sink
	if it != nil && st.stall == 0 && st.nHandoff < handoffCap {
		st.handoff[st.nHandoff] = it
		st.nHandoff++
	}
	if st.queued {
		st.rerun = true
		return
	}
	st.queued = true
	b.delQueue.Push(delItem{st: st})
	b.delCond.Signal()
}

// count records finished deliveries: delivered ones, and terminally
// lost ones.
func (b *Bus) count(c *subCounters, delivered, dropped int) {
	if delivered > 0 {
		b.metrics.Counter("trigger.delivered").Add(int64(delivered))
		c.delivered.Add(int64(delivered))
	}
	if dropped > 0 {
		b.metrics.Counter("trigger.dropped").Add(int64(dropped))
		c.dropped.Add(int64(dropped))
	}
}

// enqueueOneShot schedules the one delivery an event whose append failed
// gets: without an offset no cursor can wait behind it, so its outcome
// is final and a failure counts dropped. Either sink kind runs on the
// delivery pool, never on the publisher. Callers hold pubMu's read side
// with closed checked, so the pool is still open.
func (b *Bus) enqueueOneShot(sub *Subscription, it *inflight) {
	b.delMu.Lock()
	defer b.delMu.Unlock()
	b.delQueue.Push(delItem{run: func() {
		c := b.subCountersFor(sub.ID)
		if sub.Webhook == "" {
			b.chainOnce(sub, it, c)
		} else if b.deliverWebhook(sub, it.ev, it.raw, c) {
			b.count(c, 1, 0)
		} else {
			b.count(c, 0, 1)
		}
	}})
	b.delCond.Signal()
}

// deliveryWorker executes pool items until Close (after the queue
// drains) or Kill (immediately). calls is its scratch for the chained
// calls of one group: the invoker keeps none of them.
func (b *Bus) deliveryWorker() {
	defer b.delWg.Done()
	calls := make([]call.Call, 0, readBatch)
	for {
		b.delMu.Lock()
		for b.delQueue.Size() == 0 && !b.delClosed {
			b.delCond.Wait()
		}
		if b.delQueue.Size() == 0 {
			b.delMu.Unlock()
			return
		}
		item := b.delQueue.Pop()
		b.delBusy++
		b.delMu.Unlock()
		out := runIdle
		if item.st != nil {
			out = b.runConsumer(item.st, calls)
		} else if !b.killed.Load() {
			item.run()
		}
		b.delMu.Lock()
		b.delBusy--
		// A parked consumer is its chained group's to resume, and may be
		// running again already.
		if st := item.st; st != nil && out != runChained {
			stalled := out == runStalled
			if !stalled {
				st.stall = 0
			}
			switch {
			case b.killed.Load() || (stalled && b.delClosed):
				st.queued = false
			case stalled:
				// Re-arm. The consumer stays queued meanwhile, so a
				// dead endpoint is retried at the re-arm cadence, not
				// per event; and it will resume from the log, so it
				// holds no in-flight events while it waits.
				st.stall = min(max(2*st.stall, b.cfg.WebhookBackoff), rearmCapFactor*b.cfg.WebhookBackoff)
				clear(st.handoff[:])
				st.nHandoff = 0
				b.delWg.Add(1)
				go b.rearm(st, b.jittered(st.stall))
			case st.rerun:
				st.rerun = false
				b.delQueue.Push(delItem{st: st})
				b.delCond.Signal()
			default:
				b.release(st)
			}
		}
		b.quiet.Broadcast()
		b.delMu.Unlock()
	}
}

// release ends a consumer's run with nothing left to do: it is no longer
// queued, and when nothing else keeps it — no group in flight to resume
// it, no re-arm due, no hand-off — it leaves delState for idleConsumers.
// Its cursor stays in the log, and the next notify for the pair makes a
// fresh consumer from it. Once delState has emptied to a quarter of its
// high-water mark it is copied into a map its size, since a Go map never
// gives back what a burst grew. Callers hold delMu.
func (b *Bus) release(st *consumerState) {
	st.queued = false
	if st.parked || st.stall != 0 || st.nHandoff > 0 {
		return
	}
	delete(b.delState, st.key)
	*st = consumerState{}
	idleConsumers.Put(st)
	if n := len(b.delState); b.delHigh > delStateKeep && n <= b.delHigh/4 {
		kept := make(map[consumerKey]*consumerState, n)
		for k, v := range b.delState {
			kept[k] = v
		}
		b.delState, b.delHigh = kept, n
	}
}

// rearm puts a stalled consumer back on the pool after d, unless the
// bus stops first.
func (b *Bus) rearm(st *consumerState, d time.Duration) {
	defer b.delWg.Done()
	select {
	case <-b.cfg.Clock.After(d):
	case <-b.stop:
		return
	}
	b.delMu.Lock()
	defer b.delMu.Unlock()
	if b.delClosed {
		return
	}
	st.rerun = false
	b.delQueue.Push(delItem{st: st})
	b.delCond.Signal()
}

// take advances a consumer's hand-off to cursor — events below it were
// already delivered from the log and are dropped — and appends to dst
// the run of hand-off events whose offsets count up from cursor: the
// caught-up case, delivered without reading the log. It also returns the
// subscription as last refreshed, so a redeployed sink applies to events
// queued before the redeploy, and whether the hand-off was full: then
// dispatch may have passed events over that only the log holds.
func (b *Bus) take(st *consumerState, cursor int64, dst []inflight) (*Subscription, []inflight, bool) {
	b.delMu.Lock()
	defer b.delMu.Unlock()
	full := st.nHandoff == handoffCap
	drop := 0
	for drop < st.nHandoff && st.handoff[drop].ev.Offset < cursor {
		drop++
	}
	for ; drop < st.nHandoff && st.handoff[drop].ev.Offset == cursor; drop++ {
		dst = append(dst, *st.handoff[drop])
		cursor++
	}
	n := copy(st.handoff[:], st.handoff[drop:st.nHandoff])
	clear(st.handoff[n:st.nHandoff])
	st.nHandoff = n
	return st.sub, dst, full
}

// readBatch is the most log entries one consumer read takes.
const readBatch = 64

// runOutcome is how a consumer run ended.
type runOutcome int

const (
	// runIdle: caught up or stopped; a notify schedules the next run.
	runIdle runOutcome = iota
	// runStalled: a retriable failure left the cursor in place; re-arm.
	runStalled
	// runChained: a chained group is in flight and the consumer parked;
	// the group's done resumes it.
	runChained
	// runOn: a group settled while the run was still going; it goes on.
	// runConsumer never returns it.
	runOn
)

// runConsumer advances one (subscription, object) cursor, delivering
// every matching event in offset order: from the hand-off while the
// consumer is caught up, from the log while it is behind (see the
// package doc). The cursor only moves past an event once its delivery is
// done or failed terminally; a retriable failure leaves it in place and
// reports the run stalled, so the delivery is re-attempted by the re-arm
// and — because the cursor is durable — after a restart. A method sink's
// run ends when it has submitted a group (see chain), built in calls.
func (b *Bus) runConsumer(st *consumerState, calls []call.Call) runOutcome {
	log, id, object := b.cfg.Log, st.key.sub, st.key.object
	c := b.subCountersFor(id)
	cursor, ok := log.Cursor(id, object)
	if !ok {
		return runIdle
	}
	var handed [handoffCap]inflight
	for !b.killed.Load() {
		sub, its, more := b.take(st, cursor, handed[:0])
		if len(its) == 0 {
			entries, err := log.Read(b.killCtx, object, cursor, readBatch)
			if errors.Is(err, eventlog.ErrOffsetCompacted) {
				// Retention overtook the consumer: the evicted entries are
				// undeliverable. Count them dropped and resume at the
				// floor.
				floor, _, berr := log.Bounds(b.killCtx, object)
				if berr != nil || floor <= cursor {
					return runIdle
				}
				b.count(c, 0, int(floor-cursor))
				cursor = floor
				if err := log.SetCursor(b.killCtx, id, object, cursor); err != nil {
					return runIdle
				}
				continue
			}
			if err != nil {
				// The store refused the read: retry it like a failed
				// delivery, or the backlog waits for the next event.
				return runStalled
			}
			if len(entries) == 0 {
				return runIdle
			}
			its, more = decodeEntries(entries), len(entries) == readBatch
		}
		if sub.Webhook == "" {
			next, out := b.chain(st, sub, c, its, cursor, more, calls)
			if out != runOn {
				return out
			}
			cursor = next
			continue
		}
		for i := range its {
			if b.killed.Load() {
				return runIdle
			}
			if it := &its[i]; sub.matches(it.ev) {
				// With the retry budget spent the event is not lost: the
				// cursor stays put and the re-arm (or a restart) retries. A
				// permanently failing endpoint therefore stalls this
				// consumer — visible as growing CursorLag in Stats.
				if !b.deliverWebhook(sub, it.ev, it.raw, c) {
					return runStalled
				}
				b.count(c, 1, 0)
			}
			cursor = its[i].ev.Offset + 1
			if err := log.SetCursor(b.killCtx, id, object, cursor); err != nil {
				return runIdle
			}
		}
	}
	return runIdle
}

// decodeEntries decodes log entries into in-flight events. An entry that
// does not decode becomes an event of no type, which no subscription
// matches: its consumers pass over it.
func decodeEntries(entries []eventlog.Entry) []inflight {
	its := make([]inflight, len(entries))
	for i, e := range entries {
		if json.Unmarshal(e.Payload, &its[i].ev) != nil {
			its[i].ev = Event{}
		}
		its[i].ev.Offset, its[i].raw = e.Offset, e.Payload
	}
	return its
}

// chainGroup is one method-sink group in flight: its consumer (nil for
// the one-shot group of an event whose append failed), the cursor past
// its events, whether events may wait behind it, how many calls the
// queue accepted and — once done ran — how many committed. The fields
// are written under the bus's delMu.
type chainGroup struct {
	bus                 *Bus
	st                  *consumerState
	c                   *subCounters
	next                int64
	more                bool
	accepted, committed int
	finished            bool
}

// chain delivers a method sink's share of one run — its, the events from
// cursor on — as one group of chained calls: one for every event sub
// wants, in offset order, up to the first at the chain-depth limit. That
// event is terminal when no call precedes it and is dropped here;
// otherwise it ends the group and the next run drops it. The consumer
// parks while the group is in flight (runChained) and its done resumes
// it. When the queue takes none of the group the cursor stays on the
// group's first event and the run stalls. An empty group, or one whose
// calls all settled before chain looked, leaves the run to go on from
// the cursor returned (runOn). calls is the worker's scratch, cleared
// before chain returns.
func (b *Bus) chain(st *consumerState, sub *Subscription, c *subCounters, its []inflight, cursor int64, more bool, calls []call.Call) (int64, runOutcome) {
	log, id, object := b.cfg.Log, st.key.sub, st.key.object
	g := &chainGroup{bus: b, st: st, c: c, next: cursor, more: more}
	for i := range its {
		ev := &its[i].ev
		if sub.matches(*ev) {
			if ev.Depth >= b.cfg.MaxChainDepth && len(calls) > 0 {
				g.more = true
				break
			}
			if !b.tooDeep(ev, c) {
				calls = append(calls, call.Call{Member: sub.TargetFunction, Payload: its[i].raw, Args: b.argsFor(ev)})
			}
		}
		g.next = ev.Offset + 1
	}
	defer clear(calls)
	if len(calls) > 0 && b.cfg.InvokeAsync == nil {
		b.count(c, 0, len(calls))
		calls = calls[:0]
	}
	if len(calls) == 0 {
		if err := log.SetCursor(b.killCtx, id, object, g.next); err != nil {
			return cursor, runIdle
		}
		return g.next, runOn
	}
	b.delMu.Lock()
	b.chains++
	b.delMu.Unlock()
	k, _ := b.cfg.InvokeAsync(cmp.Or(sub.TargetObject, object), calls, g.done)
	b.delMu.Lock()
	g.accepted = k
	if k < len(calls) {
		g.more = true
		g.next = b.callOffset(sub, its, k)
	}
	switch {
	case k == 0:
		b.chains--
		b.quiet.Broadcast()
		b.delMu.Unlock()
		if g.next > cursor {
			_ = log.SetCursor(b.killCtx, id, object, g.next)
		}
		return cursor, runStalled
	case !g.finished:
		st.parked, st.stall = true, 0
		b.delMu.Unlock()
		return cursor, runChained
	}
	b.delMu.Unlock()
	if err := g.settle(false); err != nil {
		return cursor, runIdle
	}
	return g.next, runOn
}

// callOffset returns the offset of the event chain built its k-th call
// from: the k-th of its events that sub wants below the depth limit.
func (b *Bus) callOffset(sub *Subscription, its []inflight, k int) int64 {
	for i := range its {
		if ev := &its[i].ev; sub.matches(*ev) && ev.Depth < b.cfg.MaxChainDepth {
			if k == 0 {
				return ev.Offset
			}
			k--
		}
	}
	panic("trigger: no event for a chained call")
}

// done is the group's AsyncInvoker completion hook. It records the
// outcome; if the run that submitted the group has parked, or the group
// has no consumer, it settles the group (and resumes the consumer), and
// otherwise that run, which has not looked yet, settles it itself.
func (g *chainGroup) done(committed int) {
	b, st := g.bus, g.st
	b.delMu.Lock()
	g.committed, g.finished = committed, true
	parked := st == nil || st.parked
	if st != nil {
		st.parked = false
	}
	b.delMu.Unlock()
	if parked {
		_ = g.settle(true)
	}
}

// settle books a finished group: its committed calls delivered, the
// rest dropped, and the consumer's cursor persisted past its events.
// Then the group leaves the in-flight count and, when the consumer is
// parked, the consumer resumes — back on the pool if events may wait
// behind the group or a notify came meanwhile — in one step under delMu,
// so Drain never finds the bus quiet in between.
func (g *chainGroup) settle(parked bool) error {
	b, st := g.bus, g.st
	b.count(g.c, g.committed, g.accepted-g.committed)
	var err error
	if st != nil {
		err = b.cfg.Log.SetCursor(b.killCtx, st.key.sub, st.key.object, g.next)
	}
	b.delMu.Lock()
	defer b.delMu.Unlock()
	b.chains--
	if parked && st != nil {
		switch {
		case b.killed.Load() || b.delClosed:
			st.queued = false
		case (g.more && err == nil) || st.rerun:
			st.rerun = false
			b.delQueue.Push(delItem{st: st})
			b.delCond.Signal()
		default:
			b.release(st)
		}
	}
	b.quiet.Broadcast()
	return err
}

// tooDeep reports whether ev has used its chain-depth budget, counting
// the method delivery it so ends: terminating beats looping, since a
// trigger targeting its own emitting class would otherwise self-sustain
// forever.
func (b *Bus) tooDeep(ev *Event, c *subCounters) bool {
	if ev.Depth < b.cfg.MaxChainDepth {
		return false
	}
	b.metrics.Counter("trigger.cycle_dropped").Inc()
	b.count(c, 0, 1)
	return true
}

// chainOnce delivers the one chained call an event whose append failed
// gets — a group of one, whose outcome is final: refused, or failed, it
// counts dropped.
func (b *Bus) chainOnce(sub *Subscription, it *inflight, c *subCounters) {
	ev := &it.ev
	if b.tooDeep(ev, c) {
		return
	}
	payload, err := encoded(*ev, it.raw)
	if err != nil || b.cfg.InvokeAsync == nil {
		b.count(c, 0, 1)
		return
	}
	g := &chainGroup{bus: b, c: c, accepted: 1}
	b.delMu.Lock()
	b.chains++
	b.delMu.Unlock()
	calls := []call.Call{{Member: sub.TargetFunction, Payload: payload, Args: b.argsFor(ev)}}
	if k, _ := b.cfg.InvokeAsync(cmp.Or(sub.TargetObject, ev.Object), calls, g.done); k == 0 {
		_ = g.settle(false) // refused: its one call counts dropped
	}
}

// argsFor returns the args of the call ev chains, from the table New
// built. Producers never stamp a negative depth (DepthOf reads one as 0);
// max keeps a hand-built event inside the table.
func (b *Bus) argsFor(ev *Event) map[string]string {
	table, d := b.sends[ev.Type].args, max(ev.Depth, 0)
	if d < len(table) {
		return table[d]
	}
	return chainArgs(ev.Type, d)
}

// chainArgs is the args of the call an event of type typ at depth d
// chains: its type and the next depth.
func chainArgs(typ EventType, d int) map[string]string {
	return map[string]string{ArgSource: string(typ), ArgDepth: strconv.Itoa(d + 1)}
}

// encoded returns the event JSON: the bytes already marshalled for the
// log when there are any, a fresh encoding otherwise (a failed
// append). ev goes to the encoder by value: &ev would move every
// caller's event to the heap, the common path that has bytes included.
func encoded(ev Event, raw json.RawMessage) (json.RawMessage, error) {
	if raw != nil {
		return raw, nil
	}
	return json.Marshal(ev)
}

// deliverWebhook POSTs the event, retrying failures with doubling
// backoff up to WebhookMaxRetries, and reports success. It runs on the
// delivery pool, never on the publisher.
func (b *Bus) deliverWebhook(sub *Subscription, ev Event, raw json.RawMessage, c *subCounters) bool {
	m := b.metrics
	wsp := b.cfg.Tracer.Attach(ev.Trace, "webhook.delivery")
	wsp.SetAttr("url", sub.Webhook)
	payload, err := encoded(ev, raw)
	if err != nil {
		wsp.Error(err)
		wsp.End()
		return false
	}
	backoff := b.cfg.WebhookBackoff
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := b.cfg.Clock.Sleep(b.killCtx, b.jittered(backoff)); err != nil {
				wsp.SetInt("attempts", attempt)
				wsp.Error(err)
				wsp.End()
				return false
			}
			backoff *= 2
			m.Counter("trigger.retried").Inc()
			c.retried.Add(1)
		}
		if b.postWebhook(sub.hook, payload) {
			wsp.SetInt("attempts", attempt+1)
			wsp.End()
			return true
		}
		if attempt >= b.cfg.WebhookMaxRetries {
			wsp.SetInt("attempts", attempt+1)
			wsp.Error(errors.New("trigger: webhook retry budget exhausted"))
			wsp.End()
			return false
		}
	}
}

// deliverStreams copies the event to every live tail of its object.
func (b *Bus) deliverStreams(ev Event) {
	m := b.metrics
	b.streamMu.Lock()
	defer b.streamMu.Unlock()
	for s := range b.streams[ev.Object] {
		select {
		case s.ch <- ev:
			m.Counter("trigger.delivered").Inc()
		default:
			// Slow consumer: skipping its event beats stalling the
			// publisher. Nothing is lost — the event is in the log, and
			// the gateway replays the gap from there.
			m.Counter("trigger.stream_skipped").Inc()
		}
	}
}

// Drain blocks until the delivery pool is quiet (webhook retries
// included) and every chained group submitted has committed or failed.
// Dispatch is part of Publish, so every event published before the call
// has its deliveries queued by then, and a chained call's own events are
// published before its group settles. The async queue calls this from
// its Close so terminal-record webhooks drain before the platform tears
// down.
func (b *Bus) Drain() {
	b.delMu.Lock()
	defer b.delMu.Unlock()
	for (b.delQueue.Size() > 0 || b.delBusy > 0 || b.chains > 0) && !b.killed.Load() {
		b.quiet.Wait()
	}
}

// SubscriptionStats is one subscription's delivery counters.
type SubscriptionStats struct {
	// Delivered counts successful sink deliveries.
	Delivered int64 `json:"delivered"`
	// Retried counts webhook re-POSTs under the backoff policy.
	Retried int64 `json:"retried"`
	// Dropped counts terminally failed deliveries (and, for durable
	// consumers, retention-evicted undelivered events).
	Dropped int64 `json:"dropped"`
	// CursorLag sums the undelivered backlog across the
	// subscription's cursors: log end minus cursor, over every object
	// the consumer has touched. A growing
	// lag with no deliveries is the signature of a stuck sink.
	CursorLag int64 `json:"cursorLag"`
}

// Stats is a point-in-time bus snapshot.
type Stats struct {
	// Emitted counts published events (before any routing decision):
	// events someone could read (see NeedsEvents), not commits.
	Emitted int64 `json:"emitted"`
	// Delivered counts successful sink deliveries (chained calls that
	// committed, webhook 2xx responses, stream sends) — one event fanning
	// to N sinks counts N. A chained call counts when it commits, not
	// when it is submitted.
	Delivered int64 `json:"delivered"`
	// Dropped counts lost deliveries and events: chain-depth
	// terminations, chained calls that failed, entries retention evicted
	// before their consumer reached them, events published on a closed
	// bus, and failed one-shot deliveries of events whose append failed.
	// A webhook that exhausts its retries on a logged event is not
	// dropped: its consumer stalls and retries (see CursorLag).
	Dropped int64 `json:"dropped"`
	// StreamSkipped counts events a live stream's full buffer could not
	// take. They are not lost — they are in the log, and the gateway's
	// SSE handler heals the gap from there — so they are not Dropped.
	StreamSkipped int64 `json:"stream_skipped"`
	// Retried counts webhook re-POSTs under the backoff policy.
	Retried int64 `json:"retried"`
	// CycleDropped counts method deliveries suppressed by the chain
	// depth limit (also included in Dropped).
	CycleDropped int64 `json:"cycle_dropped"`
	// LogFailed counts events whose durable append failed. Each was
	// still delivered once, best-effort and without an offset: to its
	// streams on the publisher, to each matching subscription by one
	// delivery-pool attempt.
	LogFailed int64 `json:"log_failed,omitempty"`
	// Subscriptions holds per-subscription delivery counters, keyed by
	// durable identity ("named/<name>", "class/<class>/<id>").
	Subscriptions map[string]SubscriptionStats `json:"subscriptions,omitempty"`
}

// Stats snapshots the bus counters.
func (b *Bus) Stats() Stats {
	m := b.metrics
	st := Stats{
		Emitted:       m.Counter("trigger.emitted").Value(),
		Delivered:     m.Counter("trigger.delivered").Value(),
		Dropped:       m.Counter("trigger.dropped").Value(),
		StreamSkipped: m.Counter("trigger.stream_skipped").Value(),
		Retried:       m.Counter("trigger.retried").Value(),
		CycleDropped:  m.Counter("trigger.cycle_dropped").Value(),
		LogFailed:     m.Counter("trigger.log_failed").Value(),
	}
	b.subStatsMu.Lock()
	if len(b.subStats) > 0 {
		st.Subscriptions = make(map[string]SubscriptionStats, len(b.subStats))
		for id, c := range b.subStats {
			st.Subscriptions[id] = SubscriptionStats{
				Delivered: c.delivered.Load(),
				Retried:   c.retried.Load(),
				Dropped:   c.dropped.Load(),
			}
		}
	}
	b.subStatsMu.Unlock()
	for id, s := range st.Subscriptions {
		s.CursorLag = b.cfg.Log.CursorLag(id)
		st.Subscriptions[id] = s
	}
	return st
}

// Backlog sums the CursorLag of every subscription Stats reports: the
// logged events its consumers have not delivered yet. /readyz reports
// it, and /metrics as the trigger.backlog gauge.
func (b *Bus) Backlog() int64 {
	var lag int64
	for _, s := range b.Stats().Subscriptions {
		lag += s.CursorLag
	}
	return lag
}

// Close stops intake, drains the delivery pool, stops the workers, and
// closes all live streams; a stream opened later starts closed.
// Idempotent.
func (b *Bus) Close() {
	b.shutdown(false)
}

// Kill models process death: intake and dispatch stop, queued pool work
// is abandoned (not drained), in-flight webhook requests and backoff
// sleeps are cancelled. The durable log is untouched — everything
// appended before the kill is recoverable, which is exactly what the
// crash/replay tests assert.
func (b *Bus) Kill() {
	b.killed.Store(true)
	b.killCancel()
	b.shutdown(true)
}

func (b *Bus) shutdown(kill bool) {
	b.pubMu.Lock()
	if b.closed {
		b.pubMu.Unlock()
		return
	}
	b.closed = true
	b.pubMu.Unlock()
	// No publisher is mid-dispatch now (PublishBatch holds pubMu's read
	// side), so only consumer runs still queue pool work. Let the workers
	// finish the backlog (or abandon it on kill) and exit; stalled
	// consumers waiting for a re-arm are left to the cursors.
	b.delMu.Lock()
	b.delClosed = true
	if kill {
		b.delQueue = fifo.Ring[delItem]{}
	}
	close(b.stop)
	b.delCond.Broadcast()
	b.quiet.Broadcast()
	b.delMu.Unlock()
	b.delWg.Wait()
	b.hooks.closeAll()
	b.streamMu.Lock()
	for _, set := range b.streams {
		for s := range set {
			s.once.Do(func() { close(s.ch) })
		}
	}
	b.streams = nil
	b.streamed.Store(0)
	b.streamMu.Unlock()
}
