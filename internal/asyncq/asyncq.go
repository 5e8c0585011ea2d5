// Package asyncq implements the platform's asynchronous invocation
// subsystem: one bounded queue drained by every worker of a configurable
// pool, with per-invocation records written through a memtable buffer to
// the backing store, where they stay poll-able after completion.
//
// Synchronous invocation forces the client to hold a connection for the
// full method latency; the queue decouples submission from execution
// the same way Knative's activator/queue decouples request arrival from
// pod readiness on the serving side (which internal/faas models). A
// client submits a task, receives an invocation ID immediately, and
// later polls or waits for the terminal record.
//
// Records exist for submissions whose caller holds an ID — Submit, the
// platform's invoke-async and invoke-batch — because polling that ID is
// the only way the caller learns the outcome. SubmitGroup's tasks are
// record-less: their submitter, the event bus's method sinks, keeps the
// work durable in its own event log and learns the outcome from the
// group's done hook, so the queue writes nothing for them, and their
// IDs reach only their terminal events and traces (GET
// /api/invocations/{id} answers 404 for one). Everything else — the
// FIFO, the depth and in-flight gauges, class quotas, deadlines, the
// fence requeue, drain grouping and coalescing, OnTerminal — is the same
// for both.
//
// Lifecycle of one invocation:
//
//	Submit -> record {status: pending, payload, args}  (persisted, queued)
//	worker -> running since <pull start>                (in memory only)
//	handler ok  -> record {status: completed, result}   (persisted)
//	handler err -> record {status: failed, error}       (persisted)
//
// Two transitions are durable: the pending record, written before the
// task is visible to a worker, and the terminal record. "Running" is
// not a table write: the pull that dequeues a task notes its start time
// in the queue's in-memory index of live invocations, and Get overlays
// status running + started on the pending record of an invocation
// executing in this process. A reader of the backing store, or a
// successor process, sees a predecessor's in-flight work as pending —
// and RecoverStranded re-runs it from the payload and args that record
// carries. Each durable transition is encoded once, by AppendRecord,
// into a scratch buffer shared by the records of one table write, and
// copied out at its size: the record table's PutMany keeps that copy
// until the flush lands, and the backing store keeps it as it is. A
// pending record's copy of the payload is the one copy this package makes
// on the way in; the task runs from those bytes of the document. A
// payload is checked once, when it is admitted, and a result once, when
// its handler returns, so the encoder copies both unchecked.
//
// The record codec (encode.go) writes and reads through internal/jsonw.
// encodeRecord writes every record with AppendRecord, which escapes any
// string as encoding/json does; decodeRecord reads with scanRecord,
// which takes exactly the documents AppendRecord writes, and leaves
// only a foreign writer's to json.Unmarshal. Get and RecoverStranded
// are the only decodes. A scanned record's Payload and Result alias the
// stored document — the table never writes into a value it holds — so
// what Get returns is read-only for as long as anyone keeps it. The gateway serves
// GET /api/invocations/{id} through AppendRecord too.
//
// Backpressure is explicit: Submit returns ErrQueueFull once
// Config.Capacity invocations are queued, those waiting in a busy
// object's box included (see Batched drain), and not before. A panicking
// handler marks its record failed without killing the worker. Close
// stops intake, drains every accepted task, then flushes the record
// table.
//
// # The record table
//
// The record table is a memtable buffer (see package memtable): it
// consolidates record writes into batches and holds a record only until
// its flush has landed. Get reads the table first, for a transition that
// has not flushed yet, and the backing store after, so a poll that
// arrives after the flush pays one store read. The table's memory
// follows the writes in flight, not the invocations ever submitted.
//
// This makes a poll depend on the store once its record has flushed,
// deliberately: while the store is unavailable (its breaker open), a
// poll for a finished invocation whose record has flushed fails as any
// uncached read does — HTTP 503 backing_unavailable at the gateway —
// while one whose record has not flushed still answers. Answering every
// poll through an outage would take keeping every record in memory, a
// cost that grows with every invocation ever submitted.
//
// Terminal records do not accumulate forever: when Config.RecordTTL is
// set, a background sweeper deletes completed/failed records once they
// have been terminal for the TTL, and the buffer drops each tombstone
// once its delete has landed, so a long-running platform keeps a bounded
// record table and a bounded set of stored records. Evictions are
// counted in Stats().Evicted.
//
// # Batched drain
//
// Workers drain in batches, from one FIFO of ready work that every
// worker takes from. A call that does not write is a unit of its own. A
// call whose Target says it Writes — it commits its object's state
// through the Invoke hook's window — joins its object's box, the writes
// on that object waiting to run in the order they were accepted; a box
// is in the FIFO at most once, and only while it holds writes and no
// worker is running it. Any idle worker takes the next unit: it pops
// units until its pull holds its share of what is queued —
// min(Config.DrainBatch, 1+(queued-1)/Config.Workers) tasks — so a
// burst spreads over the pool rather than going to the first two
// workers to wake, except that a box hands over all its writes, up to
// DrainBatch in the pull, since no other worker may run them. A pull
// marks its tasks running under one lock acquisition, groups them by
// target object, hands each group to Config.Invoke in one call — the
// runtime's group-commit path — and writes the terminal record
// transitions for the whole pull in one batched memtable.PutMany. Then
// the worker puts each box it took back at the FIFO's tail if writes
// arrived on it meanwhile, or drops it. A task drained alone is a group
// of one; a hot object's backlog drains as one group, so N coalesced
// invocations cost one concurrency window and one simulated DB round
// trip instead of N. Per-call outcomes stay independent: a failing
// member poisons only its own record, and a hook that panics fails its
// own group, not the worker.
//
// So a busy object's writes run on one worker at a time — two workers
// never abort each other's optimistic commits on it — and its backlog
// gathers into groups rather than spreading over the pool one call
// each, while the boxes put back behind what is ready share the workers
// round robin. Other calls (on the platform, readonly functions and
// dataflows, which run outside the window) take no box and run on the
// worker that pulls them, beside whatever runs on their object. The
// one rule this adds: a handler must not wait for an async write on the
// object it is running, because that call runs after it. A write
// waiting in a box is still queued: it counts against Capacity, Depth
// and its class quota until a worker takes it.
//
// A batch submission (SubmitBatch, the platform's invoke-batch) is one
// submission: its pending records go to the table in one write, and its
// accepted calls enter the queue in one enqueue, admitted in their
// order, each as a lone Submit would be at that point: the calls that
// do not write join the FIFO in request order, and each object's writes
// join its box in theirs, so a pull takes a run of one object's calls.
//
// Stats().BatchedDrains counts pulls of more than one task, and
// Stats().Coalesced counts invocations that shared a group with at
// least one other.
//
// # Class quotas
//
// Config.ClassQuotas caps the number of queued (accepted and not yet
// taken to run) invocations per class: an over-quota Submit is rejected
// with ErrClassQuotaExceeded while other classes keep their share of
// the queue. The class is part of the Target a submission names; a
// submission that names none is counted against no quota.
package asyncq

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/fifo"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/metrics"
	"github.com/hpcclab/oparaca-go/internal/trace"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Sentinel errors.
var (
	// ErrQueueFull is the backpressure signal: the invocation was not
	// accepted because Config.Capacity invocations are already queued.
	ErrQueueFull = errors.New("asyncq: queue full")
	// ErrNotFound is returned when no record exists for an invocation ID.
	ErrNotFound = errors.New("asyncq: invocation not found")
	// ErrClosed is returned for submissions after Close.
	ErrClosed = errors.New("asyncq: queue closed")
	// ErrClassQuotaExceeded is returned when a submission would push a
	// class past its Config.ClassQuotas cap while the queue itself
	// still has room.
	ErrClassQuotaExceeded = errors.New("asyncq: class quota exceeded")
	// ErrInvalidPayload is returned for a submission whose non-empty
	// payload is not a JSON value: it could neither be stored in the
	// invocation record nor re-run from it.
	ErrInvalidPayload = errors.New("asyncq: payload is not valid JSON")
)

// Status is an invocation's lifecycle phase.
type Status string

// Invocation statuses.
const (
	StatusPending   Status = "pending"
	StatusRunning   Status = "running"
	StatusCompleted Status = "completed"
	StatusFailed    Status = "failed"
	// StatusExpired marks an invocation whose deadline elapsed — either
	// while it sat queued (stale work is dropped without executing) or
	// while its handler ran (the handler's delta never committed).
	StatusExpired Status = "expired"
)

// Terminal reports whether s is a final status.
func (s Status) Terminal() bool {
	return s == StatusCompleted || s == StatusFailed || s == StatusExpired
}

// Record is the state of one asynchronous invocation as Get and Wait
// report it: the durable document, with StatusRunning and Started
// overlaid while the invocation executes in this process.
type Record struct {
	// ID identifies the invocation (returned by Submit).
	ID string `json:"id"`
	// Object and Member name the target method.
	Object string `json:"object"`
	Member string `json:"member"`
	// Status is the lifecycle phase.
	Status Status `json:"status"`
	// Payload and Args echo the submission while the record is
	// non-terminal, so a successor process (or a rebalanced owner) can
	// re-execute stranded work from the durable record alone. Both are
	// dropped from terminal records to keep the table lean.
	Payload json.RawMessage   `json:"payload,omitempty"`
	Args    map[string]string `json:"args,omitempty"`
	// Result holds the method output once Status is completed.
	Result json.RawMessage `json:"result,omitempty"`
	// Error holds the failure message once Status is failed.
	Error string `json:"error,omitempty"`
	// Enqueued / Started / Finished are the transition timestamps.
	Enqueued time.Time `json:"enqueued"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// Target is what a submitter has resolved about the object and member
// an invocation names, before the queue accepts it.
type Target struct {
	// Class is the object's class, the key of Config.ClassQuotas. ""
	// bypasses every quota, by design: the queue takes its submitter's
	// word and never looks a class up itself.
	Class string
	// Timeout is the declared invocation deadline, measured from
	// submission: queued work that outlives it is dropped as expired
	// instead of executed, and a running handler is cut off when it
	// elapses. Zero declares none; a deadline on the submitter's
	// context still applies (the earlier of the two wins).
	Timeout time.Duration
	// Writes marks a call that commits its object's state through the
	// Invoke hook's group window — on the platform, a function not
	// declared readonly. The queue runs one object's Writes calls on one
	// worker at a time, from the object's box (see Batched drain); any
	// other call runs on the worker that pulls it, beside whatever else
	// runs on its object.
	Writes bool
}

// Request is one batch-submission entry.
type Request struct {
	Object  string            `json:"object"`
	Member  string            `json:"member"`
	Payload json.RawMessage   `json:"payload,omitempty"`
	Args    map[string]string `json:"args,omitempty"`
}

// Settings size the queue; a platform operator tunes them
// (core.Config.Async).
type Settings struct {
	// Workers is the pool size. Defaults to 4.
	Workers int
	// Capacity bounds the number of queued invocations — accepted and
	// not yet taken to run, those waiting in a busy object's box
	// included: Submit refuses the one past it. Defaults to 1024.
	Capacity int
	// DrainBatch is the most tasks one worker pulls from the queue per
	// drain; a pull takes fewer when its share of the backlog is smaller
	// (see the package doc). Defaults to 16; 1 restores strictly
	// per-task draining.
	DrainBatch int
	// RecordTTL evicts completed/failed records this long after they
	// reach their terminal status, swept every quarter TTL (at least
	// every millisecond). Zero keeps records forever.
	RecordTTL time.Duration
	// ClassQuotas caps the queued (accepted and not yet taken to run)
	// invocations per class name; over-quota submissions fail with
	// ErrClassQuotaExceeded. Classes without an entry are unbounded
	// (up to Capacity), and so is a submission whose Target names no
	// class. A quota covers submissions through the Target each Submit
	// is passed; covering adopted records too is what requires
	// Config.Target.
	ClassQuotas map[string]int
}

// Config sizes a Queue.
type Config struct {
	// Invoke executes one group of a drain: the calls on one object that
	// a worker took to run together, in the order it took them — one
	// call for a task that drained alone. Each call's Ctx is its
	// submitter's context, capped to its submission deadline. results[i]
	// receives calls[i]'s outcome, and one failing call must not poison
	// the rest. The queue owns both slices and hands results over
	// zeroed; the hook keeps neither. No two calls of Invoke that hold
	// Writes calls on one object overlap, so such a call must not wait
	// for an async Writes invocation on its own object: that one runs
	// after it returns. The platform passes its group-commit path; the
	// indirection keeps this package free of a dependency on core.
	// Required.
	Invoke func(ctx context.Context, objectID string, calls []call.Call, results []call.Result)
	Settings
	// Backing persists invocation records through a memtable buffer;
	// New fails without one.
	Backing *kvstore.Store
	// FlushInterval overrides the record table's flush period.
	FlushInterval time.Duration
	// Target resolves the target of a record RecoverStranded adopts: a
	// stored record names only an object and a member, and whoever
	// resolved them at submission is gone. Submit is told its target by
	// its caller and never asks. A target that no longer resolves
	// returns the zero Target; the adopted invocation then fails on
	// dispatch.
	Target func(objectID, member string) Target
	// Requeue, when set, classifies execution errors that mean the
	// invocation should go back to the queue with the same ID instead
	// of failing terminally — the cluster ownership layer passes a
	// predicate matching epoch-fence rejections, so work admitted on an
	// ex-owner re-runs under the new ownership without ever
	// acknowledging a failure. One invocation is requeued at most
	// maxRequeues times, and never past its submission deadline.
	Requeue func(error) bool
	// OnTerminal, when set, is called once per invocation that reaches a
	// terminal status (completed, failed or expired), after its record is
	// persisted (a record-less one has none), with the submission's args
	// — the platform publishes InvocationCompleted/InvocationFailed
	// events (and webhook pushes) from it. Called from worker goroutines;
	// must not block indefinitely.
	OnTerminal func(rec Record, args map[string]string)
	// Drain, when set, is called by Close after every accepted
	// invocation has finished and its terminal hook has run, before
	// Close returns — the platform points it at the event bus's Drain
	// so pending trigger deliveries (terminal-record webhooks included)
	// flush before teardown.
	Drain func()
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.DrainBatch <= 0 {
		c.DrainBatch = 16
	}
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	return c
}

// maxRequeues bounds how many times the Requeue classifier may send one
// invocation back to the queue before its error goes terminal.
const maxRequeues = 8

// task is one queued invocation.
type task struct {
	// key is the record table key, whose suffix is id; "" for a
	// record-less task (SubmitGroup), which group then accounts for.
	key     string
	id      string
	object  string
	member  string
	class   string // the target's class, for quota accounting ("" = none)
	writes  bool   // Target.Writes: the task waits in its object's box
	payload json.RawMessage
	args    map[string]string
	ctx     context.Context // submitter's context; cancellation is observed
	queued  time.Time
	// deadline is the absolute submission deadline (zero = none): the
	// earlier of queued+Target.Timeout and the submitter context's own
	// deadline. Execution contexts are capped to it, and a task still
	// queued past it is dropped as expired.
	deadline time.Time
	// requeues counts how many times the Requeue classifier sent this
	// task back to the queue (bounded by maxRequeues).
	requeues int
	// span is the open queue.wait span of the submission's trace (nil
	// when the submitter carried none); link holds the trace open across
	// the queue hop so it finalizes only once the task goes terminal.
	span  *trace.Span
	link  trace.Link
	group *group
}

// group is what the record-less tasks of one SubmitGroup share: how many
// of them are accepted and not yet terminal, how many of those that went
// terminal completed — both guarded by Queue.mu — and the hook the last
// one to go terminal calls.
type group struct {
	left, completed int
	done            func(completed int)
}

// dropTrace closes the task's wait span (recording err) and releases
// its hold on the trace — the task will never execute.
func (t *task) dropTrace(err error) {
	t.span.Error(err)
	t.span.End()
	t.link.Release()
}

// Queue is the asynchronous invocation engine. It is safe for
// concurrent use.
type Queue struct {
	cfg     Config
	records *memtable.Table
	metrics *metrics.Registry

	mu      sync.Mutex
	waiters map[string]*waiter
	closed  bool
	// ready is the FIFO every worker takes from (see Batched drain), and
	// wake, on mu, wakes one idle worker per unit that enters it.
	// Guarded by mu.
	ready fifo.Ring[unit]
	wake  sync.Cond
	// boxes maps each object with writes waiting, or with a worker
	// running its box, to its box. Guarded by mu.
	boxes map[string]*box
	// queued counts the accepted tasks not yet taken to run, in the FIFO
	// or in a box. It is the room rule: enqueue refuses a task once it
	// reaches Config.Capacity. Guarded by mu.
	queued int
	// classPending counts queued tasks per class, the ClassQuotas
	// accounting. Guarded by mu.
	classPending map[string]int
	// tracked holds the IDs of every invocation currently queued or
	// executing in this process, mapped to the start time of the pull
	// that dequeued it (zero while queued) — the whole of the "running"
	// state, which Get overlays on the durable pending record.
	// RecoverStranded consults it so it only adopts records orphaned by
	// another (dead) process — replaying a task that is still live here
	// would double-execute it. Guarded by mu.
	tracked map[string]time.Time

	// terminal is the GC's eviction index: records that reached a
	// terminal status, in roughly finish order, with the instant each
	// becomes evictable. Only populated when RecordTTL > 0.
	terminalMu sync.Mutex
	terminal   []expiringRecord

	gcStop chan struct{}
	gcDone chan struct{}

	wg        sync.WaitGroup
	closeOnce sync.Once
	killed    atomic.Bool // drop queued tasks instead of running them
}

// expiringRecord is one entry of the GC's eviction index.
type expiringRecord struct {
	id      string
	expires time.Time
}

// waiter is shared by every Wait blocked on one invocation ID. The
// transition that closes done stores the terminal record first, so a
// woken waiter returns it without re-reading the table.
type waiter struct {
	done chan struct{}
	rec  Record
}

// recordPrefix namespaces invocation records in the record table.
const recordPrefix = "invocations/"

// recordKey is the memtable key for one invocation ID.
func recordKey(id string) string { return recordPrefix + id }

// New builds a queue and starts its worker pool.
func New(cfg Config) (*Queue, error) {
	cfg = cfg.withDefaults()
	if cfg.Invoke == nil {
		return nil, errors.New("asyncq: Config.Invoke is required")
	}
	if cfg.Backing == nil {
		return nil, errors.New("asyncq: Config.Backing is required")
	}
	if len(cfg.ClassQuotas) > 0 && cfg.Target == nil {
		// Submissions name their own class; an adopted record has nobody
		// to name its. Without the hook its class is "" and its quota
		// silently never applies; fail loudly instead.
		return nil, errors.New("asyncq: Config.ClassQuotas requires Config.Target, to class the records RecoverStranded adopts")
	}
	records, err := memtable.New(memtable.Config{
		Mode:          memtable.ModeWriteBehind,
		Buffer:        true,
		Backing:       cfg.Backing,
		FlushInterval: cfg.FlushInterval,
		Clock:         cfg.Clock,
	})
	if err != nil {
		return nil, fmt.Errorf("asyncq: record table: %w", err)
	}
	q := &Queue{
		cfg:          cfg,
		records:      records,
		metrics:      metrics.NewRegistry(),
		waiters:      make(map[string]*waiter),
		boxes:        make(map[string]*box),
		classPending: make(map[string]int),
		tracked:      make(map[string]time.Time),
	}
	q.wake.L = &q.mu
	// Reading Stats creates every series it reads: /metrics shows each
	// from the start. The capacity is configuration, not a count.
	q.Stats()
	q.metrics.GaugeFunc("async.capacity", func() float64 { return float64(cfg.Capacity) })
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	if cfg.RecordTTL > 0 {
		q.gcStop = make(chan struct{})
		q.gcDone = make(chan struct{})
		go q.gcLoop()
	}
	return q, nil
}

// Metrics exposes the queue's registry (depth/in-flight gauges, wait
// and exec histograms, enqueued/rejected/completed/failed counters).
func (q *Queue) Metrics() *metrics.Registry { return q.metrics }

// idLen is the length of an invocation ID: "inv-" and 12 random bytes
// in hex.
const idLen = len("inv-") + 2*12

// putID writes a fresh invocation ID into buf, which is idLen long.
func putID(buf []byte) {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("asyncq: crypto/rand unavailable: " + err.Error())
	}
	hex.Encode(buf[copy(buf, "inv-"):], b[:])
}

// newRecordKey returns the record key of a fresh invocation and its ID —
// one string: the ID is the key's suffix, so a task carries both for
// the price of one.
func newRecordKey() (key, id string) {
	var buf [len(recordPrefix) + idLen]byte
	putID(buf[copy(buf[:], recordPrefix):])
	key = string(buf[:])
	return key, key[len(recordPrefix):]
}

// newID returns the ID of a fresh record-less invocation.
func newID() string {
	var buf [idLen]byte
	putID(buf[:])
	return string(buf[:])
}

// aim books a task to its target and its submitter's context: the class
// its quota is counted against — only when there are quotas, so a queue
// without them keeps no per-class count — the deadline, the earlier of
// the declared one, from when it queued, and the context's own, and,
// when the context carries a trace, the link that holds the trace open
// across the queue hop and the wait span that measures time-to-drain.
func (q *Queue) aim(t *task, to Target) {
	if len(q.cfg.ClassQuotas) > 0 {
		t.class = to.Class
	}
	t.writes = to.Writes
	if to.Timeout > 0 {
		t.deadline = t.queued.Add(to.Timeout)
	}
	if ctxDl, ok := t.ctx.Deadline(); ok && (t.deadline.IsZero() || ctxDl.Before(t.deadline)) {
		t.deadline = ctxDl
	}
	if sp := trace.FromContext(t.ctx); sp != nil {
		sp.SetInvocation(t.id)
		t.link = sp.Link()
		t.span = sp.Child("queue.wait")
	}
}

// underQuota admits a task whose class is below its quota.
func (q *Queue) underQuota(t task) error {
	if quota, capped := q.cfg.ClassQuotas[t.class]; capped && t.class != "" && q.classPending[t.class] >= quota {
		return fmt.Errorf("%w: class %s at quota %d", ErrClassQuotaExceeded, t.class, quota)
	}
	return nil
}

// refused counts n submissions enqueue turned away with err.
func (q *Queue) refused(err error, n int) {
	switch {
	case errors.Is(err, ErrClassQuotaExceeded):
		q.metrics.Counter("queue.quota_rejected").Add(int64(n))
	case errors.Is(err, ErrQueueFull):
		q.metrics.Counter("queue.rejected").Add(int64(n))
	}
}

// Submit enqueues one invocation of the target its caller resolved and
// returns its ID. The queue does not check to: the zero Target declares
// no deadline and counts against no class quota. The context is
// retained: cancelling it fails the invocation if it is still queued
// and propagates into the handler once running. Submit returns
// ErrQueueFull when the queue is at capacity, ErrClassQuotaExceeded
// when the target's class is, ErrClosed after Close, and
// ErrInvalidPayload for a non-empty payload that is not JSON.
func (q *Queue) Submit(ctx context.Context, to Target, objectID, member string, payload json.RawMessage, args map[string]string) (string, error) {
	t, err := q.newTask(ctx, to, objectID, member, payload, args, q.cfg.Clock.Now())
	if err != nil {
		return "", err
	}
	// The pending record must exist before the task is visible to a
	// worker: a fast worker would otherwise write the terminal record
	// first and have it clobbered by a late pending write (leaving
	// pollers stuck at "pending" forever).
	w := writers.Get().(*recordWriter)
	w.pending(&t)
	w.write(q.records)
	putWriter(w)
	if _, err := q.enqueue([]task{t}, "queue.enqueued", q.underQuota, nil); err != nil {
		q.drop(t, err)
		return "", err
	}
	return t.id, nil
}

// newTask checks one submission and builds its task, with a fresh record
// key, queued at now and aimed at to. The task holds the caller's payload
// until its pending record is encoded (recordWriter.pending).
func (q *Queue) newTask(ctx context.Context, to Target, objectID, member string, payload json.RawMessage, args map[string]string, now time.Time) (task, error) {
	if err := ctx.Err(); err != nil {
		return task{}, err
	}
	// The payload is stored inside the pending record and re-run from it
	// after a crash; bytes that are not a JSON value can do neither.
	if len(payload) > 0 && !json.Valid(payload) {
		return task{}, fmt.Errorf("%w: object %s member %s", ErrInvalidPayload, objectID, member)
	}
	key, id := newRecordKey()
	t := task{
		key:     key,
		id:      id,
		object:  objectID,
		member:  member,
		payload: payload,
		args:    maps.Clone(args),
		ctx:     ctx,
		queued:  now,
	}
	q.aim(&t, to)
	return t, nil
}

// drop undoes the submission of a task enqueue refused with err: it is
// counted rejected, its pending record is deleted and its trace let go.
func (q *Queue) drop(t task, err error) {
	q.refused(err, 1)
	_ = q.records.Delete(context.Background(), t.key)
	t.dropTrace(err)
}

// Submission is one call of a SubmitBatch, on Object, of the target its
// submitter resolved. Its Ctx (nil: none) is its submitter's context, as
// Submit's is.
type Submission struct {
	Object string
	To     Target
	call.Call
}

// SubmitBatch submits each of subs as Submit would, in one submission:
// their pending records go to the table in one write, then the queue
// takes them in one enqueue. It admits them in order, each as a lone
// Submit would be at that point — once the queue is full it takes none
// of the rest, and a class at its quota refuses the rest of that class —
// and queues each as a lone Submit would (see Batched drain). out[i]
// receives subs[i]'s ID, or the error that refused it. A batch of one is
// a lone Submit.
func (q *Queue) SubmitBatch(subs []Submission, out []BatchResult) {
	if len(subs) == 1 {
		s := subs[0]
		out[0].ID, out[0].Err = q.Submit(cmp.Or(s.Ctx, context.Background()), s.To, s.Object, s.Member, s.Payload, s.Args)
		return
	}
	ts := make([]task, 0, len(subs))
	at := make([]int, 0, len(subs)) // ts[j] is subs[at[j]]
	w := writers.Get().(*recordWriter)
	defer putWriter(w)
	now := q.cfg.Clock.Now()
	for i, s := range subs {
		t, err := q.newTask(cmp.Or(s.Ctx, context.Background()), s.To, s.Object, s.Member, s.Payload, s.Args, now)
		if err != nil {
			out[i] = BatchResult{Err: err}
			continue
		}
		w.pending(&t)
		out[i] = BatchResult{ID: t.id}
		ts, at = append(ts, t), append(at, i)
	}
	// Every pending record lands before any task is visible (see Submit).
	w.write(q.records)
	n, _ := q.enqueue(ts, "queue.enqueued", q.underQuota, func(j int, err error) { out[at[j]] = BatchResult{Err: err} })
	if n == len(ts) {
		return
	}
	for j, i := range at {
		if err := out[i].Err; err != nil {
			q.drop(ts[j], err)
		}
	}
}

// SubmitGroup enqueues calls on objectID as record-less tasks: the
// chained calls of one event-bus consumer run, whose events the
// submitter's event log already holds. A record-less task is an ordinary
// task whose record key is empty: nothing is written when it is accepted
// or when it goes terminal, Get and Wait do not know its ID, and
// RecoverStranded never sees it — a crash loses it, and the submitter
// redelivers it from its log. Nor are its payload and args copied or
// checked: they must be JSON and stay unwritten (log entries, a shared
// args table). Each call's Ctx (nil: none) is its submitter's context,
// as Submit's is.
//
// SubmitGroup accepts the longest prefix of calls the queue and the
// target's class quota have room for and returns its length, with the
// error that refused the rest (ErrQueueFull, ErrClassQuotaExceeded,
// ErrClosed); nil when it took them all. When it accepted any, done runs
// once, on a worker, after every accepted call went terminal and its
// OnTerminal hook ran, with how many of them completed; if the queue is
// killed first, it never runs.
func (q *Queue) SubmitGroup(to Target, objectID string, calls []call.Call, done func(completed int)) (int, error) {
	g := &group{done: done}
	ts := make([]task, len(calls))
	now := q.cfg.Clock.Now()
	for i, c := range calls {
		t := &ts[i]
		*t = task{
			id: newID(), object: objectID, member: c.Member,
			payload: c.Payload, args: c.Args,
			ctx: cmp.Or(c.Ctx, context.Background()), queued: now, group: g,
		}
		q.aim(t, to)
	}
	// The group counts each task as it is admitted, under q.mu, so no
	// accepted task can go terminal before the count holds all of them.
	// One object and one class: what enqueue refuses is a suffix.
	n, err := q.enqueue(ts, "queue.enqueued", func(t task) error {
		if err := q.underQuota(t); err != nil {
			return err
		}
		g.left++
		return nil
	}, nil)
	if n < len(ts) {
		q.refused(err, len(ts)-n)
		for i := n; i < len(ts); i++ {
			ts[i].dropTrace(err)
		}
	}
	return n, err
}

// enqueue is the one way into the queue. It admits the tasks of ts in
// their order, refusing one with ErrClosed after Close, with
// ErrQueueFull once Config.Capacity tasks are queued — those in boxes
// included (see queued) — or with admit's error (nil admits every task);
// refuse, when not nil, is told each refused task's index and error. It
// books each accepted task queued — one more in the depth gauge, in its
// class's quota count and in counter, and, for a task with a record, a
// tracked entry that has not started — and makes it ready: a task that
// does not write enters the FIFO, and a write joins its object's box,
// which enters the FIFO with its first write unless a worker is running
// it. Each unit that enters wakes one idle worker. The closed check,
// admit and the pushes share q.mu, so Close cannot observe an accepted
// task it will not drain, racing submitters cannot oversubscribe a quota
// and a record is not adopted twice; the depth is booked before q.mu is
// let go, so the worker that takes a task cannot take the gauge below
// zero. It returns how many tasks it accepted and the first refusal's
// error.
func (q *Queue) enqueue(ts []task, counter string, admit func(task) error, refuse func(i int, err error)) (int, error) {
	m := q.metrics
	q.mu.Lock()
	defer q.mu.Unlock()
	accepted, first := 0, error(nil)
	if q.closed {
		first = ErrClosed // even with no task to refuse
	}
	for i := range ts {
		t := &ts[i]
		var err error
		switch {
		case q.closed:
			err = ErrClosed
		case q.queued == q.cfg.Capacity:
			err = fmt.Errorf("%w: object %s", ErrQueueFull, t.object)
		case admit != nil:
			err = admit(*t)
		}
		if err != nil {
			first = cmp.Or(first, err)
			if refuse != nil {
				refuse(i, err)
			}
			continue
		}
		accepted++
		q.queued++
		if t.class != "" {
			q.classPending[t.class]++
		}
		if t.key != "" {
			q.tracked[t.id] = time.Time{}
		}
		if !t.writes {
			q.ready.Push(unit{t: *t})
			q.wake.Signal()
			continue
		}
		b := q.boxes[t.object]
		if b == nil {
			b = idleBoxes.Get().(*box)
			b.object = t.object
			q.boxes[t.object] = b
		}
		if b.writes.Push(*t); b.writes.Size() == 1 && !b.running {
			q.ready.Push(unit{b: b})
			q.wake.Signal()
		}
	}
	m.Gauge("queue.depth").Add(int64(accepted))
	m.Counter(counter).Add(int64(accepted))
	return accepted, first
}

// BatchResult is one batch-submission outcome.
type BatchResult struct {
	ID  string
	Err error
}

// pending adds t's pending record — the document a successor re-runs
// the task from — to w, and points t's payload at the document's copy of
// it.
func (w *recordWriter) pending(t *task) {
	rec := w.add(t.key, Record{
		ID: t.id, Object: t.object, Member: t.member,
		Status: StatusPending, Enqueued: t.queued,
		Payload: t.payload, Args: t.args,
	})
	switch {
	case rec.Payload != nil:
		t.payload = rec.Payload
	case len(t.payload) > 0: // the record degraded (see encodeRecord) and holds none
		t.payload = slices.Clone(t.payload)
	}
}

// terminalHook is one invocation's terminal transition: the record, its
// table key ("" for a record-less task), the submission args for the
// OnTerminal callback, and a record-less task's group, with whether it
// was the group's last task to go terminal.
type terminalHook struct {
	key   string
	rec   Record
	args  map[string]string
	group *group
	last  bool
}

// terminal is t's terminal transition to rec.
func (t *task) terminal(rec Record) terminalHook {
	return terminalHook{key: t.key, rec: rec, args: t.args, group: t.group}
}

// finish publishes a drain pull's terminal transitions: the records in
// one batched table write, then — under one q.mu acquisition — each
// blocked Wait handed its record and each ID untracked, then the
// eviction index, then the OnTerminal hook, which so observes the
// terminal state when it polls, and last the record-less tasks counted
// off their groups. Record writes outlive the submitter's context.
func (q *Queue) finish(w *recordWriter, hooks []terminalHook) {
	if len(hooks) == 0 {
		return
	}
	q.store(w, hooks)
	q.mu.Lock()
	for i := range hooks {
		if hooks[i].key == "" {
			continue
		}
		id := hooks[i].rec.ID
		if w, ok := q.waiters[id]; ok {
			w.rec = hooks[i].rec
			close(w.done)
			delete(q.waiters, id)
		}
		delete(q.tracked, id)
	}
	q.mu.Unlock()
	if q.cfg.RecordTTL > 0 {
		expires := q.cfg.Clock.Now().Add(q.cfg.RecordTTL)
		q.terminalMu.Lock()
		for i := range hooks {
			if hooks[i].key != "" {
				q.terminal = append(q.terminal, expiringRecord{id: hooks[i].rec.ID, expires: expires})
			}
		}
		q.terminalMu.Unlock()
	}
	if q.cfg.OnTerminal != nil {
		for i := range hooks {
			q.cfg.OnTerminal(hooks[i].rec, hooks[i].args)
		}
	}
	q.countOff(hooks)
}

// countOff counts the pull's record-less tasks off their groups, each
// after its OnTerminal hook ran, and runs the done hook of every group
// whose last task it counted: so done runs after the OnTerminal hook of
// every task of its group, whichever workers ran them.
func (q *Queue) countOff(hooks []terminalHook) {
	grouped := false
	for i := range hooks {
		grouped = grouped || hooks[i].group != nil
	}
	if !grouped {
		return
	}
	q.mu.Lock()
	for i := range hooks {
		h := &hooks[i]
		if g := h.group; g != nil {
			if h.rec.Status == StatusCompleted {
				g.completed++
			}
			g.left--
			h.last = g.left == 0
		}
	}
	q.mu.Unlock()
	for i := range hooks {
		if g := hooks[i].group; hooks[i].last && g.done != nil {
			g.done(g.completed)
		}
	}
}

// store writes the terminal records of hooks through w: each encoded
// once, a pull's in one batched table write. Record-less tasks have none.
func (q *Queue) store(w *recordWriter, hooks []terminalHook) {
	for i := range hooks {
		if h := &hooks[i]; h.key != "" {
			h.rec = w.add(h.key, h.rec)
		}
	}
	if len(w.kvs) > 0 {
		w.write(q.records)
	}
}

// gcLoop evicts records whose TTL has elapsed, every quarter TTL.
func (q *Queue) gcLoop() {
	defer close(q.gcDone)
	every := max(q.cfg.RecordTTL/4, time.Millisecond)
	for {
		select {
		case <-q.gcStop:
			return
		case <-q.cfg.Clock.After(every):
		}
		q.evictExpired()
	}
}

// evictExpired removes every terminal record past its TTL from the
// record table and counts it in the queue.evicted metric.
func (q *Queue) evictExpired() {
	now := q.cfg.Clock.Now()
	q.terminalMu.Lock()
	// Workers append in near-finish order, so scan the whole slice and
	// keep survivors: cheap, and robust to slight reordering.
	var expired []string
	kept := q.terminal[:0]
	for _, e := range q.terminal {
		if e.expires.After(now) {
			kept = append(kept, e)
			continue
		}
		expired = append(expired, e.id)
	}
	q.terminal = kept
	q.terminalMu.Unlock()
	for _, id := range expired {
		if err := q.records.Delete(context.Background(), recordKey(id)); err != nil {
			// Backing-store hiccup: the durable copy may survive (and
			// the record table would read it back through), so requeue
			// the eviction for the next sweep instead of leaking it.
			q.terminalMu.Lock()
			q.terminal = append(q.terminal, expiringRecord{id: id, expires: now})
			q.terminalMu.Unlock()
			continue
		}
		q.metrics.Counter("queue.evicted").Inc()
	}
}

// Get returns the record for an invocation ID. An invocation executing
// in this process reads running, with the start of the pull that
// dequeued it, though its stored document still says pending. A record
// whose last transition has flushed is read from the backing store. The
// record's Payload and Result are shared with the record table or the
// store: keep them as long as you like — a later transition or an
// eviction replaces the stored document, never its bytes — and do not
// write into them.
func (q *Queue) Get(ctx context.Context, id string) (Record, error) {
	raw, err := q.records.Get(ctx, recordKey(id))
	if err != nil {
		if errors.Is(err, memtable.ErrNotFound) {
			return Record{}, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		return Record{}, err
	}
	var rec Record
	if err := decodeRecord(raw, id, &rec); err != nil {
		return Record{}, fmt.Errorf("asyncq: corrupt record %q: %w", id, err)
	}
	if rec.Status == StatusPending {
		q.mu.Lock()
		started := q.tracked[id]
		q.mu.Unlock()
		if !started.IsZero() {
			rec.Status, rec.Started = StatusRunning, started
		}
	}
	return rec, nil
}

// Wait blocks until the invocation reaches a terminal status or ctx is
// done, then returns the record.
func (q *Queue) Wait(ctx context.Context, id string) (Record, error) {
	q.mu.Lock()
	_, live := q.tracked[id]
	q.mu.Unlock()
	if !live {
		// The common long-poll: the invocation went terminal before the
		// poll arrived (or the ID is unknown). Answer from the record,
		// without a waiter entry or its channel.
		if rec, err := q.Get(ctx, id); err != nil || rec.Status.Terminal() {
			return rec, err
		}
	}
	q.mu.Lock()
	w, ok := q.waiters[id]
	if !ok {
		w = &waiter{done: make(chan struct{})}
		q.waiters[id] = w
	}
	q.mu.Unlock()
	// Check after registering so a transition between Get and wait
	// cannot be missed.
	rec, err := q.Get(ctx, id)
	if err != nil || rec.Status.Terminal() {
		// The terminal wake will never come (it already happened, or the
		// record is gone): retire the waiter entry so the map does not
		// grow without bound. Closing the channel releases any Wait that
		// shares it — with the record, or to re-read when there is none.
		q.mu.Lock()
		if q.waiters[id] == w {
			w.rec = rec
			close(w.done)
			delete(q.waiters, id)
		}
		q.mu.Unlock()
		return rec, err
	}
	select {
	case <-w.done:
		if w.rec.ID == "" {
			return q.Get(ctx, id)
		}
		return w.rec, nil
	case <-ctx.Done():
		return Record{}, ctx.Err()
	}
}

// unit is one entry of the ready FIFO: a call that does not write (t),
// or the box of an object whose writes wait to run (b).
type unit struct {
	t task
	b *box
}

// box is an object's writes waiting to run, in the order they were
// accepted. It is in the ready FIFO at most once, and only while it
// holds writes and no worker runs it (running); it is in Queue.boxes
// while it holds writes or a worker runs it. Guarded by Queue.mu.
type box struct {
	object  string
	writes  fifo.Ring[task]
	running bool
}

// idleBoxes keeps dropped boxes, their rings with them, for the next
// object to get a write.
var idleBoxes = sync.Pool{New: func() any { return new(box) }}

// drain is one worker's scratch, reused from pull to pull: the pull, the
// boxes it took, its runnable tasks grouped by object and, aligned with
// them, the calls the Invoke hook is handed, the results it fills and
// their drain spans; the deadline cancels of the group in flight; and
// the pull's terminal transitions and the writer of their records. done
// clears the pull's tasks, so nothing a pull put there outlives the pull,
// and a pull allocates none of it.
type drain struct {
	batch    []task
	boxes    []*box
	runnable []task
	calls    []call.Call
	results  []call.Result
	spans    []*trace.Span
	cancels  []context.CancelFunc
	hooks    []terminalHook
	records  recordWriter
}

func newDrain(n int) *drain {
	return &drain{
		batch:    make([]task, 0, n),
		runnable: make([]task, 0, n),
		calls:    make([]call.Call, n),
		results:  make([]call.Result, n),
		spans:    make([]*trace.Span, n),
		cancels:  make([]context.CancelFunc, 0, n),
		hooks:    make([]terminalHook, 0, n),
	}
}

// done drops what the pull left in d: its tasks' contexts, payloads and
// records stay reachable from nowhere once the pull is over.
func (d *drain) done() {
	n := len(d.runnable)
	clear(d.calls[:n])
	clear(d.results[:n])
	clear(d.spans[:n])
	clear(d.batch)
	clear(d.runnable)
	clear(d.hooks)
	d.batch, d.runnable, d.hooks = d.batch[:0], d.runnable[:0], d.hooks[:0]
}

// worker drains the queue until it is closed and nothing is left ready:
// it waits for a unit, pulls its share, runs the pull, puts back the
// boxes it took and pulls again.
func (q *Queue) worker() {
	defer q.wg.Done()
	d := newDrain(q.cfg.DrainBatch)
	q.mu.Lock()
	for {
		for q.ready.Size() == 0 && !q.closed {
			q.wake.Wait()
		}
		if q.ready.Size() == 0 {
			break
		}
		q.pull(d)
		q.mu.Unlock()
		q.metrics.Gauge("queue.depth").Add(-int64(len(d.batch)))
		if q.killed.Load() {
			// Simulated crash: drain the queue without running anything
			// so Kill's wg.Wait returns promptly. The submissions'
			// pending records stay in the backing store for recovery.
			d.done()
		} else {
			q.runBatch(d)
		}
		q.mu.Lock()
		q.putBack(d)
	}
	q.mu.Unlock()
}

// pull takes d's share of the ready work from the FIFO's head, q.mu
// held: units until the pull holds min(DrainBatch, 1+(queued-1)/Workers)
// tasks, where a box hands over all its writes, up to DrainBatch in the
// pull. The worker runs each box it took until it puts it back. The
// tasks taken leave the queue.
func (q *Queue) pull(d *drain) {
	share := min(q.cfg.DrainBatch, 1+(q.queued-1)/q.cfg.Workers)
	for len(d.batch) < share && q.ready.Size() > 0 {
		u := q.ready.Pop()
		if u.b == nil {
			q.take(&u.t)
			d.batch = append(d.batch, u.t)
			continue
		}
		b := u.b
		b.running = true
		d.boxes = append(d.boxes, b)
		for range min(b.writes.Size(), q.cfg.DrainBatch-len(d.batch)) {
			t := b.writes.Pop()
			q.take(&t)
			d.batch = append(d.batch, t)
		}
	}
}

// putBack ends d's run of the boxes it took, q.mu held: a box that got
// writes meanwhile goes back at the FIFO's tail, behind what is ready,
// and one left empty is dropped. The worker pulls next, so the first box
// it puts back wakes nobody; each further one wakes an idle worker,
// which runs it beside the first.
func (q *Queue) putBack(d *drain) {
	back := 0
	for _, b := range d.boxes {
		b.running = false
		if b.writes.Size() == 0 {
			delete(q.boxes, b.object)
			b.object = ""
			idleBoxes.Put(b)
			continue
		}
		q.ready.Push(unit{b: b})
		if back++; back > 1 {
			q.wake.Signal()
		}
	}
	clear(d.boxes)
	d.boxes = d.boxes[:0]
}

// errStaleQueued fails a task still queued past its submission deadline.
var errStaleQueued = errors.New("asyncq: submission deadline elapsed while queued")

// runBatch executes the pull in d.batch: it publishes the
// terminal records of tasks cancelled or expired while queued, marks the
// rest running (in memory — see the package doc), dispatches them
// grouped by target object, then writes every terminal record in one
// batched table write.
//
// Terminal publication is per pull, not per task: a task's record (and
// its Wait waiters) becomes visible once the whole pull finishes, and
// all records of the pull share the pull window's Started/Finished
// timestamps — the throughput/latency trade the drain batching makes,
// bounded by DrainBatch. DrainBatch=1 restores per-task publication.
func (q *Queue) runBatch(d *drain) {
	defer d.done()
	m := q.metrics
	if len(d.batch) > 1 {
		m.Counter("queue.batched_drains").Inc()
	}
	started := q.cfg.Clock.Now()
	for _, t := range d.batch {
		m.Histogram("queue.wait").Observe(q.cfg.Clock.Since(t.queued))
		err := t.ctx.Err()
		if err == nil && !t.deadline.IsZero() && !started.Before(t.deadline) {
			// Stale queued work: the submission deadline elapsed while
			// the task waited. Nobody is waiting for the result anymore,
			// so dropping it beats executing it.
			err = errStaleQueued
		}
		if err == nil {
			t.span.End() // the wait is over; drain spans take it from here
			d.runnable = grouped(d.runnable, t)
			continue
		}
		// A submission cancelled or expired while queued goes terminal
		// without invoking; its terminal metrics mirror every other exit
		// path (a zero execution-time sample keeps queue.exec's count
		// equal to the terminal-record total).
		rec := Record{
			ID: t.id, Object: t.object, Member: t.member,
			Status: StatusFailed, Error: err.Error(),
			Enqueued: t.queued, Started: started, Finished: started,
		}
		if err == errStaleQueued || errors.Is(err, context.DeadlineExceeded) {
			rec.Status = StatusExpired
			m.Counter("queue.expired").Inc()
		} else {
			m.Counter("queue.failed").Inc()
		}
		m.Histogram("queue.exec").Observe(0)
		d.hooks = append(d.hooks, t.terminal(rec))
		t.dropTrace(err)
	}
	q.finish(&d.records, d.hooks)
	clear(d.hooks)
	d.hooks = d.hooks[:0]
	runnable := d.runnable
	if len(runnable) == 0 {
		return
	}
	// Running from here on, as far as Get is concerned; the durable
	// record stays pending (see the package doc). A record-less task is
	// not Get's to know.
	q.mu.Lock()
	for i := range runnable {
		if runnable[i].key != "" {
			q.tracked[runnable[i].id] = started
		}
	}
	q.mu.Unlock()
	m.Gauge("queue.inflight").Add(int64(len(runnable)))
	q.executeGroups(d)
	m.Gauge("queue.inflight").Add(-int64(len(runnable)))
	finished := q.cfg.Clock.Now()
	for i := range runnable {
		t := &runnable[i]
		out, err := d.results[i].Output, d.results[i].Err
		if err == nil && len(out) > 0 && !json.Valid(out) {
			err = fmt.Errorf("asyncq: handler returned invalid JSON output")
		}
		// Ownership-fence (and other Requeue-classified) failures go
		// back to the queue with the same ID instead of terminating:
		// the work was never acknowledged, so the new owner simply
		// re-runs it, and it reads pending again; the stored record
		// never stopped saying so. The terminal path below is the
		// fallback when the requeue bound is hit or the queue is
		// closing or full.
		if err != nil && q.cfg.Requeue != nil && q.cfg.Requeue(err) &&
			t.requeues < maxRequeues && t.ctx.Err() == nil &&
			(t.deadline.IsZero() || q.cfg.Clock.Now().Before(t.deadline)) {
			t.requeues++
			// Back to the queue under the same trace: a fresh wait span
			// opens so the re-run's queue time is visible too.
			t.span = t.link.Start("queue.wait")
			if _, err := q.enqueue([]task{*t}, "queue.requeued", nil, nil); err == nil {
				continue
			}
			t.span.End()
		}
		rec := Record{
			ID: t.id, Object: t.object, Member: t.member,
			Enqueued: t.queued, Started: started, Finished: finished,
		}
		// One exec sample per task keeps the histogram count equal to
		// the terminal-record count across batch sizes.
		m.Histogram("queue.exec").Observe(finished.Sub(started))
		switch {
		case err != nil && errors.Is(err, context.DeadlineExceeded):
			// The handler outlived the task's deadline; the runtime's
			// commit guards guarantee its delta never persisted.
			rec.Status, rec.Error = StatusExpired, err.Error()
			m.Counter("queue.expired").Inc()
		case err != nil:
			rec.Status, rec.Error = StatusFailed, err.Error()
			m.Counter("queue.failed").Inc()
		default:
			rec.Status, rec.Result = StatusCompleted, out
			m.Counter("queue.completed").Inc()
		}
		d.hooks = append(d.hooks, t.terminal(rec))
		t.link.Release() // terminal: the trace's queue hop is over
	}
	q.finish(&d.records, d.hooks)
}

// grouped adds t to a pull's runnable tasks right after the last one on
// its object, so each object's tasks form one run, in the order they
// were dequeued, and runs stand in the order their objects first drained
// — the pull grouped by object without a map. runnable never outgrows
// the pull, whose capacity it has.
func grouped(runnable []task, t task) []task {
	for i := len(runnable) - 1; i >= 0; i-- {
		if runnable[i].object == t.object {
			return slices.Insert(runnable, i+1, t)
		}
	}
	return append(runnable, t)
}

// RecoverStranded adopts non-terminal invocation records that no live
// worker in this process owns — the queued and in-flight work a dead
// node (or a crashed predecessor on the same backing store) left
// behind. Each stranded record is re-run from its persisted payload
// under the same invocation ID, so pollers waiting on the original ID
// observe the eventual terminal record. Returns how many invocations
// were adopted.
func (q *Queue) RecoverStranded(ctx context.Context) (int, error) {
	keys, err := q.cfg.Backing.List(ctx, recordPrefix)
	if err != nil {
		return 0, err
	}
	adopted := 0
	now := q.cfg.Clock.Now()
	for _, key := range keys {
		id := key[len(recordPrefix):]
		// Tracked check BEFORE the record read: a worker untracks only
		// after persisting the terminal record, so an untracked ID
		// whose record still reads non-terminal is genuinely stranded
		// (the inverse order could adopt a task that went terminal
		// between the read and the check).
		q.mu.Lock()
		_, live := q.tracked[id]
		q.mu.Unlock()
		if live {
			continue // still queued or executing in this process
		}
		// Read through the record table, not the raw backing doc: this
		// process's own terminal transitions may not have flushed yet,
		// and replaying a locally-completed invocation would
		// double-execute it.
		raw, err := q.records.Get(ctx, key)
		if err != nil {
			continue
		}
		var rec Record
		if decodeRecord(raw, id, &rec) != nil || rec.ID == "" || rec.Status.Terminal() {
			continue
		}
		t := task{
			key:     key,
			id:      rec.ID,
			object:  rec.Object,
			member:  rec.Member,
			payload: rec.Payload,
			args:    rec.Args,
			ctx:     context.Background(),
			queued:  now,
		}
		if q.cfg.Target != nil {
			q.aim(&t, q.cfg.Target(t.object, t.member))
		}
		// A full queue skips the record; the next recovery pass retries.
		switch _, err := q.enqueue([]task{t}, "queue.recovered", func(t task) error {
			if _, live := q.tracked[t.id]; live {
				return errLive
			}
			return nil
		}, nil); {
		case err == nil:
			adopted++
		case errors.Is(err, ErrClosed):
			return adopted, nil
		}
	}
	return adopted, nil
}

// errLive refuses to adopt a record whose invocation is queued or
// executing in this process.
var errLive = errors.New("asyncq: invocation is live in this process")

// take books t out of the queue as a worker takes it to run: the room
// and the quota it held are free again. q.mu is held.
func (q *Queue) take(t *task) {
	q.queued--
	if t.class == "" {
		return
	}
	if q.classPending[t.class]--; q.classPending[t.class] <= 0 {
		delete(q.classPending, t.class)
	}
}

// executeGroups hands the pull's runnable tasks to the Invoke hook, one
// call per run of same-object tasks, filling d.results aligned with
// d.runnable. Each call runs under its own queue.drain span of its
// submission's trace, with its context capped to its submission
// deadline. Groups of two or more are counted in queue.coalesced.
func (q *Queue) executeGroups(d *drain) {
	tasks := d.runnable
	for lo := 0; lo < len(tasks); {
		hi := lo + 1
		for hi < len(tasks) && tasks[hi].object == tasks[lo].object {
			hi++
		}
		n := hi - lo
		if n > 1 {
			q.metrics.Counter("queue.coalesced").Add(int64(n))
		}
		cancels := d.cancels[:0]
		for i := lo; i < hi; i++ {
			t := &tasks[i]
			dsp := t.link.Start("queue.drain")
			if n > 1 {
				dsp.SetInt("coalesced", n)
			}
			d.spans[i] = dsp
			ctx := trace.ContextWith(t.ctx, dsp)
			if !t.deadline.IsZero() {
				var cancel context.CancelFunc
				ctx, cancel = q.cfg.Clock.WithDeadline(ctx, t.deadline)
				cancels = append(cancels, cancel)
			}
			d.calls[i] = call.Call{Member: t.member, Payload: t.payload, Args: t.args, Ctx: ctx}
		}
		q.dispatch(tasks[lo].object, d.calls[lo:hi], d.results[lo:hi])
		for _, cancel := range cancels {
			cancel()
		}
		clear(cancels)
		for i := lo; i < hi; i++ {
			d.spans[i].Error(d.results[i].Err)
			d.spans[i].End()
		}
		lo = hi
	}
}

// dispatch calls the Invoke hook on one group, with results zeroed. A
// hook that panics fails every call of its group and leaves the worker
// running.
func (q *Queue) dispatch(object string, calls []call.Call, results []call.Result) {
	clear(results)
	defer func() {
		if r := recover(); r != nil {
			q.metrics.Counter("queue.panics").Inc()
			err := fmt.Errorf("asyncq: handler panic: %v", r)
			for i := range results {
				results[i] = call.Result{Err: err}
			}
		}
	}()
	q.cfg.Invoke(context.Background(), object, calls, results)
}

// Stats is a point-in-time queue snapshot.
type Stats struct {
	// Workers / Capacity echo the configuration.
	Workers  int `json:"workers"`
	Capacity int `json:"capacity"`
	// Depth is the number of queued invocations — accepted and not yet
	// taken to run, those waiting in a busy object's box included;
	// InFlight the number currently executing.
	Depth    int64 `json:"depth"`
	InFlight int64 `json:"in_flight"`
	// Enqueued / Rejected / Completed / Failed are lifetime counters.
	Enqueued  int64 `json:"enqueued"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Expired counts invocations dropped or cut off by their deadline
	// (StatusExpired): stale queued work plus handlers that outlived
	// their submission deadline.
	Expired int64 `json:"expired"`
	// Requeued counts invocations sent back to the queue by the
	// Requeue classifier (ownership moved mid-flight).
	Requeued int64 `json:"requeued"`
	// Recovered counts stranded invocations adopted from durable
	// records by RecoverStranded (dead-node / crash failover).
	Recovered int64 `json:"recovered"`
	// Evicted counts terminal records garbage-collected after
	// Config.RecordTTL elapsed.
	Evicted int64 `json:"evicted"`
	// BatchedDrains counts the pulls of more than one task a worker took
	// to run at once.
	BatchedDrains int64 `json:"batched_drains"`
	// Coalesced counts invocations that shared a same-object
	// group-commit dispatch with at least one other invocation; the
	// ratio Coalesced/Completed is the coalescing rate.
	Coalesced int64 `json:"coalesced"`
	// QuotaRejected counts submissions rejected by a class quota
	// (Config.ClassQuotas).
	QuotaRejected int64 `json:"quota_rejected"`
	// DequeueP50 is the median enqueue-to-dequeue latency.
	DequeueP50 time.Duration `json:"dequeue_p50_ns"`
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() Stats {
	m := q.metrics
	return Stats{
		Workers:       q.cfg.Workers,
		Capacity:      q.cfg.Capacity,
		Depth:         m.Gauge("queue.depth").Value(),
		InFlight:      m.Gauge("queue.inflight").Value(),
		Enqueued:      m.Counter("queue.enqueued").Value(),
		Rejected:      m.Counter("queue.rejected").Value(),
		Completed:     m.Counter("queue.completed").Value(),
		Failed:        m.Counter("queue.failed").Value(),
		Expired:       m.Counter("queue.expired").Value(),
		Requeued:      m.Counter("queue.requeued").Value(),
		Recovered:     m.Counter("queue.recovered").Value(),
		Evicted:       m.Counter("queue.evicted").Value(),
		BatchedDrains: m.Counter("queue.batched_drains").Value(),
		Coalesced:     m.Counter("queue.coalesced").Value(),
		QuotaRejected: m.Counter("queue.quota_rejected").Value(),
		DequeueP50:    m.Histogram("queue.wait").Quantile(0.5),
	}
}

// Close stops intake, drains every accepted invocation through the
// worker pool, then flushes and closes the record table. It is
// idempotent and safe to call concurrently with Submit.
func (q *Queue) Close() {
	q.shutdown(false)
}

// Kill models process death: intake stops, queued tasks are abandoned
// without running, downstream deliveries are not drained, and the
// record table is dropped without its final flush. Only state already
// flushed to the backing store survives — exactly what a crash leaves
// for recovery.
func (q *Queue) Kill() {
	q.killed.Store(true)
	q.shutdown(true)
}

func (q *Queue) shutdown(kill bool) {
	q.closeOnce.Do(func() {
		// No Submit can enqueue after closed is set (enqueue holds mu),
		// so the workers, woken, drain what is ready and exit.
		q.mu.Lock()
		q.closed = true
		q.wake.Broadcast()
		q.mu.Unlock()
		q.wg.Wait()
		// Every accepted invocation has finished and fired its terminal
		// hook; drain downstream deliveries (terminal-record webhooks on
		// the event bus) before the platform tears anything down.
		if !kill && q.cfg.Drain != nil {
			q.cfg.Drain()
		}
		// Stop the GC before closing the record table so the sweeper
		// never deletes against a closed table.
		if q.gcStop != nil {
			close(q.gcStop)
			<-q.gcDone
		}
		if kill {
			q.records.Kill()
			return
		}
		q.records.Close()
	})
}
