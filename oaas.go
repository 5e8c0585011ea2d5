// Package oaas is the public API of Oparaca-Go, a from-scratch Go
// implementation of the Object-as-a-Service (OaaS) serverless paradigm
// ("Tutorial: Object as a Service (OaaS) Serverless Cloud Computing
// Paradigm", ICDCS 2024).
//
// OaaS unifies application logic, state, and non-functional
// requirements in a single abstraction: the cloud object. A class
// declares state attributes (structured JSON keys and unstructured
// file keys), methods realized by serverless function images, optional
// dataflows, and QoS/constraint requirements. The platform deploys
// each class through a class runtime instantiated from a
// requirement-matched template, executes methods via a pure-function
// contract (state in, state out), persists structured state through a
// distributed in-memory table with write-behind batching, serves
// unstructured state via presigned URLs, and continuously optimizes
// deployments against the declared QoS.
//
// Quickstart:
//
//	p, err := oaas.New(oaas.Config{Workers: 3})
//	if err != nil { ... }
//	defer p.Close()
//
//	p.Images().Register("img/greet", oaas.HandlerFunc(
//	    func(ctx context.Context, task oaas.Task) (oaas.Result, error) {
//	        return oaas.Result{Output: json.RawMessage(`"hello"`)}, nil
//	    }))
//
//	_, err = p.DeployYAML(ctx, []byte(`classes:
//	  - name: Greeter
//	    functions:
//	      - name: greet
//	        image: img/greet
//	`))
//	obj, err := oaas.NewObject(ctx, p, "Greeter", "")
//	out, err := obj.Invoke(ctx, "greet", nil, nil)
//
// Asynchronous invocation decouples submission from execution: the
// platform queues the task on one bounded queue, any idle worker of a
// pool drains it through the same invocation path, and a durable record
// (pending → running → completed/failed, with result, error, and
// timings) is poll-able by ID — pending and terminal are what the
// backing store holds; running is reported, with its start time, by the
// process executing the invocation:
//
//	id, err := p.InvokeAsync(ctx, obj.ID, "greet", nil, nil)
//	rec, err := p.WaitInvocation(ctx, id) // or poll p.Invocation(ctx, id)
//	if rec.Status == oaas.InvocationCompleted {
//	    fmt.Println(string(rec.Result))
//	}
//
// Submission returns ErrQueueFull once Config.Async.Capacity
// invocations are queued (backpressure) and refuses a payload that is
// not JSON (HTTP 400 "invalid_payload"; the REST routes validate bodies
// first), and Close drains every accepted invocation before shutting
// down. The REST gateway exposes the same path via
// POST .../invoke-async/{fn}, POST /api/invoke-batch, and
// GET /api/invocations/{id}. Completed and failed invocation records
// can be garbage-collected after a TTL (Config.Async.RecordTTL) so the
// stored records stay bounded; evictions show up in
// Stats().Async.Evicted.
//
// Each subsystem's settings are one field of Config, declared — with
// their defaults — by the package that applies them (AsyncSettings,
// TriggerSettings, DBSettings, FaaSSettings, RuntimeSettings,
// TraceSettings):
//
//	p, err := oaas.New(oaas.Config{
//	    Workers: 3,
//	    Async:   oaas.AsyncSettings{Workers: 8, RecordTTL: time.Minute},
//	    Runtime: oaas.RuntimeSettings{DefaultInvokeTimeout: 5 * time.Second},
//	})
//
// # Invoking an object
//
// There is one invoke pipeline and four ways into it; they differ only
// in where the call came from. Platform.Invoke (what Object.Invoke
// calls) and Platform.InvokeAsync are the in-process
// entries: the caller is inside the platform — a library user, the
// async queue draining a task, a data trigger firing its target — so
// the call pays for no distance and is never refused because ownership
// is moving; the commit fence keeps it correct. Platform.InvokeRoutedFrom
// and Platform.InvokeAsyncBatchFrom are the front-door entries the REST
// gateway uses, synchronous and asynchronous: the call comes from a
// client in a region (the X-Client-Region header; empty is the default
// region) and, for a synchronous call, lands on an ingress node
// (X-Oparaca-Node; empty lets the router pick). A front-door call pays
// 2×Config.InterRegionLatency when the object's home region — its
// class's jurisdiction constraint — is not the client's, and a
// synchronous one is routed by the ownership layer (see "Cluster
// ownership & failover"). A single asynchronous submission is a batch
// of one, and a batch is one message on the wire: it pays the
// inter-region round trip once if any of its entries is homed outside
// the client's region, not once per entry (Platform.InvokeAsyncBatch is
// the same batch submitted from inside the process). Every entry
// resolves its target once, up front — an unknown object or member
// fails fast, before any charge or routing — and everything after that
// (the deadline, the trace, the fence, the events) is the same code
// whichever way the call came in.
//
// # Batched async execution
//
// The async workers drain in batches: each pull takes its share of the
// backlog, 1+queued/Config.Async.Workers invocations, up to
// Config.Async.DrainBatch (1 restores per-task draining), so
// a burst spreads over the pool. A pull persists its record transitions
// in batched table writes and groups its invocations by target object. An
// invocation that drained alone is a group of one and runs exactly as
// Platform.Invoke would. A group of two or more same-object method
// calls executes through the runtime's group-commit InvokeBatch window:
// one state load, the handlers run sequentially against the evolving
// in-memory view (each call observes its predecessors' deltas, exactly
// as if they had run back-to-back), and the merged delta commits in one
// simulated DB round trip — version-validated under occ/adaptive, under
// a single exclusive stripe hold when locked — so N coalesced
// invocations on a hot object cost one concurrency window instead of N.
// Semantics stay per-call: a failing or panicking handler (or a delta touching
// undeclared keys) fails only its own invocation record, its delta is
// excluded from the merged commit, and `readonly` calls bypass the
// window entirely on the lock-free fast path. Only functions share a
// window: a dataflow among a pull's calls on an object is set aside and
// runs as if it had drained alone, while the functions around it still
// commit together.
// Stats().Async.BatchedDrains counts multi-task pulls and
// Stats().Async.Coalesced counts invocations that shared a group
// window.
//
// Two queue-shaping controls ride along. Config.Async.ClassQuotas caps
// the queued invocations per class — an over-quota submission fails
// with ErrClassQuotaExceeded (HTTP 429 with code
// "class_quota_exceeded" at the gateway) while other classes keep
// their share of the queue. And GET /api/invocations/{id}?waitMs=N
// long-polls: the request blocks server-side until the record goes
// terminal or the bounded wait (≤30s) elapses, so clients (including
// `ocli invoke-wait`) need no poll loop.
//
// # Triggers & events
//
// Objects are reactive: every committed state mutation emits a
// StateChanged event — exactly one per committed write invocation
// with a non-empty state delta, in every concurrency mode and whether
// the call committed alone or in an InvokeBatch group (there is one
// commit exit); aborted and readonly calls emit none, and neither
// does a write invocation whose handler returned no delta: nothing
// changed, so there is nothing to react to (and the warm no-op path
// stays event-free, see "Performance & tuning") — and terminal
// asynchronous invocations emit InvocationCompleted/InvocationFailed.
// An event exists only if someone can read it: a commit or terminal
// record on an object whose class has no subscription, which has no
// live stream open and whose event log never began (see "Event
// durability & replay") is not an event at all — nothing is built,
// counted or stored for it. The event bus routes the rest to three
// kinds of sinks:
//
//   - another object's method, run through the async queue as a
//     record-less task (data-triggered function chaining);
//   - a webhook URL, POSTed with bounded doubling-backoff retry. The URL
//     must be an absolute http or https URL with a host: anything else
//     fails the package deploy or the `PUT /api/triggers/{name}` (400)
//     that declares it, rather than every delivery after it. A POST
//     carries the event JSON — byte for byte its event-log entry — with
//     `Content-Type: application/json` and `X-Oprc-Event: <type>` (and,
//     for a `user:password@` URL, the Basic `Authorization` header any
//     Go HTTP client derives from it); it is not compressed and asks for
//     no compressed answer. Any 2xx is
//     success. Redirects are not followed: a 3xx is a failed attempt,
//     so a delivery never reaches a host the subscription does not name;
//   - a live per-object stream (`GET /api/objects/{id}/events`, SSE).
//
// Subscriptions are declared per class in YAML:
//
//	classes:
//	  - name: Order
//	    keySpecs:
//	      - name: status
//	    functions:
//	      - name: place
//	        image: img/place
//	    triggers:
//	      - on: stateChanged        # fire on every committed write
//	        keyPrefix: status      # ...that touched a "status"-prefixed key
//	        targetObject: audit-1  # invoke audit-1.record (empty = same object)
//	        function: record
//	      - on: invocationFailed   # push failed async records
//	        webhook: https://ops.example.com/hooks/orders
//
// or managed dynamically (Platform.SubscribeTrigger /
// UnsubscribeTrigger, `PUT/DELETE /api/triggers/{name}`, `ocli
// subscribe/unsubscribe/triggers/tail`). The chained invocation
// receives the event JSON as its payload and args carrying the event
// type and chain depth; object→object chains terminate at
// Config.Triggers.MaxChainDepth instead of looping, so a
// class whose trigger re-invokes its own writer converges. A chained
// call is not an invocation anyone polls: the event log already holds
// its event, so the async queue writes no record for it — its ID
// appears only in its invocationCompleted/invocationFailed event and its
// trace, and `GET /api/invocations/{id}` answers 404 for it. A
// subscription's chained calls on one object run one group at a time,
// in offset order, and its cursor moves past a group's events once their
// calls have committed (or failed). The bus has
// no queue of its own: the commit that publishes an event appends it to
// the object's log and hands it to its subscribers before it returns,
// and a subscriber that is behind reads the log, so an appended event is
// never shed and there is no overflow policy to choose. Sinks run on a
// bounded delivery pool, never on the committing goroutine. Delivery
// counters — emitted (events someone could read, not commits),
// delivered (a chained call counts when it commits), dropped (cycle
// terminations, failed chained calls), stream_skipped (events a full
// live stream passed over, which the log still holds), retried —
// surface in Stats().Triggers, and Close drains pending webhook
// deliveries before tearing the platform down.
//
// # Event durability & replay
//
// Events are durable: the bus writes every StateChanged and terminal
// invocation event through a per-object append-only log
// (internal/eventlog) before dispatch, assigning each a 1-based
// monotone per-object offset (Event.Offset). An object's log begins
// with the first event someone could read — produced while a named or
// class-declared subscription names its class, or a stream is open on
// the object — and from then on records every event of that object,
// for good: through Unsubscribe (the interim backlog is there when the
// name is subscribed again), with no stream open (a resuming reader
// loses nothing after the first event it could have seen), across
// restarts. Offsets therefore number logged events, gap-free from 1;
// commits made before anyone looked are not among them, and an object
// nobody ever observed costs no log write at all. Subscribing, a class
// deploy with triggers and opening a stream each take effect before
// they return: no commit that lands afterwards is missed. The log and
// the per-subscription delivery cursors persist in the platform's
// backing store, so delivery survives process death with at-least-once
// semantics:
//
//   - Webhook and object-method sinks consume the log behind a stored
//     cursor that only advances after the sink acknowledged the
//     event: a webhook's 2xx, or the commit of the chained call it
//     fired. The log is the chain's only durable queue — a platform
//     killed with chained calls queued but not yet run leaves its
//     cursors before their events, and its successor runs them. A
//     webhook that exhausts its retry budget is NOT dropped:
//     the cursor stays put (visible as a growing cursorLag in
//     `GET /api/triggers` / `ocli triggers`) and the consumer is
//     re-armed after a doubling, jittered, capped delay starting at
//     Config.Triggers.WebhookBackoff — a recovered endpoint catches up
//     with no new event and no restart, a dead one is probed at that
//     bounded cadence. A restarted platform given
//     the same Config.Backing recovers named subscriptions and — once
//     the package is redeployed — class triggers, and redelivers
//     everything their cursors never acknowledged; duplicates are
//     possible (cursor advances flush lazily), lost deliveries are
//     not.
//   - Stream clients resume with `GET /api/objects/{id}/events?
//     fromOffset=N` (`ocli tail <id> -from N`): retained history
//     replays first, then the stream continues live, deduplicated and
//     gap-healed by offset — the client observes a gap-free,
//     per-object-ordered sequence, and a gap the log can no longer fill
//     (compacted, or unreadable) is reported in a `: skipped
//     <from>-<to>` comment line. Resuming below the retained floor
//     fails with ErrOffsetCompacted (HTTP 410 Gone,
//     "offset_compacted") — the only meaning of 410 here: on an object
//     whose log never began, `fromOffset=1` answers 200 with an empty
//     backlog, and the stream it opens makes the next commit offset 1.
//
// In steady state an event is encoded once and connected once: the
// JSON marshalled for the log entry is what a webhook receives and
// what a chained method gets as its payload (byte for byte what a
// replay returns), and a consumer that is caught up takes the event
// straight from dispatch; only one that is behind — recovery, a
// failed delivery being retried, a backlog — reads and decodes the
// log. Webhooks go out over kept-alive connections, one per delivery
// worker and endpoint (the bus runs four), each attempt one round trip
// on the bus's own transport with the URL parsed when the subscription
// was stored.
//
// Retention is bounded per object (Config.EventLogMaxPerObject,
// default 1024 entries), with evicted entries removed from the store
// on a 30 s sweep; per-subscription delivered/retried/dropped counters
// ride the same stats surfaces.
//
// # Concurrency modes
//
// How concurrent invocations on one object are handled is selectable
// per class (`concurrencyMode:` in YAML) or platform-wide
// (Config.Runtime.ConcurrencyMode). Every mode runs the same window — load,
// run, commit through one exit that enforces the deadline and the
// ownership fence — whether the window carries one call or a coalesced
// group; a mode only chooses how the window is guarded and whether its
// commit is version-validated:
//
//   - "locked" serializes each object's whole
//     load-state → execute → merge-delta window under a striped
//     per-object lock: read-modify-write methods (counters, account
//     balances) never lose updates, but every write invocation on a
//     hot object runs exclusively. The delta merges unconditionally
//     (no version check, no retry) and all-or-nothing: a delta that
//     writes some keys and deletes others lands whole or, if the
//     backing store fails, not at all. On a write-through table the
//     commit holds the table's shard locks across the backing write,
//     as every "occ"/"adaptive" class does.
//   - "occ" (optimistic concurrency control) runs handlers lock-free
//     on version-stamped state snapshots and commits each delta
//     through a validated compare-and-swap: a concurrent commit makes
//     the invocation re-load and re-run (safe — handlers are pure
//     functions), so hot-object invocations interleave instead of
//     queue. Exactness is preserved: a commit lands only against the
//     exact versions it read. After a few lost races the invocation
//     finishes behind a per-object barrier, so progress never depends
//     on winning a CAS.
//   - "adaptive" (the default) starts optimistic and tracks an
//     abort-rate EWMA per object: pathologically write-hot objects
//     degrade to the serializing barrier, and return to lock-free
//     commits when aborts subside.
//
// Functions annotated `readonly: true` skip locking and the
// merge/commit entirely in every mode and serve concurrently straight
// from the in-memory state table; a readonly function returning a
// state delta fails the invocation. (A readonly multi-key snapshot is
// taken without a lock, so it may straddle two commits of different
// keys; annotate only functions that tolerate that, or use "locked".)
// Commit/abort/retry/fallback counts are surfaced per class in
// Stats().Concurrency.
//
// Composition: because optimistic invocations hold no exclusive lock
// across the handler, a method may synchronously invoke another
// stateful object of the same class under "occ" — where the striped
// per-object lock previously made any same-class stripe collision a
// guaranteed deadlock, nested optimistic invocations only share a
// read-side stripe and proceed. The relaxation is not absolute: if
// the two objects collide on a stripe (~0.1% per pair) AND an
// exclusive holder wedges between them — an object delete/create on
// that stripe, or a contention fallback to the serializing barrier —
// the nested call can still deadlock. Same-class composition through
// dataflows or the async queue remains the guaranteed-safe pattern;
// synchronous nesting is reasonable under "occ" when object churn is
// low and write contention modest. Under "locked" the original
// constraint stands. If a single object must absorb more write
// throughput than validated commits allow, shard the state across
// several objects and aggregate on read.
//
// # Performance & tuning
//
// The warm invocation path — object state resident in the memtable,
// handler a plain in-process function — is engineered to run nearly
// allocation-free. Per-invoke transients (versioned snapshot maps,
// raw state load maps, CAS op sets) come from pools and the composed
// state keys of an object are built in the window's pooled scratch, one
// allocation per window, so the steady per-op cost is the handler's own
// work plus the state map handed to it. The pooling is invisible at the
// API boundary: everything a Handler receives (Task.State) or returns
// (Result.State) is owned by the handler and never recycled — retaining
// either past the call is safe. State values loaded from the table are
// zero-copy views; they are copied only at the commit boundary, where
// the table clones every written value — once: that clone is what reads
// return, what the flusher hands the backing store, and what the store
// then keeps.
//
// The alloc budget is enforced, not aspirational: testing.AllocsPerRun
// budgets beside each package on the path (internal/runtime, core,
// asyncq, trigger, gateway) fail `go test ./...` when a call allocates
// past its ceiling, and a deliberate change moves the ceiling in the
// same commit. End to end, `bash bench/run.sh` reports allocs_per_op
// per workload through the gateway (bench/README.md). As reference
// points: a warm invoke round-robin over many objects is pinned at 4
// allocations for a read and 5 for a write, and a warm write to one
// object at 11 to 16 by concurrency mode (internal/runtime's
// TestSpreadInvokeAllocationBudget and TestWriteInvokeAllocationBudget).
//
// Two tuning levers matter for write-hot objects. First,
// `occValidate: keys` (ClassDef.OCCValidate / OCCValidateKeys)
// narrows optimistic validation from the full snapshot readset to
// just the keys the handler wrote: concurrent writers of DISJOINT
// keys on one object stop conflicting entirely and commit in
// parallel, and large-readset classes skip building check-only ops
// for keys they never touch. The trade is write skew — a handler
// that read key A to decide its write of key B can commit against a
// stale A. Reserve it for classes whose methods partition the key
// space (per-field counters, independent columns); leave the default
// `readset` wherever a write depends on what was read. Second, the
// adaptive mode's escalation is unchanged by either scope: an object
// whose aborts run hot still degrades to the serializing barrier.
//
// A commit pays for an event only when someone can read it. Both
// producers ask one allocation-free predicate (internal/trigger:
// Bus.NeedsEvents — an atomic load and a map lookup for subscriptions,
// a counter for streams, the object's log bounds last) before building
// anything, so a write to an object nobody observes issues no event,
// no encoding and no event-log write: its only backing-store traffic is
// the write-behind flush of its state. Observation is priced per
// object and is permanent — once an object's log has begun, each of
// its commits costs one append (one write-through batch) — so
// subscribe to the classes you react to rather than to everything.
//
// Resident bytes per idle object. What the platform holds for an object
// nobody is invoking is, per layer, one map slot sized to what the
// object has — and for the event log, nothing: an object whose log
// never began has no entry there (the log learns at open which objects
// have persisted bounds, so absence means "never begun" and costs no
// store read either). Bytes per entry beyond the key's and the value's
// own, measured by the test named, before → after the slots were
// slimmed (a Go map's cost per entry swings with its fill: 16 384 is
// just past a doubling, 100 000 is not):
//
//	layer, per                    16 384 entries   100 000 entries  pinned by
//	kvstore, per document         192.1 → 128.4    125.9 → 84.0     kvstore.TestPerDocumentResidentBudget
//	memtable, per state key       118.4 → 102.2    131.0 → 112.2    memtable.TestPerKeyResidentBudget
//	core directory, per object    133.8 → 53.3      89.3 → 35.0     core.TestPerObjectResidentBudget
//	eventlog, per object          133.4 → 0        115.0 → 0        eventlog.TestIdleObjectHoldsNoLog
//	table over store, per flushed
//	  key beyond one 64 B value   309 → 245        268 → 207        memtable.TestFlushedValueIsHeldOnce
//	table over store, per flushed
//	  key nobody has read         —                196.1 → 84.6     memtable.TestUnreadWriteLeavesTheTable
//
// An object is one directory entry, one memtable entry per state key
// some read has asked for (a write nobody has read leaves the table
// once its flush lands, so an object created and never invoked has
// none: core.TestIdleObjectHoldsNoStateEntry), and one kvstore document
// per state key plus one for the directory record. A value is held
// once: the store keeps the slice it is handed (internal/kvstore's
// ownership rule — nobody mutates a value after handing it over, or
// after reading it), the memtable never changes a held value in place,
// so a flushed state value, a retained event-log entry and an
// invocation record are each one allocation shared by the table, the
// log and the store; the TestFlushedValueIsHeldOnce row is the two
// slots and nothing for a second copy. bench/'s two-key objects went
// from ≈ 1.6 kB to ≈ 1.3 kB each when the slots were slimmed and to
// ≈ 1.0 kB with the second copy gone, client included. The directory
// record no longer carries the creation time in memory (the persisted
// objects/<id> document keeps it).
//
// What else stays resident while idle, pinned the same way: a deployed
// function that is never invoked keeps its slot channel, made once at
// (MaxScale+1)·Concurrency elements — 4 bytes each as an index into the
// function's pod table, 58.6 kB at the default template's 64 × 201
// (419 kB when an element was a {podID, node} pair;
// faas.TestIdleFunctionResidentBudget); a finished asynchronous
// invocation keeps its record — key, terminal document, one table slot,
// ≈ 385 B — and nothing in the queue's own indexes
// (asyncq.TestTerminalInvocationResidentBudget); an idle (subscription,
// object) pair costs only its cursor, in the event log's map and in the
// store: the bus keeps a pair's consumer only while it has work, and
// lets it go when a run ends caught up (≈ 0.1 B per pair once a burst
// over 100 000 pairs has passed, ≈ 159 B while every pair kept one;
// trigger.TestPerConsumerResidentBudget). The delivery queue a recovery
// burst grew is let go once it drains, and so are the consumer map and a
// write buffer's shard maps, which Go would keep at the size of their
// largest burst (memtable.TestBufferGivesBackABurst).
//
// The REST gateway's own share of a request is budgeted the same way
// (internal/gateway: TestWarmInvokeAllocationBudget,
// BenchmarkGatewayInvoke). Per request it reuses a pooled response
// recorder — owned by the request until its handler has returned, which
// for an SSE stream or a long poll is when that ends — and pooled
// response staging buffers; tracing adds the span as the one context
// value, and the log line is built from typed slog attributes only
// when the logger is enabled at the record's level. The
// {"output":…} / {"value":…} envelopes are assembled around the
// handler's bytes without encoding/json's reflective encoder, and are
// byte-identical to what it would write (compacted, HTML-escaped,
// newline-terminated; output that is not valid JSON still answers a
// clean 500) — a golden table and a fuzz target hold the two together.
// The ownership rule above extends to the wire: a request body is read
// into a fresh, never-recycled allocation, so the payload a Handler
// receives (Task.Payload) is its own. Bodies are capped at 8 MiB; one
// over the cap, whether declared by Content-Length or discovered while
// reading a chunked upload, is refused with HTTP 413 and code
// "payload_too_large" (an unreadable body stays a 400).
//
// The asynchronous path materialises on read, not on write. A chained
// call costs no record write at all (its event is in the log already),
// which keeps an event chain's resident memory to its objects and logs:
// on the benchmark's event_chain workload the records of chained calls
// were over 40 % of the live heap. A client's
// invocation costs two record writes, pending and terminal, each
// encoded once by an append encoder whose documents encoding/json
// reads back unchanged (internal/asyncq: a golden table and
// FuzzRecordEncoding hold the two together; TestSubmitDrainAllocationBudget
// and BenchmarkSubmitDrain price the queue's own share). "Running" is
// an in-memory mark the dequeuing worker sets and `GET
// /api/invocations/{id}` overlays — a successor process sees such work
// as pending and re-runs it, as it always did for any non-terminal
// record. The record codec has a reading half too: a stored document
// the append encoder wrote is scanned back into a Record whose Payload
// and Result alias the stored bytes (read-only, and safe to keep: the
// table never writes into a value it holds), and only a document it did
// not write takes the reflective decoder.
//
// Polling is the second half of every asynchronous call, and most polls
// arrive after their invocation finished. `GET
// /api/invocations/{id}?waitMs=N` therefore reads the record before it
// arms anything: a finished invocation costs one table lookup, one scan
// and one buffer write — three allocations between ServeHTTP's entry and
// return (the route match, the table key, one string for the record's
// object and member; every JSON response shares one Content-Type value),
// where parsing the query into a map, arming a timeout, and decoding and
// re-encoding the record reflectively made it 25; the body is rendered by the same append
// encoder, byte for byte what encoding/json writes
// (gateway.TestLongPollAllocationBudget, TestInvocationBodyGolden,
// asyncq.TestGetAllocationBudget). Only a poll that finds its record
// not yet terminal waits, and that one pays for what waiting takes — a
// context with its timer, a waiter the completing worker hands the
// record to, a second read once the waiter is registered so that no
// completion can slip between the first read and the wait, and, if the
// wait elapses, a third for the 200 it still answers: 12 allocations.
// The record is in memory only until its last transition has flushed
// (the record table is a write buffer, internal/memtable); a poll after
// that reads the backing store, once. So, by design, while the store's
// breaker is open a poll for a finished invocation whose record has
// flushed answers 503 "backing_unavailable", as any uncached read does,
// and one whose record has not flushed yet still answers 200.
// Handler failures name their image in quotes, so a failed record's
// error needs JSON escaping and both halves of the codec leave it to
// encoding/json — correct, and not the path a benchmark takes.
// A delivered event costs one event-log write and, per webhook, one
// HTTP round trip, and the event plane allocates little besides what it
// keeps or sends: the log entry goes onto the capacity the object's log
// already holds and its bounds document is rendered without reflection;
// a webhook attempt is one round trip on the bus's transport with the
// URL parsed when the subscription was stored and a header shared by
// every event of its type; the delivery queue pops without giving up
// capacity; a chained invocation's args come from a table built when
// the bus starts. One event published, logged, handed to a caught-up
// consumer and POSTed to a loopback endpoint is 73 allocations in all,
// the endpoint's HTTP server's share included, where it was 91
// (trigger.TestWebhookDeliveryAllocationBudget); one published to one
// or sixteen live streams is 3 (trigger.TestFanoutAllocationBudget).
//
// A kept trace is stored as two slices of span and attribute values —
// a constant handful of allocations for 3 spans or 160 — and rendered
// into the served JSON (hex ids, attribute maps) when `GET /api/traces…`
// reads it, outside the tracer's lock (internal/trace:
// TestFinalizeKeptAllocationBudget, BenchmarkFinalizeKept,
// BenchmarkTraceByID for what the read now pays).
//
// For production profiling, the oparaca daemon mounts net/http/pprof
// behind the opt-in `-pprof addr` flag on a separate listener (off by
// default; keep it on localhost or behind a firewall — heap and
// goroutine dumps are sensitive).
//
// # Failure semantics
//
// Invocations carry deadlines. A function declares one in YAML
// (`timeoutMs:` on the function, or class-wide as a default for every
// member), the platform supplies a fallback for classes that declare
// none (Config.Runtime.DefaultInvokeTimeout), and a single request can
// tighten — never loosen the platform's enforcement of — its own
// budget with `?timeoutMs=` on the gateway's invoke routes (`ocli
// invoke -t`). Resolution order is function over class over platform
// default; the request context's deadline min-combines with the
// resolved timeout, so the effective deadline is always the earliest
// one. An invocation that exceeds its deadline fails with
// ErrDeadlineExceeded (HTTP 408, code "deadline_exceeded") and
// commits nothing: the expired handler's delta is discarded in every
// concurrency mode and in the InvokeBatch group window, where it
// fails only its own entry. The abandoned handler keeps running on
// its goroutine until it returns — visible in
// Stats().Resilience.LeakedHandlers — but its stripe/queue slot is
// released immediately, so other objects (and other invocations of
// the same shard) keep committing. Asynchronous submissions stamp the
// deadline at submission time: work that goes stale while queued is
// dropped with InvocationExpired rather than executed, and a running
// async handler that outlives its deadline terminates with the same
// status (Stats().Async.Expired counts both).
//
// The backing store sits behind a circuit breaker
// (Config.Breaker). Sustained read/write failures trip it open:
// writes then fail fast with ErrBackingUnavailable (HTTP 503 with
// code "backing_unavailable" and a Retry-After header) instead of
// stacking up on a dead store, while reads of cached state are served
// from the in-memory table — counted in
// Stats().Resilience.DegradedReads, flagged by the
// X-Oparaca-Degraded response header. Cached state is a key some read
// has asked for: a key written and flushed that nobody has read is
// answered by the store, so it gets a 503 while the breaker is open, as
// a flushed async record does. Durable event delivery parks: cursors
// simply stop advancing (growing cursorLag) and redeliver
// once the store recovers, preserving at-least-once semantics. After
// Config.Breaker.OpenTimeout the breaker admits a half-open probe
// budget; enough successes close it again. GET /readyz (and `ocli
// health`) reports the breaker state, async queue depth vs. capacity,
// and trigger backlog — 503 while degraded or saturated, for load
// balancers.
//
// Error-to-status map at the gateway:
//
//	ErrDeadlineExceeded    408  "deadline_exceeded"   nothing committed
//	ErrBackingUnavailable  503  "backing_unavailable" breaker open, Retry-After set
//	ErrQueueFull           429  "queue_full"          async backpressure
//	ErrClassQuotaExceeded  429  "class_quota_exceeded"
//	(async submit)         400  "invalid_payload"     payload is not JSON
//	(async record)              status "expired"      dropped or cut off by deadline
//
// Config.Chaos injects seeded, probabilistic backing-store faults
// (read/write errors, latency spikes, torn batch writes,
// transient vs. permanent classification) for fault-injection
// testing; the platform's own chaos soak test drives it under the
// race detector to hold the invariants above.
//
// # Cluster ownership & failover
//
// Config.OwnershipLeaseTTL turns the worker fleet into a failure
// domain. Each worker VM holds a lease document in the backing store,
// renewed on a jittered heartbeat (TTL/3 by default); objects map to
// live lease holders by rendezvous hashing, so each object has exactly
// one owner at a time and ownership moves minimally when the member
// set changes. Every state commit — single invoke, OCC retry, group
// window — carries the owner and epoch it was admitted under, and the
// runtime fences the commit at its exit: if a rebalance has bumped the
// epoch and the object's owner changed, the commit is rejected with
// ErrOwnershipMoved before anything is persisted. A paused or
// partitioned ex-owner therefore cannot double-commit after failover —
// the same fencing-token discipline as Chubby/ZooKeeper locks.
//
// When a lease expires (crash, partition — simulate one with
// Platform.KillNode) or a node drains explicitly (Platform.DrainNode),
// the membership rebalances: the epoch is bumped, the dead node's
// durable async invocation records — queued and in-flight work alike —
// are re-adopted into the queue (Stats().Async.Recovered), and
// trigger delivery cursors are replayed, so work that was acknowledged
// before the failure is redelivered under the new ownership rather
// than lost. At-least-once semantics are preserved end to end: an
// async task whose commit is fenced is requeued
// (Stats().Async.Requeued) and re-dispatched, not failed.
//
// The gateway's synchronous invocations (Platform.InvokeRoutedFrom)
// go through the ownership router, at the one gate every invocation
// passes: a request landing on a non-owner ingress node is forwarded
// to the owner (a "forward" span in its trace, counted in
// Stats().Cluster.Forwarded; the serving node is reported in the
// X-Oparaca-Node response header). During the brief post-rebalance
// transition window routing fast-fails with HTTP 503, code
// "ownership_moving", and a Retry-After header instead of racing the
// handoff — synchronous front-door calls only: asynchronous
// submissions are accepted, and the platform's own dispatch (the async
// drain, trigger targets, dataflow steps) is admitted at the current
// epoch and proceeds, with the fence as its safety net. The target is
// resolved before the gate, so a call on an unknown object inside the
// window is a 404, not a 503. GET /api/cluster (`ocli cluster`) reports live members
// with lease ages and per-node object counts, the epoch, and the
// failover counters; GET /readyz additionally gates readiness on
// membership convergence. With OwnershipLeaseTTL zero (the default)
// none of this machinery exists: no heartbeats, no fence, no hot-path
// overhead.
//
// # Observability
//
// Config.EnableTracing records end-to-end invocation traces. Every
// stage of an invocation's life opens a span under one trace — gateway
// HTTP handling, ownership admission and forwarding, async queue wait
// and drain, state load, handler execution, per-attempt OCC retries
// (version-mismatch aborts are recorded as an "abort" attribute, not
// errors), commit with fencing, event-log append, trigger dispatch,
// and webhook delivery. The gateway accepts and emits the W3C
// traceparent header, so an external caller's trace continues through
// the platform, and an async submission's trace spans the queue hop:
// the trace stays open until the queued task goes terminal, including
// requeues after fence rejections. cmd/oparaca enables tracing by
// default (-trace=false disables it).
//
// Sampling is tail-based: when a trace finishes, it is kept if it was
// forced by the caller (traceparent sampled flag), contains an error
// (including fence rejections and deadline expiries), is slower than
// the recent p95 of root durations, or wins a probabilistic keep at
// Config.Trace.SampleRate (negative disables probabilistic keeps). Kept
// traces park in a bounded ring (Config.Trace.Capacity) served by
// GET /api/traces, GET /api/traces/{id}, and
// GET /api/invocations/{id}/trace (`ocli traces`, `ocli trace`).
// Spans are pooled and the disabled path costs zero allocations on
// the warm invoke path (TestTracedInvokeAllocationBudget in core).
//
// GET /metrics serves the Prometheus text exposition of the components'
// own registries, where every counter lives once: per-class runtime
// series labeled {class="..."}, the async queue's and the trigger bus's,
// the breaker's and tracer's counters, and per-node ownership gauges
// labeled {node="..."}. The gateway adds only what readiness derives —
// breaker state as a one-hot {state=...} gauge, cluster convergence,
// and oparaca_ready — from the same reads as /readyz, so a scrape and a
// probe can never disagree.
//
// The daemon logs through log/slog (one TextHandler on stderr,
// -log-level selects the floor); each gateway request emits one
// structured record carrying method, path, status, duration, the
// trace ID when tracing is on, and the invocation ID for accepted
// async submissions. With Config.Runtime.PprofLabels (or cmd/oparaca -pprof)
// handler goroutines carry class/function pprof labels so CPU
// profiles attribute samples per method.
//
// The subpackages under internal/ implement the platform and every
// substrate it depends on (cluster simulator, FaaS engines, document
// store, distributed memtable, S3-style object store, dataflow engine,
// optimizer); this package re-exports the stable surface.
package oaas

import (
	"context"
	"encoding/json"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/gateway"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/resilience"
	"github.com/hpcclab/oparaca-go/internal/runtime"
	"github.com/hpcclab/oparaca-go/internal/trace"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// Platform is the OaaS platform: package manager, object manager, and
// the simulated substrates beneath them. Create one with New.
type Platform = core.Platform

// Config sizes and tunes a Platform. The zero value is a usable
// 3-worker development platform.
type Config = core.Config

// New creates a Platform.
func New(cfg Config) (*Platform, error) { return core.New(cfg) }

// Stats is the platform-wide snapshot returned by Platform.Stats.
type Stats = core.Stats

// RegionSpec sizes one additional data center (multi-datacenter
// deployments, the paper's §VI future work). Classes with a
// Jurisdiction constraint are pinned to the matching region.
type RegionSpec = core.RegionSpec

// Resources is a VM capacity or pod resource request.
type Resources = cluster.Resources

// Class-model types (see internal/model for full documentation).
type (
	// Package is a deployable collection of class definitions.
	Package = model.Package
	// ClassDef is one class as written by the developer.
	ClassDef = model.ClassDef
	// Class is a resolved class (inheritance flattened).
	Class = model.Class
	// KeySpec declares a state attribute.
	KeySpec = model.KeySpec
	// KeyKind is a state attribute type.
	KeyKind = model.KeyKind
	// FunctionDef declares a method.
	FunctionDef = model.FunctionDef
	// DataflowDef declares a composite method.
	DataflowDef = model.DataflowDef
	// DataflowStep is one node of a dataflow.
	DataflowStep = model.DataflowStep
	// QoS carries measurable quality requirements.
	QoS = model.QoS
	// Constraints carries deployment constraints.
	Constraints = model.Constraints
)

// State key kinds.
const (
	KindJSON   = model.KindJSON
	KindString = model.KindString
	KindNumber = model.KindNumber
	KindBool   = model.KindBool
	KindFile   = model.KindFile
)

// ConcurrencyMode selects how concurrent invocations on one object are
// handled (per class via ClassDef.Concurrency / `concurrencyMode:` in
// YAML, or platform-wide via Config.Runtime.ConcurrencyMode).
type ConcurrencyMode = model.ConcurrencyMode

// Concurrency modes.
const (
	// ConcurrencyOCC interleaves hot-object invocations optimistically:
	// handlers run lock-free on version-stamped snapshots and deltas
	// commit through a validated compare-and-swap with bounded retry.
	ConcurrencyOCC = model.ConcurrencyOCC
	// ConcurrencyLocked serializes each object's invocations under a
	// striped per-object lock (the pessimistic baseline).
	ConcurrencyLocked = model.ConcurrencyLocked
	// ConcurrencyAdaptive (the default) starts optimistic and degrades
	// per object to the lock while CAS aborts run hot.
	ConcurrencyAdaptive = model.ConcurrencyAdaptive
)

// OCCValidate selects what an optimistic commit validates against the
// versions its snapshot read (per class via ClassDef.OCCValidate /
// `occValidate:` in YAML). See the "Performance & tuning" section of
// the package documentation for when to narrow it.
type OCCValidate = model.OCCValidate

// OCC validation scopes.
const (
	// OCCValidateReadset (the default) validates every snapshot key:
	// a commit lands only if nothing the handler could have read moved.
	OCCValidateReadset = model.OCCValidateReadset
	// OCCValidateKeys validates only the keys the handler wrote:
	// writers of disjoint keys on one object commit without conflicts,
	// at the cost of admitting write skew between keys.
	OCCValidateKeys = model.OCCValidateKeys
)

// ParseYAML loads a Package from YAML.
func ParseYAML(data []byte) (*Package, error) { return model.ParseYAML(data) }

// Function-code types: developers implement Handler for each container
// image referenced by their class definitions.
type (
	// Task is the standalone invocation request handed to function
	// code (object state, payload, args, presigned file refs).
	Task = invoker.Task
	// Result is the function's reply: output plus modified state.
	Result = invoker.Result
	// Handler executes one Task.
	Handler = invoker.Handler
	// HandlerFunc adapts a function to Handler.
	HandlerFunc = invoker.HandlerFunc
)

// MergeState applies a Result's state delta onto base (JSON null
// deletes a key).
func MergeState(base, delta map[string]json.RawMessage) map[string]json.RawMessage {
	return invoker.MergeState(base, delta)
}

// Template system: providers can register custom class-runtime
// designs.
type (
	// Template is a configurable class-runtime design.
	Template = runtime.Template
	// Match is a template's selection condition.
	Match = runtime.Match
)

// Engine modes for templates.
const (
	EngineKnative    = faas.ModeKnative
	EngineDeployment = faas.ModeDeployment
)

// State-table modes for templates.
const (
	TableWriteBehind  = memtable.ModeWriteBehind
	TableWriteThrough = memtable.ModeWriteThrough
	TableMemoryOnly   = memtable.ModeMemoryOnly
)

// DefaultTemplates returns the stock template set.
func DefaultTemplates() []Template { return runtime.DefaultTemplates() }

// Gateway serves the platform's REST API.
type Gateway = gateway.Gateway

// NewGateway builds a REST gateway over a platform.
func NewGateway(p *Platform) *Gateway { return gateway.New(p) }

// Asynchronous invocation types (see internal/asyncq).
type (
	// Invocation is the durable record of one asynchronous invocation:
	// target, status, result/error, and transition timings.
	Invocation = asyncq.Record
	// InvocationStatus is an invocation's lifecycle phase.
	InvocationStatus = asyncq.Status
	// AsyncRequest is one entry of a batch submission.
	AsyncRequest = asyncq.Request
	// AsyncResult is one ID-or-error outcome of a batch submission.
	AsyncResult = asyncq.BatchResult
)

// Invocation statuses.
const (
	InvocationPending   = asyncq.StatusPending
	InvocationRunning   = asyncq.StatusRunning
	InvocationCompleted = asyncq.StatusCompleted
	InvocationFailed    = asyncq.StatusFailed
	// InvocationExpired marks an asynchronous invocation dropped while
	// queued, or cut off while running, by its submission deadline.
	InvocationExpired = asyncq.StatusExpired
)

// Event and trigger types (see internal/trigger).
type (
	// Event is one platform occurrence routed by the event bus: a
	// committed state mutation or a terminal asynchronous invocation.
	Event = trigger.Event
	// EventType discriminates event kinds.
	EventType = trigger.EventType
	// TriggerSubscription routes matching events to an object method
	// (data-triggered chaining), a webhook URL, or a live stream.
	TriggerSubscription = trigger.Subscription
	// EventStream is a live per-object event tail.
	EventStream = trigger.Stream
	// TriggerStats carries the bus's emitted/delivered/dropped/retried
	// counters (Stats().Triggers).
	TriggerStats = trigger.Stats
)

// Event types.
const (
	// EventStateChanged fires once per committed write invocation.
	EventStateChanged = trigger.StateChanged
	// EventInvocationCompleted / EventInvocationFailed fire when an
	// asynchronous invocation record reaches its terminal status.
	EventInvocationCompleted = trigger.InvocationCompleted
	EventInvocationFailed    = trigger.InvocationFailed
)

// Re-exported sentinel errors for errors.Is checks.
var (
	ErrClassNotFound      = core.ErrClassNotFound
	ErrObjectNotFound     = core.ErrObjectNotFound
	ErrObjectExists       = core.ErrObjectExists
	ErrMemberNotFound     = core.ErrMemberNotFound
	ErrQueueFull          = core.ErrQueueFull
	ErrClassQuotaExceeded = core.ErrClassQuotaExceeded
	ErrInvocationNotFound = core.ErrInvocationNotFound
	ErrOffsetCompacted    = core.ErrOffsetCompacted
	// ErrDeadlineExceeded marks an invocation that exceeded its
	// deadline (function/class timeoutMs, Config.Runtime.DefaultInvokeTimeout,
	// or the request context). Nothing was committed. Also matches
	// errors.Is(err, context.DeadlineExceeded).
	ErrDeadlineExceeded = runtime.ErrDeadlineExceeded
	// ErrBackingUnavailable marks an operation fast-failed because the
	// backing store's circuit breaker is open.
	ErrBackingUnavailable = resilience.ErrOpen
	// ErrOwnershipMoved marks a commit rejected by the epoch fence:
	// ownership moved between admission and commit, nothing was
	// persisted, and a retry routes to the new owner.
	ErrOwnershipMoved = cluster.ErrOwnershipMoved
	// ErrOwnershipMoving marks an invocation fast-failed during a
	// post-rebalance transition window (HTTP 503, "ownership_moving",
	// Retry-After at the gateway).
	ErrOwnershipMoving = cluster.ErrOwnershipMoving
)

// Failure-semantics types (see internal/resilience and the "Failure
// semantics" section above).
type (
	// BreakerConfig tunes the backing-store circuit breaker
	// (Config.Breaker): failure window, trip threshold, open timeout,
	// half-open probe budget.
	BreakerConfig = resilience.Config
	// BreakerStats snapshots the breaker's state and transition
	// counters (Stats().Resilience.Breaker).
	BreakerStats = resilience.Stats
	// ResilienceStats is the failure-semantics section of a platform
	// snapshot: breaker state, degraded reads, leaked handlers,
	// expired invocations.
	ResilienceStats = core.ResilienceStats
	// FaultPlan is a seeded probabilistic backing-store fault schedule
	// (Config.Chaos) for fault-injection testing.
	FaultPlan = kvstore.FaultPlan
)

// The subsystem settings Config nests, each declared — with its
// defaults — by the package that applies it.
type (
	// DBSettings tunes the simulated document store (Config.DB).
	DBSettings = kvstore.Settings
	// FaaSSettings tunes pod cold start and autoscaling (Config.FaaS).
	FaaSSettings = faas.Settings
	// RuntimeSettings holds the invocation defaults (Config.Runtime).
	RuntimeSettings = runtime.Settings
	// AsyncSettings sizes the async invocation queue (Config.Async).
	AsyncSettings = asyncq.Settings
	// TriggerSettings bounds chains and tunes webhooks (Config.Triggers).
	TriggerSettings = trigger.Settings
	// TraceSettings tunes the kept-trace ring (Config.Trace).
	TraceSettings = trace.Settings
)

// Cluster-ownership types (see the "Cluster ownership & failover"
// section above).
type (
	// ClusterStats is the ownership-layer section of a platform
	// snapshot: epoch, live members, fence/requeue/recovery counters
	// (Stats().Cluster, GET /api/cluster).
	ClusterStats = core.ClusterStats
	// MemberStats describes one lease-holding worker: lease age and
	// remaining TTL plus the objects currently hashed to it.
	MemberStats = core.MemberStats
	// TransitionError carries the Retry-After hint of an
	// ownership-moving fast-fail; matches ErrOwnershipMoving under
	// errors.Is.
	TransitionError = cluster.TransitionError
)

// EventLogEntry is one stored record of an object's durable event
// log: the offset-stamped event JSON as appended at commit time.
type EventLogEntry = core.EventLogEntry

// Object is a convenience handle for one cloud object.
type Object struct {
	// Platform owns the object.
	Platform *Platform
	// ID is the object identifier.
	ID string
	// Class is the object's class name.
	Class string
}

// NewObject creates an object of the given class (empty id generates
// one) and returns a handle.
func NewObject(ctx context.Context, p *Platform, class, id string) (Object, error) {
	created, err := p.CreateObject(ctx, class, id)
	if err != nil {
		return Object{}, err
	}
	return Object{Platform: p, ID: created, Class: class}, nil
}

// BindObject returns a handle to an existing object.
func BindObject(p *Platform, id string) (Object, error) {
	class, err := p.ObjectClass(id)
	if err != nil {
		return Object{}, err
	}
	return Object{Platform: p, ID: id, Class: class}, nil
}

// Invoke executes a method or dataflow on the object.
func (o Object) Invoke(ctx context.Context, member string, payload json.RawMessage, args map[string]string) (json.RawMessage, error) {
	return o.Platform.Invoke(ctx, o.ID, member, payload, args)
}

// State reads one structured state key.
func (o Object) State(ctx context.Context, key string) (json.RawMessage, error) {
	return o.Platform.GetState(ctx, o.ID, key)
}

// FileURL returns a presigned URL ("GET", "PUT" or "DELETE") for one
// of the object's file keys.
func (o Object) FileURL(key, method string) (string, error) {
	return o.Platform.PresignFile(o.ID, key, method)
}

// Events opens a live event tail for the object (commits and terminal
// async invocations). buf bounds consumer lag (<=0 selects the
// default); callers must Close the stream.
func (o Object) Events(buf int) (*EventStream, error) {
	return o.Platform.StreamEvents(o.ID, buf)
}
