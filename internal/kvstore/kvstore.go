// Package kvstore implements the persistent document database
// substrate that backs object state in Oparaca and in the Knative
// baseline.
//
// The paper's evaluation (§V) attributes the Knative baseline's
// throughput plateau to "the database write operation throughput
// bottleneck"; this store therefore models write capacity as a
// first-class, configurable parameter (writes admitted through a token
// bucket), plus a per-operation service latency. Batch writes consume
// capacity per batch with a small per-document increment, which is the
// property Oparaca's write-behind memtable exploits.
//
// Documents are versioned; Put returns the new version and
// CompareAndPut implements optimistic concurrency.
//
// Reads have a batched counterpart too: BatchGet serves any number of
// keys in one round trip, charging the per-operation read latency once
// per batch instead of once per key. The memtable's GetManyInto uses it to
// consolidate read-through misses the same way the write-behind
// flusher consolidates writes through BatchPut.
//
// Ownership: the store keeps the bytes it is handed. A value passed to
// Put, CompareAndPut or BatchPut becomes the stored
// document without a copy, and Get and BatchGet return that same slice.
// So nobody mutates a value after handing it over or after reading it;
// a caller that reuses its buffers clones before the write. Every writer
// in this module hands over a buffer it never touches again (memtable
// clones on its own write paths and never changes a held value in place;
// eventlog, core and cluster pass json.Marshal output), so a value is
// resident once, not once per layer.
package kvstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/resilience"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Sentinel errors.
var (
	// ErrNotFound is returned when a key has no document.
	ErrNotFound = errors.New("kvstore: key not found")
	// ErrVersionMismatch is returned by CompareAndPut on a stale version.
	ErrVersionMismatch = errors.New("kvstore: version mismatch")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("kvstore: store closed")
	// ErrInjectedTransient is the error class of chaos-plan faults a
	// retry can outlive (the store recovers on its own).
	ErrInjectedTransient = errors.New("kvstore: injected transient fault")
	// ErrInjectedPermanent is the error class of chaos-plan faults
	// retrying cannot fix (a dead replica, a full disk); the breaker —
	// not the retry loop — is the right response.
	ErrInjectedPermanent = errors.New("kvstore: injected permanent fault")
)

// Document is a versioned value.
type Document struct {
	Key     string          `json:"key"`
	Value   json.RawMessage `json:"value"`
	Version int64           `json:"version"`
	Updated time.Time       `json:"updated"`
}

// record is a Document as stored: without its key (the map key) and
// with Updated as unix nanoseconds, which keeps a map slot to 56 bytes.
type record struct {
	value   json.RawMessage
	version int64
	updated int64
}

// doc rebuilds the public Document of the record stored at key.
func (r record) doc(key string) Document {
	return Document{Key: key, Value: r.value, Version: r.version, Updated: time.Unix(0, r.updated)}
}

// Config tunes the store's simulated performance characteristics.
type Config struct {
	// WriteOpsPerSec caps admitted write operations per second
	// (a batch counts as one operation plus batchDocCost per extra
	// document), with a burst of a tenth of a second's worth, at least
	// one. Zero means unlimited.
	WriteOpsPerSec float64
	// WriteLatency is the service time charged to each write
	// operation after admission.
	WriteLatency time.Duration
	// ReadLatency is the service time charged to each read.
	ReadLatency time.Duration
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	return c
}

// batchDocCost is the fractional write-capacity cost of each document in
// a batch beyond the first. The paper's design consolidates writes so a
// batch is far cheaper than N singles: a 100-doc batch costs ~3 ops.
const batchDocCost = 0.02

// Store is an in-memory versioned document store with simulated write
// capacity. It is safe for concurrent use.
type Store struct {
	cfg    Config
	writes *vclock.TokenBucket // nil when unlimited

	mu     sync.RWMutex
	docs   map[string]record
	closed bool

	statsMu     sync.Mutex
	writeOps    int64 // admitted write operations (batches count once)
	docsWritten int64 // total documents written
	readOps     int64 // read operations (batches count once)
	docsRead    int64 // total documents returned by reads
	deleteOps   int64

	faultMu      sync.Mutex
	failRemain   int   // write ops left to fail
	failErr      error // injected error
	faultsServed int64
	plan         *FaultPlan // probabilistic chaos schedule (nil = off)
	planRand     *rand.Rand // seeded; guarded by faultMu

	// breaker, when set, gates every operation: open-state rejections
	// fail fast before any capacity or latency is charged, and every
	// admitted operation's outcome is recorded back.
	breaker atomic.Pointer[resilience.Breaker]
}

// FaultPlan is a seeded probabilistic fault schedule — the chaos
// harness's generalization of InjectWriteFailures' "fail next N
// writes". Rates are per-operation probabilities in [0, 1]; the Seed
// makes a schedule reproducible (modulo goroutine interleaving) so a
// failing chaos run can be replayed.
type FaultPlan struct {
	// Seed initializes the schedule's random source.
	Seed int64
	// ReadErrorRate / WriteErrorRate fail the operation before any
	// capacity or latency is charged.
	ReadErrorRate  float64
	WriteErrorRate float64
	// LatencySpikeRate adds LatencySpike of extra service time to the
	// operation (on top of the configured base latency).
	LatencySpikeRate float64
	LatencySpike     time.Duration
	// PartialBatchRate makes a BatchPut apply only a random prefix of
	// its documents before failing — the torn-batch case write-behind
	// retry logic must absorb.
	PartialBatchRate float64
	// PermanentRate is the fraction of injected errors classed
	// ErrInjectedPermanent instead of ErrInjectedTransient.
	PermanentRate float64
}

// enabled reports whether the plan can ever fire.
func (p FaultPlan) enabled() bool {
	return p.ReadErrorRate > 0 || p.WriteErrorRate > 0 ||
		p.LatencySpikeRate > 0 || p.PartialBatchRate > 0
}

// SetFaultPlan installs (or, with a zero-rate plan, clears) the
// store's chaos schedule.
func (s *Store) SetFaultPlan(plan FaultPlan) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if !plan.enabled() {
		s.plan, s.planRand = nil, nil
		return
	}
	s.plan = &plan
	s.planRand = rand.New(rand.NewSource(plan.Seed))
}

// SetBreaker attaches a circuit breaker to the store. Pass nil to
// detach.
func (s *Store) SetBreaker(b *resilience.Breaker) { s.breaker.Store(b) }

// opKind distinguishes read from write faults in the chaos plan.
type opKind int

const (
	opRead opKind = iota
	opWrite
)

// planFault rolls the chaos schedule for one operation, returning any
// extra latency spike and the injected error (nil when the op
// survives).
func (s *Store) planFault(kind opKind) (time.Duration, error) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.plan == nil {
		return 0, nil
	}
	var spike time.Duration
	if s.plan.LatencySpikeRate > 0 && s.planRand.Float64() < s.plan.LatencySpikeRate {
		spike = s.plan.LatencySpike
	}
	rate := s.plan.WriteErrorRate
	if kind == opRead {
		rate = s.plan.ReadErrorRate
	}
	if rate > 0 && s.planRand.Float64() < rate {
		s.faultsServed++
		if s.plan.PermanentRate > 0 && s.planRand.Float64() < s.plan.PermanentRate {
			return spike, ErrInjectedPermanent
		}
		return spike, ErrInjectedTransient
	}
	return spike, nil
}

// planPartialCount rolls the partial-batch fault for an n-document
// BatchPut: -1 means no fault, otherwise the number of documents to
// apply before failing.
func (s *Store) planPartialCount(n int) int {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.plan == nil || s.plan.PartialBatchRate <= 0 || n < 2 {
		return -1
	}
	if s.planRand.Float64() < s.plan.PartialBatchRate {
		s.faultsServed++
		return s.planRand.Intn(n)
	}
	return -1
}

// allowOp consults the breaker before an operation touches capacity or
// latency. A non-nil return means fail fast (errors.Is
// resilience.ErrOpen).
func (s *Store) allowOp() error {
	if b := s.breaker.Load(); b != nil {
		return b.Allow()
	}
	return nil
}

// recordOp feeds an admitted operation's outcome to the breaker.
// Not-found, version-mismatch, closed-store and context errors are
// business outcomes, not store health signals: they record as success
// so a contended CAS loop cannot trip the breaker.
func (s *Store) recordOp(err error) {
	b := s.breaker.Load()
	if b == nil {
		return
	}
	if err != nil && (errors.Is(err, ErrNotFound) || errors.Is(err, ErrVersionMismatch) ||
		errors.Is(err, ErrClosed) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)) {
		err = nil
	}
	b.Record(err)
}

// Open creates a store with the given configuration.
func Open(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, docs: make(map[string]record)}
	if cfg.WriteOpsPerSec > 0 {
		s.writes = vclock.NewTokenBucket(cfg.Clock, cfg.WriteOpsPerSec, max(1, cfg.WriteOpsPerSec/10))
	}
	return s
}

// Close marks the store closed. Subsequent operations fail with
// ErrClosed.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.writes != nil {
		s.writes.Close()
	}
}

// InjectWriteFailures makes the next n write operations (Put,
// CompareAndPut, BatchPut, Delete) fail with err before consuming any
// capacity. Resilience tests use this to exercise retry paths such as
// the memtable's write-behind flusher.
func (s *Store) InjectWriteFailures(n int, err error) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	s.failRemain = n
	s.failErr = err
}

// FaultsServed reports how many injected failures have fired.
func (s *Store) FaultsServed() int64 {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	return s.faultsServed
}

// takeFault consumes one injected failure if armed.
func (s *Store) takeFault() error {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.failRemain <= 0 {
		return nil
	}
	s.failRemain--
	s.faultsServed++
	return s.failErr
}

// admitWrite charges cost write-capacity tokens and the write latency,
// after rolling the injected-fault hooks.
func (s *Store) admitWrite(ctx context.Context, cost float64) error {
	if err := s.takeFault(); err != nil {
		return err
	}
	spike, err := s.planFault(opWrite)
	if err != nil {
		return err
	}
	if s.writes != nil {
		if err := s.writes.Take(ctx, cost); err != nil {
			if errors.Is(err, vclock.ErrBucketClosed) {
				return ErrClosed
			}
			return err
		}
	}
	if lat := s.cfg.WriteLatency + spike; lat > 0 {
		if err := s.cfg.Clock.Sleep(ctx, lat); err != nil {
			return err
		}
	}
	return nil
}

// admitRead rolls the read-fault hooks and charges the read latency
// (plus any chaos latency spike).
func (s *Store) admitRead(ctx context.Context) error {
	spike, err := s.planFault(opRead)
	if err != nil {
		return err
	}
	if lat := s.cfg.ReadLatency + spike; lat > 0 {
		if err := s.cfg.Clock.Sleep(ctx, lat); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the document stored at key.
func (s *Store) Get(ctx context.Context, key string) (Document, error) {
	if err := s.allowOp(); err != nil {
		return Document{}, err
	}
	doc, err := s.get(ctx, key)
	s.recordOp(err)
	return doc, err
}

func (s *Store) get(ctx context.Context, key string) (Document, error) {
	if err := s.admitRead(ctx); err != nil {
		return Document{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return Document{}, ErrClosed
	}
	rec, ok := s.docs[key]
	if !ok {
		return Document{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	s.statsMu.Lock()
	s.readOps++
	s.docsRead++
	s.statsMu.Unlock()
	return rec.doc(key), nil
}

// BatchGet returns the documents stored at keys as one consolidated
// read operation: the per-operation read latency is charged once for
// the whole batch rather than once per key. Keys without a document
// are simply absent from the result map; a batch that finds nothing is
// not an error.
func (s *Store) BatchGet(ctx context.Context, keys []string) (map[string]Document, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if err := s.allowOp(); err != nil {
		return nil, err
	}
	docs, err := s.batchGet(ctx, keys)
	s.recordOp(err)
	return docs, err
}

func (s *Store) batchGet(ctx context.Context, keys []string) (map[string]Document, error) {
	if err := s.admitRead(ctx); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make(map[string]Document, len(keys))
	for _, k := range keys {
		if rec, ok := s.docs[k]; ok {
			out[k] = rec.doc(k)
		}
	}
	s.statsMu.Lock()
	s.readOps++
	s.docsRead += int64(len(out))
	s.statsMu.Unlock()
	return out, nil
}

// Put stores value at key unconditionally and returns the stored
// document (with its new version).
func (s *Store) Put(ctx context.Context, key string, value json.RawMessage) (Document, error) {
	return s.write(ctx, key, value, 0, false)
}

// CompareAndPut stores value only if the current version equals
// expect. expect 0 requires the key to be absent.
func (s *Store) CompareAndPut(ctx context.Context, key string, value json.RawMessage, expect int64) (Document, error) {
	return s.write(ctx, key, value, expect, true)
}

// write is one single-document write, version-checked when cas is set.
func (s *Store) write(ctx context.Context, key string, value json.RawMessage, expect int64, cas bool) (Document, error) {
	if err := s.allowOp(); err != nil {
		return Document{}, err
	}
	doc, err := s.writeAdmitted(ctx, key, value, expect, cas)
	s.recordOp(err)
	return doc, err
}

func (s *Store) writeAdmitted(ctx context.Context, key string, value json.RawMessage, expect int64, cas bool) (Document, error) {
	if err := s.admitWrite(ctx, 1); err != nil {
		return Document{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Document{}, ErrClosed
	}
	// An absent key is at version 0.
	if cur := s.docs[key].version; cas && cur != expect {
		return Document{}, fmt.Errorf("%w: key %q at version %d, expected %d",
			ErrVersionMismatch, key, cur, expect)
	}
	rec := s.putLocked(key, value)
	s.noteWrite(1)
	return rec.doc(key), nil
}

// noteWrite books one admitted write operation of n documents.
func (s *Store) noteWrite(n int) {
	s.statsMu.Lock()
	s.writeOps++
	s.docsWritten += int64(n)
	s.statsMu.Unlock()
}

// putLocked inserts or updates a document, keeping value itself (see
// the package doc's ownership rule). Caller holds mu.
func (s *Store) putLocked(key string, value json.RawMessage) record {
	rec := record{
		value:   value,
		version: s.docs[key].version + 1,
		updated: s.cfg.Clock.Now().UnixNano(),
	}
	s.docs[key] = rec
	return rec
}

// BatchPut stores all entries as one consolidated write operation.
// This is the primitive Oparaca's memtable flusher uses: a batch of N
// documents costs 1 + (N-1)*batchDocCost capacity tokens instead of N.
func (s *Store) BatchPut(ctx context.Context, entries map[string]json.RawMessage) error {
	if len(entries) == 0 {
		return nil
	}
	if err := s.allowOp(); err != nil {
		return err
	}
	err := s.batchPut(ctx, entries)
	s.recordOp(err)
	return err
}

func (s *Store) batchPut(ctx context.Context, entries map[string]json.RawMessage) error {
	cost := 1 + float64(len(entries)-1)*batchDocCost
	if err := s.admitWrite(ctx, cost); err != nil {
		return err
	}
	partial := s.planPartialCount(len(entries))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if partial >= 0 {
		// Torn batch: apply a deterministic (sorted) prefix, then fail.
		// The caller's retry re-sends the whole batch; puts are
		// idempotent modulo version bumps, so retries converge.
		keys := make([]string, 0, len(entries))
		for k := range entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys[:partial] {
			s.putLocked(k, entries[k])
		}
		s.noteWrite(partial)
		return fmt.Errorf("%w: batch torn after %d/%d documents",
			ErrInjectedTransient, partial, len(entries))
	}
	for k, v := range entries {
		s.putLocked(k, v)
	}
	s.noteWrite(len(entries))
	return nil
}

// Delete removes key. Deleting an absent key is not an error.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := s.allowOp(); err != nil {
		return err
	}
	err := s.del(ctx, key)
	s.recordOp(err)
	return err
}

func (s *Store) del(ctx context.Context, key string) error {
	if err := s.admitWrite(ctx, 1); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	delete(s.docs, key)
	s.statsMu.Lock()
	s.deleteOps++
	s.statsMu.Unlock()
	return nil
}

// List returns the keys with the given prefix, sorted.
func (s *Store) List(ctx context.Context, prefix string) ([]string, error) {
	if err := s.allowOp(); err != nil {
		return nil, err
	}
	keys, err := s.list(ctx, prefix)
	s.recordOp(err)
	return keys, err
}

func (s *Store) list(ctx context.Context, prefix string) ([]string, error) {
	if err := s.admitRead(ctx); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	var keys []string
	for k := range s.docs {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Len returns the number of stored documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// Stats is a point-in-time view of operation counts.
type Stats struct {
	WriteOps    int64 `json:"write_ops"`
	DocsWritten int64 `json:"docs_written"`
	ReadOps     int64 `json:"read_ops"`
	DocsRead    int64 `json:"docs_read"`
	DeleteOps   int64 `json:"delete_ops"`
}

// Stats returns operation counters since Open.
func (s *Store) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return Stats{
		WriteOps:    s.writeOps,
		DocsWritten: s.docsWritten,
		ReadOps:     s.readOps,
		DocsRead:    s.docsRead,
		DeleteOps:   s.deleteOps,
	}
}
