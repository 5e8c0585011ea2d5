package memtable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Sentinel errors.
var (
	// ErrNotFound is returned when a key exists neither in memory nor
	// in the backing store.
	ErrNotFound = errors.New("memtable: key not found")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("memtable: table closed")
	// ErrVersionMismatch is returned by PutManyIfVersion when any key's
	// current version differs from the caller's expectation. It aliases
	// kvstore.ErrVersionMismatch so errors.Is sees one sentinel across
	// both layers of the optimistic-concurrency stack.
	ErrVersionMismatch = kvstore.ErrVersionMismatch
	// errBuffer refuses a versioned operation on a buffer-mode table.
	errBuffer = errors.New("memtable: versioned operations need a cache-mode table")
)

// AnyVersion, used as CASOp.Expect, skips version validation for that
// key (an unconditional write inside an otherwise validated commit).
const AnyVersion int64 = -1

// Mode selects the table's persistence behaviour, mirroring the
// paper's evaluation variants.
type Mode int

const (
	// ModeWriteBehind keeps entries in memory and flushes dirty keys
	// to the backing store in consolidated batches (the `oprc` and
	// `oprc-bypass` configurations).
	ModeWriteBehind Mode = iota + 1
	// ModeWriteThrough writes each update synchronously to the
	// backing store (what the Knative baseline effectively does).
	ModeWriteThrough
	// ModeMemoryOnly never touches the backing store (the
	// `oprc-bypass-nonpersist` configuration).
	ModeMemoryOnly
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeWriteBehind:
		return "write-behind"
	case ModeWriteThrough:
		return "write-through"
	case ModeMemoryOnly:
		return "memory-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures a Table.
type Config struct {
	// Mode selects persistence behaviour; defaults to ModeWriteBehind.
	Mode Mode
	// Backing is the persistent store; required unless ModeMemoryOnly.
	Backing *kvstore.Store
	// Shards is the number of in-memory shard maps (per-VM partitions
	// in the paper's deployment). Defaults to 16, capped at 64 (the
	// commit path tracks shard sets in a uint64 bitmask).
	Shards int
	// FlushInterval is the write-behind flush period. Defaults 50ms.
	FlushInterval time.Duration
	// FlushBatchSize triggers an early flush of a shard once that many
	// keys are dirty. Defaults to 256.
	FlushBatchSize int
	// Degraded reports whether the backing store is currently
	// unavailable (the platform wires it to the store's circuit
	// breaker). While it returns true, cache hits are additionally
	// counted as Stats.DegradedHits — reads the table kept serving
	// from memory while the store was down. nil means never degraded.
	Degraded func() bool
	// Buffer makes a write-behind table a write buffer rather than a
	// cache (package doc): an entry stays in memory only until its flush
	// lands, and a read that misses memory is answered from the backing
	// store without caching. It suits a table whose readers are few and
	// whose writes are what the table is for; New refuses it outside
	// ModeWriteBehind.
	Buffer bool
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ModeWriteBehind
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Shards > 64 {
		// The commit path tracks an op's shard set in one uint64
		// bitmask (opShardMask); 64 shards is already far past lock
		// contention relief for any realistic key population.
		c.Shards = 64
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 50 * time.Millisecond
	}
	if c.FlushBatchSize <= 0 {
		c.FlushBatchSize = 256
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	return c
}

// entry is all the table keeps per key, in one map slot, so a read or
// a validation hashes the key once. ver only grows — every committed
// write (deletes too) bumps it, a read-through seeds it from the backing
// document's — and is what PutManyIfVersion validates against. present
// false is a deletion tombstone: reads treat the key as authoritatively
// deleted, so a stale CAS cannot resurrect it. A tombstone is never
// evicted from a cache-mode table; a buffer-mode one drops it once the
// backing delete has landed. (An explicit flag: a live key can hold a
// nil val, the clone of an empty value.)
type entry struct {
	val     json.RawMessage
	ver     int64
	present bool
}

// shard is one partition of the table.
type shard struct {
	mu    sync.Mutex
	data  map[string]entry
	dirty map[string]bool
	// flushing is the shard's batch of the flush pass in flight (nil
	// when none is). deleted holds keys removed while their batch was in
	// flight, or whose post-batch re-delete failed and awaits retry. The
	// flusher writes its batch outside the lock, so without this
	// bookkeeping a Delete landing mid-flush would be overwritten in the
	// backing store by the in-flight BatchPut, resurrecting the key.
	flushing map[string]json.RawMessage
	deleted  map[string]bool
	// high is the most entries a buffer's data has held, as seen by the
	// flush passes since data was made (see shrink).
	high int
}

// shrinkKeep is the high-water mark below which a buffer's shard map is
// never rebuilt: a map that size costs a few kilobytes.
const shrinkKeep = 64

// shrink copies a buffer shard's data into a map its size once a flush
// has drained it to a quarter of its high-water mark, since a Go map
// keeps the capacity of the largest burst it held. Callers hold sh.mu.
func (sh *shard) shrink() {
	n := len(sh.data)
	if sh.high <= shrinkKeep || n > sh.high/4 {
		return
	}
	kept := make(map[string]entry, n)
	for k, e := range sh.data {
		kept[k] = e
	}
	sh.data, sh.high = kept, n
}

// commit stores a live value for k, bumping its version and superseding
// any pending tombstone, and marks it dirty for write-behind; it reports
// whether the shard now holds an early flush's worth. Callers hold sh.mu.
func (t *Table) commit(sh *shard, k string, v json.RawMessage) (wake bool) {
	sh.data[k] = entry{val: v, ver: sh.data[k].ver + 1, present: true}
	delete(sh.deleted, k)
	if t.cfg.Mode != ModeWriteBehind {
		return false
	}
	sh.dirty[k] = true
	return len(sh.dirty) >= t.cfg.FlushBatchSize
}

// remove replaces k with a tombstone whose version stays behind (and
// advances) so a CAS holding a pre-delete version can never resurrect
// the key. Callers hold sh.mu.
func (t *Table) remove(sh *shard, k string) {
	sh.data[k] = entry{ver: sh.data[k].ver + 1}
	delete(sh.dirty, k)
	if _, ok := sh.flushing[k]; ok {
		// In the flush batch in flight: its BatchPut would re-create the
		// key after the caller's backing delete, so the flusher re-deletes
		// once the batch lands.
		sh.deleted[k] = true
	}
}

// wakeFlusher asks for a flush ahead of the interval.
func (t *Table) wakeFlusher() {
	select {
	case t.flushWake <- struct{}{}:
	default:
	}
}

// Table is the distributed in-memory hash table. It is safe for
// concurrent use.
type Table struct {
	cfg      Config
	shards   []*shard
	ring     *Ring
	shardIdx map[string]int // ring node name -> shard index

	closeOnce sync.Once
	closed    chan struct{}
	killed    atomic.Bool // suppresses the final flush (simulated crash)
	flushWake chan struct{}
	// pass holds a token while a flush pass runs (and, in buffer mode,
	// while a Delete's backing delete is in flight): one at a time, so
	// batches land in the order they were taken.
	pass chan struct{}
	done chan struct{} // flusher exited

	statsMu      sync.Mutex
	hits         int64
	misses       int64
	degradedHits int64
	flushes      int64
	flushDocs    int64
}

// New creates a table. It returns an error when a persistent mode has
// no backing store.
func New(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if cfg.Mode != ModeMemoryOnly && cfg.Backing == nil {
		return nil, fmt.Errorf("memtable: mode %v requires a backing store", cfg.Mode)
	}
	if cfg.Buffer && cfg.Mode != ModeWriteBehind {
		return nil, fmt.Errorf("memtable: a buffer needs mode %v, not %v", ModeWriteBehind, cfg.Mode)
	}
	t := &Table{
		cfg:       cfg,
		shards:    make([]*shard, cfg.Shards),
		closed:    make(chan struct{}),
		flushWake: make(chan struct{}, 1),
		pass:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	t.shardIdx = make(map[string]int, cfg.Shards)
	names := make([]string, cfg.Shards)
	for i := range t.shards {
		t.shards[i] = &shard{
			data:    make(map[string]entry),
			dirty:   make(map[string]bool),
			deleted: make(map[string]bool),
		}
		names[i] = shardName(i)
		t.shardIdx[names[i]] = i
	}
	t.ring = NewRing(64, names...)
	if cfg.Mode == ModeWriteBehind {
		go t.flushLoop()
	} else {
		close(t.done)
	}
	return t, nil
}

func shardName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// shardFor returns the shard owning key via the consistent-hash ring.
func (t *Table) shardFor(key string) *shard {
	return t.shards[t.shardIndexFor(key)]
}

// shardIndexFor returns the index of the shard owning key.
func (t *Table) shardIndexFor(key string) int {
	idx, ok := t.shardIdx[t.ring.Owner(key)]
	if !ok {
		idx = int(hashKey(key)) % len(t.shards)
	}
	return idx
}

// smallBatch is the widest batch served by the allocation-free
// grouping path: shard indices live in a stack array and visited keys
// in a bit set. Object state bundles (the invocation hot path) are
// almost always this small.
const smallBatch = 32

// forEachShardGroup visits every position (index into keys) grouped by
// owning shard: each distinct shard's lock is taken once and held while
// fn runs for the positions that shard owns. fn gets one position at a
// time, not a slice of them, so small batches group with no heap
// allocation (a slice handed to fn would escape); wider ones fall back
// to a position map.
func (t *Table) forEachShardGroup(keys []string, fn func(sh *shard, i int)) {
	if len(keys) <= smallBatch {
		var idx [smallBatch]int
		for i, k := range keys {
			idx[i] = t.shardIndexFor(k)
		}
		var done uint64
		for i := range keys {
			if done&(1<<i) != 0 {
				continue
			}
			sh := t.shards[idx[i]]
			sh.mu.Lock()
			for j := i; j < len(keys); j++ {
				if done&(1<<j) == 0 && idx[j] == idx[i] {
					done |= 1 << j
					fn(sh, j)
				}
			}
			sh.mu.Unlock()
		}
		return
	}
	groups := make(map[int][]int)
	for i, k := range keys {
		shardIdx := t.shardIndexFor(k)
		groups[shardIdx] = append(groups[shardIdx], i)
	}
	for shardIdx, positions := range groups {
		sh := t.shards[shardIdx]
		sh.mu.Lock()
		for _, i := range positions {
			fn(sh, i)
		}
		sh.mu.Unlock()
	}
}

// isClosed reports whether Close has been called.
func (t *Table) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// noteReads books cache read outcomes, additionally counting hits as
// degraded when the backing store is currently unavailable (reads the
// table kept serving from memory while the store was down).
func (t *Table) noteReads(hits, misses int64) {
	degraded := hits > 0 && t.cfg.Degraded != nil && t.cfg.Degraded()
	t.statsMu.Lock()
	t.hits += hits
	t.misses += misses
	if degraded {
		t.degradedHits += hits
	}
	t.statsMu.Unlock()
}

// Get returns the value for key, reading through to the backing store
// on a miss (and caching the result, unless the table is a buffer).
func (t *Table) Get(ctx context.Context, key string) (json.RawMessage, error) {
	if t.isClosed() {
		return nil, ErrClosed
	}
	sh := t.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.data[key]
	sh.mu.Unlock()
	if ok {
		t.noteReads(1, 0)
		if !e.present {
			// Deletion tombstone: the key is authoritatively deleted.
			// Reading through would resurrect a stale backing copy (the
			// backing delete may still be in flight or retrying) and
			// re-arm the key's version for optimistic commits.
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return e.val, nil
	}
	t.noteReads(0, 1)
	if t.cfg.Mode == ModeMemoryOnly {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	doc, err := t.cfg.Backing.Get(ctx, key)
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return nil, fmt.Errorf("memtable: read-through: %w", err)
	}
	if t.cfg.Buffer {
		return doc.Value, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Another writer may have raced us; do not clobber a dirty entry,
	// and honor a tombstone a racing Delete left behind.
	if e, ok := sh.data[key]; ok {
		if !e.present {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return e.val, nil
	}
	sh.data[key] = entry{val: doc.Value, ver: doc.Version, present: true}
	return doc.Value, nil
}

// GetManyInto writes the values for keys into out, taking each shard
// lock once and consolidating backing-store misses into a single
// kvstore.BatchGet round trip (one read-latency charge per batch
// instead of one per key). Keys found in neither place are simply
// absent from out — batch callers resolve defaults themselves, so
// absence is not an error, unlike Get's ErrNotFound. The map is the
// caller's, so a hot caller reuses one across reads instead of
// allocating per call; existing entries are left in place (callers
// reusing a map clear it between reads). Values are read-only (package
// doc).
func (t *Table) GetManyInto(ctx context.Context, keys []string, out map[string]json.RawMessage) error {
	if t.isClosed() {
		return ErrClosed
	}
	if len(keys) == 0 {
		return nil
	}
	var missing []string
	var hits, misses int64
	t.forEachShardGroup(keys, func(sh *shard, i int) {
		k := keys[i]
		if e, ok := sh.data[k]; ok {
			// A tombstone is authoritatively absent: no read-through.
			if e.present {
				out[k] = e.val
			}
			hits++
			return
		}
		missing = append(missing, k)
		misses++
	})
	t.noteReads(hits, misses)
	if len(missing) == 0 || t.cfg.Mode == ModeMemoryOnly {
		return nil
	}
	docs, err := t.cfg.Backing.BatchGet(ctx, missing)
	if err != nil {
		return fmt.Errorf("memtable: batch read-through: %w", err)
	}
	if t.cfg.Buffer {
		for k, d := range docs {
			out[k] = d.Value
		}
		return nil
	}
	if len(docs) == 0 {
		return nil
	}
	found := make([]string, 0, len(docs))
	for k := range docs {
		found = append(found, k)
	}
	// Cache the read-through results, again one lock per shard. A
	// writer may have raced the batch read: its (newer) entry wins,
	// and a racing Delete's tombstone keeps the key absent.
	t.forEachShardGroup(found, func(sh *shard, i int) {
		k := found[i]
		e, ok := sh.data[k]
		if !ok {
			e = entry{val: docs[k].Value, ver: docs[k].Version, present: true}
			sh.data[k] = e
		}
		if e.present {
			out[k] = e.val
		}
	})
	return nil
}

// VersionedValue couples a state value with the table version it was
// read at. A nil Value means the key is absent; Version 0 means the
// table has never seen the key (the expectation a creating CAS uses).
type VersionedValue struct {
	Value   json.RawMessage
	Version int64
}

// GetManyVersionedInto is GetManyInto for the optimistic-concurrency
// path: every requested key appears in out with its current version, so
// a later PutManyIfVersion can validate the whole read set. Deleted keys
// report their tombstone version with a nil value (reading through would let a stale commit resurrect
// them); keys found nowhere report {nil, 0}. A buffer forgets versions
// with its entries, so it refuses (errBuffer).
func (t *Table) GetManyVersionedInto(ctx context.Context, keys []string, out map[string]VersionedValue) error {
	if t.isClosed() {
		return ErrClosed
	}
	if t.cfg.Buffer {
		return errBuffer
	}
	if len(keys) == 0 {
		return nil
	}
	var missing []string
	var hits, misses int64
	t.forEachShardGroup(keys, func(sh *shard, i int) {
		k := keys[i]
		if e, ok := sh.data[k]; ok {
			// A tombstone (nil val) is authoritatively absent.
			out[k] = VersionedValue{Value: e.val, Version: e.ver}
			hits++
			return
		}
		missing = append(missing, k)
		misses++
	})
	t.noteReads(hits, misses)
	if len(missing) == 0 {
		return nil
	}
	if t.cfg.Mode == ModeMemoryOnly {
		for _, k := range missing {
			out[k] = VersionedValue{}
		}
		return nil
	}
	docs, err := t.cfg.Backing.BatchGet(ctx, missing)
	if err != nil {
		return fmt.Errorf("memtable: batch read-through: %w", err)
	}
	found := make([]string, 0, len(docs))
	for _, k := range missing {
		if _, ok := docs[k]; ok {
			found = append(found, k)
		} else {
			out[k] = VersionedValue{}
		}
	}
	if len(found) == 0 {
		return nil
	}
	// Cache the read-through results with their backing versions. A
	// writer (or deleter) may have raced the batch read; its newer
	// table state wins over the fetched document.
	t.forEachShardGroup(found, func(sh *shard, i int) {
		k := found[i]
		e, ok := sh.data[k]
		if !ok {
			e = entry{val: docs[k].Value, ver: docs[k].Version, present: true}
			sh.data[k] = e
		}
		out[k] = VersionedValue{Value: e.val, Version: e.ver}
	})
	return nil
}

// PutMany stores every entry, taking each shard lock once. In
// write-through mode the backing write is one consolidated BatchPut
// (charged as a single write operation); in write-behind mode all keys
// are marked dirty for the flusher in one pass.
func (t *Table) PutMany(ctx context.Context, entries map[string]json.RawMessage) error {
	if t.isClosed() {
		return ErrClosed
	}
	if len(entries) == 0 {
		return nil
	}
	copied := make(map[string]json.RawMessage, len(entries))
	keys := make([]string, 0, len(entries))
	for k, v := range entries {
		copied[k] = append(json.RawMessage(nil), v...)
		keys = append(keys, k)
	}
	if t.cfg.Mode == ModeWriteThrough {
		if err := t.cfg.Backing.BatchPut(ctx, copied); err != nil {
			return fmt.Errorf("memtable: batch write-through: %w", err)
		}
	}
	wake := false
	t.forEachShardGroup(keys, func(sh *shard, i int) {
		if t.commit(sh, keys[i], copied[keys[i]]) {
			wake = true
		}
	})
	if wake {
		t.wakeFlusher()
	}
	return nil
}

// Put stores value at key. In write-through mode the backing write is
// synchronous; in write-behind mode the key is marked dirty for the
// flusher.
func (t *Table) Put(ctx context.Context, key string, value json.RawMessage) error {
	if t.isClosed() {
		return ErrClosed
	}
	val := append(json.RawMessage(nil), value...)
	if t.cfg.Mode == ModeWriteThrough {
		if _, err := t.cfg.Backing.Put(ctx, key, val); err != nil {
			return fmt.Errorf("memtable: write-through: %w", err)
		}
	}
	sh := t.shardFor(key)
	sh.mu.Lock()
	wake := t.commit(sh, key, val)
	sh.mu.Unlock()
	if wake {
		t.wakeFlusher()
	}
	return nil
}

// Delete removes key from memory and, in persistent modes, from the
// backing store. A buffer's Delete first waits for the flush pass in
// flight and holds off the next until its backing delete has landed, so
// no batch lands the key after it; the tombstone then goes.
func (t *Table) Delete(ctx context.Context, key string) error {
	if t.isClosed() {
		return ErrClosed
	}
	if t.cfg.Buffer {
		if err := t.takePass(ctx); err != nil {
			return fmt.Errorf("memtable: delete: %w", err)
		}
		defer t.releasePass()
	}
	sh := t.shardFor(key)
	sh.mu.Lock()
	t.remove(sh, key)
	sh.mu.Unlock()
	if t.cfg.Mode == ModeMemoryOnly {
		return nil
	}
	if err := t.cfg.Backing.Delete(ctx, key); err != nil {
		return fmt.Errorf("memtable: delete: %w", err)
	}
	if t.cfg.Buffer {
		sh.mu.Lock()
		if e, ok := sh.data[key]; ok && !e.present { // not re-created meanwhile
			delete(sh.data, key)
		}
		sh.mu.Unlock()
	}
	return nil
}

// CASOp is one key's part of a PutManyIfVersion commit.
type CASOp struct {
	// Expect is the version the caller observed via GetManyVersionedInto
	// (0 for a key the table has never seen). AnyVersion skips
	// validation for this key.
	Expect int64
	// Value is the new value; nil deletes the key. Ignored unless
	// Write is set.
	Value json.RawMessage
	// Write commits Value after validation. Ops with Write false are
	// read-set checks: the commit fails if the key changed, but the
	// key is not written.
	Write bool
}

// opShardMask returns the set of shards owning an op key as a bitmask
// (valid because New caps Shards at 64), so the commit path can lock
// and unlock its shard set without allocating tracking slices.
func (t *Table) opShardMask(ops map[string]CASOp) uint64 {
	var mask uint64
	for k := range ops {
		mask |= 1 << uint(t.shardIndexFor(k))
	}
	return mask
}

// lockMask locks every shard in mask in ascending index order (the
// fixed global order keeps concurrent multi-shard commits
// deadlock-free); unlockMask releases them.
func (t *Table) lockMask(mask uint64) {
	for i := range t.shards {
		if mask&(1<<uint(i)) != 0 {
			t.shards[i].mu.Lock()
		}
	}
}

func (t *Table) unlockMask(mask uint64) {
	for i := range t.shards {
		if mask&(1<<uint(i)) != 0 {
			t.shards[i].mu.Unlock()
		}
	}
}

// PutManyIfVersion atomically validates every op's expected version
// and, only if all match, commits the write ops (bumping each written
// key's version). It is the table-level realization of optimistic
// concurrency: the validation mirrors kvstore.CompareAndPut semantics
// (same ErrVersionMismatch sentinel) but runs at the cache — the
// serialization point every write already flows through — while
// persistence keeps the consolidated batch economics: write-through
// commits land as a single kvstore.BatchPut under the shard locks, and
// write-behind commits are picked up by the flusher's BatchPut.
//
// All involved shards are locked for the duration (ascending-index
// order, so concurrent multi-key commits cannot deadlock); on
// ErrVersionMismatch nothing is committed. Deletes of write ops (nil
// Value) leave a version tombstone so stale optimistic commits cannot
// resurrect the key, and are propagated to the backing store like
// Delete. A buffer refuses it (errBuffer), as GetManyVersionedInto.
func (t *Table) PutManyIfVersion(ctx context.Context, ops map[string]CASOp) error {
	if t.isClosed() {
		return ErrClosed
	}
	if t.cfg.Buffer {
		return errBuffer
	}
	if len(ops) == 0 {
		return nil
	}
	mask := t.opShardMask(ops)
	t.lockMask(mask)
	unlock := func() { t.unlockMask(mask) }
	for k, op := range ops {
		if op.Expect == AnyVersion {
			continue
		}
		if cur := t.shardFor(k).data[k].ver; cur != op.Expect {
			unlock()
			return fmt.Errorf("%w: key %q at version %d, expected %d",
				ErrVersionMismatch, k, cur, op.Expect)
		}
	}
	// The ops map and its values belong to the caller — typically a
	// pooled commit scratch — so written values are cloned (package doc).
	// Write-through collects the clones into the batch map the backing
	// API needs; write-behind clones straight into the commit below.
	var puts map[string]json.RawMessage
	if t.cfg.Mode == ModeWriteThrough {
		for k, op := range ops {
			if op.Write && op.Value != nil {
				if puts == nil {
					puts = make(map[string]json.RawMessage, len(ops))
				}
				puts[k] = append(json.RawMessage(nil), op.Value...)
			}
		}
	}
	// Backing I/O happens before the in-memory commit, still under the
	// shard locks, so the validation window covers it: a backing
	// failure commits nothing (versions unchanged, the caller simply
	// retries), and no later commit can interleave between this
	// commit's memory state and its backing state — a delayed
	// post-unlock Backing.Delete could otherwise erase a key a
	// subsequent commit had already recreated and persisted. Deletes
	// go first; they are idempotent if a following put batch fails.
	if t.cfg.Mode != ModeMemoryOnly {
		for k, op := range ops {
			if op.Write && op.Value == nil {
				if err := t.cfg.Backing.Delete(ctx, k); err != nil {
					unlock()
					return fmt.Errorf("memtable: delete: %w", err)
				}
			}
		}
	}
	if t.cfg.Mode == ModeWriteThrough && len(puts) > 0 {
		if err := t.cfg.Backing.BatchPut(ctx, puts); err != nil {
			unlock()
			return fmt.Errorf("memtable: batch write-through: %w", err)
		}
	}
	wake := false
	for k, op := range ops {
		if !op.Write {
			continue
		}
		sh := t.shardFor(k)
		if op.Value == nil {
			t.remove(sh, k)
			continue
		}
		v, cloned := puts[k]
		if !cloned {
			v = append(json.RawMessage(nil), op.Value...)
		}
		if t.commit(sh, k, v) {
			wake = true
		}
	}
	unlock()
	if wake {
		t.wakeFlusher()
	}
	return nil
}

// flushLoop periodically consolidates dirty keys into batch writes.
func (t *Table) flushLoop() {
	defer close(t.done)
	for {
		select {
		case <-t.closed:
			if t.killed.Load() {
				// Simulated crash: abandon dirty entries unflushed.
				return
			}
			// Final synchronous flush so Close is durable.
			t.flushAll(context.Background())
			return
		case <-t.flushWake:
		case <-t.cfg.Clock.After(t.cfg.FlushInterval):
		}
		t.flushAll(context.Background())
	}
}

// takePass waits for the flush pass in flight, if any, and takes the
// table's one pass; releasePass gives it back. It fails only when ctx
// ends first.
func (t *Table) takePass(ctx context.Context) error {
	select {
	case t.pass <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (t *Table) releasePass() { <-t.pass }

// flushAll runs one flush pass, after the one in flight if there is one:
// every dirty key, one consolidated batch per shard, then the re-delete
// of keys whose Delete raced the batch (the BatchPut would otherwise
// have resurrected them in the backing store). Failed re-deletes stay in
// the shard's deleted set and are retried on the next pass, so a
// transient backing failure cannot permanently resurrect a deleted key.
// A buffer drops each entry its batch landed that no newer write has
// dirtied. A pass that ctx ends before it starts does nothing.
func (t *Table) flushAll(ctx context.Context) {
	if t.takePass(ctx) != nil {
		return
	}
	defer t.releasePass()
	for _, sh := range t.shards {
		sh.mu.Lock()
		// Collect tombstones awaiting retry (their batch has already
		// landed; only the backing delete is outstanding). A key
		// re-created since its deletion drops the tombstone: the fresh
		// value supersedes the delete.
		var redelete []string
		for k := range sh.deleted {
			delete(sh.deleted, k)
			if !sh.data[k].present {
				redelete = append(redelete, k)
			}
		}
		if len(sh.dirty) == 0 && len(redelete) == 0 {
			sh.mu.Unlock()
			continue
		}
		batch := make(map[string]json.RawMessage, len(sh.dirty))
		for k := range sh.dirty {
			batch[k] = sh.data[k].val
		}
		sh.flushing = batch
		sh.dirty = make(map[string]bool)
		sh.mu.Unlock()
		err := t.cfg.Backing.BatchPut(ctx, batch) // a no-op when only re-deletes are due
		sh.mu.Lock()
		sh.flushing = nil
		sh.high = max(sh.high, len(sh.data))
		for k := range batch {
			if sh.deleted[k] {
				delete(sh.deleted, k)
				redelete = append(redelete, k)
			}
			switch {
			case sh.dirty[k] || !sh.data[k].present:
				// A newer write awaits the next pass; a delete, the
				// re-delete below.
			case err != nil:
				// Mark the key dirty again so no update is lost; it
				// will be retried on the next flush tick.
				sh.dirty[k] = true
			case t.cfg.Buffer:
				delete(sh.data, k) // landed: the store answers for it now
			}
		}
		if t.cfg.Buffer {
			sh.shrink()
		}
		if err != nil {
			// The batch never landed, so it resurrected nothing; put
			// the tombstones back for the retry pass alongside it.
			for _, k := range redelete {
				if !sh.data[k].present {
					sh.deleted[k] = true
				}
			}
		}
		sh.mu.Unlock()
		if err != nil {
			continue
		}
		for _, k := range redelete {
			if derr := t.cfg.Backing.Delete(ctx, k); derr != nil {
				// Keep the tombstone so the next pass retries, unless
				// the key has been re-created meanwhile.
				sh.mu.Lock()
				if !sh.data[k].present {
					sh.deleted[k] = true
				}
				sh.mu.Unlock()
			}
		}
		if len(batch) > 0 {
			t.statsMu.Lock()
			t.flushes++
			t.flushDocs += int64(len(batch))
			t.statsMu.Unlock()
		}
	}
}

// Flush synchronously persists all dirty entries (no-op outside
// write-behind mode). It first waits for a pass in flight — the
// background flusher's or another Flush's — so it returns only after a
// pass that began after the call, unless ctx ends first.
func (t *Table) Flush(ctx context.Context) {
	if t.cfg.Mode == ModeWriteBehind {
		t.flushAll(ctx)
	}
}

// Len returns the number of live in-memory entries (tombstones are not
// counted).
func (t *Table) Len() int {
	var n int
	for _, sh := range t.shards {
		sh.mu.Lock()
		for _, e := range sh.data {
			if e.present {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Close stops the flusher after a final flush and marks the table
// closed. It blocks until the flusher exits.
func (t *Table) Close() {
	t.closeOnce.Do(func() { close(t.closed) })
	<-t.done
}

// Kill stops the table WITHOUT the final flush, modeling process
// death: dirty write-behind entries are abandoned exactly as a crash
// would abandon them. The crash/replay tests use it to assert what
// recovery owes after an unclean shutdown.
func (t *Table) Kill() {
	t.killed.Store(true)
	t.Close()
}

// Stats is a point-in-time view of cache behaviour.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Flushes   int64 `json:"flushes"`
	FlushDocs int64 `json:"flush_docs"`
	// DegradedHits counts cache hits served while Config.Degraded
	// reported the backing store unavailable — the reads degraded mode
	// kept answering from memory.
	DegradedHits int64 `json:"degraded_hits"`
}

// Stats returns counters since New.
func (t *Table) Stats() Stats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return Stats{Hits: t.hits, Misses: t.misses, Flushes: t.flushes, FlushDocs: t.flushDocs,
		DegradedHits: t.degradedHits}
}
