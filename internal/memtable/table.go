package memtable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
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
	// from memory while the store was down. Only a key some read has
	// admitted (package doc) is in memory to serve; any other goes to
	// the store and fails with it. nil means never degraded.
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
// a validation hashes the key once. ver is what PutManyIfVersion
// validates against: every committed write (deletes too) bumps it, and a
// read-through seeds it from the backing document's. present false is a
// deletion tombstone: reads treat the key as authoritatively deleted, so
// a stale CAS cannot resurrect it. A tombstone is never evicted from a
// cache-mode table; a buffer-mode one drops it once the backing delete
// has landed. (An explicit flag: a live key can hold a nil val, the
// clone of an empty value.)
//
// used is set by the first read that finds the entry or puts it there,
// and no write clears it. A cache keeps a used entry and drops an unused
// one once its flush has landed (package doc). A dropped key's next
// write counts its version from 0 again, so a versioned read, which
// hands a version out, leaves its key used for good: no CAS can then
// validate a version the key held before.
type entry struct {
	val     json.RawMessage
	ver     int64
	present bool
	used    bool
}

// shard is one partition of the table.
type shard struct {
	mu    sync.Mutex
	data  map[string]entry
	dirty map[string]bool
	// flushing is the shard's batch of the flush pass in flight (nil
	// when none is), made at its size by each pass. deleted holds keys
	// removed while their batch was in flight, or whose post-batch
	// re-delete failed and awaits retry. The flusher writes its batch
	// outside the lock, so without this bookkeeping a Delete landing
	// mid-flush would be overwritten in the backing store by the
	// in-flight BatchPut, resurrecting the key.
	flushing map[string]json.RawMessage
	deleted  map[string]bool
	// inflight marks the keys whose write is in flight to the backing
	// store: a commit or Delete set the mark under mu and does its
	// backing I/O without mu; the channel closes when the write has
	// landed in memory (or, for a failed commit, been dropped) and the
	// mark is cleared. Writers and readers of a marked key wait on it.
	inflight map[string]chan struct{}
	// dataSize and batchSize follow, pass by pass, the entries data held
	// and the keys the pass flushed (see burst).
	dataSize, batchSize burst
}

// shrinkKeep is the size below which a shard map is never rebuilt: a map
// that size costs a few kilobytes.
const shrinkKeep = 64

// burst tells a burst from a steady load for one of a shard's maps, from
// the sizes the flush passes see: a Go map keeps the capacity of the most
// it held, so a map a burst grew is copied into one its size. data is
// measured at each pass before the pass drops entries, and dirty, which
// each pass clears rather than replaces, by the keys the pass flushed. A
// map whose passes each see about as much as the one before keeps its
// capacity, so a buffer in steady state grows no map; a burst is given
// back by the pass that drains it, and a load that falls, by the second
// lighter pass. Callers hold the shard's mu.
type burst struct {
	high int // the most a pass has seen since the map was made
	last int // what the previous pass saw
}

// over books a pass that saw peak and leaves n, and reports whether the
// map is to be rebuilt: when the most it held is past shrinkKeep and over
// four times both n and what the previous pass saw.
func (b *burst) over(peak, n int) bool {
	prev := b.last
	b.high, b.last = max(b.high, peak), peak
	if b.high <= shrinkKeep || b.high <= 4*max(n, prev) {
		return false
	}
	b.high = n
	return true
}

// shrink ends a flush pass of the shard, which saw peak entries in data
// before it dropped any and flushed landed keys, by giving back what a
// burst grew in data and dirty (see burst). Callers hold sh.mu.
func (sh *shard) shrink(peak, landed int) {
	if sh.dataSize.over(peak, len(sh.data)) {
		sh.data = copyMap(sh.data)
	}
	if sh.batchSize.over(landed, len(sh.dirty)) {
		sh.dirty = copyMap(sh.dirty)
	}
}

// copyMap copies m into a map its size.
func copyMap[V any](m map[string]V) map[string]V {
	c := make(map[string]V, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// commit stores a live value for k, bumping its version and superseding
// any pending tombstone, and marks it dirty for write-behind; it reports
// whether the shard now holds an early flush's worth. Callers hold sh.mu.
func (t *Table) commit(sh *shard, k string, v json.RawMessage) (wake bool) {
	old := sh.data[k]
	sh.data[k] = entry{val: v, ver: old.ver + 1, present: true, used: old.used}
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
	old := sh.data[k]
	sh.data[k] = entry{ver: old.ver + 1, used: old.used}
	delete(sh.dirty, k)
	if _, ok := sh.flushing[k]; ok {
		// In the flush batch in flight: its BatchPut would re-create the
		// key after the caller's backing delete, so the flusher re-deletes
		// once the batch lands.
		sh.deleted[k] = true
	}
}

// use returns k's entry after marking it read, if it is in memory; the
// slot is written only on the entry's first read. Callers hold sh.mu.
func (sh *shard) use(k string) (entry, bool) {
	e, ok := sh.data[k]
	if ok && !e.used {
		e.used = true
		sh.data[k] = e
	}
	return e, ok
}

// admit caches what a read-through found for k, marked read — doc, or a
// version-0 tombstone when the store had no k (found false; see
// GetManyVersionedInto) — and returns what the reader sees: an entry a
// writer or deleter left meanwhile wins over the document, and is marked
// read instead. ok is false when a flush pass has dropped an entry since
// gen was taken and k is not in memory: the document may predate the
// dropped write, so nothing is cached and the caller reads k again.
// Callers hold sh.mu.
func (t *Table) admit(sh *shard, k string, doc kvstore.Document, found bool, gen uint64) (e entry, ok bool) {
	if e, ok := sh.use(k); ok {
		return e, true
	}
	if t.drops.Load() != gen {
		return entry{}, false
	}
	e = entry{val: doc.Value, ver: doc.Version, present: found, used: true}
	sh.data[k] = e
	return e, true
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
	// drops counts the flush passes that dropped an entry from a shard.
	// A read-through that misses memory, reads the store and then finds
	// the count moved may have read a value older than one a write left
	// and the pass dropped meanwhile, so it reads again (see admit).
	drops atomic.Uint64
	// readHook, when set, runs between a read-through's backing read and
	// the caching that follows it; tests hold a read there.
	readHook func()
	// flightHook, when set, runs while a write is half done: its keys
	// are marked in flight, and one of memory and the store has it and
	// the other not yet — after a commit's backing I/O and before it
	// lands in memory, after a Delete's tombstone and before its backing
	// delete. Tests hold a write there.
	flightHook func()

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
			data:     make(map[string]entry),
			dirty:    make(map[string]bool),
			deleted:  make(map[string]bool),
			inflight: make(map[string]chan struct{}),
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
// fixed global order keeps concurrent multi-shard batches
// deadlock-free); unlockMask releases them.
func (t *Table) lockMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		t.shards[bits.TrailingZeros64(m)].mu.Lock()
	}
}

func (t *Table) unlockMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		t.shards[bits.TrailingZeros64(m)].mu.Unlock()
	}
}

// lockUnmarked locks the shards in mask once none of the caller's keys,
// which they own, carries an in-flight mark, waiting out each mark it
// finds with ctx. Every reader and writer of the table orders itself
// after a write in flight this way. markOf finds the mark of one of the
// keys, or nil; it runs under the locks, and only while one of mask's
// shards holds a mark. lockUnmarked returns holding the locks, or ctx's
// error holding nothing.
func (t *Table) lockUnmarked(ctx context.Context, mask uint64, markOf func() chan struct{}) error {
	for {
		t.lockMask(mask)
		var mark chan struct{}
		for m := mask; m != 0 && mark == nil; m &= m - 1 {
			if len(t.shards[bits.TrailingZeros64(m)].inflight) > 0 {
				mark = markOf()
			}
		}
		if mark == nil {
			return nil
		}
		t.unlockMask(mask)
		if err := awaitMark(ctx, mark); err != nil {
			return err
		}
	}
}

// awaitMark waits for an in-flight mark to clear, or for ctx to end.
func awaitMark(ctx context.Context, mark chan struct{}) error {
	select {
	case <-mark:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("memtable: waiting for a write in flight: %w", ctx.Err())
	}
}

// lockKey is lockUnmarked for one key: it returns key's shard, locked.
func (t *Table) lockKey(ctx context.Context, key string) (*shard, error) {
	i := t.shardIndexFor(key)
	sh := t.shards[i]
	if err := t.lockUnmarked(ctx, 1<<uint(i), func() chan struct{} { return sh.inflight[key] }); err != nil {
		return nil, err
	}
	return sh, nil
}

// smallBatch is the widest batch eachOf serves with no allocation: its
// keys' shard indices live in a stack array. Object state bundles (the
// invocation hot path) are almost always this small.
const smallBatch = 32

// eachKey is eachOf for a batch of keys.
func (t *Table) eachKey(ctx context.Context, keys []string, fn func(sh *shard, k string)) error {
	return eachOf(t, ctx, keys, func(k string) string { return k }, fn)
}

// eachOf is lockUnmarked for a batch of items, each with its key: once
// none of the keys carries an in-flight mark, it runs fn for each item
// under the lock of its key's shard, looked up once per key, all of the
// batch's shards held together. If a wait for a mark ends first it
// returns ctx's error, having run fn for no item.
func eachOf[T any](t *Table, ctx context.Context, items []T, key func(T) string, fn func(sh *shard, item T)) error {
	var small [smallBatch]uint8
	idx := small[:0]
	if len(items) > smallBatch {
		idx = make([]uint8, 0, len(items))
	}
	var mask uint64
	for _, it := range items {
		i := t.shardIndexFor(key(it))
		idx = append(idx, uint8(i))
		mask |= 1 << uint(i)
	}
	err := t.lockUnmarked(ctx, mask, func() chan struct{} {
		for j, it := range items {
			if mark := t.shards[idx[j]].inflight[key(it)]; mark != nil {
				return mark
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for j, it := range items {
		fn(t.shards[idx[j]], it)
	}
	t.unlockMask(mask)
	return nil
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
	gen := t.drops.Load()
	sh, err := t.lockKey(ctx, key)
	if err != nil {
		return nil, err
	}
	e, ok := sh.use(key)
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
	if t.readHook != nil {
		t.readHook()
	}
	// Another writer may have raced us; do not clobber a dirty entry,
	// and honor a tombstone a racing Delete left behind.
	sh.mu.Lock()
	e, ok = t.admit(sh, key, doc, true, gen)
	sh.mu.Unlock()
	if !ok {
		return t.Get(ctx, key) // raced a drop: read again
	}
	if !e.present {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return e.val, nil
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
	gen := t.drops.Load()
	var missing []string
	err := t.eachKey(ctx, keys, func(sh *shard, k string) {
		if e, ok := sh.use(k); ok {
			// A tombstone is authoritatively absent: no read-through.
			if e.present {
				out[k] = e.val
			}
			return
		}
		missing = append(missing, k)
	})
	if err != nil {
		return err
	}
	t.noteReads(int64(len(keys)-len(missing)), int64(len(missing)))
	if len(missing) == 0 || t.cfg.Mode == ModeMemoryOnly {
		return nil
	}
	docs, err := t.readThrough(ctx, missing)
	if err != nil {
		return err
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
	// Cache the read-through results, again one lock per shard. A
	// writer may have raced the batch read: its (newer) entry wins,
	// and a racing Delete's tombstone keeps the key absent. A key whose
	// read raced a drop is read again.
	var raced []string
	err = t.eachKey(ctx, missing, func(sh *shard, k string) {
		doc, found := docs[k]
		if !found {
			return
		}
		switch e, ok := t.admit(sh, k, doc, true, gen); {
		case !ok:
			raced = append(raced, k)
		case e.present:
			out[k] = e.val
		}
	})
	if err != nil {
		return err
	}
	if len(raced) > 0 {
		return t.GetManyInto(ctx, raced, out)
	}
	return nil
}

// readThrough reads the keys a batch read missed from the backing store
// in one round trip.
func (t *Table) readThrough(ctx context.Context, keys []string) (map[string]kvstore.Document, error) {
	docs, err := t.cfg.Backing.BatchGet(ctx, keys)
	if err != nil {
		return nil, fmt.Errorf("memtable: batch read-through: %w", err)
	}
	if t.readHook != nil {
		t.readHook()
	}
	return docs, nil
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
// them); keys found nowhere report {nil, 0}. Every key it finds stays
// in memory, pinned (see entry), and outside a memory-only table a key
// found nowhere leaves a version-0 tombstone, so a blind write that
// lands and would leave memory before the caller's creating CAS still
// fails it. A buffer forgets versions with its entries, so it refuses
// (errBuffer).
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
	gen := t.drops.Load()
	var missing []string
	err := t.eachKey(ctx, keys, func(sh *shard, k string) {
		if e, ok := sh.use(k); ok {
			// A tombstone (nil val) is authoritatively absent.
			out[k] = VersionedValue{Value: e.val, Version: e.ver}
			return
		}
		missing = append(missing, k)
	})
	if err != nil {
		return err
	}
	t.noteReads(int64(len(keys)-len(missing)), int64(len(missing)))
	if len(missing) == 0 {
		return nil
	}
	if t.cfg.Mode == ModeMemoryOnly {
		for _, k := range missing {
			out[k] = VersionedValue{}
		}
		return nil
	}
	docs, err := t.readThrough(ctx, missing)
	if err != nil {
		return err
	}
	// Cache the read-through results with their backing versions, and
	// pin a key found nowhere. A writer (or deleter) may have raced the
	// batch read; its newer table state wins over the fetched document.
	// A key whose read raced a drop is read again.
	var raced []string
	err = t.eachKey(ctx, missing, func(sh *shard, k string) {
		doc, found := docs[k]
		e, ok := t.admit(sh, k, doc, found, gen)
		if !ok {
			raced = append(raced, k)
			return
		}
		out[k] = VersionedValue{Value: e.val, Version: e.ver}
	})
	if err != nil {
		return err
	}
	if len(raced) > 0 {
		return t.GetManyVersionedInto(ctx, raced, out)
	}
	return nil
}

// KV is one key and value of a PutMany.
type KV struct {
	Key   string
	Value json.RawMessage
}

// PutMany stores every pair as one unconditional commit, routing each key
// to its shard once: it waits out every key's write in flight before
// committing any, and either commits them all or returns an error having
// committed none. A key given twice is written twice, the later value
// winning. In write-through mode the backing write is one consolidated
// BatchPut (charged as a single write operation, through commitOps); in
// write-behind mode the keys are marked dirty for the flusher.
//
// PutMany owns the values it is handed: the table keeps each as it is,
// without a copy, hands it to the backing store and returns it to
// readers, so the caller must not write into a value after the call. An
// exact-size value is what the caller should hand over, since the table
// keeps its spare capacity too. kvs itself stays the caller's.
func (t *Table) PutMany(ctx context.Context, kvs []KV) error {
	if t.isClosed() {
		return ErrClosed
	}
	if t.cfg.Mode == ModeWriteThrough {
		ops := make(map[string]CASOp, len(kvs))
		for _, kv := range kvs {
			ops[kv.Key] = blindWrite(kv.Value)
		}
		return t.commitOps(ctx, ops, true)
	}
	wake := false
	err := eachOf(t, ctx, kvs, func(kv KV) string { return kv.Key }, func(sh *shard, kv KV) {
		wake = t.commit(sh, kv.Key, keep(kv.Value, true)) || wake
	})
	if wake {
		t.wakeFlusher()
	}
	return err
}

// blindWrite is the unversioned op that writes v, empty or not (a nil
// CASOp.Value would delete).
func blindWrite(v json.RawMessage) CASOp {
	if v == nil {
		v = json.RawMessage{}
	}
	return CASOp{Expect: AnyVersion, Value: v, Write: true}
}

// Put stores value at key. In write-through mode it is one unconditional
// versioned commit (commitOps), whose backing write is synchronous; in
// write-behind mode the key is marked dirty for the flusher.
func (t *Table) Put(ctx context.Context, key string, value json.RawMessage) error {
	if t.isClosed() {
		return ErrClosed
	}
	// Cloned first on both paths, so the caller's bytes never escape
	// (an op's value does); the commit keeps this clone.
	val := append(json.RawMessage(nil), value...)
	if t.cfg.Mode == ModeWriteThrough {
		return t.commitOps(ctx, map[string]CASOp{key: blindWrite(val)}, true)
	}
	sh, err := t.lockKey(ctx, key)
	if err != nil {
		return err
	}
	wake := t.commit(sh, key, val)
	sh.mu.Unlock()
	if wake {
		t.wakeFlusher()
	}
	return nil
}

// Delete removes key from memory and, in persistent modes, from the
// backing store. The tombstone goes in first, and stays even when the
// backing delete fails, so the key reads deleted; the key is marked in
// flight until the backing delete has returned, so a write of it waits
// and cannot land in the store before the delete. A buffer's Delete
// first waits for the flush pass in flight and holds off the next until
// its backing delete has landed, so no batch taken before the delete
// lands the key after it; the tombstone then goes.
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
	sh, err := t.lockKey(ctx, key)
	if err != nil {
		return fmt.Errorf("memtable: delete: %w", err)
	}
	t.remove(sh, key)
	if t.cfg.Mode == ModeMemoryOnly {
		sh.mu.Unlock()
		return nil
	}
	mark := make(chan struct{})
	sh.inflight[key] = mark
	sh.mu.Unlock()
	if t.flightHook != nil {
		t.flightHook()
	}
	err = t.cfg.Backing.Delete(ctx, key)
	sh.mu.Lock()
	delete(sh.inflight, key)
	if err == nil && t.cfg.Buffer {
		delete(sh.data, key)
	}
	sh.mu.Unlock()
	close(mark)
	if err != nil {
		return fmt.Errorf("memtable: delete: %w", err)
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

// PutManyIfVersion atomically validates every op's expected version
// and, only if all match, commits the write ops (bumping each written
// key's version). It is the table-level realization of optimistic
// concurrency: the validation mirrors kvstore.CompareAndPut semantics
// (same ErrVersionMismatch sentinel) but runs at the cache — the
// serialization point every write already flows through — while
// persistence keeps the consolidated batch economics: write-through
// commits land as a single kvstore.BatchPut, and write-behind commits
// are picked up by the flusher's BatchPut.
//
// On ErrVersionMismatch nothing is committed. Deletes of write ops (nil
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
	return t.commitOps(ctx, ops, false)
}

// commitOps is the body of PutManyIfVersion and the table's one
// write-through exit: Put and PutMany of a write-through table come here
// with AnyVersion ops whose values the table owns (Put's clone, PutMany's
// own), so owned is true and the commit keeps those values;
// PutManyIfVersion's ops are the caller's, so their values are cloned
// (package doc). It locks every involved shard once no op key is marked
// in flight (lockUnmarked), and validates. A commit with no backing I/O —
// a write-behind one without deletes, or a memory-only one — then applies
// under those locks, paying nothing for marks.
//
// A commit with backing I/O marks its written keys in flight and
// unlocks: no shard mutex is held across backing I/O. Deletes go first
// (idempotent if a following put batch fails), then the write-through
// BatchPut. It then relocks, clears the marks and applies, or on failure
// applies nothing, versions unchanged, so the caller simply retries.
// While the marks stand, a same-key writer or reader waits on them, so
// no later commit of a key lands between this commit's memory state and
// its backing state — a delayed delete could otherwise erase a key a
// later commit had recreated and persisted.
//
// A write-behind delete of a key that is dirty or in the flush batch in
// flight may be overtaken in the store by that key's older value (a
// batch taken before the delete lands after it), so it is handed to the
// flusher's re-delete as well (shard.deleted).
func (t *Table) commitOps(ctx context.Context, ops map[string]CASOp, owned bool) error {
	if len(ops) == 0 {
		return nil
	}
	mask := t.opShardMask(ops)
	err := t.lockUnmarked(ctx, mask, func() chan struct{} {
		for k := range ops {
			if mark := t.shardFor(k).inflight[k]; mark != nil {
				return mark
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	persists := t.cfg.Mode != ModeMemoryOnly
	io := false
	for k, op := range ops {
		if op.Write && persists && (op.Value == nil || t.cfg.Mode == ModeWriteThrough) {
			io = true
		}
		if op.Expect == AnyVersion {
			continue
		}
		if cur := t.shardFor(k).data[k].ver; cur != op.Expect {
			t.unlockMask(mask)
			return fmt.Errorf("%w: key %q at version %d, expected %d",
				ErrVersionMismatch, k, cur, op.Expect)
		}
	}
	if !io {
		wake := t.apply(ops, nil, owned)
		t.unlockMask(mask)
		if wake {
			t.wakeFlusher()
		}
		return nil
	}
	mark := make(chan struct{})
	var redelete []string
	for k, op := range ops {
		if !op.Write {
			continue
		}
		sh := t.shardFor(k)
		sh.inflight[k] = mark
		if _, flushing := sh.flushing[k]; op.Value == nil && (flushing || sh.dirty[k]) {
			redelete = append(redelete, k)
		}
	}
	t.unlockMask(mask)
	puts, err := t.writeBacking(ctx, ops, owned)
	if t.flightHook != nil {
		t.flightHook()
	}
	t.lockMask(mask)
	wake := false
	if err == nil {
		wake = t.apply(ops, puts, owned)
		for _, k := range redelete {
			t.shardFor(k).deleted[k] = true
		}
	}
	for k, op := range ops {
		if op.Write {
			delete(t.shardFor(k).inflight, k)
		}
	}
	t.unlockMask(mask)
	close(mark)
	if wake {
		t.wakeFlusher()
	}
	return err
}

// writeBacking is a commit's backing I/O, run without shard locks:
// deletes first, then the write-through puts in one BatchPut. It returns
// the values it wrote (see keep) for apply.
func (t *Table) writeBacking(ctx context.Context, ops map[string]CASOp, owned bool) (map[string]json.RawMessage, error) {
	var puts map[string]json.RawMessage
	for k, op := range ops {
		switch {
		case !op.Write:
		case op.Value == nil:
			if err := t.cfg.Backing.Delete(ctx, k); err != nil {
				return nil, fmt.Errorf("memtable: delete: %w", err)
			}
		case t.cfg.Mode == ModeWriteThrough:
			if puts == nil {
				puts = make(map[string]json.RawMessage, len(ops))
			}
			puts[k] = keep(op.Value, owned)
		}
	}
	if len(puts) > 0 {
		if err := t.cfg.Backing.BatchPut(ctx, puts); err != nil {
			return nil, fmt.Errorf("memtable: batch write-through: %w", err)
		}
	}
	return puts, nil
}

// apply commits a validated commit's write ops in memory, reusing the
// values writeBacking wrote; it reports whether a shard now holds an
// early flush's worth. Callers hold the ops' shard locks.
func (t *Table) apply(ops map[string]CASOp, puts map[string]json.RawMessage, owned bool) (wake bool) {
	for k, op := range ops {
		if !op.Write {
			continue
		}
		sh := t.shardFor(k)
		if op.Value == nil {
			t.remove(sh, k)
			continue
		}
		v, written := puts[k]
		if !written {
			v = keep(op.Value, owned)
		}
		if t.commit(sh, k, v) {
			wake = true
		}
	}
	return wake
}

// keep returns the bytes a commit stores for an op's value: the value
// itself when the commit owns it, else a clone, since the caller's ops
// and values may be reused (package doc). An empty value is stored as
// nil either way.
func keep(v json.RawMessage, owned bool) json.RawMessage {
	if owned && len(v) > 0 {
		return v
	}
	return append(json.RawMessage(nil), v...)
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
// It drops each entry its batch landed that no newer write has dirtied
// and, in a cache, that no read has asked for. A pass that ctx ends
// before it starts does nothing.
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
			sh.shrink(len(sh.data), 0)
			sh.mu.Unlock()
			continue
		}
		batch := make(map[string]json.RawMessage, len(sh.dirty))
		for k := range sh.dirty {
			batch[k] = sh.data[k].val
		}
		sh.flushing = batch
		clear(sh.dirty)
		sh.mu.Unlock()
		err := t.cfg.Backing.BatchPut(ctx, batch) // a no-op when only re-deletes are due
		sh.mu.Lock()
		sh.flushing = nil
		peak, dropped := len(sh.data), false
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
			case t.cfg.Buffer || !sh.data[k].used:
				delete(sh.data, k) // landed and unread: the store answers for it now
				dropped = true
			}
		}
		if dropped {
			t.drops.Add(1)
		}
		sh.shrink(peak, len(batch))
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
