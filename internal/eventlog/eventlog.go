// Package eventlog implements the durable, replayable event log
// beneath the trigger subsystem: one append-only log per object with
// monotone 1-based offsets, written through to the backing document
// store before dispatch so every committed StateChanged and terminal
// invocation event survives process death.
//
// The log turns the event bus's sinks into cursor-based consumers:
// each (subscription, object) pair owns a durable cursor — the offset
// of the next undelivered entry — persisted write-behind through a
// memtable exactly like the async queue's invocation records. Losing a
// cursor write in a crash only widens redelivery (the consumer resumes
// from an older offset), never narrows it, so the delivery contract is
// at-least-once. The one synchronous exception is a cursor's first
// write: registration is flushed through immediately, so a consumer
// that ever activated cannot be orphaned by a crash.
//
// Retention is bounded one way: MaxPerObject caps each object's retained
// entries, and the oldest are evicted as new ones append. The background
// sweep deletes evicted entries' backing keys. Reading below the retained
// floor fails with ErrOffsetCompacted (HTTP 410 at the gateway).
//
// Ownership: an appended payload is held once. The bytes build returns
// become the retained Entry's Payload and, unchanged and uncopied, the
// document handed to the backing store (kvstore keeps the slice it is
// given), so build returns a buffer nobody writes to again — the bus
// passes json.Marshal output — and readers treat Payload as read-only.
// A bounds document is a fresh buffer too (metaDoc), written through
// internal/jsonw, byte for byte the json.Marshal of objMeta.
package eventlog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hpcclab/oparaca-go/internal/jsonw"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Sentinel errors.
var (
	// ErrOffsetCompacted is returned by Read when the requested offset
	// lies below the object's retained floor: the entries existed but
	// the size cap has evicted them.
	ErrOffsetCompacted = errors.New("eventlog: offset compacted")
)

// Entry is one appended event.
type Entry struct {
	// Offset is the entry's per-object position, 1-based and monotone.
	Offset int64 `json:"offset"`
	// Time is the append instant.
	Time time.Time `json:"time"`
	// Payload is the event JSON exactly as appended.
	Payload json.RawMessage `json:"payload"`
}

// Config sizes a Log.
type Config struct {
	// Backing is the document store appends write through to. Nil
	// keeps the log in memory only: offsets and replay work within the
	// process, nothing survives a restart.
	Backing *kvstore.Store
	// MaxPerObject caps each object's retained entries; the oldest are
	// evicted as new ones append. Defaults to 1024; negative disables
	// the cap.
	MaxPerObject int
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.MaxPerObject == 0 {
		c.MaxPerObject = 1024
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	return c
}

// gcInterval paces the background sweep that deletes the backing keys of
// size-evicted entries.
const gcInterval = 30 * time.Second

// objMeta is the persisted per-object bounds document: reloading it
// (rather than scanning entry keys alone) lets recovery distinguish an
// empty log from a fully compacted one.
type objMeta struct {
	// First is the oldest retained offset (== Next when empty).
	First int64 `json:"first"`
	// Next is the offset the next append receives.
	Next int64 `json:"next"`
}

// metaDoc renders the bounds document for first and next, byte for byte
// what encoding/json makes of objMeta{first, next}, through jsonw in one
// allocation: every append writes one.
func metaDoc(first, next int64) json.RawMessage {
	dst := append(make([]byte, 0, len(`{"first":,"next":}`)+2*len("-9223372036854775808")), '{')
	dst = strconv.AppendInt(jsonw.AppendKey(dst, "first"), first, 10)
	dst = strconv.AppendInt(jsonw.AppendKey(dst, "next"), next, 10)
	return append(dst, '}')
}

// objectLog is one object's in-memory log state. Entries are
// contiguous by offset — retention only ever trims the prefix — so
// reads index directly instead of searching.
type objectLog struct {
	mu      sync.Mutex
	loaded  bool
	next    int64
	entries []Entry
	// garbage holds backing keys of evicted entries awaiting deletion
	// by the background sweep (eviction itself must not pay a
	// per-entry delete on the append path).
	garbage []string
	// dropped marks a log that Drop emptied and unlinked from Log.objs.
	dropped bool
	// seeds are the cursors SeedCursor asked for during the append in
	// progress, registered only if the append lands.
	seeds []Cursor
}

// floor is the oldest retained offset (== next when empty). Callers
// hold ol.mu.
func (ol *objectLog) floor() int64 {
	if len(ol.entries) > 0 {
		return ol.entries[0].Offset
	}
	return ol.next
}

// Cursor names one durable consumer position.
type Cursor struct {
	// Subscription is the owning subscription's durable identity.
	Subscription string `json:"subscription"`
	// Object scopes the cursor to one object's log.
	Object string `json:"object"`
	// Next is the offset of the next undelivered entry.
	Next int64 `json:"next"`
}

// Log is the durable event log. It is safe for concurrent use.
type Log struct {
	cfg Config

	mu   sync.Mutex
	objs map[string]*objectLog

	// curs persists consumer cursors write-behind (memory-only when
	// the log has no backing); cursors mirrors it in plain maps so
	// reads, lag computation and recovery scans never pay table I/O.
	curs    *memtable.Table
	cursMu  sync.Mutex
	cursors map[string]map[string]int64 // subscription -> object -> next

	gcStop    chan struct{}
	gcDone    chan struct{}
	closeOnce sync.Once

	statsMu  sync.Mutex
	appended int64
	replayed int64
}

// New builds a log and starts its background sweep.
func New(cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	tblCfg := memtable.Config{
		Mode:    memtable.ModeWriteBehind,
		Backing: cfg.Backing,
		Clock:   cfg.Clock,
	}
	if cfg.Backing == nil {
		tblCfg.Mode = memtable.ModeMemoryOnly
	}
	curs, err := memtable.New(tblCfg)
	if err != nil {
		return nil, fmt.Errorf("eventlog: cursor table: %w", err)
	}
	l := &Log{
		cfg:     cfg,
		objs:    make(map[string]*objectLog),
		curs:    curs,
		cursors: make(map[string]map[string]int64),
		gcStop:  make(chan struct{}),
		gcDone:  make(chan struct{}),
	}
	// Every begun log has a persisted bounds document; registering them
	// (unloaded) here lets absence from objs mean "never begun".
	if cfg.Backing != nil {
		keys, err := cfg.Backing.List(context.Background(), "evmeta/")
		if err != nil {
			curs.Close()
			return nil, fmt.Errorf("eventlog: listing begun logs: %w", err)
		}
		for _, k := range keys {
			l.objs[strings.TrimPrefix(k, "evmeta/")] = &objectLog{next: 1}
		}
	}
	go l.gcLoop()
	return l, nil
}

// Persistence keys. Offsets are fixed-width hex so List returns entry
// keys in offset order; object IDs cannot contain '/', so the last
// separator in a cursor key unambiguously splits subscription from
// object even though subscription identities may contain '/'.
func entryKey(object string, off int64) string {
	// Hand-rolled %016x: entryKey runs once per appended event on the
	// commit path, and fmt's reflection pass costs several allocations
	// where this costs exactly the result string.
	const hexDigits = "0123456789abcdef"
	var hex [16]byte
	u := uint64(off)
	for i := 15; i >= 0; i-- {
		hex[i] = hexDigits[u&0xf]
		u >>= 4
	}
	var b strings.Builder
	b.Grow(len("evlog/") + len(object) + 1 + len(hex))
	b.WriteString("evlog/")
	b.WriteString(object)
	b.WriteByte('/')
	b.Write(hex[:])
	return b.String()
}
func metaKey(object string) string        { return "evmeta/" + object }
func cursorKey(sub, object string) string { return "evcursor/" + sub + "/" + object }

// lockForAppend returns one object's log with its lock held, creating
// it loaded and empty: New registered every object with persisted
// bounds and Drop deletes them, so there is nothing to recover.
func (l *Log) lockForAppend(object string) *objectLog {
	for {
		l.mu.Lock()
		ol, ok := l.objs[object]
		if !ok {
			ol = &objectLog{next: 1, loaded: true}
			l.objs[object] = ol
		}
		l.mu.Unlock()
		ol.mu.Lock()
		if !ol.dropped {
			return ol
		}
		ol.mu.Unlock() // unlinked by Drop while we waited; take its successor
	}
}

// peek returns an object's log, or nil when it never began: readers
// then answer [1, 1) with no entry, per-object lock or store read.
func (l *Log) peek(object string) *objectLog {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.objs[object]
}

// load lazily recovers an object's retained entries and bounds from
// the backing store. Callers hold ol.mu.
func (l *Log) load(ctx context.Context, object string, ol *objectLog) error {
	if ol.loaded {
		return nil
	}
	doc, err := l.cfg.Backing.Get(ctx, metaKey(object))
	if errors.Is(err, kvstore.ErrNotFound) {
		ol.loaded = true
		return nil
	}
	if err != nil {
		return fmt.Errorf("eventlog: loading %s meta: %w", object, err)
	}
	var meta objMeta
	if err := json.Unmarshal(doc.Value, &meta); err != nil {
		return fmt.Errorf("eventlog: corrupt %s meta: %w", object, err)
	}
	prefix := "evlog/" + object + "/"
	keys, err := l.cfg.Backing.List(ctx, prefix)
	if err != nil {
		return fmt.Errorf("eventlog: listing %s entries: %w", object, err)
	}
	var live []string
	offsets := make([]int64, 0, len(keys))
	for _, k := range keys {
		off, perr := strconv.ParseInt(k[len(prefix):], 16, 64)
		if perr != nil || off < meta.First || off >= meta.Next {
			// Below the persisted floor: evicted but not yet deleted
			// when the process died. Re-queue for the sweep.
			ol.garbage = append(ol.garbage, k)
			continue
		}
		live = append(live, k)
		offsets = append(offsets, off)
	}
	docs, err := l.cfg.Backing.BatchGet(ctx, live)
	if err != nil {
		return fmt.Errorf("eventlog: loading %s entries: %w", object, err)
	}
	entries := make([]Entry, 0, len(live))
	for i, k := range live {
		d, ok := docs[k]
		if !ok {
			continue
		}
		entries = append(entries, Entry{Offset: offsets[i], Time: d.Updated, Payload: d.Value})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Offset < entries[j].Offset })
	// Keep the longest contiguous suffix: a hole (an entry write lost
	// to a backing fault) must not break the direct-index invariant,
	// so everything below the hole is treated as compacted. A log whose
	// entry writes were all lost has no entries at all.
	lo := max(len(entries)-1, 0)
	for lo > 0 && entries[lo-1].Offset == entries[lo].Offset-1 {
		lo--
	}
	for _, e := range entries[:lo] {
		ol.garbage = append(ol.garbage, entryKey(object, e.Offset))
	}
	ol.entries = entries[lo:]
	ol.next = meta.Next
	ol.loaded = true
	return nil
}

// Drop discards an object's log when the object itself is deleted:
// in-memory state is removed and persisted entries and bounds are
// deleted from the backing store, so a later object reusing the ID
// starts a fresh log at offset 1 instead of resurrecting the old one.
// Stored cursors pointing at the dropped log are left in place — they
// read as zero lag against an empty log and are rewritten on the
// consumer's next delivery. A log that never began has nothing in
// memory or in the store, and dropping it touches neither.
func (l *Log) Drop(ctx context.Context, object string) error {
	ol := l.peek(object)
	if ol == nil {
		return nil
	}
	// Under the object's lock, so a racing append lands wholly before
	// the drop (and is deleted) or after it, in a fresh log. The entry
	// leaves objs only once its bounds are gone: a failed drop retries.
	ol.mu.Lock()
	defer ol.mu.Unlock()
	if l.cfg.Backing != nil {
		keys, err := l.cfg.Backing.List(ctx, "evlog/"+object+"/")
		if err != nil {
			return fmt.Errorf("eventlog: listing %s entries: %w", object, err)
		}
		for _, k := range append(keys, metaKey(object)) {
			if err := l.cfg.Backing.Delete(ctx, k); err != nil && !errors.Is(err, kvstore.ErrNotFound) {
				return fmt.Errorf("eventlog: dropping %s: %w", object, err)
			}
		}
	}
	ol.entries, ol.garbage, ol.next, ol.loaded, ol.dropped = nil, nil, 1, true, true
	l.mu.Lock()
	delete(l.objs, object)
	l.mu.Unlock()
	return nil
}

// Append appends one entry to an object's log. build receives the
// assigned offset and returns the payload to store — the caller stamps
// the offset into the event before marshaling, so the persisted JSON
// carries its own log position. The entry is durable in the backing
// store before Append returns.
func (l *Log) Append(ctx context.Context, object string, build func(offset int64) (json.RawMessage, error)) (int64, error) {
	return l.AppendBatch(ctx, object, 1, func(_ int, off int64) (json.RawMessage, error) {
		return build(off)
	})
}

// AppendBatch appends n entries to one object's log in a single
// backing write: the group-commit path publishes every event of a
// coalesced invocation batch at the cost of roughly one write
// operation instead of n. It returns the first assigned offset; the
// i-th entry holds offset first+i. Nothing is appended on error, and
// no cursor build seeded (SeedCursor) is registered.
func (l *Log) AppendBatch(ctx context.Context, object string, n int, build func(i int, offset int64) (json.RawMessage, error)) (int64, error) {
	if n <= 0 {
		return 0, nil
	}
	ol := l.lockForAppend(object)
	defer ol.mu.Unlock()
	defer func() { ol.seeds = nil }()
	if err := l.load(ctx, object, ol); err != nil {
		return 0, err
	}
	first := ol.next
	now := l.cfg.Clock.Now()
	var batch map[string]json.RawMessage
	if l.cfg.Backing != nil {
		batch = make(map[string]json.RawMessage, n+1)
	}
	// The new entries go straight onto the retained ones, past the end
	// ol.entries shows: nothing reads there, ol.entries takes them in
	// only once the backing write has landed, and a failure clears them.
	grown := ol.entries
	for i := 0; i < n; i++ {
		off := first + int64(i)
		payload, err := build(i, off)
		if err != nil {
			clear(grown[len(ol.entries):])
			return 0, err
		}
		grown = append(grown, Entry{Offset: off, Time: now, Payload: payload})
		if batch != nil {
			batch[entryKey(object, off)] = payload
		}
	}
	entries, evicted := grown, []Entry(nil)
	if max := l.cfg.MaxPerObject; max > 0 && len(entries) > max {
		evicted = entries[:len(entries)-max]
		entries = entries[len(entries)-max:]
	}
	if batch != nil {
		floor := ol.next + int64(n)
		if len(entries) > 0 {
			floor = entries[0].Offset
		}
		batch[metaKey(object)] = metaDoc(floor, first+int64(n))
		// Durability before dispatch: the batch (entries plus bounds)
		// lands before the in-memory log advances, so a failed write
		// leaves no hole and an appended event can never be lost to a
		// crash.
		if err := l.cfg.Backing.BatchPut(ctx, batch); err != nil {
			clear(grown[len(ol.entries):])
			return 0, fmt.Errorf("eventlog: appending to %s: %w", object, err)
		}
		for _, e := range evicted {
			ol.garbage = append(ol.garbage, entryKey(object, e.Offset))
		}
	}
	ol.entries = entries
	ol.next = first + int64(n)
	l.statsMu.Lock()
	l.appended += int64(n)
	l.statsMu.Unlock()
	for _, c := range ol.seeds {
		// A failed write leaves the cursor in memory, as SetCursor does.
		_ = l.SetCursor(ctx, c.Subscription, object, c.Next)
	}
	return first, nil
}

// Read returns up to max retained entries of one object starting at
// offset from (1-based; <=0 reads from the start, max<=0 is
// unlimited). Reading below the retained floor fails with
// ErrOffsetCompacted; reading at or past the end returns an empty
// slice.
func (l *Log) Read(ctx context.Context, object string, from int64, max int) ([]Entry, error) {
	if from <= 0 {
		from = 1
	}
	ol := l.peek(object)
	if ol == nil {
		return nil, nil
	}
	ol.mu.Lock()
	defer ol.mu.Unlock()
	if err := l.load(ctx, object, ol); err != nil {
		return nil, err
	}
	floor := ol.floor()
	if from < floor {
		return nil, fmt.Errorf("%w: %s offset %d is below the retained floor %d", ErrOffsetCompacted, object, from, floor)
	}
	if from >= ol.next {
		return nil, nil
	}
	idx := int(from - floor)
	out := ol.entries[idx:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	res := make([]Entry, len(out))
	copy(res, out)
	l.statsMu.Lock()
	l.replayed += int64(len(res))
	l.statsMu.Unlock()
	return res, nil
}

// Bounds returns an object's retained floor and next-append offset
// (replayable entries are [first, next)).
func (l *Log) Bounds(ctx context.Context, object string) (first, next int64, err error) {
	ol := l.peek(object)
	if ol == nil {
		return 1, 1, nil
	}
	ol.mu.Lock()
	defer ol.mu.Unlock()
	if err := l.load(ctx, object, ol); err != nil {
		return 0, 0, err
	}
	return ol.floor(), ol.next, nil
}

// Begun reports whether an object's log has ever recorded an entry
// (next > 1). The answer is durable — it comes from the persisted
// bounds document, so it survives restart, eviction and Kill — and it never turns false again short of Drop. It never
// reads the store: a log that never began is absent, and one New
// registered from its bounds document has begun whether or not its
// entries are loaded yet, since only an append persists bounds.
func (l *Log) Begun(_ context.Context, object string) (bool, error) {
	ol := l.peek(object)
	if ol == nil {
		return false, nil
	}
	ol.mu.Lock()
	defer ol.mu.Unlock()
	return !ol.loaded || ol.next > 1, nil
}

// Cursor returns a consumer's stored position (ok=false when the
// consumer has never registered).
func (l *Log) Cursor(sub, object string) (int64, bool) {
	l.cursMu.Lock()
	defer l.cursMu.Unlock()
	next, ok := l.cursors[sub][object]
	return next, ok
}

// SetCursor stores a consumer's next undelivered offset. Advances are
// write-behind (a crash loses at most a flush interval of progress and
// only widens redelivery), but a cursor's FIRST write is flushed
// through synchronously: registration must be durable immediately so a
// consumer that activated before a crash is found by recovery.
func (l *Log) SetCursor(ctx context.Context, sub, object string, next int64) error {
	l.cursMu.Lock()
	m, ok := l.cursors[sub]
	if !ok {
		m = make(map[string]int64)
		l.cursors[sub] = m
	}
	_, existed := m[object]
	m[object] = next
	l.cursMu.Unlock()
	if err := l.curs.Put(ctx, cursorKey(sub, object), json.RawMessage(strconv.FormatInt(next, 10))); err != nil {
		return err
	}
	if !existed {
		l.curs.Flush(ctx)
	}
	return nil
}

// SeedCursor asks for a consumer of object to start at next, unless it
// already has a cursor. Call it only from the build callback of an
// AppendBatch on object: the append holds the object's order, so of two
// appends the lower offsets seed first, and the cursor is registered —
// with SetCursor, after the entries landed — only if the append lands,
// so no cursor waits on an entry that was never written.
func (l *Log) SeedCursor(sub, object string, next int64) {
	if _, ok := l.Cursor(sub, object); ok {
		return
	}
	ol := l.peek(object) // locked by the append that called build
	for _, c := range ol.seeds {
		if c.Subscription == sub {
			return
		}
	}
	ol.seeds = append(ol.seeds, Cursor{Subscription: sub, Object: object, Next: next})
}

// LoadCursors recovers every persisted cursor from the backing store
// into the in-memory mirror. The platform calls it once at startup,
// before any subscription registers.
func (l *Log) LoadCursors(ctx context.Context) error {
	if l.cfg.Backing == nil {
		return nil
	}
	keys, err := l.cfg.Backing.List(ctx, "evcursor/")
	if err != nil {
		return fmt.Errorf("eventlog: listing cursors: %w", err)
	}
	if len(keys) == 0 {
		return nil
	}
	docs, err := l.cfg.Backing.BatchGet(ctx, keys)
	if err != nil {
		return fmt.Errorf("eventlog: loading cursors: %w", err)
	}
	l.cursMu.Lock()
	defer l.cursMu.Unlock()
	for _, k := range keys {
		rest := strings.TrimPrefix(k, "evcursor/")
		i := strings.LastIndex(rest, "/")
		if i <= 0 {
			continue
		}
		doc, ok := docs[k]
		if !ok {
			continue
		}
		next, perr := strconv.ParseInt(strings.TrimSpace(string(doc.Value)), 10, 64)
		if perr != nil || next <= 0 {
			continue
		}
		sub, object := rest[:i], rest[i+1:]
		m, ok := l.cursors[sub]
		if !ok {
			m = make(map[string]int64)
			l.cursors[sub] = m
		}
		m[object] = next
	}
	return nil
}

// CursorsFor returns a copy of one subscription's cursors
// (object -> next undelivered offset).
func (l *Log) CursorsFor(sub string) map[string]int64 {
	l.cursMu.Lock()
	defer l.cursMu.Unlock()
	m := l.cursors[sub]
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// CursorLag sums a subscription's undelivered backlog (log end minus
// cursor) across objects whose logs are in memory. Objects not yet
// touched since startup report zero; the recovery scan loads every
// object a cursor points at, so post-recovery lag is complete.
func (l *Log) CursorLag(sub string) int64 {
	var lag int64
	for object, next := range l.CursorsFor(sub) {
		ol := l.peek(object)
		if ol == nil {
			continue
		}
		ol.mu.Lock()
		if ol.loaded && ol.next > next {
			lag += ol.next - next
		}
		ol.mu.Unlock()
	}
	return lag
}

// gcLoop runs the sweep until Close.
func (l *Log) gcLoop() {
	defer close(l.gcDone)
	for {
		select {
		case <-l.gcStop:
			return
		case <-l.cfg.Clock.After(gcInterval):
		}
		l.Compact(context.Background())
	}
}

// Compact runs one sweep: the backing keys of entries the size cap
// evicted are deleted. A key whose delete fails is kept for the next
// sweep.
func (l *Log) Compact(ctx context.Context) {
	l.mu.Lock()
	objects := make([]string, 0, len(l.objs))
	for object := range l.objs {
		objects = append(objects, object)
	}
	l.mu.Unlock()
	for _, object := range objects {
		ol := l.peek(object)
		if ol == nil {
			continue
		}
		ol.mu.Lock()
		garbage := ol.garbage
		ol.garbage = nil
		ol.mu.Unlock()
		for _, k := range garbage {
			if err := l.cfg.Backing.Delete(ctx, k); err != nil && !errors.Is(err, kvstore.ErrNotFound) {
				ol.mu.Lock()
				ol.garbage = append(ol.garbage, k)
				ol.mu.Unlock()
			}
		}
	}
}

// Stats is a point-in-time log snapshot.
type Stats struct {
	// Appended counts entries appended since New.
	Appended int64 `json:"appended"`
	// Replayed counts entries returned by Read.
	Replayed int64 `json:"replayed"`
	// Objects counts objects whose log has begun, loaded or not.
	Objects int `json:"objects"`
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	objects := len(l.objs)
	l.mu.Unlock()
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	return Stats{Appended: l.appended, Replayed: l.replayed, Objects: objects}
}

// Close stops the sweep and flushes pending cursor writes through to
// the backing store. Idempotent.
func (l *Log) Close() {
	l.shutdown(false)
}

// Kill stops the sweep and abandons the cursor table WITHOUT its final
// flush, modeling process death: write-behind cursor advances that
// have not flushed yet are lost, exactly what a crash loses (and what
// redelivery then covers). Entry appends need no kill path — they are
// write-through and already durable.
func (l *Log) Kill() {
	l.shutdown(true)
}

func (l *Log) shutdown(kill bool) {
	l.closeOnce.Do(func() {
		close(l.gcStop)
		<-l.gcDone
		if kill {
			l.curs.Kill()
			return
		}
		l.curs.Close()
	})
}
