package runtime

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"

	"github.com/hpcclab/oparaca-go/internal/memtable"
)

// This file holds the warm-path allocation machinery: precomputed
// per-object key slices and pooled per-invoke transients.
//
// The pooling contract is strict about what may cross the handler
// boundary. Handlers receive Task.State and return a delta map; either
// may be retained by a (buggy or abandoned) handler long after the
// invocation finished, so NOTHING handed to or received from a handler
// is ever pooled or reused — the state map is allocated fresh per
// attempt and the delta map stays owned by the handler (the table
// clones delta values at commit, see memtable.PutManyIfVersion).
// Only invocation-internal transients are pooled: the versioned
// read-set map, the raw load map, and the CAS op map, none of which a
// handler can observe. runtime's pool-aliasing race tests
// (pool_test.go) pin this boundary.

// maxKeyCacheObjects bounds the per-object key cache. Hitting the
// bound resets the whole cache (entries are cheap to regenerate); the
// bound matches the presign cache's sizing rationale.
const maxKeyCacheObjects = 8192

// objectKeys is one object's precomputed table keys: the state-table
// key of every structured key (aligned with ClassRuntime.stateSpecs)
// plus a by-name index covering every declared key. Both are immutable
// after construction — keys derive only from the class and object
// names — so lookups are lock-free and never invalidated.
type objectKeys struct {
	// keys[i] is the table key of stateSpecs[i].
	keys []string
	// byName maps a structured key name to its table key. Membership
	// doubles as the "in the versioned snapshot" test, so file keys are
	// deliberately absent (a file key written as state takes the
	// unconditional-write fallback path).
	byName map[string]string
}

// keysFor returns the object's precomputed table keys, building and
// caching them on first use.
func (rt *ClassRuntime) keysFor(objectID string) *objectKeys {
	if v, ok := rt.keyCache.Load(objectID); ok {
		return v.(*objectKeys)
	}
	ok2 := &objectKeys{
		keys:   make([]string, len(rt.stateSpecs)),
		byName: make(map[string]string, len(rt.stateSpecs)),
	}
	for i, k := range rt.stateSpecs {
		ok2.keys[i] = rt.stateKey(objectID, k.Name)
		ok2.byName[k.Name] = ok2.keys[i]
	}
	// The size bound is approximate under concurrent fills (the
	// counter can overshoot by in-flight builders); a wholesale reset
	// only costs regeneration, never correctness.
	if rt.keyCacheLen.Add(1) > maxKeyCacheObjects {
		rt.keyCache.Clear()
		rt.keyCacheLen.Store(1)
	}
	if prev, loaded := rt.keyCache.LoadOrStore(objectID, ok2); loaded {
		return prev.(*objectKeys)
	}
	return ok2
}

// invokeScratch pools the invocation-internal maps of one
// load→invoke→commit attempt. Every field stays inside the runtime:
// nothing here is ever reachable from a handler (see the file comment
// for the boundary contract).
type invokeScratch struct {
	// got receives the versioned table read (write windows).
	got map[string]memtable.VersionedValue
	// raw receives the unversioned table read (the readonly path).
	raw map[string]json.RawMessage
	// ops accumulates the commit's CAS operations. The memtable clones
	// written values and retains neither the map nor its CASOp
	// entries, so releasing after PutManyIfVersion returns is safe.
	ops map[string]memtable.CASOp
}

var scratchPool = sync.Pool{New: func() any {
	return &invokeScratch{
		got: make(map[string]memtable.VersionedValue, 8),
		raw: make(map[string]json.RawMessage, 8),
		ops: make(map[string]memtable.CASOp, 16),
	}
}}

// getScratch takes a scratch from the pool. Callers must release() on
// every exit path (commit, abort, error, deadline, panic unwind — a
// deferred release covers them all).
func getScratch() *invokeScratch {
	return scratchPool.Get().(*invokeScratch)
}

// release clears the scratch and returns it to the pool.
func (sc *invokeScratch) release() {
	clear(sc.got)
	clear(sc.raw)
	clear(sc.ops)
	scratchPool.Put(sc)
}

// buildTaskID assembles "object/fn#seq36" in a single allocation.
func buildTaskID(objectID, fn string, seq uint64) string {
	var b strings.Builder
	b.Grow(len(objectID) + len(fn) + 16)
	b.WriteString(objectID)
	b.WriteByte('/')
	b.WriteString(fn)
	b.WriteByte('#')
	var buf [13]byte // 64 bits in base 36
	b.Write(strconv.AppendUint(buf[:0], seq, 36))
	return b.String()
}
