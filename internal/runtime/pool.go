package runtime

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"

	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// This file holds the warm-path allocation machinery: per-window table
// keys and pooled per-invoke transients.
//
// The pooling contract is strict about what may cross the handler
// boundary. Handlers receive Task.State and return a delta map; either
// may be retained by a (buggy or abandoned) handler long after the
// invocation finished, so NOTHING handed to or received from a handler
// is ever pooled or reused — the state map is allocated fresh per
// attempt and the delta map stays owned by the handler (the table
// clones delta values at commit, see memtable.PutManyIfVersion).
// Only invocation-internal transients are pooled: the table-key
// buffer and slice, the versioned read-set map, the raw load map, the
// CAS op map and the commit's event batch, none of which a handler can
// observe. runtime's
// pool-aliasing race tests (pool_test.go) pin this boundary.

// keysFor builds the table key of every structured key of one object
// (aligned with ClassRuntime.stateSpecs) in the window's scratch. The
// keys are assembled in sc.keyBuf, converted once to a fresh immutable
// string, and returned as substrings of it in sc.keys — one allocation
// however many keys the class declares. The result is valid until sc is
// released. The conversion must stay a copy: the state table retains key
// strings past the window (first put of a key, read-through fills), so
// they may never alias the reused buffer.
func (rt *ClassRuntime) keysFor(objectID string, sc *invokeScratch) []string {
	buf := sc.keyBuf[:0]
	for _, k := range rt.stateSpecs {
		buf = append(buf, rt.statePrefix...)
		buf = append(buf, objectID...)
		buf = append(buf, '/')
		buf = append(buf, k.Name...)
	}
	sc.keyBuf = buf
	all := string(buf)
	keys := sc.keys[:0]
	for _, k := range rt.stateSpecs {
		n := len(rt.statePrefix) + len(objectID) + 1 + len(k.Name)
		keys = append(keys, all[:n])
		all = all[n:]
	}
	sc.keys = keys
	return keys
}

// invokeScratch pools the invocation-internal transients of one
// load→invoke→commit attempt. Every field stays inside the runtime:
// nothing here is ever reachable from a handler (see the file comment
// for the boundary contract).
type invokeScratch struct {
	// keyBuf is where keysFor assembles the object's table keys, keys
	// the slice it returns; both keep their capacity across windows.
	keyBuf []byte
	keys   []string
	// got receives the versioned table read (write windows).
	got map[string]memtable.VersionedValue
	// raw receives the unversioned table read (the readonly path).
	raw map[string]json.RawMessage
	// ops accumulates the commit's CAS operations. The memtable clones
	// written values and retains neither the map nor its CASOp
	// entries, so releasing after PutManyIfVersion returns is safe.
	ops map[string]memtable.CASOp
	// events is the commit's event batch (emit). Infra.Events copies
	// what it keeps, so the slice is reused once it returns.
	events []trigger.Event
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
	clear(sc.keys)
	clear(sc.got)
	clear(sc.raw)
	clear(sc.ops)
	clear(sc.events)
	sc.events = sc.events[:0]
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
