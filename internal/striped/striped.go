// Package striped provides a fixed-size table of reader/writer mutexes
// indexed by string hash. It gives per-key exclusion without a lock
// object per key: two distinct keys contend only when they hash to the
// same stripe, and memory stays constant no matter how many keys exist.
//
// The class runtime uses a stripe table keyed by object ID to guard the
// load→run→commit window of invocations on one object (fixing the
// read-modify-write lost-update race) while invocations on distinct
// objects proceed fully in parallel.
package striped

import (
	"hash/fnv"
	"sync"
)

// DefaultStripes is the stripe count used when NewRW is given a
// non-positive size. 256 stripes keep false contention negligible for
// working sets well into the thousands of hot keys.
const DefaultStripes = 256

// RWMutexes is a striped reader/writer lock table: the shape the class
// runtime uses as its per-object window guard, where optimistic
// invocations of one object hold the stripe shared while serialized
// ones and administrative operations (object delete, state init) take
// it exclusive and so wait out every in-flight invocation. The zero
// value is not usable; use NewRW.
type RWMutexes struct {
	stripes []sync.RWMutex
	mask    uint32
}

// NewRW returns a table with at least n stripes, rounded up to the next
// power of two so stripe selection is a mask instead of a modulo.
// Non-positive n selects DefaultStripes.
func NewRW(n int) *RWMutexes {
	if n <= 0 {
		n = DefaultStripes
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &RWMutexes{stripes: make([]sync.RWMutex, size), mask: uint32(size - 1)}
}

// Len returns the stripe count.
func (m *RWMutexes) Len() int { return len(m.stripes) }

// For returns the reader/writer mutex guarding key. All keys hashing to
// the same stripe share one mutex, so holders must not acquire a second
// stripe while holding one (lock ordering across stripes is undefined);
// additionally, a goroutine must not re-acquire a stripe's read side
// while holding it if a writer could be queued in between
// (sync.RWMutex readers block behind pending writers).
func (m *RWMutexes) For(key string) *sync.RWMutex {
	return &m.stripes[m.Index(key)]
}

// Index returns the stripe index For resolves key to, so callers can
// align per-stripe side tables (contention trackers, counters) with
// the lock stripes while hashing the key once.
func (m *RWMutexes) Index(key string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return h.Sum32() & m.mask
}

// At returns the mutex of a stripe index previously obtained from
// Index.
func (m *RWMutexes) At(i uint32) *sync.RWMutex { return &m.stripes[i] }
