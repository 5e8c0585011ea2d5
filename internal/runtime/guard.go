package runtime

import (
	"context"
	"sync"
)

// guardStripes sizes the per-object guard table. 1024 stripes keep the
// per-pair collision probability at ~0.1%, so false serialization
// between distinct hot objects is rare and transient.
const guardStripes = 1024

// objectGuard is one stripe of a class runtime's per-object window
// guard, striped by object ID: two distinct objects contend only on a
// stripe collision, trading a bounded chance of transient false sharing
// for constant memory. A write window holds its object's stripe from
// load to commit on the side its regime names (window.go): shared
// windows interleave with each other, exclusive ones queue.
// InitObjectState and DeleteObjectState take it exclusive, so a delete
// waits out every in-flight window and no commit retry can resurrect a
// deleted object. The stripe also carries its objects' contention
// tracker, so one hash finds both.
//
// It is a reader/writer lock whose waiters park on channels, in FIFO
// order, a reader queueing behind a queued writer as with
// sync.RWMutex. Unlike sync.RWMutex, a wait ends when the caller's
// context does: an invocation queued behind a slow holder fails at its
// own deadline, and a same-class nested call that would deadlock ends
// there too. Its mutex is held only to update the stripe's state, never
// across a wait. That rule is checked dynamically, not by a lint: the
// Figure 3 gate (internal/experiment's bubble_test.go) runs in synctest
// bubbles, whose clock stands still while any goroutine is blocked on a
// mutex, so it hangs if a lock is held across a clock wait.
//
// The uncontended path allocates nothing. A contended wait takes a
// waiter from the stripe's free list, allocating only when more callers
// wait on the stripe at once than ever before.
type objectGuard struct {
	mu      sync.Mutex
	readers int32 // shared holders
	writer  bool  // an exclusive holder
	// head and tail are the FIFO of parked waiters; free is the list of
	// spare ones. Each waiter's channel is the stripe's own, so a
	// runtime built in a synctest bubble parks on a channel of its bubble.
	head, tail, free *guardWaiter

	contention contentionTracker
}

// guardWaiter is one parked caller: granted is set, and ready sent
// once, when the stripe hands it the side it asked for.
type guardWaiter struct {
	ready     chan struct{}
	exclusive bool
	granted   bool
	next      *guardWaiter
}

// guardFor returns the guard stripe of an object.
func (rt *ClassRuntime) guardFor(objectID string) *objectGuard {
	// FNV-1a, inlined so hashing the ID allocates nothing.
	h := uint32(2166136261)
	for i := 0; i < len(objectID); i++ {
		h ^= uint32(objectID[i])
		h *= 16777619
	}
	return &rt.guards[h%guardStripes]
}

// Lock takes the stripe exclusive, waiting behind every holder and every
// earlier waiter. It returns ctx's error, holding nothing, if ctx ends
// first.
func (g *objectGuard) Lock(ctx context.Context) error {
	g.mu.Lock()
	if !g.writer && g.readers == 0 && g.head == nil {
		g.writer = true
		g.mu.Unlock()
		return nil
	}
	return g.wait(ctx, true)
}

// RLock takes the stripe shared. It waits while a writer holds the
// stripe or any caller is queued before it; it returns ctx's error,
// holding nothing, if ctx ends first.
func (g *objectGuard) RLock(ctx context.Context) error {
	g.mu.Lock()
	if !g.writer && g.head == nil {
		g.readers++
		g.mu.Unlock()
		return nil
	}
	return g.wait(ctx, false)
}

// Unlock releases an exclusive hold.
func (g *objectGuard) Unlock() {
	g.mu.Lock()
	g.writer = false
	g.grant()
	g.mu.Unlock()
}

// RUnlock releases a shared hold.
func (g *objectGuard) RUnlock() {
	g.mu.Lock()
	g.readers--
	g.grant()
	g.mu.Unlock()
}

// wait parks the caller at the tail of the queue until it is granted
// its side or ctx ends. Callers hold g.mu, which wait releases.
func (g *objectGuard) wait(ctx context.Context, exclusive bool) error {
	w := g.free
	if w != nil {
		g.free = w.next
		w.next = nil
	} else {
		w = &guardWaiter{ready: make(chan struct{}, 1)}
	}
	w.exclusive, w.granted = exclusive, false
	if g.tail == nil {
		g.head = w
	} else {
		g.tail.next = w
	}
	g.tail = w
	g.mu.Unlock()

	select {
	case <-w.ready:
		g.mu.Lock()
		g.release(w)
		g.mu.Unlock()
		return nil
	case <-ctx.Done():
	}
	g.mu.Lock()
	if w.granted {
		// Granted as ctx ended: hand the side on.
		<-w.ready
		if exclusive {
			g.writer = false
		} else {
			g.readers--
		}
	} else {
		g.unqueue(w)
	}
	g.grant()
	g.release(w)
	g.mu.Unlock()
	return ctx.Err()
}

// grant hands the stripe to the waiters at the head of the queue that
// can hold it now: one writer, or every reader up to the next writer.
// Callers hold g.mu.
func (g *objectGuard) grant() {
	for w := g.head; w != nil; w = g.head {
		if w.exclusive {
			if g.writer || g.readers > 0 {
				return
			}
			g.writer = true
		} else {
			if g.writer {
				return
			}
			g.readers++
		}
		g.head = w.next
		if g.head == nil {
			g.tail = nil
		}
		w.next, w.granted = nil, true
		w.ready <- struct{}{}
	}
}

// unqueue removes a waiter that was never granted. Callers hold g.mu.
func (g *objectGuard) unqueue(w *guardWaiter) {
	var prev *guardWaiter
	for cur := g.head; cur != w; cur = cur.next {
		prev = cur
	}
	if prev == nil {
		g.head = w.next
	} else {
		prev.next = w.next
	}
	if g.tail == w {
		g.tail = prev
	}
	w.next = nil
}

// release puts a waiter back on the free list. Callers hold g.mu.
func (g *objectGuard) release(w *guardWaiter) {
	w.next = g.free
	g.free = w
}
