// Package fifo holds Ring, the first-in first-out queue the event bus's
// delivery pool and the async queue's workers take their work from.
package fifo

// Ring is a first-in first-out queue on a ring buffer that doubles when
// full, so a Pop gives up no capacity and the steady state pushes into
// slots already paid for. Its size follows the deepest backlog it held;
// one grown past keep slots by a burst is released once it drains. The
// zero Ring is empty and ready to use. It is not safe for concurrent
// use: its owner guards it.
type Ring[T any] struct {
	buf     []T
	head, n int
}

// keep is the most slots a drained Ring keeps.
const keep = 1024

// Size is the number of items in the ring. (Not Len: archtest's
// exported-has-a-caller ledger matches callers by name, and a Len called
// here would hide the Len methods only tests call.)
func (r *Ring[T]) Size() int { return r.n }

// Push adds v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(2*len(r.buf), 8))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// Pop removes the oldest item and returns it; the ring must not be
// empty. The slot it leaves holds nothing the item referred to.
func (r *Ring[T]) Pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	if r.n == 0 && len(r.buf) > keep {
		*r = Ring[T]{}
	}
	return v
}
