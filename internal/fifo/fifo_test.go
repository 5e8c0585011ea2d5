package fifo

import "testing"

// TestRingIsABoundedFIFO: the ring hands items out in the order they
// came, across wrap-arounds and growth, and a steady stream of push/pop
// cycles runs in the slots it already has — a pop gives up no capacity,
// so the next push does not reallocate. A burst past keep is released
// once it drains.
func TestRingIsABoundedFIFO(t *testing.T) {
	var r Ring[*int]
	// Item i is &items[i % len(items)]; FIFO means the k-th pop returns
	// item k.
	items := make([]int, 3*keep)
	pushed, popped := 0, 0
	push := func() {
		r.Push(&items[pushed%len(items)])
		pushed++
	}
	pop := func() {
		if r.Pop() != &items[popped%len(items)] {
			t.Fatalf("pop %d did not return item %d", popped, popped)
		}
		popped++
	}
	// Mixed depths: grow from empty, drain part way, wrap, grow again.
	for _, step := range []struct{ push, pop int }{{5, 3}, {9, 4}, {20, 17}, {3, 10}, {40, 1}, {0, 42}} {
		for range step.push {
			push()
		}
		for range step.pop {
			pop()
		}
		if r.Size() != pushed-popped {
			t.Fatalf("ring holds %d, want %d", r.Size(), pushed-popped)
		}
	}
	// Steady state three deep: 10 000 cycles in the slots it has.
	for range 3 {
		push()
	}
	size := len(r.buf)
	allocs := testing.AllocsPerRun(10_000, func() {
		push()
		pop()
	})
	if len(r.buf) != size || r.Size() != 3 {
		t.Fatalf("after 10 000 cycles the ring has %d slots holding %d, want %d holding 3", len(r.buf), r.Size(), size)
	}
	if allocs != 0 {
		t.Fatalf("a steady push/pop cycle allocates %.2f", allocs)
	}
	// A popped slot lets go of its item.
	for r.Size() > 0 {
		pop()
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds an item after it was popped", i)
		}
	}
	// A recovery-sized burst grows the ring; drained, it lets go.
	for range 2 * keep {
		push()
	}
	for r.Size() > 0 {
		pop()
	}
	if r.buf != nil {
		t.Fatalf("a drained ring keeps %d slots after a burst", len(r.buf))
	}
}
