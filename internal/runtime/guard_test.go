package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/israce"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// parkedCtx closes parked the first time its Done channel is asked for.
// On the paths these tests drive nothing asks before a guard parks the
// caller, so parked says the caller is queued.
type parkedCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func newParkedCtx(ctx context.Context) *parkedCtx {
	return &parkedCtx{Context: ctx, parked: make(chan struct{})}
}

func (c *parkedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// contentionFor returns the contention tracker of an object's stripe.
func (rt *ClassRuntime) contentionFor(objectID string) *contentionTracker {
	return &rt.guardFor(objectID).contention
}

// awaitParked waits until c's caller is queued.
func awaitParked(t *testing.T, c *parkedCtx) {
	t.Helper()
	select {
	case <-c.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the caller never waited on its context")
	}
}

// TestGuardForIsStableAndInRange: an object always resolves to the same
// stripe, and that stripe is one of the table's.
func TestGuardForIsStableAndInRange(t *testing.T) {
	rt := &ClassRuntime{guards: new([guardStripes]objectGuard)}
	for i := 0; i < 4*guardStripes; i++ {
		id := fmt.Sprintf("obj-%05d", i)
		g := rt.guardFor(id)
		if g != rt.guardFor(id) {
			t.Fatalf("guardFor(%q) not stable", id)
		}
		if !inTable(rt, g) {
			t.Fatalf("guardFor(%q) is not a stripe of the table", id)
		}
	}
}

// inTable reports whether g is one of rt's guard stripes.
func inTable(rt *ClassRuntime, g *objectGuard) bool {
	for i := range rt.guards {
		if g == &rt.guards[i] {
			return true
		}
	}
	return false
}

// TestGuardDistinctObjectsSpreadAcrossStripes: distinct objects spread
// over the table.
func TestGuardDistinctObjectsSpreadAcrossStripes(t *testing.T) {
	rt := &ClassRuntime{guards: new([guardStripes]objectGuard)}
	seen := make(map[*objectGuard]bool)
	for i := 0; i < 4*guardStripes; i++ {
		seen[rt.guardFor(fmt.Sprintf("obj-%05d", i))] = true
	}
	// 4096 objects over 1024 stripes leave ~2% of them empty; demand
	// half to keep the bound robust.
	if len(seen) < guardStripes/2 {
		t.Fatalf("%d objects landed on only %d/%d stripes", 4*guardStripes, len(seen), guardStripes)
	}
}

// TestGuardSameObjectSameStripe: one object ID, however its string was
// built, resolves to one stripe, and its contention tracker is that
// stripe's.
func TestGuardSameObjectSameStripe(t *testing.T) {
	rt := &ClassRuntime{guards: new([guardStripes]objectGuard)}
	a, b := "key-a", string([]byte{'k', 'e', 'y', '-', 'a'})
	if rt.guardFor(a) != rt.guardFor(b) {
		t.Fatal("same object resolved to different stripes")
	}
	if rt.contentionFor(b) != &rt.guardFor(a).contention {
		t.Fatal("the object's contention tracker is not its stripe's")
	}
}

// TestGuardExcludesWriters: exclusive holders of one stripe never
// overlap, so no increment is lost.
func TestGuardExcludesWriters(t *testing.T) {
	var g objectGuard
	const goroutines, iterations = 8, 1000
	ctx := context.Background()
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iterations; j++ {
				if err := g.Lock(ctx); err != nil {
					t.Error(err)
					return
				}
				counter++
				g.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iterations {
		t.Fatalf("counter = %d, want %d (lost increments)", counter, goroutines*iterations)
	}
}

// TestGuardQueuesFIFO: readers share the stripe; a writer waits for
// them; a reader arriving after a queued writer queues behind it, as
// with sync.RWMutex; and the queue is served in arrival order.
func TestGuardQueuesFIFO(t *testing.T) {
	var g objectGuard
	ctx := context.Background()
	ended, cancel := context.WithCancel(ctx)
	cancel()
	if err := g.RLock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.RLock(ended); err != nil {
		t.Fatalf("a second reader beside a reader: %v", err)
	}
	g.RUnlock()
	if err := g.Lock(ended); !errors.Is(err, context.Canceled) {
		t.Fatalf("a writer beside a reader: err = %v, want it to wait", err)
	}
	order := make(chan string, 3)
	writer := newParkedCtx(ctx)
	go func() {
		if err := g.Lock(writer); err == nil {
			order <- "writer"
			g.Unlock()
		}
	}()
	awaitParked(t, writer)
	if err := g.RLock(ended); !errors.Is(err, context.Canceled) {
		t.Fatalf("a reader behind a queued writer: err = %v, want it to wait", err)
	}
	reader := newParkedCtx(ctx)
	go func() {
		if err := g.RLock(reader); err == nil {
			order <- "reader"
			g.RUnlock()
		}
	}()
	awaitParked(t, reader)
	order <- "first reader"
	g.RUnlock()
	for _, want := range []string{"first reader", "writer", "reader"} {
		if got := <-order; got != want {
			t.Fatalf("served %q, want %q", got, want)
		}
	}
}

// TestGuardWaitEndsWithItsContext: a wait its context ends returns the
// context's error at the context's deadline, holding nothing, and the
// callers queued behind it move up.
func TestGuardWaitEndsWithItsContext(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	var g objectGuard
	ctx := context.Background()
	if err := g.RLock(ctx); err != nil {
		t.Fatal(err)
	}
	dctx, cancel := clock.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	writer := newParkedCtx(dctx)
	writerErr := make(chan error, 1)
	go func() { writerErr <- g.Lock(writer) }()
	awaitParked(t, writer)
	reader := newParkedCtx(ctx)
	readerErr := make(chan error, 1)
	go func() { readerErr <- g.RLock(reader) }()
	awaitParked(t, reader)
	clock.Advance(19 * time.Millisecond)
	select {
	case err := <-writerErr:
		t.Fatalf("the writer's wait ended before its deadline: %v", err)
	default:
	}
	clock.Advance(time.Millisecond)
	if err := <-writerErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("writer err = %v, want context.DeadlineExceeded", err)
	}
	// The reader queued behind the expired writer now shares the stripe.
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}
	if n := clock.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after the deadline fired, want 0", n)
	}
	g.RUnlock()
	g.RUnlock()
	if err := g.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	g.Unlock()
}

// TestGuardCancelledWaitsHoldNothing races cancellations against grants:
// whatever a cancelled wait returns, a caller holds the stripe only when
// it returned nil, and writers never overlap anything.
func TestGuardCancelledWaitsHoldNothing(t *testing.T) {
	var g objectGuard
	var mu sync.Mutex
	readers, writers := 0, 0
	check := func() {
		if writers > 1 || writers == 1 && readers > 0 {
			t.Errorf("%d writers and %d readers hold the stripe", writers, readers)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				ctx, cancel := context.WithCancel(context.Background())
				if j%3 == 0 {
					go cancel()
				}
				exclusive := (i+j)%2 == 0
				var err error
				if exclusive {
					err = g.Lock(ctx)
				} else {
					err = g.RLock(ctx)
				}
				cancel()
				if err != nil {
					continue
				}
				mu.Lock()
				if exclusive {
					writers++
				} else {
					readers++
				}
				check()
				mu.Unlock()
				mu.Lock()
				if exclusive {
					writers--
				} else {
					readers--
				}
				mu.Unlock()
				if exclusive {
					g.Unlock()
				} else {
					g.RUnlock()
				}
			}
		}(i)
	}
	wg.Wait()
	if g.writer || g.readers != 0 || g.head != nil {
		t.Fatalf("stripe left held: writer %v, readers %d, queued %v", g.writer, g.readers, g.head != nil)
	}
}

// TestGuardAllocationBudget: an uncontended hold allocates nothing, and
// a contended one reuses the stripe's first parked waiter.
func TestGuardAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var g objectGuard
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		_ = g.Lock(ctx)
		g.Unlock()
		_ = g.RLock(ctx)
		g.RUnlock()
	}); n != 0 {
		t.Errorf("an uncontended hold allocates %.0f, want 0", n)
	}
	handoff := func() {
		_ = g.Lock(ctx)
		done := make(chan struct{})
		waiter := newParkedCtx(ctx)
		go func() {
			_ = g.Lock(waiter)
			g.Unlock()
			close(done)
		}()
		<-waiter.parked
		g.Unlock()
		<-done
	}
	handoff() // the stripe's first waiter
	w := g.free
	for i := 0; i < 100; i++ {
		handoff()
	}
	if g.free != w || w.next != nil {
		t.Fatal("contended hand-offs left new waiters on the stripe, want its first one reused")
	}
}

// TestQueuedCallerHonoursItsDeadline: a caller queued behind a holder
// that ignores its context (img/stuck, 150 ms) fails with
// ErrDeadlineExceeded at its own 20 ms deadline and commits nothing —
// in the locked regime, behind the adaptive mode's barrier, and as a
// group window.
func TestQueuedCallerHonoursItsDeadline(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  model.ConcurrencyMode
		force bool // degrade the object to the barrier first
		group bool
	}{
		{"locked", model.ConcurrencyLocked, false, false},
		{"barrier", model.ConcurrencyAdaptive, true, false},
		{"group", model.ConcurrencyLocked, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := vclock.NewManual(time.Unix(1_700_000_000, 0))
			entered, release := make(chan struct{}, 1), make(chan struct{})
			rt := newDeadlineRuntime(t, tc.mode, clock, entered, release)
			ctx := context.Background()
			if err := rt.InitObjectState(ctx, "o"); err != nil {
				t.Fatal(err)
			}
			if tc.force {
				tr := rt.contentionFor("o")
				tr.ewma.Store(math.Float64bits(1))
				tr.locked.Store(true)
			}
			held := make(chan error, 1)
			go func() {
				_, err := rt.Invoke(ctx, "o", "stuck", nil, nil)
				held <- err
			}()
			<-entered
			qctx, cancel := clock.WithTimeout(ctx, 20*time.Millisecond)
			defer cancel()
			queued := newParkedCtx(qctx)
			errs := make(chan []error, 1)
			go func() {
				if tc.group {
					var got []error
					for _, res := range rt.InvokeBatch(queued, "o", []call.Call{{Member: "incr"}, {Member: "incr"}}) {
						got = append(got, res.Err)
					}
					errs <- got
					return
				}
				_, err := rt.Invoke(queued, "o", "incr", nil, nil)
				errs <- []error{err}
			}()
			select { // parked; a guard that ignores ctx never asks for Done
			case <-queued.parked:
			case <-time.After(time.Second):
			}
			clock.Advance(20 * time.Millisecond)
			select {
			case got := <-errs:
				for _, err := range got {
					if !errors.Is(err, ErrDeadlineExceeded) {
						t.Fatalf("queued caller err = %v, want ErrDeadlineExceeded", err)
					}
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the queued caller is still waiting 5 s of wall time after its 20 ms deadline")
			}
			select {
			case err := <-held:
				t.Fatalf("the holder ended with its waiter: %v", err)
			default:
			}
			clock.Advance(130 * time.Millisecond)
			if err := <-held; !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("holder err = %v, want ErrDeadlineExceeded", err)
			}
			close(release)
			drainLeakedHandlers(t, rt)
			if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != "0" {
				t.Fatalf("state = %s (%v), want 0: the expired waiter committed", v, err)
			}
			if _, err := rt.Invoke(ctx, "o", "incr", nil, nil); err != nil {
				t.Fatalf("the object is wedged after both expiries: %v", err)
			}
		})
	}
}
