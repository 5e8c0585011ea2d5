package vclock

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// TestBubbles runs this package's bubble tests; see internal/simtest.
func TestBubbles(t *testing.T) { simtest.Bubbles(t) }

func TestRealNowAdvances(t *testing.T) {
	c := NewReal()
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestRealSleepRespectsContext(t *testing.T) {
	c := NewReal()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Hour); err == nil {
		t.Fatal("Sleep with cancelled context returned nil")
	}
}

func TestRealSleepZeroReturnsImmediately(t *testing.T) {
	c := NewReal()
	if err := c.Sleep(context.Background(), 0); err != nil {
		t.Fatalf("Sleep(0) = %v", err)
	}
}

func TestManualNow(t *testing.T) {
	start := time.Unix(1000, 0)
	m := NewManual(start)
	if got := m.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
	m.Advance(5 * time.Second)
	if got := m.Now(); !got.Equal(start.Add(5 * time.Second)) {
		t.Fatalf("Now() after advance = %v", got)
	}
}

func TestManualAfterFiresOnAdvance(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	ch := m.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired before advance")
	default:
	}
	m.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired too early")
	default:
	}
	m.Advance(time.Second)
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("timer did not fire after advancing past deadline")
	}
}

func TestManualAfterNonPositive(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	select {
	case <-m.After(0):
	case <-time.After(time.Second):
		t.Fatal("After(0) did not fire immediately")
	}
}

// TestManualDeadlineExpiresOnAdvance: a Manual clock's deadline context
// is done exactly when Advance reaches its deadline, in virtual time,
// with context.DeadlineExceeded, and its children see the same before
// Advance returns.
func TestManualDeadlineExpiresOnAdvance(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	m := NewManual(start)
	ctx, cancel := m.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	child, cancelChild := context.WithCancel(ctx)
	defer cancelChild()
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(start.Add(time.Hour)) {
		t.Fatalf("Deadline() = %v, %v, want %v", dl, ok, start.Add(time.Hour))
	}
	m.Advance(time.Hour - time.Nanosecond)
	if err := ctx.Err(); err != nil {
		t.Fatalf("Err() = %v a nanosecond before the deadline", err)
	}
	m.Advance(time.Nanosecond)
	// Expired by the time Advance returns, children included, as a timer
	// context's children are cancelled before its timer moves on.
	if ctx.Err() != context.DeadlineExceeded || child.Err() != context.DeadlineExceeded {
		t.Fatalf("Err() = %v, child %v, want context.DeadlineExceeded", ctx.Err(), child.Err())
	}
	<-ctx.Done()
	<-child.Done()
	if n := m.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after the deadline fired", n)
	}
	past, cancelPast := m.WithDeadline(context.Background(), start)
	defer cancelPast()
	if past.Err() != context.DeadlineExceeded {
		t.Fatalf("a deadline already passed: Err() = %v", past.Err())
	}
}

// TestManualDeadlineFollowsItsParent: cancelling the parent cancels a
// Manual deadline context with the parent's error, and an earlier
// parent deadline stays the one that counts.
func TestManualDeadlineFollowsItsParent(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	parent, cancelParent := context.WithCancel(context.Background())
	ctx, cancel := m.WithTimeout(parent, time.Hour)
	defer cancel()
	cancelParent()
	<-ctx.Done()
	if ctx.Err() != context.Canceled {
		t.Fatalf("Err() = %v after the parent's cancel, want context.Canceled", ctx.Err())
	}
	if n := m.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after the parent ended the deadline", n)
	}
	outer, cancelOuter := m.WithTimeout(context.Background(), time.Second)
	defer cancelOuter()
	inner, cancelInner := m.WithTimeout(outer, time.Hour)
	defer cancelInner()
	if dl, _ := inner.Deadline(); !dl.Equal(time.Unix(1, 0)) {
		t.Fatalf("inner Deadline() = %v, want the parent's %v", dl, time.Unix(1, 0))
	}
	m.Advance(time.Second)
	<-inner.Done()
	if inner.Err() != context.DeadlineExceeded {
		t.Fatalf("inner Err() = %v, want context.DeadlineExceeded", inner.Err())
	}
}

// TestManualCancelLeavesNoTimer: a Sleep its context ends and a deadline
// context cancelled before it fires each remove their timer, so Pending
// counts only what still waits.
func TestManualCancelLeavesNoTimer(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	keep := m.After(time.Minute) // an unrelated timer that stays armed
	before := m.Pending()
	ctx, cancelSleep := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Sleep(ctx, time.Hour) }()
	for m.Pending() == before {
		runtime.Gosched()
	}
	cancelSleep()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	_, cancel := m.WithTimeout(context.Background(), time.Hour)
	if n := m.Pending(); n != before+1 {
		t.Fatalf("Pending() = %d with a deadline armed, want %d", n, before+1)
	}
	cancel()
	if n := m.Pending(); n != before {
		t.Fatalf("Pending() = %d after a cancelled Sleep and WithTimeout, want %d", n, before)
	}
	m.Advance(time.Minute)
	<-keep
}

func TestManualSinceTracksAdvance(t *testing.T) {
	m := NewManual(time.Unix(100, 0))
	t0 := m.Now()
	m.Advance(42 * time.Second)
	if got := m.Since(t0); got != 42*time.Second {
		t.Fatalf("Since = %v, want 42s", got)
	}
}

func TestManualConcurrentAdvance(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Advance(time.Millisecond)
				_ = m.Now()
			}
		}()
	}
	wg.Wait()
	if got := m.Now(); !got.Equal(time.Unix(0, 0).Add(800 * time.Millisecond)) {
		t.Fatalf("Now() = %v after 800 concurrent 1ms advances", got)
	}
}

// tryTake takes n tokens from b if it holds them now, without waiting.
func tryTake(b *TokenBucket, n float64) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return b.Take(ctx, n) == nil
}

func TestTokenBucketBurstCap(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	b := NewTokenBucket(m, 1000, 3)
	m.Advance(time.Hour) // would refill millions; capped at burst
	for i := 0; i < 3; i++ {
		if !tryTake(b, 1) {
			t.Fatalf("tryTake #%d failed", i)
		}
	}
	if tryTake(b, 1) {
		t.Fatal("bucket exceeded burst capacity")
	}
}

func TestTokenBucketTakeBlocksUntilRefill(t *testing.T) {
	c := NewReal()
	b := NewTokenBucket(c, 1000, 1)
	if err := b.Take(context.Background(), 1); err != nil {
		t.Fatalf("first Take = %v", err)
	}
	start := time.Now()
	if err := b.Take(context.Background(), 1); err != nil {
		t.Fatalf("second Take = %v", err)
	}
	if elapsed := time.Since(start); elapsed < 500*time.Microsecond {
		t.Fatalf("second Take returned too quickly: %v", elapsed)
	}
}

func TestTokenBucketTakeOversized(t *testing.T) {
	// A request larger than burst must not deadlock: the bucket goes
	// into debt once it is full.
	c := NewReal()
	b := NewTokenBucket(c, 1e6, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Take(ctx, 10); err != nil {
		t.Fatalf("oversized Take = %v", err)
	}
}

func TestTokenBucketClose(t *testing.T) {
	c := NewReal()
	b := NewTokenBucket(c, 1, 1)
	b.Close()
	if err := b.Take(context.Background(), 1); err != ErrBucketClosed {
		t.Fatalf("Take after Close = %v, want ErrBucketClosed", err)
	}
}

func TestTokenBucketPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTokenBucket(0 rate) did not panic")
		}
	}()
	NewTokenBucket(NewReal(), 0, 1)
}

// Property: a bucket never hands out more tokens than burst + rate*elapsed.
func TestTokenBucketConservationProperty(t *testing.T) {
	prop := func(rateU, burstU uint16, steps uint8) bool {
		rate := float64(rateU%1000) + 1
		burst := float64(burstU%100) + 1
		m := NewManual(time.Unix(0, 0))
		b := NewTokenBucket(m, rate, burst)
		granted := 0.0
		elapsed := time.Duration(0)
		for i := 0; i < int(steps%50)+1; i++ {
			if tryTake(b, 1) {
				granted++
			}
			m.Advance(10 * time.Millisecond)
			elapsed += 10 * time.Millisecond
		}
		limit := burst + rate*elapsed.Seconds() + 1e-6
		return granted <= limit
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
