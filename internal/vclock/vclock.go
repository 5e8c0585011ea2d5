// Package vclock provides a clock abstraction so that every
// time-dependent component in the platform can run against either the
// real wall clock or a manually advanced test clock.
//
// The Clock is the one source of time for the timers and deadlines of
// the packages under internal/: they read the time, sleep, wait and arm
// a context's deadline through the Clock they were built with, never
// through package time or context directly, so a deadline expires on
// the same clock that computed it and a test drives it by advancing a
// Manual clock. The exceptions, where real I/O or real elapsed time is
// the point, are listed with their reasons in the time-is-the-clocks
// row of internal/archtest.
//
// The package also provides rate-limiting primitives (token buckets)
// built on top of the Clock interface; these are used by the cluster
// and kvstore simulators to enforce compute and write-throughput
// capacities.
package vclock

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
)

// Clock abstracts time for testability. The zero value of concrete
// implementations is not useful; use NewReal or NewManual.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks until d has elapsed or ctx is done. It returns
	// ctx.Err() when the context ends the wait early, nil otherwise.
	Sleep(ctx context.Context, d time.Duration) error
	// After returns a channel that receives the current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
	// WithDeadline is context.WithDeadline on this clock: the returned
	// context's Done closes, with Err context.DeadlineExceeded, once
	// the clock reaches t, or earlier when parent ends or cancel is
	// called. cancel releases the timer and must always be called.
	WithDeadline(parent context.Context, t time.Time) (context.Context, context.CancelFunc)
	// WithTimeout is WithDeadline(parent, Now().Add(d)).
	WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

var _ Clock = Real{}

// NewReal returns a Clock backed by the system wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// WithDeadline implements Clock: it is context.WithDeadline.
func (Real) WithDeadline(parent context.Context, t time.Time) (context.Context, context.CancelFunc) {
	return context.WithDeadline(parent, t)
}

// WithTimeout implements Clock: it is context.WithTimeout.
func (Real) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, d)
}

// Sleep implements Clock.
func (Real) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// waiter is a pending timer on a Manual clock; Advance calls fire once
// the clock reaches at.
type waiter struct {
	at   time.Time
	fire func(now time.Time)
}

// Manual is a Clock whose time only moves when Advance is called.
// It is safe for concurrent use.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
}

var _ Clock = (*Manual)(nil)

// NewManual returns a Manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration {
	return m.Now().Sub(t)
}

// arm registers fire to run once the clock reaches at, or runs it now
// (returning nil) when it already has.
func (m *Manual) arm(at time.Time, fire func(time.Time)) *waiter {
	m.mu.Lock()
	if !at.After(m.now) {
		now := m.now
		m.mu.Unlock()
		fire(now)
		return nil
	}
	w := &waiter{at: at, fire: fire}
	m.waiters = append(m.waiters, w)
	m.mu.Unlock()
	return w
}

// disarm removes a timer that has not fired, so Pending counts only
// timers something still waits on.
func (m *Manual) disarm(w *waiter) {
	if w == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := slices.Index(m.waiters, w); i >= 0 {
		m.waiters = slices.Delete(m.waiters, i, i+1)
	}
}

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	m.arm(m.Now().Add(d), func(now time.Time) { ch <- now })
	return ch
}

// Sleep implements Clock. It blocks until Advance moves the clock past
// the deadline or ctx is done; a sleep that ctx ends leaves no timer
// behind.
func (m *Manual) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	ch := make(chan time.Time, 1)
	w := m.arm(m.Now().Add(d), func(now time.Time) { ch <- now })
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		m.disarm(w)
		return ctx.Err()
	}
}

// WithDeadline implements Clock: the context expires when Advance
// reaches t. As with context.WithDeadline, a parent whose deadline is
// earlier than t already bounds the child, which is then only
// cancelable.
func (m *Manual) WithDeadline(parent context.Context, t time.Time) (context.Context, context.CancelFunc) {
	if cur, ok := parent.Deadline(); ok && cur.Before(t) {
		return context.WithCancel(parent)
	}
	c := &deadlineCtx{Context: parent, m: m, at: t, done: make(chan struct{})}
	if err := parent.Err(); err != nil {
		c.end(err)
		return c, func() {}
	}
	w := m.arm(t, func(time.Time) { c.end(context.DeadlineExceeded) })
	stop := context.AfterFunc(parent, func() { c.end(parent.Err()) })
	c.mu.Lock()
	c.w, c.stop = w, stop
	ended := c.err != nil
	c.mu.Unlock()
	if ended {
		m.disarm(w)
		stop()
	}
	return c, func() { c.end(context.Canceled) }
}

// WithTimeout implements Clock.
func (m *Manual) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return m.WithDeadline(parent, m.Now().Add(d))
}

// deadlineCtx is a Manual clock's deadline context. Its Deadline is in
// the clock's time; values come from the parent.
type deadlineCtx struct {
	context.Context // the parent
	m               *Manual
	at              time.Time
	done            chan struct{}

	mu    sync.Mutex
	err   error
	w     *waiter     // the deadline's timer; nil until armed
	stop  func() bool // unregisters from the parent; nil until armed
	after map[*func()]struct{}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.at, true }
func (c *deadlineCtx) Done() <-chan struct{}       { return c.done }

func (c *deadlineCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// AfterFunc registers f to run when c ends. The context package
// registers a child's cancel through this method when the parent is not
// one of its own types, so the children of c are cancelled before
// Advance or cancel returns, as a timer context's are, and never read a
// nil Err after c expired.
func (c *deadlineCtx) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		go f()
		return func() bool { return false }
	}
	if c.after == nil {
		c.after = map[*func()]struct{}{}
	}
	key := &f
	c.after[key] = struct{}{}
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.after[key]
		delete(c.after, key)
		return ok
	}
}

// end closes Done with err, once, cancels what registered through
// AfterFunc, and releases the timer and the parent's registration. The
// timer goes before Done closes, so a waiter woken by Done never counts
// it in Pending; Err turns non-nil with the close, under the same lock.
func (c *deadlineCtx) end(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.m.disarm(c.w)
	c.err = err
	close(c.done)
	stop, after := c.stop, c.after
	c.after = nil
	c.mu.Unlock()
	for f := range after {
		(*f)()
	}
	if stop != nil {
		stop()
	}
}

// Advance moves the clock forward by d, firing any timers whose
// deadline is reached.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	var remaining []*waiter
	var fired []*waiter
	for _, w := range m.waiters {
		if !w.at.After(now) {
			fired = append(fired, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	m.mu.Unlock()
	for _, w := range fired {
		w.fire(now)
	}
}

// Pending reports the number of unfired timers, which tests use to
// synchronize with goroutines that are about to sleep.
func (m *Manual) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// ErrBucketClosed is returned by TokenBucket.Take after Close.
var ErrBucketClosed = errors.New("vclock: token bucket closed")

// TokenBucket is a classic token-bucket rate limiter driven by a Clock.
// It refills at rate tokens/second up to burst. It is safe for
// concurrent use.
type TokenBucket struct {
	clock Clock

	rate  float64 // tokens per second
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
	closed bool
}

// NewTokenBucket returns a bucket that refills at rate tokens per
// second with the given burst capacity. The bucket starts full.
// rate and burst must be positive.
func NewTokenBucket(clock Clock, rate, burst float64) *TokenBucket {
	if rate <= 0 || burst <= 0 {
		panic("vclock: NewTokenBucket requires positive rate and burst")
	}
	return &TokenBucket{
		clock:  clock,
		rate:   rate,
		burst:  burst,
		tokens: burst,
		last:   clock.Now(),
	}
}

// refillLocked credits tokens for elapsed time. Caller holds mu.
func (b *TokenBucket) refillLocked(now time.Time) {
	elapsed := now.Sub(b.last).Seconds()
	if elapsed <= 0 {
		return
	}
	b.tokens += elapsed * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// Take blocks until n tokens are available (or ctx is done), then
// removes them. n may exceed burst transiently: the bucket goes into
// debt so a single oversized request is still admitted at rate-limited
// pace rather than deadlocking.
func (b *TokenBucket) Take(ctx context.Context, n float64) error {
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return ErrBucketClosed
		}
		now := b.clock.Now()
		b.refillLocked(now)
		if b.tokens >= n || b.tokens >= b.burst {
			// Either enough tokens, or the bucket is full and the
			// request is larger than the burst: go into debt.
			b.tokens -= n
			b.mu.Unlock()
			return nil
		}
		need := n
		if need > b.burst {
			need = b.burst
		}
		wait := time.Duration((need - b.tokens) / b.rate * float64(time.Second))
		b.mu.Unlock()
		if wait < time.Microsecond {
			wait = time.Microsecond
		}
		if err := b.clock.Sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// Rate returns the refill rate in tokens per second.
func (b *TokenBucket) Rate() float64 { return b.rate }

// Close marks the bucket closed; subsequent Take calls fail fast.
func (b *TokenBucket) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
}
