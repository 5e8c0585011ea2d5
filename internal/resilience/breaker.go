// Package resilience provides failure-handling primitives shared by
// the platform's storage and invocation paths. Its centerpiece is a
// circuit breaker in the classic three-state shape:
//
//	closed    — requests flow; outcomes feed a rolling window. When
//	            the window's failure rate crosses the threshold (with
//	            a minimum-sample guard so one early error cannot trip
//	            it), the breaker opens.
//	open      — requests fail fast with ErrOpen, carrying a
//	            Retry-After hint, until the open timeout elapses.
//	half-open — a bounded budget of probe requests is admitted. Any
//	            probe failure re-opens the breaker; a full budget of
//	            consecutive probe successes closes it.
//
// The platform wraps one breaker around each backing store: while it
// is open, reads are served from the memtable cache where populated
// (degraded mode) and writes fail fast at the gateway with 503 +
// Retry-After instead of queueing latency against a dead store.
package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/hpcclab/oparaca-go/internal/metrics"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// ErrOpen is the sentinel all fast-fail rejections wrap; match it with
// errors.Is. The concrete error is an *OpenError carrying the
// Retry-After hint.
var ErrOpen = errors.New("resilience: circuit open")

// OpenError is the fast-fail rejection returned by Allow while the
// breaker is open (or its half-open probe budget is exhausted).
type OpenError struct {
	// RetryAfter is the time until the breaker will next admit a
	// probe — the value behind the gateway's Retry-After header.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OpenError) Error() string {
	return fmt.Sprintf("resilience: circuit open (retry after %v)", e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOpen) hold.
func (e *OpenError) Unwrap() error { return ErrOpen }

// State is a breaker's position in the closed/open/half-open cycle.
type State int

// Breaker states.
const (
	StateClosed State = iota
	StateOpen
	StateHalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config tunes a Breaker. The defaults are deliberately conservative:
// a short burst of injected faults (the kvstore tests' "fail next N
// writes" hooks inject two or three) stays below MinSamples and never
// trips the breaker, while a sustained failure plateau does.
type Config struct {
	// Window is the rolling outcome window size. Defaults to 32.
	Window int
	// FailureThreshold opens the breaker once the window's failure
	// rate reaches it (0 < threshold <= 1). Defaults to 0.6.
	FailureThreshold float64
	// MinSamples is the minimum number of recorded outcomes in the
	// window before the threshold is consulted. Defaults to 10.
	MinSamples int
	// OpenTimeout is how long the breaker stays open before admitting
	// half-open probes. Defaults to 500ms.
	OpenTimeout time.Duration
	// HalfOpenProbes is both the concurrent probe budget while
	// half-open and the number of consecutive probe successes required
	// to close. Defaults to 3.
	HalfOpenProbes int
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.FailureThreshold <= 0 || c.FailureThreshold > 1 {
		c.FailureThreshold = 0.6
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 500 * time.Millisecond
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	return c
}

// Breaker is a closed/open/half-open circuit breaker. It is safe for
// concurrent use. Use it as an admit/record pair around the protected
// operation:
//
//	if err := b.Allow(); err != nil {
//		return err // fast fail, no operation attempted
//	}
//	err := op()
//	b.Record(err)
type Breaker struct {
	cfg Config

	mu       sync.Mutex
	state    State
	window   []bool // true = failure
	head     int    // next write position
	filled   int    // samples recorded (<= len(window))
	failures int    // failures currently in the window
	openedAt time.Time
	probes   int // half-open probes in flight
	probeOK  int // consecutive half-open probe successes

	// reg holds the lifetime transition and outcome counters (breaker.*),
	// resolved once here so Allow and Record look nothing up.
	reg                                 *metrics.Registry
	opened, halfOpens, closes, rejected *metrics.Counter
	succeeded, failed                   *metrics.Counter
}

// New builds a breaker in the closed state.
func New(cfg Config) *Breaker {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	return &Breaker{
		cfg:       cfg,
		window:    make([]bool, cfg.Window),
		reg:       reg,
		opened:    reg.Counter("breaker.opened"),
		halfOpens: reg.Counter("breaker.half_opens"),
		closes:    reg.Counter("breaker.closes"),
		rejected:  reg.Counter("breaker.rejected"),
		succeeded: reg.Counter("breaker.successes"),
		failed:    reg.Counter("breaker.failures"),
	}
}

// Metrics exposes the breaker's registry (breaker.* counters).
func (b *Breaker) Metrics() *metrics.Registry { return b.reg }

// Allow admits or rejects one operation. It returns nil when the
// operation may proceed (the caller must then call Record exactly once
// with the outcome) and an *OpenError wrapping ErrOpen when the
// breaker is open or its half-open probe budget is exhausted.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return nil
	case StateOpen:
		remaining := b.cfg.OpenTimeout - b.cfg.Clock.Since(b.openedAt)
		if remaining > 0 {
			b.rejected.Inc()
			return &OpenError{RetryAfter: remaining}
		}
		// Open timeout elapsed: this caller becomes the first
		// half-open probe.
		b.state = StateHalfOpen
		b.halfOpens.Inc()
		b.probes = 1
		b.probeOK = 0
		return nil
	case StateHalfOpen:
		if b.probes >= b.cfg.HalfOpenProbes {
			b.rejected.Inc()
			return &OpenError{RetryAfter: b.cfg.OpenTimeout / 4}
		}
		b.probes++
		return nil
	}
	return nil
}

// Record feeds one admitted operation's outcome back. A nil err (or
// one the caller normalized to nil — not-found and version-mismatch
// results are business outcomes, not store failures) counts as
// success.
func (b *Breaker) Record(err error) {
	failed := err != nil
	if failed {
		b.failed.Inc()
	} else {
		b.succeeded.Inc()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.observe(failed)
		if b.filled >= b.cfg.MinSamples &&
			float64(b.failures) >= b.cfg.FailureThreshold*float64(b.filled) {
			b.trip()
		}
	case StateHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if failed {
			// Any probe failure re-opens: the store is still sick.
			b.trip()
			return
		}
		if b.probeOK++; b.probeOK >= b.cfg.HalfOpenProbes {
			b.state = StateClosed
			b.closes.Inc()
			b.resetWindow()
		}
	case StateOpen:
		// A straggler from before the trip; the window was reset, so
		// only the lifetime counters above see it.
	}
}

// observe pushes one outcome into the rolling window. Caller holds mu.
func (b *Breaker) observe(failed bool) {
	if b.filled == len(b.window) && b.window[b.head] {
		b.failures--
	}
	b.window[b.head] = failed
	b.head = (b.head + 1) % len(b.window)
	if b.filled < len(b.window) {
		b.filled++
	}
	if failed {
		b.failures++
	}
}

// trip moves the breaker to open and clears the window. Caller holds
// mu.
func (b *Breaker) trip() {
	b.state = StateOpen
	b.opened.Inc()
	b.openedAt = b.cfg.Clock.Now()
	b.probes = 0
	b.probeOK = 0
	b.resetWindow()
}

// resetWindow clears the rolling window. Caller holds mu.
func (b *Breaker) resetWindow() {
	for i := range b.window {
		b.window[i] = false
	}
	b.head, b.filled, b.failures = 0, 0, 0
}

// State returns the current state. An open breaker whose timeout has
// elapsed still reports open — the transition to half-open happens on
// the next Allow.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats is a point-in-time breaker snapshot.
type Stats struct {
	// State is the current state name.
	State string `json:"state"`
	// Opened / HalfOpens / Closes count lifetime state transitions —
	// a full recovery cycle shows Opened >= 1, HalfOpens >= 1 and
	// Closes >= 1.
	Opened    int64 `json:"opened"`
	HalfOpens int64 `json:"half_opens"`
	Closes    int64 `json:"closes"`
	// Rejected counts operations fast-failed by Allow.
	Rejected int64 `json:"rejected"`
	// Successes / Failures count recorded outcomes.
	Successes int64 `json:"successes"`
	Failures  int64 `json:"failures"`
}

// Stats snapshots the breaker: its state and the registry's counters.
func (b *Breaker) Stats() Stats {
	return Stats{
		State:     b.State().String(),
		Opened:    b.opened.Value(),
		HalfOpens: b.halfOpens.Value(),
		Closes:    b.closes.Value(),
		Rejected:  b.rejected.Value(),
		Successes: b.succeeded.Value(),
		Failures:  b.failed.Value(),
	}
}
