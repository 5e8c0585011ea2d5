// Package metrics implements the monitoring substrate that Oparaca's
// requirement-driven optimizer consumes (paper §III-B: "Oparaca
// connects the runtime to the monitoring system and reacts to changes
// in workload or performance").
//
// It provides counters, gauges, latency histograms with percentile
// estimation, and sliding-window throughput meters, grouped under a
// Registry per component.
//
// Each counter lives once, in its component's registry, as a handle the
// component resolves when it is built; Stats(), /readyz and /metrics all
// read it. A value a component computes rather than counts (a rate, a
// sum, its capacity) is a scrape-time gauge: Registry.GaugeFunc.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter. n must be non-negative; negative values
// are ignored to preserve monotonicity.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can go up and down. The zero
// value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histogramBuckets are exponential latency buckets from 10µs to ~84s.
var histogramBuckets = func() []time.Duration {
	var b []time.Duration
	for d := 10 * time.Microsecond; d < 90*time.Second; d = d * 3 / 2 {
		b = append(b, d)
	}
	return b
}()

// Histogram records durations into exponential buckets and estimates
// percentiles by linear interpolation inside the matched bucket. The
// zero value is ready to use.
//
// Observe is lock-free: bucket counters, sum, min and max are atomics,
// so recording a sample never contends with other recorders — the
// invocation hot path calls Observe on every request. The mutex only
// serializes snapshot readers; a reader racing live observers may see
// a sample in total before min/max settle, which is acceptable for
// monitoring output.
type Histogram struct {
	mu     sync.Mutex // serializes readers; Observe never takes it
	init   sync.Once
	counts []atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	min    atomic.Int64 // nanoseconds; MaxInt64 until the first sample
	max    atomic.Int64 // nanoseconds
}

// initBuckets allocates the bucket counters and seeds min's sentinel.
func (h *Histogram) initBuckets() {
	h.init.Do(func() {
		h.min.Store(math.MaxInt64)
		counts := make([]atomic.Int64, len(histogramBuckets)+1)
		h.counts = counts
	})
}

// Observe records one duration sample without taking any lock.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.initBuckets()
	i := sort.Search(len(histogramBuckets), func(i int) bool {
		return histogramBuckets[i] >= d
	})
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.min.Load()
		if int64(d) >= cur || h.min.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	h.total.Add(1)
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Mean returns the arithmetic mean of all samples (0 if empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()) / time.Duration(total)
}

// loadCounts copies the bucket counters into a plain slice so quantile
// math runs on an internally consistent view. Returns nil before the
// first sample.
func (h *Histogram) loadCounts() ([]int64, int64) {
	if h.total.Load() == 0 {
		return nil, 0
	}
	out := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		out[i] = h.counts[i].Load()
		total += out[i]
	}
	return out, total
}

// Quantile estimates the q-th quantile (0 <= q <= 1). It returns 0 for
// an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	counts, total := h.loadCounts()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			lo, hi := h.bucketBounds(i)
			if next == cum {
				return hi
			}
			frac := (rank - cum) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	return h.maxVal()
}

// bucketBounds returns the [lo, hi] duration range of bucket i.
func (h *Histogram) bucketBounds(i int) (lo, hi time.Duration) {
	switch {
	case i == 0:
		return 0, histogramBuckets[0]
	case i >= len(histogramBuckets):
		return histogramBuckets[len(histogramBuckets)-1], h.maxVal()
	default:
		return histogramBuckets[i-1], histogramBuckets[i]
	}
}

// Snapshot returns a point-in-time summary of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Min:   h.minVal(),
		Max:   h.maxVal(),
	}
}

// Buckets returns the histogram's buckets in cumulative (Prometheus)
// form: bounds[i] is the inclusive upper bound of bucket i and
// cumulative[i] counts every sample ≤ bounds[i]. Samples beyond the
// last bound are visible only in count (the implicit +Inf bucket).
// Returns count 0 and nil slices before the first sample. The bounds
// slice is shared and must not be mutated.
func (h *Histogram) Buckets() (bounds []time.Duration, cumulative []int64, sum time.Duration, count int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts, total := h.loadCounts()
	if total == 0 {
		return nil, nil, 0, 0
	}
	bounds = histogramBuckets
	cumulative = make([]int64, len(histogramBuckets))
	var cum int64
	for i := range histogramBuckets {
		cum += counts[i]
		cumulative[i] = cum
	}
	return bounds, cumulative, time.Duration(h.sum.Load()), total
}

func (h *Histogram) minVal() time.Duration {
	if h.total.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

func (h *Histogram) maxVal() time.Duration {
	return time.Duration(h.max.Load())
}

// HistogramSnapshot is an immutable summary of a Histogram.
type HistogramSnapshot struct {
	Count               int64
	Mean, P50, P95, P99 time.Duration
	Min, Max            time.Duration
}

// Meter measures event throughput over a sliding window of fixed-width
// slots. It answers "events per second over the last window".
type Meter struct {
	mu       sync.Mutex
	slotSize time.Duration
	slots    []int64
	times    []time.Time
	now      func() time.Time
}

// NewMeter returns a meter with the given window divided into nSlots
// slots. now supplies the time source (pass clock.Now).
func NewMeter(window time.Duration, nSlots int, now func() time.Time) *Meter {
	if nSlots <= 0 {
		panic("metrics: NewMeter requires positive nSlots")
	}
	if window <= 0 {
		panic("metrics: NewMeter requires positive window")
	}
	return &Meter{
		slotSize: window / time.Duration(nSlots),
		slots:    make([]int64, nSlots),
		times:    make([]time.Time, nSlots),
		now:      now,
	}
}

// Mark records n events at the current time.
func (m *Meter) Mark(n int64) {
	t := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.slotIndex(t)
	slotStart := t.Truncate(m.slotSize)
	if !m.times[i].Equal(slotStart) {
		m.times[i] = slotStart
		m.slots[i] = 0
	}
	m.slots[i] += n
}

func (m *Meter) slotIndex(t time.Time) int {
	return int(t.UnixNano()/int64(m.slotSize)) % len(m.slots)
}

// Rate returns the event rate in events/second over the sliding
// window. The window covered is the (nSlots-1) completed slots plus
// the elapsed fraction of the current slot, and events in the current
// partial slot are included — numerator and denominator always cover
// the same interval, so a steady-state source measures exactly its
// true rate instead of being systematically underestimated. Slots
// whose last activity predates the covered interval (idle gaps longer
// than the window) contribute nothing.
func (m *Meter) Rate() float64 {
	t := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	curStart := t.Truncate(m.slotSize)
	oldest := curStart.Add(-time.Duration(len(m.slots)-1) * m.slotSize)
	var total int64
	for i := range m.slots {
		if !m.times[i].Before(oldest) && !m.times[i].IsZero() {
			total += m.slots[i]
		}
	}
	covered := time.Duration(len(m.slots)-1)*m.slotSize + t.Sub(curStart)
	secs := covered.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(total) / secs
}

// Registry groups named metrics. The zero value is ready to use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge read at scrape time: fn computes its value
// whenever a PromWriter renders the registry, from any goroutine. A
// second registration under the name replaces the first.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gaugeFuncs == nil {
		r.gaugeFuncs = make(map[string]func() float64)
	}
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = make(map[string]*Histogram)
	}
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// FormatRate renders an ops/sec value compactly, e.g. "8.2e4" style
// magnitudes are avoided in favor of "82000" or "8.2k".
func FormatRate(r float64) string {
	switch {
	case math.IsInf(r, 0) || math.IsNaN(r):
		return "n/a"
	case r >= 1e6:
		return fmt.Sprintf("%.2fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	default:
		return fmt.Sprintf("%.1f", r)
	}
}
