package metrics

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero counter not 0")
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(-3)
	if got := c.Value(); got != 0 {
		t.Fatalf("counter went negative: %d", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("Value = %d, want 16000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

func TestHistogramCountMean(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	if got := h.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if got := h.Mean(); got != 20*time.Millisecond {
		t.Fatalf("Mean = %v, want 20ms", got)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("Quantile on empty = %v, want 0", got)
	}
	if got := h.Mean(); got != 0 {
		t.Fatalf("Mean on empty = %v, want 0", got)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	p95 := h.Quantile(0.95)
	p99 := h.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	// p50 of a uniform 1..1000ms distribution should be around 500ms;
	// the exponential buckets are coarse, allow a generous band.
	if p50 < 250*time.Millisecond || p50 > 900*time.Millisecond {
		t.Fatalf("p50 = %v, outside plausible band", p50)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5 * time.Second)
	if got := h.Quantile(1); got < 0 {
		t.Fatalf("negative observation leaked through: %v", got)
	}
}

func TestHistogramQuantileClampsQ(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	if h.Quantile(-1) < 0 || h.Quantile(2) < 0 {
		t.Fatal("out-of-range q mishandled")
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(1 * time.Millisecond)
	h.Observe(100 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	if s.Min > s.Max {
		t.Fatalf("min %v > max %v", s.Min, s.Max)
	}
}

// Property: quantile estimates never fall outside [0, max observed].
func TestHistogramQuantileBoundsProperty(t *testing.T) {
	prop := func(samples []uint16, qRaw uint8) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		var max time.Duration
		for _, s := range samples {
			d := time.Duration(s) * time.Millisecond
			if d > max {
				max = d
			}
			h.Observe(d)
		}
		q := float64(qRaw) / 255
		got := h.Quantile(q)
		// Allow one bucket width of slack above max.
		return got >= 0 && got <= max*2+time.Millisecond
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterRate(t *testing.T) {
	now := time.Unix(1000, 0)
	m := NewMeter(10*time.Second, 10, func() time.Time { return now })
	// A steady 10 events/sec source: the corrected Rate covers the
	// completed slots plus the current partial slot, so steady state
	// measures exactly the true rate.
	for i := 0; i < 10; i++ {
		m.Mark(10)
		now = now.Add(time.Second)
	}
	if got := m.Rate(); got != 10 {
		t.Fatalf("Rate = %v, want exactly 10", got)
	}
}

func TestMeterPartialSlotCounted(t *testing.T) {
	now := time.Unix(1000, 0)
	m := NewMeter(10*time.Second, 10, func() time.Time { return now })
	now = now.Add(500 * time.Millisecond)
	m.Mark(19)
	// 19 events, covered interval = 9 completed slots + 0.5s partial.
	if got, want := m.Rate(), 19.0/9.5; got != want {
		t.Fatalf("Rate = %v, want %v", got, want)
	}
}

func TestMeterSlidesOldSlotsOut(t *testing.T) {
	now := time.Unix(1000, 0)
	m := NewMeter(10*time.Second, 10, func() time.Time { return now })
	m.Mark(100)
	now = now.Add(11 * time.Second)
	if got := m.Rate(); got != 0 {
		t.Fatalf("Rate after window passed = %v, want 0", got)
	}
}

func TestMeterSlotReuseResetsCount(t *testing.T) {
	now := time.Unix(0, 0)
	m := NewMeter(2*time.Second, 2, func() time.Time { return now })
	m.Mark(10)
	now = now.Add(2 * time.Second) // wraps to the same slot index
	m.Mark(1)
	// Only the new slot's 1 event should remain in-window along with
	// nothing from the stale slot occupancy; covered time is the one
	// completed slot plus a zero-width partial slot.
	if got := m.Rate(); got != 1 {
		t.Fatalf("Rate = %v, want 1", got)
	}
}

// TestMeterIdleGapLongerThanWindow marks, goes idle past the whole
// window (landing back on the same slot index), and verifies the stale
// slot is neither counted nor resurrected by the next Mark.
func TestMeterIdleGapLongerThanWindow(t *testing.T) {
	now := time.Unix(100, 0)
	m := NewMeter(10*time.Second, 10, func() time.Time { return now })
	m.Mark(50)
	now = now.Add(20 * time.Second) // exactly two windows: same slot index
	if got := m.Rate(); got != 0 {
		t.Fatalf("Rate after idle gap = %v, want 0", got)
	}
	m.Mark(3)
	if got, want := m.Rate(), 3.0/9.0; got != want {
		t.Fatalf("Rate after slot reuse = %v, want %v (stale count leaked?)", got, want)
	}
}

func TestMeterPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMeter(0 slots) did not panic")
		}
	}()
	NewMeter(time.Second, 0, time.Now)
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("Counter returned different instances for same name")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge returned different instances")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram returned different instances")
	}
}

func TestRegistryZeroValueUsable(t *testing.T) {
	var r Registry
	r.Counter("a").Inc()
	if r.Counter("a").Value() != 1 {
		t.Fatal("zero-value registry not usable")
	}
}

func TestFormatRate(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0.0"},
		{999, "999.0"},
		{1500, "1.5k"},
		{2.5e6, "2.50M"},
	}
	for _, c := range cases {
		if got := FormatRate(c.in); got != c.want {
			t.Errorf("FormatRate(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestHistogramSingleSampleQuantiles: every quantile of a one-sample
// histogram must land inside the sample's bucket.
func TestHistogramSingleSampleQuantiles(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		got := h.Quantile(q)
		if got <= 0 || got > 10*time.Millisecond {
			t.Fatalf("Quantile(%v) = %v, outside the 5ms sample's bucket", q, got)
		}
	}
}

// TestHistogramQuantileDuringConcurrentObserve reads quantiles while
// observers hammer the histogram; estimates must stay inside the range
// of values observed so far (Observe is lock-free, readers race it).
func TestHistogramQuantileDuringConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, perEach = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				q := h.Quantile(0.5)
				if q < 0 || q > 2*time.Duration(workers*perEach)*time.Microsecond {
					select {
					case errs <- q.String():
					default:
					}
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				h.Observe(time.Duration(w*perEach+i+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	select {
	case q := <-errs:
		t.Fatalf("mid-flight quantile %s out of range", q)
	default:
	}
}

// TestRegistryConcurrentCreationScrape races metric creation against
// rendering: every scrape must be well-formed (never a nil map entry,
// never a torn value) and the final one complete.
func TestRegistryConcurrentCreationScrape(t *testing.T) {
	r := NewRegistry()
	const workers, names = 8, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapErr sync.Map
	scrape := func() map[string]float64 {
		w := NewPromWriter()
		w.Registries(LabeledRegistry{Reg: r})
		samples := map[string]float64{}
		for _, line := range strings.Split(strings.TrimSpace(string(w.Bytes())), "\n") {
			if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				v, _ := strconv.ParseFloat(value, 64)
				samples[name] = v
			}
		}
		return samples
	}
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				for name, v := range scrape() {
					// Once visible, a counter is either still zero or
					// already incremented to exactly 1.
					if strings.HasSuffix(name, "_total") && v != 0 && v != 1 {
						snapErr.Store(name, v)
					}
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				name := string(rune('a'+w)) + "-" + time.Duration(i).String()
				r.Counter(name).Inc()
				r.Gauge(name).Add(int64(i))
				r.Histogram(name).Observe(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapErr.Range(func(k, v any) bool {
		t.Fatalf("scrape saw torn counter %v = %v", k, v)
		return false
	})
	var counters, gauges, histograms int
	for name := range scrape() {
		switch {
		case strings.HasSuffix(name, "_total"):
			counters++
		case strings.HasSuffix(name, "_seconds_count"):
			histograms++
		case !strings.Contains(name, "_seconds_"):
			gauges++
		}
	}
	if counters != workers*names || gauges != workers*names || histograms != workers*names {
		t.Fatalf("final scrape incomplete: %d/%d/%d metrics, want %d each", counters, gauges, histograms, workers*names)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines (Observe is lock-free) while a reader snapshots it, then
// verifies nothing was lost and the extremes are exact.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, perEach = 8, 1000
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				h.Observe(time.Duration(w*perEach+i+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if got := h.Count(); got != workers*perEach {
		t.Fatalf("count = %d, want %d (lost samples)", got, workers*perEach)
	}
	snap := h.Snapshot()
	if snap.Min != time.Microsecond {
		t.Fatalf("min = %v, want 1µs", snap.Min)
	}
	if snap.Max != time.Duration(workers*perEach)*time.Microsecond {
		t.Fatalf("max = %v, want %dµs", snap.Max, workers*perEach)
	}
	if snap.P50 <= 0 || snap.P50 > snap.Max {
		t.Fatalf("p50 = %v out of range (0, %v]", snap.P50, snap.Max)
	}
}
