package metrics

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseExposition is a minimal strictness check for the text format:
// every non-comment line is `name{labels} value`, every family has
// exactly one # TYPE line, and all samples of a family are contiguous.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]bool{}
	lastFamily := ""
	closedFamilies := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if typed[parts[2]] {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unclosed label set in %q", line)
			}
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			family = strings.TrimSuffix(family, suf)
		}
		if family != lastFamily {
			if closedFamilies[family] {
				t.Fatalf("family %s not contiguous (line %q)", family, line)
			}
			if lastFamily != "" {
				closedFamilies[lastFamily] = true
			}
			lastFamily = family
		}
		samples[series] = v
	}
	return samples
}

func TestPromWriterRendersRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("invoke.total").Add(42)
	r.Gauge("queue.depth").Add(7)
	r.Histogram("invoke.latency").Observe(15 * time.Microsecond)
	r.Histogram("invoke.latency").Observe(40 * time.Second)

	w := NewPromWriter()
	w.Registries(LabeledRegistry{Reg: r})
	out := string(w.Bytes())
	samples := parseExposition(t, out)

	if got := samples["oparaca_invoke_total"]; got != 42 {
		t.Fatalf("counter = %v, want 42 in:\n%s", got, out)
	}
	if got := samples["oparaca_queue_depth"]; got != 7 {
		t.Fatalf("gauge = %v in:\n%s", got, out)
	}
	if got := samples[`oparaca_invoke_latency_seconds_bucket{le="+Inf"}`]; got != 2 {
		t.Fatalf("+Inf bucket = %v in:\n%s", got, out)
	}
	if got := samples["oparaca_invoke_latency_seconds_count"]; got != 2 {
		t.Fatalf("histogram count = %v", got)
	}
	if got := samples["oparaca_invoke_latency_seconds_sum"]; got < 40 || got > 41 {
		t.Fatalf("histogram sum = %v, want ~40s", got)
	}
	// Buckets must be cumulative: the 15µs sample appears in every
	// bucket whose bound is >= 15µs.
	if got := samples[`oparaca_invoke_latency_seconds_bucket{le="1.5e-05"}`]; got != 1 {
		t.Fatalf("15µs bucket = %v in:\n%s", got, out)
	}
}

func TestPromWriterMergesLabeledRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("invoke.total").Add(1)
	a.Histogram("invoke.latency").Observe(time.Millisecond)
	b.Counter("invoke.total").Add(2)
	b.Histogram("invoke.latency").Observe(time.Second)

	w := NewPromWriter()
	w.Registries(
		LabeledRegistry{Labels: Labels("class", "A"), Reg: a},
		LabeledRegistry{Labels: Labels("class", "B"), Reg: b},
	)
	out := string(w.Bytes())
	samples := parseExposition(t, out) // fails if families fragment

	if samples[`oparaca_invoke_total{class="A"}`] != 1 || samples[`oparaca_invoke_total{class="B"}`] != 2 {
		t.Fatalf("labeled counters wrong in:\n%s", out)
	}
	if samples[`oparaca_invoke_latency_seconds_count{class="B"}`] != 1 {
		t.Fatalf("labeled histogram missing in:\n%s", out)
	}
}

// TestGaugeFuncIsReadAtScrape: a scrape-time gauge is evaluated each
// time a registry is rendered, outside the registry's lock (so it may
// read the registry it lives in), merged by family with plain gauges
// of other registries.
func TestGaugeFuncIsReadAtScrape(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	var calls int
	a.GaugeFunc("class.throughput_rps", func() float64 {
		calls++
		return 2.5 + float64(a.Counter("invoke.total").Value())
	})
	b.Gauge("class.throughput_rps").Add(3)
	for want := 1; want <= 2; want++ {
		a.Counter("invoke.total").Inc()
		w := NewPromWriter()
		w.Registries(
			LabeledRegistry{Labels: Labels("class", "A"), Reg: a},
			LabeledRegistry{Labels: Labels("class", "B"), Reg: b},
		)
		out := string(w.Bytes())
		samples := parseExposition(t, out) // fails if families fragment
		if got := samples[`oparaca_class_throughput_rps{class="A"}`]; got != 2.5+float64(want) {
			t.Fatalf("scrape %d: gauge func = %v in:\n%s", want, got, out)
		}
		if samples[`oparaca_class_throughput_rps{class="B"}`] != 3 || !strings.Contains(out, "# TYPE oparaca_class_throughput_rps gauge\n") {
			t.Fatalf("scrape %d: merged family wrong in:\n%s", want, out)
		}
		if calls != want {
			t.Fatalf("gauge func evaluated %d times after %d scrapes", calls, want)
		}
	}
}

func TestPromLabelsEscaping(t *testing.T) {
	got := Labels("k", "a\"b\\c\nd")
	want := `{k="a\"b\\c\nd"}`
	if got != want {
		t.Fatalf("Labels = %q, want %q", got, want)
	}
	if Labels() != "" {
		t.Fatal("empty Labels not empty")
	}
}
