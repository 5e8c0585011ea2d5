package metrics

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4). It is a one-shot builder: the gateway's /metrics
// handler fills one per scrape and writes Bytes out. Metric names are
// mangled from the registry's dotted names ("occ.commits" →
// "oparaca_occ_commits_total"); every family gets a single # TYPE line
// no matter how many labeled series it spans, and series of one family
// must be written consecutively (group labeled variants together).
type PromWriter struct {
	buf   bytes.Buffer
	typed map[string]string
}

// NewPromWriter returns an empty writer.
func NewPromWriter() *PromWriter {
	return &PromWriter{typed: make(map[string]string)}
}

// ContentType is the Content-Type for the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName mangles a dotted registry metric name into a Prometheus
// name under the oparaca_ namespace.
func PromName(name string) string {
	return "oparaca_" + strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

func (p *PromWriter) typeLine(name, typ string) {
	if p.typed[name] == typ {
		return
	}
	p.typed[name] = typ
	p.buf.WriteString("# TYPE ")
	p.buf.WriteString(name)
	p.buf.WriteByte(' ')
	p.buf.WriteString(typ)
	p.buf.WriteByte('\n')
}

// escapeLabel escapes a label value per the exposition format, whose
// text is UTF-8: a byte that is not UTF-8 is written as U+FFFD, as
// encoding/json and jsonw.AppendString write one.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") && utf8.ValidString(v) {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v { // an invalid byte decodes as utf8.RuneError
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Labels renders a label set ("k1=v1", "k2=v2", ...) into the
// {k1="v1",k2="v2"} form PromWriter methods accept ("" for none).
func Labels(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func (p *PromWriter) sample(name, labels string, v float64) {
	p.buf.WriteString(name)
	p.buf.WriteString(labels)
	p.buf.WriteByte(' ')
	p.buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.buf.WriteByte('\n')
}

// Counter writes one counter sample. name is the mangled family name
// (use PromName); a _total suffix is appended unless already present.
func (p *PromWriter) Counter(name, labels string, v float64) {
	if !strings.HasSuffix(name, "_total") {
		name += "_total"
	}
	p.typeLine(name, "counter")
	p.sample(name, labels, v)
}

// Gauge writes one gauge sample.
func (p *PromWriter) Gauge(name, labels string, v float64) {
	p.typeLine(name, "gauge")
	p.sample(name, labels, v)
}

// Histogram writes one histogram series (cumulative le buckets in
// seconds, _sum, _count) from a registry Histogram. name is the
// mangled family base name without the _seconds suffix.
func (p *PromWriter) Histogram(name, labels string, h *Histogram) {
	bounds, cumulative, sum, count := h.Buckets()
	name += "_seconds"
	p.typeLine(name, "histogram")
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	for i, b := range bounds {
		le := strconv.FormatFloat(b.Seconds(), 'g', -1, 64)
		lbl := `{le="` + le + `"}`
		if inner != "" {
			lbl = "{" + inner + `,le="` + le + `"}`
		}
		p.sample(name+"_bucket", lbl, float64(cumulative[i]))
	}
	lbl := `{le="+Inf"}`
	if inner != "" {
		lbl = "{" + inner + `,le="+Inf"}`
	}
	p.sample(name+"_bucket", lbl, float64(count))
	p.sample(name+"_sum", labels, sum.Seconds())
	p.sample(name+"_count", labels, float64(count))
}

// LabeledRegistry pairs a registry with the label set its series
// carry (e.g. one per class runtime, labeled {class="X"}).
type LabeledRegistry struct {
	Labels string
	Reg    *Registry
}

// Registries renders several labeled registries merged by family: the
// exposition format requires every sample of a family to form one
// contiguous group, so per-class registries sharing metric names must
// be interleaved by name, not concatenated. A scrape-time gauge
// (Registry.GaugeFunc) is evaluated here, outside its registry's lock.
func (p *PromWriter) Registries(regs ...LabeledRegistry) {
	type snap struct {
		labels     string
		counters   map[string]*Counter
		gauges     map[string]func() float64
		histograms map[string]*Histogram
	}
	snaps := make([]snap, 0, len(regs))
	counterNames := map[string]bool{}
	gaugeNames := map[string]bool{}
	histNames := map[string]bool{}
	for _, lr := range regs {
		if lr.Reg == nil {
			continue
		}
		r := lr.Reg
		r.mu.Lock()
		s := snap{
			labels:     lr.Labels,
			counters:   make(map[string]*Counter, len(r.counters)),
			gauges:     make(map[string]func() float64, len(r.gauges)+len(r.gaugeFuncs)),
			histograms: make(map[string]*Histogram, len(r.histograms)),
		}
		for k, c := range r.counters {
			s.counters[k] = c
			counterNames[k] = true
		}
		for k, g := range r.gauges {
			s.gauges[k] = func() float64 { return float64(g.Value()) }
			gaugeNames[k] = true
		}
		for k, fn := range r.gaugeFuncs {
			s.gauges[k] = fn
			gaugeNames[k] = true
		}
		for k, h := range r.histograms {
			s.histograms[k] = h
			histNames[k] = true
		}
		r.mu.Unlock()
		snaps = append(snaps, s)
	}
	for _, k := range sortedKeys(counterNames) {
		for _, s := range snaps {
			if c, ok := s.counters[k]; ok {
				p.Counter(PromName(k), s.labels, float64(c.Value()))
			}
		}
	}
	for _, k := range sortedKeys(gaugeNames) {
		for _, s := range snaps {
			if g, ok := s.gauges[k]; ok {
				p.Gauge(PromName(k), s.labels, g())
			}
		}
	}
	for _, k := range sortedKeys(histNames) {
		for _, s := range snaps {
			if h, ok := s.histograms[k]; ok && h.Count() > 0 {
				p.Histogram(PromName(k), s.labels, h)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Bytes returns the rendered exposition.
func (p *PromWriter) Bytes() []byte { return p.buf.Bytes() }
