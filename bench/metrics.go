package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds (a test holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: allowed worsening, as a share of the baseline median
}

// endToEnd are the metrics a user of the platform would see, one value
// per workload. failed_share is reported beside them (and gates the
// run: any failure is a correctness violation) but is not listed here
// because it is 0 on every healthy run, and the acceptance driver takes
// only metrics that are never 0 (it reads attempted and failed from
// the result line instead).
//
// The issue asked for 10 % on the four time-based metrics. The
// acceptance driver rejects a benchmark whose ten runs of unchanged
// code spread (interquartile range ÷ median) wider than the bound, and
// asks for a spread under a third of it. Two sets of ten runs on the
// shared 2-vCPU sizing box, after host-speed normalisation, spread
// 2.6–11.1 % (throughput), 2.1–7.6 % (p50), 2.6–9.0 % (p90) and
// 2.0–7.0 % (CPU), and their medians moved by up to 8.7 % between the
// sets (README.md has the table): a 10 % bound would reject unchanged
// code there, so each bound is three times the widest spread seen,
// capped at the 25 % the driver allows. allocs_per_op and live_heap_mb
// repeat to a fraction of a percent and keep the issue's bounds.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p90_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics: outside-timed self times from
// the serial traced pass, and ratios of the layers' own counters over
// the untraced windows.
var perLayer = []metricDef{
	{"http.self_us", "us", "lower", 0},
	{"http.floor_us", "us", "lower", 0},
	{"gateway.self_us", "us", "lower", 0},
	{"gateway.allocs_per_op", "count", "lower", 0},
	{"core.self_us", "us", "lower", 0},
	{"core.allocs_per_op", "count", "lower", 0},
	{"runtime.self_us", "us", "lower", 0},
	{"runtime.aborts_per_commit", "ratio", "lower", 0},
	{"runtime.fallbacks_per_op", "ratio", "lower", 0},
	{"runtime.readonly_share", "ratio", "higher", 0},
	{"memtable.load_us", "us", "lower", 0},
	{"memtable.commit_us", "us", "lower", 0},
	{"memtable.hit_ratio", "ratio", "higher", 0},
	{"memtable.docs_per_flush", "count", "higher", 0},
	{"kvstore.write_ops_per_op", "ratio", "lower", 0},
	{"kvstore.read_ops_per_op", "ratio", "lower", 0},
	{"kvstore.docs_per_write", "count", "higher", 0},
	{"kvstore.batchput_us_per_doc", "us", "lower", 0},
	{"faas.self_us", "us", "lower", 0},
	{"handler.self_us", "us", "lower", 0},
	{"asyncq.submit_us", "us", "lower", 0},
	{"asyncq.queue_wait_p50_us", "us", "lower", 0},
	{"asyncq.queue_wait_p90_us", "us", "lower", 0},
	{"asyncq.exec_p50_us", "us", "lower", 0},
	{"asyncq.coalesced_share", "ratio", "higher", 0},
	{"asyncq.rejected_per_op", "ratio", "lower", 0},
	{"eventlog.append_us", "us", "lower", 0},
	{"eventlog.appends_per_op", "ratio", "lower", 0},
	{"eventlog.kv_writes_per_append", "ratio", "lower", 0},
	{"trigger.publish_us", "us", "lower", 0},
	{"trigger.delivery_lag_p50_us", "us", "lower", 0},
	{"trigger.delivery_lag_p90_us", "us", "lower", 0},
	{"trigger.dropped_per_op", "ratio", "lower", 0},
	{"trigger.retried_per_op", "ratio", "lower", 0},
	{"trigger.duplicates_per_op", "ratio", "lower", 0},
	{"trace.span_us", "us", "lower", 0},
	{"trace.kept_share", "ratio", "lower", 0},
	{"metrics.scrape_ms", "ms", "lower", 0},
	{"client.latency_p99_us", "us", "lower", 0},
	{"client.latency_p999_us", "us", "lower", 0},
	{"bench.traced_p50_ratio", "ratio", "lower", 0},
}

// summary is one end-to-end metric of one workload: the median window
// with its quartiles and sample count. For the time-based metrics the
// values are at reference host speed and Raw is the median as measured
// (real operations per real second, real microseconds).
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	Raw    float64 `json:"raw_median,omitempty"`
}

func summarize(values []float64, unit string) summary {
	q1, med, q3 := quartiles(values)
	return summary{Median: med, Q1: q1, Q3: q3, N: len(values), Unit: unit}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// endToEndOf folds a session's windows into the end-to-end metrics. A
// rate is divided by its window's host speed and a time multiplied by
// it, per window, before the median is taken.
func (s *session) endToEndOf() map[string]summary {
	rows := make([]windowRow, len(s.windows))
	for i, w := range s.windows {
		rows[i] = w.row()
	}
	timed := func(unit string, raw func(r windowRow) float64, rate bool) summary {
		norm, asMeasured := make([]float64, len(rows)), make([]float64, len(rows))
		for i, r := range rows {
			asMeasured[i] = raw(r)
			if norm[i] = asMeasured[i] * r.HostSpeed; rate {
				norm[i] = asMeasured[i] / r.HostSpeed
			}
		}
		sum := summarize(norm, unit)
		sum.Raw = median(asMeasured)
		return sum
	}
	allocs := make([]float64, len(rows))
	for i, r := range rows {
		allocs[i] = r.AllocsPerOp
	}
	setup := summarize(s.setups, "s")
	setup.Raw = median(s.rawSetups)
	return map[string]summary{
		"throughput_ops_s": timed("ops/s", func(r windowRow) float64 { return r.OpsPerS }, true),
		"latency_p50_us":   timed("us", func(r windowRow) float64 { return r.P50Us }, false),
		"latency_p90_us":   timed("us", func(r windowRow) float64 { return r.P90Us }, false),
		"cpu_us_per_op":    timed("us", func(r windowRow) float64 { return r.CPUUsPerOp }, false),
		"allocs_per_op":    summarize(allocs, "count"),
		"live_heap_mb":     summarize([]float64{s.heapMB}, "MB"),
		"setup_s":          setup,
	}
}

// counterLayers derives the *counter* per-layer metrics from what the
// layers' own counters gained between the first window's start and
// now, just after the last window (called before the traced pass).
func (s *session) counterLayers() {
	var ops int64
	for _, w := range s.windows {
		ops += w.ops
	}
	a, b, L := s.w.readCounters(), s.before, s.layers
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	kept, traces := a.traceKept-b.traceKept, a.traceKept-b.traceKept+a.traceDropped-b.traceDropped
	reads := a.hits - b.hits + a.misses - b.misses
	L["runtime.aborts_per_commit"] = ratio(a.aborts-b.aborts, a.commits-b.commits)
	L["runtime.fallbacks_per_op"] = ratio(a.fallbacks-b.fallbacks, ops)
	L["runtime.readonly_share"] = ratio(a.readonly-b.readonly, a.invokes-b.invokes)
	L["memtable.hit_ratio"] = ratio(a.hits-b.hits, reads)
	L["memtable.docs_per_flush"] = ratio(a.flushDocs-b.flushDocs, a.flushes-b.flushes)
	L["kvstore.write_ops_per_op"] = ratio(a.kvWrites-b.kvWrites, ops)
	L["kvstore.read_ops_per_op"] = ratio(a.kvReads-b.kvReads, ops)
	L["kvstore.docs_per_write"] = ratio(a.kvDocs-b.kvDocs, a.kvWrites-b.kvWrites)
	L["asyncq.coalesced_share"] = ratio(a.coalesced-b.coalesced, a.asyncDone-b.asyncDone)
	L["asyncq.rejected_per_op"] = ratio(a.rejected-b.rejected, ops)
	L["eventlog.appends_per_op"] = ratio(a.appended-b.appended, ops)
	L["trigger.dropped_per_op"] = ratio(a.dropped-b.dropped, ops)
	L["trigger.retried_per_op"] = ratio(a.retried-b.retried, ops)
	L["trace.kept_share"] = ratio(kept, traces)
	L["client.latency_p99_us"] = us(s.all.quantile(0.99))
	L["client.latency_p999_us"] = us(s.all.quantile(0.999))
	L["trigger.duplicates_per_op"] = 0
	if ev := s.w.ev; ev != nil {
		L["trigger.duplicates_per_op"] = ratio(ev.duplicates.Load(), ops)
	}
}

// expectation is a property the seed is expected to have on one
// workload; a miss is reported as a product finding, never loosened.
type expectation struct {
	Text string `json:"text"`
	Held bool   `json:"held"`
}

// expectations evaluates the workload's zero-expectations against the
// counter metrics.
func (s *session) expectations() []expectation {
	L := s.layers
	var out []expectation
	add := func(text string, held bool) { out = append(out, expectation{text, held}) }
	switch s.w.name {
	case "sync_read":
		add("kvstore.write_ops_per_op < 0.001", L["kvstore.write_ops_per_op"] < 0.001)
		add("kvstore.read_ops_per_op < 0.001", L["kvstore.read_ops_per_op"] < 0.001)
		add("eventlog.appends_per_op = 0", L["eventlog.appends_per_op"] == 0)
		add("asyncq.coalesced_share = 0", L["asyncq.coalesced_share"] == 0)
		add("runtime.aborts_per_commit = 0", L["runtime.aborts_per_commit"] == 0)
		add("runtime.readonly_share = 1", L["runtime.readonly_share"] == 1)
	case "sync_write":
		add("eventlog.appends_per_op = 0 (nobody subscribes)", L["eventlog.appends_per_op"] == 0)
		add("asyncq.coalesced_share = 0", L["asyncq.coalesced_share"] == 0)
		add("asyncq.rejected_per_op = 0", L["asyncq.rejected_per_op"] == 0)
	case "async_batch_hot":
		add("asyncq.rejected_per_op = 0", L["asyncq.rejected_per_op"] == 0)
	case "event_chain":
		add("eventlog.appends_per_op >= 1", L["eventlog.appends_per_op"] >= 1)
		add("trigger.dropped_per_op = 0", L["trigger.dropped_per_op"] == 0)
	}
	return out
}
