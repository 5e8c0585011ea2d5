package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// The histogram promises ≤ 1 % error at any percentile.
func TestHistQuantileError(t *testing.T) {
	r := rng{s: 42}
	var h hist
	values := make([]float64, 200000)
	for i := range values {
		// Log-uniform over 1 µs … 100 ms, the range latencies live in.
		v := int64(1e3 * math.Pow(1e5, float64(r.next()>>11)/(1<<53)))
		values[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(values)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := values[int(q*float64(len(values)))-1]
		if got := h.quantile(q); math.Abs(got-exact)/exact > 0.01 {
			t.Errorf("q%.3f: got %.1f, exact %.1f (%.2f %% off)", q, got, exact, 100*math.Abs(got-exact)/exact)
		}
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&h)
	if merged.n != 2*h.n || merged.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merge changed the median: %v vs %v", merged.quantile(0.5), h.quantile(0.5))
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Error("empty histogram must report 0")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4),
// which the acceptance driver applies to run-level values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 5, 7.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(tc.in)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
	s := summarize([]float64{100, 104, 96, 102, 98, 101, 99, 103, 97}, "us")
	if s.Median != 100 || s.N != 9 || math.Abs(s.spread()-0.05) > 1e-9 {
		t.Errorf("median of windows: %+v spread %v", s, s.spread())
	}
}

// A level's self time is its median minus its children's; the parts
// add back up to the round trip less the seam between the served and
// the directly called gateway.
func TestBudgetSelfTimes(t *testing.T) {
	m := levelMedians{
		roundtrip: 50e3, httpSelf: 20e3, gwLevel: 28e3, core: 18e3, runtime: 16e3,
		load: 1e3, commit: 2e3, faas: 3e3, handlerInFaas: 2e3, handler: 2e3,
	}
	write := m.budget(true)
	for name, want := range map[string]float64{
		"http.self_us": 20, "gateway.self_us": 10, "core.self_us": 2, "runtime.self_us": 10,
		"memtable.load_us": 1, "memtable.commit_us": 2, "faas.self_us": 1, "handler.self_us": 2,
		"reconcile.sum_us": 48, "reconcile.roundtrip_us": 50,
	} {
		if got := write[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("write %s = %v, want %v", name, got, want)
		}
	}
	// A read never commits: the commit is no child of the runtime and no
	// part of the sum, though the probe still reports it.
	read := m.budget(false)
	if read["runtime.self_us"] != 12 || read["reconcile.sum_us"] != 48 || read["memtable.commit_us"] != 2 {
		t.Errorf("read budget: %v", read)
	}
}

func TestSameSeedSameOpStream(t *testing.T) {
	draw := func(seed uint64, client int) (objs []int, payloads [][]byte) {
		s := newStream(seed, "sync_write/windows", client, 4, fullSizes.docObjects)
		for range 500 {
			objs = append(objs, s.nextObject())
			payloads = append(payloads, s.nextPayload(nil))
		}
		return objs, payloads
	}
	o1, p1 := draw(7, 1)
	o2, p2 := draw(7, 1)
	o3, _ := draw(8, 1)
	same, differ := true, false
	for i := range o1 {
		same = same && o1[i] == o2[i] && bytes.Equal(p1[i], p2[i])
		differ = differ || o1[i] != o3[i]
		if o1[i]%4 != 1 || o1[i] >= fullSizes.docObjects {
			t.Fatalf("client 1 of 4 drew object %d, outside its slice", o1[i])
		}
		if len(p1[i]) != payloadBytes || !json.Valid(p1[i]) {
			t.Fatalf("payload %q is not %d bytes of JSON", p1[i], payloadBytes)
		}
	}
	if !same || !differ {
		t.Errorf("same seed identical: %v; other seed differs: %v", same, differ)
	}
	doc := appendDoc(nil, 7, 3, 5)
	if len(doc) != docBytes || !json.Valid(doc) || !bytes.Equal(doc, appendDoc(nil, 7, 3, 5)) || bytes.Equal(doc, appendDoc(nil, 7, 3, 6)) {
		t.Errorf("doc %q: want %d bytes of JSON, a pure function of (seed, object, n)", doc, docBytes)
	}
	if id := objectID('d', 42); id != "d00042" || objectIndex(id) != 42 || objectIndex("bench-probe") != -1 {
		t.Errorf("objectID/objectIndex round trip broken: %q", id)
	}
}

// The verdicts at their boundaries, for the shipped bounds and for sets
// of ten runs, as the acceptance driver takes them.
func TestCompareVerdictBoundaries(t *testing.T) {
	byName := map[string]metricDef{}
	for _, m := range endToEnd {
		byName[m.name] = m
	}
	// A set of ten runs around median whose quartiles lie spread apart
	// (as a share of the median).
	set := func(median, spread float64) summary {
		return summary{Median: median, Q1: median * (1 - spread/2), Q3: median * (1 + spread/2), N: 10}
	}
	const eps = 1e-6
	for _, name := range []string{"throughput_ops_s", "latency_p50_us", "latency_p90_us", "cpu_us_per_op", "allocs_per_op", "live_heap_mb", "setup_s"} {
		m := byName[name]
		worse := func(by float64) float64 { // the median of a set worse than 100 by that share
			if m.better == "higher" {
				return 100 * (1 - by)
			}
			return 100 * (1 + by)
		}
		tight := m.bound / 3
		for _, tc := range []struct {
			a, b summary
			want string
		}{
			{set(100, tight), set(worse(m.bound-eps), tight), "within"},
			{set(100, tight), set(worse(m.bound+eps), tight), "worse"},
			{set(100, tight), set(worse(-0.5), tight), "within"}, // better is never worse
			{set(100, m.bound+eps), set(100, tight), "unresolved"},
			{set(100, tight), set(100, m.bound+eps), "unresolved"},
			{set(100, tight), set(100, m.bound-eps), "within"},
			{set(100, m.bound+eps), set(worse(m.bound+eps), tight), "worse"}, // a loss past the bound shows whatever the spread
		} {
			if got := verdict(m, tc.a, tc.b); got != tc.want {
				t.Errorf("%s: verdict(%+v, %+v) = %s, want %s", name, tc.a, tc.b, got, tc.want)
			}
		}
		few := set(100, tight)
		few.N = minRuns - 1
		if got := verdict(m, few, set(100, tight)); got != "unresolved" {
			t.Errorf("%s: %d runs a side gave %s, want unresolved", name, few.N, got)
		}
	}
	a := stamp{Windows: 54, WindowS: 0.5, Clients: 2, Seed: 1, GOMAXPROCS: 2}
	b := a
	if stampMismatch(a, b) != "" {
		t.Error("identical stamps must compare")
	}
	for _, change := range []func(*stamp){
		func(s *stamp) { s.Windows = 9 }, func(s *stamp) { s.WindowS = 2 }, func(s *stamp) { s.Clients = 4 },
		func(s *stamp) { s.Seed = 2 }, func(s *stamp) { s.GOMAXPROCS = 8 },
	} {
		b = a
		change(&b)
		if stampMismatch(a, b) == "" {
			t.Errorf("stamps %+v and %+v must be refused", a, b)
		}
	}
}

// BENCHMARK.json and the tables in metrics.go/workload.go describe the
// same benchmark.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %+v", i, spec.Workloads[i], w)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(got), kind, len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s metric %d: %+v vs %+v", kind, i, g, m)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)
}

// TestSmoke boots every workload on a small population, measures short
// windows, runs the traced pass and applies every correctness gate, so
// the benchmark cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.name
	}
	cfg := config{
		seed: 5, clients: 2, windows: 2, windowLen: 100 * time.Millisecond, probeLen: 20 * time.Millisecond, setups: 1, traced: true,
		sizes: sizes{docObjects: 256, evObjects: 64, warmupOps: 400, tracedOps: 64},
	}
	sessions, err := runSessions(names, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		wr := s.result()
		for _, v := range wr.Violations {
			t.Errorf("%s: %s", s.w.name, v)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d failed of %d attempted", s.w.name, wr.Failed, wr.Attempted)
		}
		for _, m := range endToEnd {
			if e := wr.EndToEnd[m.name]; e.Median <= 0 || e.Unit != m.unit {
				t.Errorf("%s: end-to-end %s = %+v", s.w.name, m.name, e)
			}
		}
		for _, m := range perLayer {
			if _, ok := wr.PerLayer[m.name]; !ok {
				t.Errorf("%s: per-layer %s missing", s.w.name, m.name)
			}
		}
		if len(wr.Windows) != cfg.windows || len(s.spans) == 0 {
			t.Errorf("%s: %d window rows, %d spans", s.w.name, len(wr.Windows), len(s.spans))
		}
		for _, row := range wr.Windows {
			if row.HostSpeed <= 0 || row.OpsPerS <= 0 {
				t.Errorf("%s: window row %+v", s.w.name, row)
			}
		}
	}
}
