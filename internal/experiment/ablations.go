package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/loadgen"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/metrics"
	"github.com/hpcclab/oparaca-go/internal/runtime"
)

// --- Ablation A1: write-behind batch consolidation -------------------

// BatchRow is one point of the batch-size ablation: how many database
// write operations a thousand invocations cost under each persistence
// configuration. This isolates the mechanism §V credits for Oparaca's
// win ("distributed in-memory hash table to consolidate data for batch
// write operations").
type BatchRow struct {
	Config          string  `json:"config"`
	ThroughputOPS   float64 `json:"throughput_ops"`
	DBWritesPer1kOp float64 `json:"db_writes_per_1k_ops"`
}

// RunBatchAblation compares write-through against write-behind at
// several flush intervals on a fixed 9-VM cluster.
func RunBatchAblation(ctx context.Context, p Params) ([]BatchRow, error) {
	type cfg struct {
		name  string
		table memtable.Mode
		flush time.Duration
	}
	cfgs := []cfg{
		{"write-through", memtable.ModeWriteThrough, 0},
		{"write-behind/5ms", memtable.ModeWriteBehind, 5 * time.Millisecond},
		{"write-behind/20ms", memtable.ModeWriteBehind, 20 * time.Millisecond},
		{"write-behind/80ms", memtable.ModeWriteBehind, 80 * time.Millisecond},
	}
	var rows []BatchRow
	for _, c := range cfgs {
		tmpl := p.template(SystemOprcBypass, 9)
		tmpl.TableMode = c.table
		if c.flush > 0 {
			tmpl.FlushInterval = c.flush
		}
		rep, writes, err := measure(ctx, tmpl, 9, p)
		if err != nil {
			return rows, err
		}
		per1k := 0.0
		if rep.Ops > 0 {
			per1k = float64(writes) / float64(rep.Ops) * 1000
		}
		rows = append(rows, BatchRow{Config: c.name, ThroughputOPS: rep.ThroughputOPS, DBWritesPer1kOp: per1k})
	}
	return rows, nil
}

// --- Ablation A2: cold start / scale-to-zero -------------------------

// ColdStartRow summarizes the cold-vs-warm invocation latency of the
// Knative-style engine (paper §III-C's integration trade-off).
type ColdStartRow struct {
	ColdP50    time.Duration `json:"cold_p50"`
	WarmP50    time.Duration `json:"warm_p50"`
	ColdStarts int64         `json:"cold_starts"`
	Rounds     int           `json:"rounds"`
}

// RunColdStartAblation alternates idle periods (long enough for
// scale-to-zero) with invocation bursts and compares first-request
// latency against steady-state latency.
func RunColdStartAblation(ctx context.Context, rounds int, coldStart time.Duration) (ColdStartRow, error) {
	if rounds <= 0 {
		rounds = 5
	}
	noServe := false
	tmpl := runtime.Template{
		Name:       "coldstart",
		EngineMode: faas.ModeKnative, TableMode: memtable.ModeMemoryOnly,
		DefaultConcurrency: 16, MinScale: 0, MaxScale: 8, InitialScale: 0,
	}
	plat, err := core.New(core.Config{
		Workers:          2,
		FaaS:             faas.Settings{ScaleInterval: 5 * time.Millisecond, IdleTimeout: 30 * time.Millisecond, ColdStart: coldStart},
		Templates:        []runtime.Template{tmpl},
		ServeObjectStore: &noServe,
	})
	if err != nil {
		return ColdStartRow{}, err
	}
	defer plat.Close()
	plat.Images().Register("img/json-random", randomizeHandler())
	if _, err := plat.DeployYAML(ctx, []byte(jsonRandomPackage)); err != nil {
		return ColdStartRow{}, err
	}
	id, err := plat.CreateObject(ctx, "JsonStore", "cs-0")
	if err != nil {
		return ColdStartRow{}, err
	}
	rt, err := plat.Runtime("JsonStore")
	if err != nil {
		return ColdStartRow{}, err
	}
	clock := plat.Clock()
	var cold, warm metrics.Histogram
	for r := 0; r < rounds; r++ {
		// Wait for scale-to-zero.
		deadline := clock.Now().Add(5 * time.Second)
		for {
			n, err := rt.Engine().Replicas("JsonStore.randomize")
			if err != nil {
				return ColdStartRow{}, err
			}
			if n == 0 {
				break
			}
			if clock.Now().After(deadline) {
				return ColdStartRow{}, fmt.Errorf("experiment: function never scaled to zero")
			}
			if err := clock.Sleep(ctx, 2*time.Millisecond); err != nil {
				return ColdStartRow{}, err
			}
		}
		start := clock.Now()
		if _, err := plat.Invoke(ctx, id, "randomize", nil, nil); err != nil {
			return ColdStartRow{}, err
		}
		cold.Observe(clock.Since(start))
		// Warm invocations immediately after.
		for i := 0; i < 10; i++ {
			start = clock.Now()
			if _, err := plat.Invoke(ctx, id, "randomize", nil, nil); err != nil {
				return ColdStartRow{}, err
			}
			warm.Observe(clock.Since(start))
		}
	}
	var coldStarts int64
	for _, s := range rt.Engine().Stats() {
		coldStarts += s.ColdStarts
	}
	return ColdStartRow{
		ColdP50:    cold.Quantile(0.5),
		WarmP50:    warm.Quantile(0.5),
		ColdStarts: coldStarts,
		Rounds:     rounds,
	}, nil
}

// --- Ablation A3: dataflow parallelism -------------------------------

// DataflowRow compares a parallel fan-out dataflow against the
// equivalent sequential chain over the same functions (paper §II-B:
// "the platform handles parallelism ... in the background").
type DataflowRow struct {
	Shape    string        `json:"shape"`
	Steps    int           `json:"steps"`
	MeanTime time.Duration `json:"mean_time"`
}

// dataflowPackage builds a class whose "fan" dataflow runs width
// middle steps in parallel and whose "chain" dataflow runs the same
// steps sequentially.
func dataflowPackage(width int) string {
	pkg := `classes:
  - name: Flow
    functions:
      - name: work
        image: img/slow
    dataflows:
      - name: fan
        output: sink
        steps:
          - name: src
            function: work
`
	for i := 0; i < width; i++ {
		pkg += fmt.Sprintf("          - name: mid%d\n            function: work\n            after: [src]\n", i)
	}
	pkg += "          - name: sink\n            function: work\n            after: ["
	for i := 0; i < width; i++ {
		if i > 0 {
			pkg += ", "
		}
		pkg += fmt.Sprintf("mid%d", i)
	}
	pkg += "]\n"
	pkg += "      - name: chain\n        steps:\n          - name: s0\n            function: work\n"
	for i := 1; i < width+2; i++ {
		pkg += fmt.Sprintf("          - name: s%d\n            function: work\n            after: [s%d]\n", i, i-1)
	}
	return pkg
}

// RunDataflowAblation measures fan vs chain makespan for the given
// parallel width and per-step duration.
func RunDataflowAblation(ctx context.Context, width int, stepTime time.Duration, repeats int) ([]DataflowRow, error) {
	if width <= 0 {
		width = 4
	}
	if repeats <= 0 {
		repeats = 5
	}
	noServe := false
	tmpl := runtime.Template{
		Name:       "dataflow",
		EngineMode: faas.ModeDeployment, TableMode: memtable.ModeMemoryOnly,
		DefaultConcurrency: 64, InitialScale: 2, MaxScale: 16,
	}
	plat, err := core.New(core.Config{
		Workers:          2,
		Templates:        []runtime.Template{tmpl},
		ServeObjectStore: &noServe,
	})
	if err != nil {
		return nil, err
	}
	defer plat.Close()
	clock := plat.Clock()
	plat.Images().Register("img/slow", invoker.HandlerFunc(func(ctx context.Context, _ invoker.Task) (invoker.Result, error) {
		if err := clock.Sleep(ctx, stepTime); err != nil {
			return invoker.Result{}, err
		}
		return invoker.Result{Output: json.RawMessage(`"ok"`)}, nil
	}))
	if _, err := plat.DeployYAML(ctx, []byte(dataflowPackage(width))); err != nil {
		return nil, err
	}
	id, err := plat.CreateObject(ctx, "Flow", "flow-0")
	if err != nil {
		return nil, err
	}
	measure := func(flow string) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < repeats; i++ {
			start := clock.Now()
			if _, err := plat.Invoke(ctx, id, flow, nil, nil); err != nil {
				return 0, err
			}
			total += clock.Since(start)
		}
		return total / time.Duration(repeats), nil
	}
	fan, err := measure("fan")
	if err != nil {
		return nil, err
	}
	chain, err := measure("chain")
	if err != nil {
		return nil, err
	}
	return []DataflowRow{
		{Shape: "fan (parallel)", Steps: width + 2, MeanTime: fan},
		{Shape: "chain (sequential)", Steps: width + 2, MeanTime: chain},
	}, nil
}

// --- Ablation A4: data locality (read-through cache) ------------------

// LocalityRow compares invocation latency when object state must be
// fetched from the remote document store (cold cache) against state
// already co-located in the class runtime's in-memory table (paper
// §II-A: "proactively distribute [data] across the platform instances
// close to the deployed method").
type LocalityRow struct {
	ColdP50 time.Duration `json:"cold_p50"`
	WarmP50 time.Duration `json:"warm_p50"`
	Hits    int64         `json:"hits"`
	Misses  int64         `json:"misses"`
}

// RunLocalityAblation seeds object state in the backing store, then
// measures first-touch (read-through) vs cached invocation latency.
func RunLocalityAblation(ctx context.Context, objects int, dbReadLatency time.Duration) (LocalityRow, error) {
	if objects <= 0 {
		objects = 64
	}
	noServe := false
	tmpl := runtime.Template{
		Name:       "locality",
		EngineMode: faas.ModeDeployment, TableMode: memtable.ModeWriteBehind,
		FlushInterval: 10 * time.Millisecond, DefaultConcurrency: 64,
		InitialScale: 2, MaxScale: 16,
	}
	plat, err := core.New(core.Config{
		Workers:          2,
		DB:               kvstore.Settings{ReadLatency: dbReadLatency},
		Templates:        []runtime.Template{tmpl},
		ServeObjectStore: &noServe,
	})
	if err != nil {
		return LocalityRow{}, err
	}
	defer plat.Close()
	// The class declares no default for "doc", so freshly created
	// objects have nothing in the in-memory table and the first invoke
	// must read through to the document store.
	const localityPackage = `classes:
  - name: JsonStore
    keySpecs:
      - name: doc
    functions:
      - name: randomize
        image: img/json-random
`
	plat.Images().Register("img/json-random", randomizeHandler())
	if _, err := plat.DeployYAML(ctx, []byte(localityPackage)); err != nil {
		return LocalityRow{}, err
	}
	ids := make([]string, objects)
	for i := range ids {
		id, err := plat.CreateObject(ctx, "JsonStore", fmt.Sprintf("loc-%04d", i))
		if err != nil {
			return LocalityRow{}, err
		}
		ids[i] = id
	}
	// Seed state directly into the backing store so the first invoke
	// must read through.
	for _, id := range ids {
		key := "state/JsonStore/" + id + "/doc"
		if _, err := plat.Backing().Put(ctx, key, json.RawMessage(`{"seeded":true}`)); err != nil {
			return LocalityRow{}, err
		}
	}
	clock := plat.Clock()
	var cold, warm metrics.Histogram
	for _, id := range ids {
		start := clock.Now()
		if _, err := plat.Invoke(ctx, id, "randomize", nil, nil); err != nil {
			return LocalityRow{}, err
		}
		cold.Observe(clock.Since(start))
	}
	for _, id := range ids {
		start := clock.Now()
		if _, err := plat.Invoke(ctx, id, "randomize", nil, nil); err != nil {
			return LocalityRow{}, err
		}
		warm.Observe(clock.Since(start))
	}
	rt, err := plat.Runtime("JsonStore")
	if err != nil {
		return LocalityRow{}, err
	}
	st := rt.Table().Stats()
	return LocalityRow{
		ColdP50: cold.Quantile(0.5),
		WarmP50: warm.Quantile(0.5),
		Hits:    st.Hits,
		Misses:  st.Misses,
	}, nil
}

// --- Ablation A5: requirement-driven template selection ---------------

// TemplateRow reports which template the platform selected for a class
// and the throughput/latency it achieved under identical load, with
// the QoS optimizer running (the template picks the runtime design;
// the optimizer holds capacity for the declared requirement).
type TemplateRow struct {
	Class         string        `json:"class"`
	Template      string        `json:"template"`
	RequiredRPS   float64       `json:"required_rps"`
	ThroughputOPS float64       `json:"throughput_ops"`
	P95           time.Duration `json:"p95"`
	MeetsQoS      bool          `json:"meets_qos"`
}

// templateAblationPackage declares three classes that differ only in
// their non-functional requirements.
const templateAblationPackage = `classes:
  - name: Plain
    keySpecs:
      - name: doc
        default: {}
    functions:
      - name: randomize
        image: img/json-random
  - name: HighThroughput
    qos:
      throughput: 5000
    keySpecs:
      - name: doc
        default: {}
    functions:
      - name: randomize
        image: img/json-random
  - name: Ephemeral
    constraint:
      persistent: false
    keySpecs:
      - name: doc
        default: {}
    functions:
      - name: randomize
        image: img/json-random
`

// RunTemplateAblation deploys the three classes under the stock
// template set and measures each under the same closed-loop load, after
// a warm-up as long as the measurement.
//
// Whether HighThroughput meets its 5 000 ops/s requirement (MeetsQoS:
// 95 % of it) depends on how long the optimizer has had. In virtual
// time it reached 3 763–4 920 ops/s at 300 ms with 32 clients, meeting
// it in 1 of 5 runs, 4 201–4 627 at 700 ms with 128 (0 of 3), and
// 4 860–4 972 only at 2 s (3 of 3). In real time, on a 2-vCPU host, it
// met it at 700 ms with 128 clients (4 798 and 4 827) and in 1 of 2
// runs at 300 ms with 32 (4 319 and 5 035). The tests gate only the
// template selection.
func RunTemplateAblation(ctx context.Context, duration time.Duration, concurrency int) ([]TemplateRow, error) {
	if duration <= 0 {
		duration = 500 * time.Millisecond
	}
	if concurrency <= 0 {
		concurrency = 64
	}
	noServe := false
	plat, err := core.New(core.Config{
		Workers:           4,
		OpsPerMilliCPU:    0.5,
		DB:                kvstore.Settings{WriteOpsPerSec: 3000},
		FaaS:              faas.Settings{ScaleInterval: 20 * time.Millisecond, IdleTimeout: time.Minute, ColdStart: 10 * time.Millisecond},
		EnableOptimizer:   true,
		OptimizerInterval: 50 * time.Millisecond,
		ServeObjectStore:  &noServe,
	})
	if err != nil {
		return nil, err
	}
	defer plat.Close()
	plat.Images().Register("img/json-random", randomizeHandler())
	if _, err := plat.DeployYAML(ctx, []byte(templateAblationPackage)); err != nil {
		return nil, err
	}
	var rows []TemplateRow
	for _, class := range []string{"Plain", "HighThroughput", "Ephemeral"} {
		id, err := plat.CreateObject(ctx, class, "")
		if err != nil {
			return rows, err
		}
		cfg := loadgen.Config{Concurrency: concurrency, Duration: duration}
		op := func(ctx context.Context, _ int) error {
			_, err := plat.Invoke(ctx, id, "randomize", nil, nil)
			return err
		}
		// A full-duration warm-up lets the requirement-driven optimizer
		// converge before the measurement.
		loadgen.Run(ctx, cfg, op)
		rep := loadgen.Run(ctx, cfg, op)
		rt, err := plat.Runtime(class)
		if err != nil {
			return rows, err
		}
		required := rt.Class().QoS.ThroughputRPS
		rows = append(rows, TemplateRow{
			Class:         class,
			Template:      rt.Template().Name,
			RequiredRPS:   required,
			ThroughputOPS: rep.ThroughputOPS,
			P95:           rep.Latency.P95,
			MeetsQoS:      required == 0 || rep.ThroughputOPS >= required*0.95,
		})
	}
	return rows, nil
}
