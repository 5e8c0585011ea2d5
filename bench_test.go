package oaas

// Benchmark harness regenerating the paper's evaluation (see
// EXPERIMENTS.md for the experiment index):
//
//   BenchmarkFigure3          – the scalability sweep of §V Figure 3
//                               (4 systems × 3/6/9/12 worker VMs);
//                               the "ops/s" metric is the figure's
//                               y-axis.
//   BenchmarkAblationBatchSize – A1: DB write amplification under
//                               write-through vs write-behind.
//   BenchmarkAblationColdStart – A2: scale-from-zero invocation.
//   BenchmarkAblationDataflow  – A3: parallel fan vs sequential chain.
//   BenchmarkAblationLocality  – A4: co-located vs remote state read.
//   BenchmarkMicro*            – substrate micro-benchmarks.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure 3 points are closed-loop measurements against a full platform
// per point, so the sweep takes a couple of minutes at default
// benchtime; pass -benchtime=0.3s for a quick pass.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/dataflow"
	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/experiment"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/objectstore"
	"github.com/hpcclab/oparaca-go/internal/runtime"
	"github.com/hpcclab/oparaca-go/internal/yamlx"
)

// BenchmarkFigure3 regenerates the paper's Figure 3: one sub-benchmark
// per (system, worker-count) point. The reported "ops/s" metric is the
// figure's y-axis; expect knative to plateau at the DB write ceiling
// (~6 VMs) while the Oparaca variants keep scaling in the order
// oprc < oprc-bypass < oprc-bypass-nonpersist.
func BenchmarkFigure3(b *testing.B) {
	params := experiment.DefaultParams()
	ctx := context.Background()
	for _, system := range experiment.AllSystems() {
		for _, workers := range params.Workers {
			name := fmt.Sprintf("%s/vms-%d", system, workers)
			b.Run(name, func(b *testing.B) {
				plat, ids, err := experiment.SetupPlatform(ctx, system, workers, params)
				if err != nil {
					b.Fatal(err)
				}
				defer plat.Close()
				b.SetParallelism(16) // 16*GOMAXPROCS closed-loop clients
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						id := ids[i%len(ids)]
						i++
						if _, err := plat.Invoke(ctx, id, "randomize", nil, nil); err != nil {
							b.Error(err)
							return
						}
					}
				})
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			})
		}
	}
}

// BenchmarkAblationBatchSize (A1) measures invocation throughput and
// DB write amplification for write-through vs write-behind at several
// flush intervals (9 VMs, as in the ablation table).
func BenchmarkAblationBatchSize(b *testing.B) {
	params := experiment.DefaultParams()
	ctx := context.Background()
	configs := []struct {
		name  string
		table memtable.Mode
		flush time.Duration
	}{
		{"write-through", memtable.ModeWriteThrough, 0},
		{"write-behind-5ms", memtable.ModeWriteBehind, 5 * time.Millisecond},
		{"write-behind-20ms", memtable.ModeWriteBehind, 20 * time.Millisecond},
		{"write-behind-80ms", memtable.ModeWriteBehind, 80 * time.Millisecond},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			tmpl := runtime.Template{
				Name:       cfg.name,
				EngineMode: EngineDeployment, TableMode: cfg.table,
				FlushInterval: cfg.flush, FlushBatchSize: 512,
				DefaultConcurrency: 16, InitialScale: 18, MaxScale: 400,
				InvokeCost: 1.33,
			}
			plat, ids, err := experiment.SetupCustomPlatform(ctx, tmpl, 9, params)
			if err != nil {
				b.Fatal(err)
			}
			defer plat.Close()
			before := plat.Backing().Stats()
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := plat.Invoke(ctx, ids[i%len(ids)], "randomize", nil, nil); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			after := plat.Backing().Stats()
			writes := float64(after.WriteOps - before.WriteOps)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(writes/float64(b.N)*1000, "dbwrites/1kops")
		})
	}
}

// BenchmarkAblationColdStart (A2) measures a full scale-from-zero
// invocation (idle wait + activator + cold start) per iteration.
func BenchmarkAblationColdStart(b *testing.B) {
	row, err := experiment.RunColdStartAblation(context.Background(), 3, 100*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(row.ColdP50.Microseconds()), "cold-p50-µs")
	b.ReportMetric(float64(row.WarmP50.Microseconds()), "warm-p50-µs")
	// Also exercise the steady path under the bench loop so the ns/op
	// column is meaningful (warm invocations).
	plat, ids, err := experiment.SetupPlatform(context.Background(),
		experiment.SystemOprcBypassNonpersist, 2, experiment.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	defer plat.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plat.Invoke(ctx, ids[i%len(ids)], "randomize", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDataflow (A3) compares the makespan of a parallel
// fan-out dataflow against the equivalent sequential chain.
func BenchmarkAblationDataflow(b *testing.B) {
	for _, shape := range []string{"fan", "chain"} {
		b.Run(shape, func(b *testing.B) {
			ctx := context.Background()
			plat, obj := setupDataflowBench(b, 4)
			defer plat.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plat.Invoke(ctx, obj, shape, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// setupDataflowBench deploys a class with "fan" and "chain" dataflows
// of the given width over a 2ms step function.
func setupDataflowBench(b *testing.B, width int) (*Platform, string) {
	b.Helper()
	noServe := false
	tmpl := Template{
		Name:       "dfbench",
		EngineMode: EngineDeployment, TableMode: TableMemoryOnly,
		DefaultConcurrency: 64, InitialScale: 2, MaxScale: 16,
	}
	plat, err := New(Config{Workers: 2, Templates: []Template{tmpl}, ServeObjectStore: &noServe})
	if err != nil {
		b.Fatal(err)
	}
	plat.Images().Register("img/slow", HandlerFunc(func(_ context.Context, _ Task) (Result, error) {
		// time.Sleep, not <-time.After: benchmarks never cancel
		// mid-handler, and the timer allocation would dominate the
		// per-op alloc counts these benches guard.
		time.Sleep(2 * time.Millisecond)
		return Result{Output: json.RawMessage(`"ok"`)}, nil
	}))
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
	pkg += "]\n      - name: chain\n        steps:\n          - name: s0\n            function: work\n"
	for i := 1; i < width+2; i++ {
		pkg += fmt.Sprintf("          - name: s%d\n            function: work\n            after: [s%d]\n", i, i-1)
	}
	ctx := context.Background()
	if _, err := plat.DeployYAML(ctx, []byte(pkg)); err != nil {
		b.Fatal(err)
	}
	id, err := plat.CreateObject(ctx, "Flow", "bench-flow")
	if err != nil {
		b.Fatal(err)
	}
	return plat, id
}

// BenchmarkAblationLocality (A4) reports cold (read-through from the
// remote store) vs warm (co-located) invocation latency.
func BenchmarkAblationLocality(b *testing.B) {
	row, err := experiment.RunLocalityAblation(context.Background(), 64, 5*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(row.ColdP50.Microseconds()), "cold-p50-µs")
	b.ReportMetric(float64(row.WarmP50.Microseconds()), "warm-p50-µs")
}

// BenchmarkAsyncInvokeThroughput compares blocking synchronous
// invocation against async+batch submission through the bounded queue,
// sweeping the async worker-pool size {1, 4, 16}. The sync baseline
// uses the same client parallelism as the pool under test so the
// comparison isolates the queue/decoupling overhead; "ops/s" counts
// completed invocations.
func BenchmarkAsyncInvokeThroughput(b *testing.B) {
	const handlerDelay = 200 * time.Microsecond
	setup := func(b *testing.B, asyncWorkers int) (*Platform, string) {
		b.Helper()
		noServe := false
		tmpl := Template{
			Name:       "asyncbench",
			EngineMode: EngineDeployment, TableMode: TableMemoryOnly,
			DefaultConcurrency: 64, InitialScale: 4, MaxScale: 64,
		}
		plat, err := New(Config{
			Workers: 2, OpsPerMilliCPU: 1000,
			Templates:          []Template{tmpl},
			ServeObjectStore:   &noServe,
			AsyncWorkers:       asyncWorkers,
			AsyncQueueCapacity: 4096,
		})
		if err != nil {
			b.Fatal(err)
		}
		plat.Images().Register("img/spin", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
			time.Sleep(handlerDelay) // see img/slow: no timer allocs in benches
			return Result{Output: task.Payload}, nil
		}))
		ctx := context.Background()
		pkg := "classes:\n  - name: W\n    functions:\n      - name: f\n        image: img/spin\n"
		if _, err := plat.DeployYAML(ctx, []byte(pkg)); err != nil {
			b.Fatal(err)
		}
		id, err := plat.CreateObject(ctx, "W", "bench-w")
		if err != nil {
			b.Fatal(err)
		}
		return plat, id
	}
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sync/clients-%d", workers), func(b *testing.B) {
			plat, id := setup(b, workers)
			defer plat.Close()
			ctx := context.Background()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < workers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := plat.Invoke(ctx, id, "f", nil, nil); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
		b.Run(fmt.Sprintf("async-batch/workers-%d", workers), func(b *testing.B) {
			plat, id := setup(b, workers)
			defer plat.Close()
			ctx := context.Background()
			const chunk = 256
			reqs := make([]AsyncRequest, 0, chunk)
			b.ResetTimer()
			for submitted := 0; submitted < b.N; {
				n := min(chunk, b.N-submitted)
				reqs = reqs[:0]
				for i := 0; i < n; i++ {
					reqs = append(reqs, AsyncRequest{Object: id, Member: "f"})
				}
				results := plat.InvokeAsyncBatch(ctx, reqs)
				// Wait out the chunk before submitting the next so the
				// bounded queue never overflows.
				for _, res := range results {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					rec, err := plat.WaitInvocation(ctx, res.ID)
					if err != nil {
						b.Fatal(err)
					}
					if rec.Status != InvocationCompleted {
						b.Fatalf("invocation %s: %s (%s)", res.ID, rec.Status, rec.Error)
					}
				}
				submitted += n
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkAsyncDrainThroughput measures the asynchronous drain path's
// group-commit batching: a submission burst builds a backlog, the
// worker pool drains it, and ops/s counts completed invocations. The
// state table is write-through with a simulated per-write DB latency,
// so the dominant per-invocation cost is the commit round trip — the
// exact cost DrainBatch coalescing amortizes. Dimensions:
//
//   - hot-object: every invocation targets one counter object. With
//     DrainBatch=1 each bump pays its own serialized commit; with
//     DrainBatch=16 a worker pull commits up to 16 bumps through one
//     InvokeBatch window and one DB round trip.
//   - spread: invocations round-robin 256 objects, so same-object
//     coalescing is rare — the guard dimension proving batched pulls
//     (and batched record transitions) do not hurt spread traffic.
//
// Results are recorded as "asyncdrain/<dim>/w<N>/batch<B>" in
// BENCH_invoke.json (BENCH_SNAPSHOT=1) and guarded by cmd/benchdiff.
func BenchmarkAsyncDrainThroughput(b *testing.B) {
	const writeLatency = 300 * time.Microsecond
	setup := func(b *testing.B, workers, drainBatch, objects int) (*Platform, []string) {
		b.Helper()
		noServe := false
		tmpl := Template{
			Name:       "drainbench",
			EngineMode: EngineDeployment, TableMode: TableWriteThrough,
			DefaultConcurrency: 64, InitialScale: 4, MaxScale: 64,
		}
		plat, err := New(Config{
			Workers: 4, OpsPerMilliCPU: 1000,
			DBWriteLatency:     writeLatency,
			Templates:          []Template{tmpl},
			ServeObjectStore:   &noServe,
			AsyncWorkers:       workers,
			AsyncDrainBatch:    drainBatch,
			AsyncQueueCapacity: 1 << 14,
			ConcurrencyMode:    ConcurrencyLocked,
		})
		if err != nil {
			b.Fatal(err)
		}
		plat.Images().Register("img/bump", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
			var n float64
			if raw, ok := task.State["n"]; ok {
				_ = json.Unmarshal(raw, &n)
			}
			out, _ := json.Marshal(n + 1)
			return Result{Output: out, State: map[string]json.RawMessage{"n": out}}, nil
		}))
		pkg := "classes:\n  - name: Drain\n    keySpecs:\n      - name: n\n        kind: number\n        default: 0\n"
		pkg += "    functions:\n      - name: bump\n        image: img/bump\n"
		ctx := context.Background()
		if _, err := plat.DeployYAML(ctx, []byte(pkg)); err != nil {
			plat.Close()
			b.Fatal(err)
		}
		ids := make([]string, objects)
		for i := range ids {
			id, err := plat.CreateObject(ctx, "Drain", fmt.Sprintf("dr-%04d", i))
			if err != nil {
				plat.Close()
				b.Fatal(err)
			}
			ids[i] = id
		}
		return plat, ids
	}
	dims := []struct {
		name    string
		objects int
	}{
		{"hot-object", 1},
		{"spread", 256},
	}
	for _, dim := range dims {
		for _, workers := range []int{1, 4, 16} {
			for _, batch := range []int{1, 16} {
				name := fmt.Sprintf("%s/w%d/batch%d", dim.name, workers, batch)
				b.Run(name, func(b *testing.B) {
					plat, ids := setup(b, workers, batch, dim.objects)
					defer plat.Close()
					ctx := context.Background()
					// Submit in large chunks and wait each chunk out so
					// the bounded queue never overflows while the
					// backlog stays deep enough to coalesce.
					const chunk = 4096
					reqs := make([]AsyncRequest, 0, chunk)
					b.ReportAllocs()
					allocs := allocCounter()
					b.ResetTimer()
					for submitted := 0; submitted < b.N; {
						n := min(chunk, b.N-submitted)
						reqs = reqs[:0]
						for i := 0; i < n; i++ {
							reqs = append(reqs, AsyncRequest{Object: ids[(submitted+i)%len(ids)], Member: "bump"})
						}
						results := plat.InvokeAsyncBatch(ctx, reqs)
						for _, res := range results {
							if res.Err != nil {
								b.Fatal(res.Err)
							}
							rec, err := plat.WaitInvocation(ctx, res.ID)
							if err != nil {
								b.Fatal(err)
							}
							if rec.Status != InvocationCompleted {
								b.Fatalf("invocation %s: %s (%s)", res.ID, rec.Status, rec.Error)
							}
						}
						submitted += n
					}
					b.StopTimer()
					apo := allocs(b.N)
					ops := float64(b.N) / b.Elapsed().Seconds()
					b.ReportMetric(ops, "ops/s")
					b.ReportMetric(apo, "allocs/op")
					recordInvokeBench("asyncdrain/"+name, ops)
					recordInvokeBench("asyncdrain/"+name+"#allocs", apo)
				})
			}
		}
	}
}

// BenchmarkTriggerFanout measures the event subsystem's cost on the
// commit path: one writer bumps a hot counter while {1,16} live
// streams subscribe to the object, so every committed write fans out
// through the bus to N sinks. ops/s counts committed writes; the
// spread between subs1 and subs16 is the marginal fan-out cost.
// Results are recorded as "triggerfanout/subs<N>" in BENCH_invoke.json
// (BENCH_SNAPSHOT=1) and guarded by cmd/benchdiff.
func BenchmarkTriggerFanout(b *testing.B) {
	setup := func(b *testing.B) (*Platform, string) {
		b.Helper()
		noServe := false
		tmpl := Template{
			Name:       "fanbench",
			EngineMode: EngineDeployment, TableMode: TableMemoryOnly,
			DefaultConcurrency: 64, InitialScale: 2, MaxScale: 16,
		}
		plat, err := New(Config{
			Workers: 2, OpsPerMilliCPU: 1000,
			Templates:        []Template{tmpl},
			ServeObjectStore: &noServe,
			// Block on a full bus so the measurement covers actual
			// delivery, not drop-and-forget: every commit's event
			// reaches all N sinks before the writer can outrun the bus.
			TriggerOverflow: TriggerOverflowBlock,
		})
		if err != nil {
			b.Fatal(err)
		}
		plat.Images().Register("img/bump", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
			var n float64
			if raw, ok := task.State["n"]; ok {
				_ = json.Unmarshal(raw, &n)
			}
			out, _ := json.Marshal(n + 1)
			return Result{Output: out, State: map[string]json.RawMessage{"n": out}}, nil
		}))
		pkg := "classes:\n  - name: Feed\n    keySpecs:\n      - name: n\n        kind: number\n        default: 0\n"
		pkg += "    functions:\n      - name: bump\n        image: img/bump\n"
		ctx := context.Background()
		if _, err := plat.DeployYAML(ctx, []byte(pkg)); err != nil {
			plat.Close()
			b.Fatal(err)
		}
		id, err := plat.CreateObject(ctx, "Feed", "feed-0")
		if err != nil {
			plat.Close()
			b.Fatal(err)
		}
		return plat, id
	}
	for _, subs := range []int{1, 16} {
		name := fmt.Sprintf("subs%d", subs)
		b.Run(name, func(b *testing.B) {
			plat, id := setup(b)
			defer plat.Close()
			ctx := context.Background()
			var consumed atomic.Int64
			var wg sync.WaitGroup
			streams := make([]*EventStream, subs)
			for i := range streams {
				st, err := plat.StreamEvents(id, 1024)
				if err != nil {
					b.Fatal(err)
				}
				streams[i] = st
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range st.Events() {
						consumed.Add(1)
					}
				}()
			}
			b.ReportAllocs()
			allocs := allocCounter()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plat.Invoke(ctx, id, "bump", nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			plat.TriggerBus().Drain()
			b.StopTimer()
			// Whole-process allocs per committed write (invoke + bus +
			// durable append + N stream deliveries): guards the publish
			// path against per-event allocation creep — the inlined
			// shardFor hash alone is pinned at zero by
			// trigger.TestShardForNoAllocs.
			allocsPerOp := allocs(b.N)
			for _, st := range streams {
				st.Close()
			}
			wg.Wait()
			ops := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(allocsPerOp, "allocs/op")
			b.ReportMetric(float64(consumed.Load())/float64(b.N), "deliveries/op")
			recordInvokeBench("triggerfanout/"+name, ops)
			recordInvokeBench("triggerfanout/"+name+"#allocs", allocsPerOp)
		})
	}
}

// benchEventPayload is a representative stored event (the JSON the
// bus appends per committed write).
var benchEventPayload = json.RawMessage(`{"seq":1,"offset":1,"type":"stateChanged","class":"Feed","object":"feed-0","function":"bump","keys":["n"]}`)

// newBenchEventLog builds a backed event log with the background
// sweep running at a bench-friendly cadence, so size-cap eviction and
// garbage reclamation cost is included in steady-state numbers.
func newBenchEventLog(b *testing.B) *eventlog.Log {
	b.Helper()
	st := kvstore.Open(kvstore.Config{})
	l, err := eventlog.New(eventlog.Config{Backing: st, GCInterval: 20 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		l.Close()
		st.Close()
	})
	return l
}

// BenchmarkEventLogAppend measures the durable append path the
// trigger bus takes on every committed write: write-through to the
// backing store, then the in-memory commit. "single" is the Publish
// path (one entry per backing write), "batch16" the group-commit
// PublishBatch path (16 entries amortized into one backing write).
// Results are recorded as "eventlog/append/<sub>" in BENCH_invoke.json
// (BENCH_SNAPSHOT=1) and guarded by cmd/benchdiff.
func BenchmarkEventLogAppend(b *testing.B) {
	ctx := context.Background()
	build := func(int64) (json.RawMessage, error) { return benchEventPayload, nil }
	b.Run("single", func(b *testing.B) {
		l := newBenchEventLog(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(ctx, "feed-0", build); err != nil {
				b.Fatal(err)
			}
		}
		ops := float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(ops, "ops/s")
		recordInvokeBench("eventlog/append/single", ops)
	})
	b.Run("batch16", func(b *testing.B) {
		const batch = 16
		l := newBenchEventLog(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.AppendBatch(ctx, "feed-0", batch, func(int, int64) (json.RawMessage, error) {
				return benchEventPayload, nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		// ops/s counts appended events, not batches, so single vs
		// batch16 read as the same unit.
		ops := float64(b.N*batch) / b.Elapsed().Seconds()
		b.ReportMetric(ops, "ops/s")
		recordInvokeBench("eventlog/append/batch16", ops)
	})
}

// BenchmarkEventLogReplay measures cursor-resume throughput: paged
// Reads over a warm retained log, the path every recovering consumer
// and fromOffset stream takes. ops/s counts replayed entries.
// Recorded as "eventlog/replay/page256" (BENCH_SNAPSHOT=1) and
// guarded by cmd/benchdiff.
func BenchmarkEventLogReplay(b *testing.B) {
	const retained, page = 1024, 256
	ctx := context.Background()
	b.Run("page256", func(b *testing.B) {
		l := newBenchEventLog(b)
		if _, err := l.AppendBatch(ctx, "feed-0", retained, func(int, int64) (json.RawMessage, error) {
			return benchEventPayload, nil
		}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		replayed := 0
		for i := 0; i < b.N; i++ {
			from := int64((i*page)%retained) + 1
			entries, err := l.Read(ctx, "feed-0", from, page)
			if err != nil {
				b.Fatal(err)
			}
			replayed += len(entries)
		}
		ops := float64(replayed) / b.Elapsed().Seconds()
		b.ReportMetric(ops, "ops/s")
		recordInvokeBench("eventlog/replay/page256", ops)
	})
}

// --- Invocation hot-path benchmarks ----------------------------------

// invokeBench collects hot-path and async-drain benchmark results and
// persists them to BENCH_invoke.json after every sub-benchmark, so the
// perf trajectory of the invocation paths is tracked across PRs. The
// write is opt-in (BENCH_SNAPSHOT=1) so smoke runs — CI's -benchtime=1x
// pass in particular, whose single-iteration ops/s includes cold starts
// and means nothing — cannot clobber the committed snapshot with noise.
// Refresh it with (all guarded families in one run — the writer
// rewrites the whole file from the metrics the run accumulated):
//
//	BENCH_SNAPSHOT=1 go test -bench='InvokeHotPath|InvokeTraced|AsyncDrainThroughput|TriggerFanout|EventLogAppend|EventLogReplay' -benchtime=2s -run='^$' .
var invokeBench = struct {
	mu      sync.Mutex
	metrics map[string]float64
}{metrics: make(map[string]float64)}

func recordInvokeBench(name string, opsPerSec float64) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		return
	}
	invokeBench.mu.Lock()
	defer invokeBench.mu.Unlock()
	invokeBench.metrics[name] = opsPerSec
	raw, err := json.MarshalIndent(invokeBench.metrics, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile("BENCH_invoke.json", append(raw, '\n'), 0o644)
}

// allocCounter snapshots the whole-process malloc count; the returned
// closure yields allocations per op for the n ops completed since the
// snapshot. Unlike -benchmem's allocs/op it covers every goroutine the
// op touched (flush loops, bus delivery, async workers), which is what
// the "#allocs" snapshot keys guard in cmd/benchdiff — testing.B's
// AllocsPerOp is not reachable from inside the benchmark anyway.
func allocCounter() func(n int) float64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	start := ms.Mallocs
	return func(n int) float64 {
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return float64(ms.Mallocs-start) / float64(n)
	}
}

// hotPathKeys is the structured-state width of the spread-object
// workload: every invocation bundles this many keys into the task.
const hotPathKeys = 8

// hotHandlerDelay is the simulated per-invocation function service
// time of the HotCounter workload (see setupHotPathPlatform).
const hotHandlerDelay = 50 * time.Microsecond

// setupHotPathPlatform deploys a Spread class (hotPathKeys keys without
// defaults, so cold reads must go to the backing store) and a
// HotCounter class (one numeric key bumped per call, plus a readonly
// peek), with the given per-object concurrency mode. Optional mutators
// adjust the platform Config before construction (e.g. enabling
// lease-based ownership for the routed-invoke bench).
func setupHotPathPlatform(b *testing.B, readLatency time.Duration, conc ConcurrencyMode, mutate ...func(*Config)) *Platform {
	b.Helper()
	noServe := false
	tmpl := Template{
		Name:       "hotpath",
		EngineMode: EngineDeployment, TableMode: TableWriteBehind,
		FlushInterval: 20 * time.Millisecond, FlushBatchSize: 512,
		DefaultConcurrency: 64, InitialScale: 4, MaxScale: 64,
	}
	cfg := Config{
		Workers: 4, OpsPerMilliCPU: 1000,
		DBReadLatency:    readLatency,
		Templates:        []Template{tmpl},
		ServeObjectStore: &noServe,
		ConcurrencyMode:  conc,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	plat, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	plat.Images().Register("img/touch", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		return Result{Output: json.RawMessage(`"ok"`)}, nil
	}))
	// The HotCounter handlers simulate a small service time: hot-object
	// throughput is about how the runtime schedules concurrent windows
	// (serialize vs interleave), which only shows against nonzero
	// function work. The locked mode pays the delay serially per
	// invocation; concurrent regimes overlap it.
	plat.Images().Register("img/bump", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		var n float64
		if raw, ok := task.State["n"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		// time.Sleep, not <-time.After: benches never cancel
		// mid-handler, and the timer allocation (~6 allocs/op) would
		// dominate the warm-invoke alloc budget under measurement.
		time.Sleep(hotHandlerDelay)
		out, _ := json.Marshal(n + 1)
		return Result{Output: out, State: map[string]json.RawMessage{"n": out}}, nil
	}))
	plat.Images().Register("img/peek", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		time.Sleep(hotHandlerDelay)
		return Result{Output: task.State["n"]}, nil
	}))
	pkg := "classes:\n  - name: Spread\n    keySpecs:\n"
	for k := 0; k < hotPathKeys; k++ {
		pkg += fmt.Sprintf("      - name: k%d\n", k)
	}
	pkg += "    functions:\n      - name: touch\n        image: img/touch\n"
	pkg += "  - name: HotCounter\n    keySpecs:\n      - name: n\n        kind: number\n        default: 0\n"
	pkg += "    functions:\n      - name: bump\n        image: img/bump\n"
	pkg += "      - name: peek\n        image: img/peek\n        readonly: true\n"
	if _, err := plat.DeployYAML(context.Background(), []byte(pkg)); err != nil {
		plat.Close()
		b.Fatal(err)
	}
	return plat
}

// BenchmarkInvokeHotPath measures the synchronous invocation data path
// in the three regimes the hot-path overhaul targets:
//
//   - spread-cold-reads: every invocation targets a fresh object whose
//     state lives only in the backing store, so the state load pays
//     simulated DB read latency (batched GetMany vs per-key Get is the
//     difference under measurement).
//   - spread-warm: invocations round-robin over a warm working set;
//     state loads are memory hits (shard-lock amortization).
//   - hot-object{,-locked,-occ}: concurrent clients bump one counter
//     object under each concurrency mode (correctness-bounded: the
//     locked mode serializes, OCC interleaves through validated
//     commit retries, and the unsuffixed variant is the adaptive
//     default).
//   - hot-object-readonly-w{1,8}: annotated read-only invocations on
//     one hot object at 1 and 8 workers — the lock-free fast path
//     that skips both locking and the merge/commit.
//   - hot-object-readmix-{occ,locked}: a 90/10 read/write mix on one
//     hot object, the regime where optimistic interleaving beats the
//     serialized window.
func BenchmarkInvokeHotPath(b *testing.B) {
	ctx := context.Background()
	b.Run("spread-cold-reads", func(b *testing.B) {
		plat := setupHotPathPlatform(b, 250*time.Microsecond, ConcurrencyAdaptive)
		defer plat.Close()
		ids := make([]string, b.N)
		seed := make(map[string]json.RawMessage, hotPathKeys*b.N)
		for i := range ids {
			id, err := plat.CreateObject(ctx, "Spread", fmt.Sprintf("sp-%06d", i))
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = id
			for k := 0; k < hotPathKeys; k++ {
				seed[fmt.Sprintf("state/Spread/%s/k%d", id, k)] = json.RawMessage(`{"v":1}`)
			}
		}
		// Seed state straight into the backing store so the first (and
		// only) invocation of each object read-misses every key.
		if err := plat.Backing().BatchPut(ctx, seed); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		allocs := allocCounter()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plat.Invoke(ctx, ids[i], "touch", nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		apo := allocs(b.N)
		ops := float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(ops, "ops/s")
		b.ReportMetric(apo, "allocs/op")
		recordInvokeBench("invoke/spread-cold-reads", ops)
		recordInvokeBench("invoke/spread-cold-reads#allocs", apo)
	})
	b.Run("spread-warm", func(b *testing.B) {
		plat := setupHotPathPlatform(b, 250*time.Microsecond, ConcurrencyAdaptive)
		defer plat.Close()
		const working = 512
		ids := make([]string, working)
		for i := range ids {
			id, err := plat.CreateObject(ctx, "Spread", fmt.Sprintf("spw-%04d", i))
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = id
			// Warm every key so the measured loop is all memory hits.
			for k := 0; k < hotPathKeys; k++ {
				if err := plat.PutState(ctx, id, fmt.Sprintf("k%d", k), json.RawMessage(`{"v":1}`)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportAllocs()
		b.SetParallelism(4)
		allocs := allocCounter()
		b.ResetTimer()
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(next.Add(1))
				if _, err := plat.Invoke(ctx, ids[i%working], "touch", nil, nil); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		apo := allocs(b.N)
		ops := float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(ops, "ops/s")
		b.ReportMetric(apo, "allocs/op")
		recordInvokeBench("invoke/spread-warm", ops)
		// The "#allocs" snapshot keys are taken at -benchtime=200x, as the
		// CI smoke run takes them. This one reads the same at 200x and at
		// 2s: RunParallel's goroutine spawns are a fixed handful, under one
		// allocation per op even over 200, and a call on an object's first
		// touch costs what any other does (nothing is cached per object).
		recordInvokeBench("invoke/spread-warm#allocs", apo)
	})
	hotObject := func(name string, conc ConcurrencyMode) {
		b.Run(name, func(b *testing.B) {
			plat := setupHotPathPlatform(b, 0, conc)
			defer plat.Close()
			id, err := plat.CreateObject(ctx, "HotCounter", "hot-0")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetParallelism(4)
			allocs := allocCounter()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := plat.Invoke(ctx, id, "bump", nil, nil); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			apo := allocs(b.N)
			ops := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(apo, "allocs/op")
			recordInvokeBench("invoke/"+name, ops)
			recordInvokeBench("invoke/"+name+"#allocs", apo)
		})
	}
	hotObject("hot-object", ConcurrencyAdaptive)
	hotObject("hot-object-locked", ConcurrencyLocked)
	hotObject("hot-object-occ", ConcurrencyOCC)
	for _, workers := range []int{1, 8} {
		name := fmt.Sprintf("hot-object-readonly-w%d", workers)
		b.Run(name, func(b *testing.B) {
			plat := setupHotPathPlatform(b, 0, ConcurrencyOCC)
			defer plat.Close()
			id, err := plat.CreateObject(ctx, "HotCounter", "hot-0")
			if err != nil {
				b.Fatal(err)
			}
			// One write warms the key so every peek is a memory hit.
			if _, err := plat.Invoke(ctx, id, "bump", nil, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			allocs := allocCounter()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := plat.Invoke(ctx, id, "peek", nil, nil); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			apo := allocs(b.N)
			ops := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(apo, "allocs/op")
			recordInvokeBench("invoke/"+name, ops)
			recordInvokeBench("invoke/"+name+"#allocs", apo)
		})
	}
	for _, conc := range []ConcurrencyMode{ConcurrencyOCC, ConcurrencyLocked} {
		name := fmt.Sprintf("hot-object-readmix-%s", conc)
		b.Run(name, func(b *testing.B) {
			plat := setupHotPathPlatform(b, 0, conc)
			defer plat.Close()
			id, err := plat.CreateObject(ctx, "HotCounter", "hot-0")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetParallelism(4)
			allocs := allocCounter()
			b.ResetTimer()
			var seq atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					fn := "peek"
					if seq.Add(1)%10 == 0 {
						fn = "bump" // 10% writes
					}
					if _, err := plat.Invoke(ctx, id, fn, nil, nil); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			apo := allocs(b.N)
			ops := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(apo, "allocs/op")
			recordInvokeBench("invoke/"+name, ops)
			recordInvokeBench("invoke/"+name+"#allocs", apo)
		})
	}
}

// BenchmarkInvokeTraced prices the tracing layer on the warm invoke
// path (the spread-warm workload: 512 warm objects, parallel clients):
//
//   - off: EnableTracing false — the PR 8 warm-path contract; the
//     "invoketraced/off#allocs" key is guarded against the
//     "invoke/spread-warm#allocs" baseline, proving a tracing-capable
//     build costs nothing when tracing is disabled.
//   - unsampled: tracing on with probabilistic keeps disabled — spans
//     open and close on every stage but pooling keeps the steady-state
//     near zero extra allocations.
//   - sampled: SampleRate 1 keeps every trace — the worst case, paying
//     view construction and ring retention per invocation.
func BenchmarkInvokeTraced(b *testing.B) {
	ctx := context.Background()
	for _, bc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"off", func(*Config) {}},
		{"unsampled", func(cfg *Config) {
			cfg.EnableTracing = true
			cfg.TraceSampleRate = -1
		}},
		{"sampled", func(cfg *Config) {
			cfg.EnableTracing = true
			cfg.TraceSampleRate = 1
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			plat := setupHotPathPlatform(b, 250*time.Microsecond, ConcurrencyAdaptive, bc.mutate)
			defer plat.Close()
			const working = 512
			ids := make([]string, working)
			for i := range ids {
				id, err := plat.CreateObject(ctx, "Spread", fmt.Sprintf("spt-%04d", i))
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = id
				for k := 0; k < hotPathKeys; k++ {
					if err := plat.PutState(ctx, id, fmt.Sprintf("k%d", k), json.RawMessage(`{"v":1}`)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.SetParallelism(4)
			allocs := allocCounter()
			b.ResetTimer()
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1))
					if _, err := plat.Invoke(ctx, ids[i%working], "touch", nil, nil); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			apo := allocs(b.N)
			ops := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(apo, "allocs/op")
			recordInvokeBench("invoketraced/"+bc.name, ops)
			// Like invoke/spread-warm#allocs, baselined from a
			// -benchtime=200x run, as CI's smoke pass takes them.
			recordInvokeBench("invoketraced/"+bc.name+"#allocs", apo)
		})
	}
}

// BenchmarkInvokeWithDeadline isolates the deadline watchdog's cost on
// the synchronous invoke path:
//
//   - disabled: no function/class/platform timeout — the warm path
//     stays a plain in-goroutine handler call.
//   - armed-1s: a generous (never-firing) 1s function deadline — every
//     invocation pays context.WithTimeout plus the watchdog goroutine
//     and outcome channel.
//
// The guarded gap between the two is the price of failure semantics on
// a hot object.
func BenchmarkInvokeWithDeadline(b *testing.B) {
	ctx := context.Background()
	setup := func(b *testing.B) *Platform {
		b.Helper()
		noServe := false
		plat, err := New(Config{Workers: 4, OpsPerMilliCPU: 1000, ServeObjectStore: &noServe})
		if err != nil {
			b.Fatal(err)
		}
		plat.Images().Register("img/dlbump", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
			var n float64
			if raw, ok := task.State["n"]; ok {
				_ = json.Unmarshal(raw, &n)
			}
			out, _ := json.Marshal(n + 1)
			return Result{Output: out, State: map[string]json.RawMessage{"n": out}}, nil
		}))
		pkg := "classes:\n  - name: DL\n    keySpecs:\n      - name: n\n        kind: number\n        default: 0\n" +
			"    functions:\n      - name: free\n        image: img/dlbump\n" +
			"      - name: timed\n        image: img/dlbump\n        timeoutMs: 1000\n"
		if _, err := plat.DeployYAML(ctx, []byte(pkg)); err != nil {
			plat.Close()
			b.Fatal(err)
		}
		return plat
	}
	for _, bc := range []struct{ name, fn string }{
		{"disabled", "free"},
		{"armed-1s", "timed"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			plat := setup(b)
			defer plat.Close()
			id, err := plat.CreateObject(ctx, "DL", "dl-0")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plat.Invoke(ctx, id, bc.fn, nil, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plat.Invoke(ctx, id, bc.fn, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ops := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(ops, "ops/s")
			recordInvokeBench("invokedeadline/"+bc.name, ops)
		})
	}
}

// BenchmarkInvokeRouted measures the cluster-routed invocation path
// with lease-based ownership enabled (OwnershipLeaseTTL > 0), over the
// same warm 512-object working set as invoke/spread-warm:
//
//   - owner-local: every request enters at the object's owner node, so
//     routing adds one ownership admission up front plus the epoch
//     fence check at commit. This is the common case after the gateway
//     has steered a client to the owner, and the acceptance bar is
//     staying within ~10% of the ownership-disabled spread-warm path.
//   - forwarded: every request enters at a fixed non-owner node and
//     takes the single ingress→owner forwarding hop (ForwardLatency is
//     left at zero, so the measured delta over owner-local is the pure
//     re-admission and forwarding bookkeeping, not simulated wire
//     time).
func BenchmarkInvokeRouted(b *testing.B) {
	ctx := context.Background()
	run := func(name string, pickVia func(owner string, names []string) string) {
		b.Run(name, func(b *testing.B) {
			plat := setupHotPathPlatform(b, 250*time.Microsecond, ConcurrencyAdaptive, func(cfg *Config) {
				// A long TTL keeps heartbeat/sweep churn negligible
				// under measurement: this bench is about the per-invoke
				// admission + fence cost, not lease maintenance.
				cfg.OwnershipLeaseTTL = 5 * time.Second
			})
			defer plat.Close()
			mem := plat.Membership()
			if mem == nil {
				b.Fatal("ownership not enabled")
			}
			var names []string
			for _, m := range mem.Members() {
				names = append(names, m.Name)
			}
			const working = 512
			ids := make([]string, working)
			vias := make([]string, working)
			for i := range ids {
				id, err := plat.CreateObject(ctx, "Spread", fmt.Sprintf("spr-%04d", i))
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = id
				// Warm every key so the measured loop is all memory hits.
				for k := 0; k < hotPathKeys; k++ {
					if err := plat.PutState(ctx, id, fmt.Sprintf("k%d", k), json.RawMessage(`{"v":1}`)); err != nil {
						b.Fatal(err)
					}
				}
				owner, ok := mem.Owner(id)
				if !ok {
					b.Fatalf("no owner for %s", id)
				}
				vias[i] = pickVia(owner, names)
			}
			b.ReportAllocs()
			b.SetParallelism(4)
			allocs := allocCounter()
			b.ResetTimer()
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1))
					if _, _, err := plat.InvokeRoutedFrom(ctx, "", vias[i%working], ids[i%working], "touch", nil, nil); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			apo := allocs(b.N)
			ops := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(apo, "allocs/op")
			recordInvokeBench("invokerouted/"+name, ops)
			// Like invoke/spread-warm#allocs, baselined from a
			// -benchtime=200x run, as CI's smoke pass takes them.
			recordInvokeBench("invokerouted/"+name+"#allocs", apo)
		})
	}
	run("owner-local", func(owner string, _ []string) string { return owner })
	run("forwarded", func(owner string, names []string) string {
		for _, n := range names {
			if n != owner {
				return n
			}
		}
		return owner
	})
}

// --- Substrate micro-benchmarks --------------------------------------

// BenchmarkMicroYAMLDecode parses the paper's Listing 1.
func BenchmarkMicroYAMLDecode(b *testing.B) {
	src := []byte(`classes:
  - name: Image
    qos:
      throughput: 100
    constraint:
      persistent: true
    keySpecs:
      - name: image
        kind: file
    functions:
      - name: resize
        image: img/resize
  - name: LabelledImage
    parent: Image
    functions:
      - name: detectObject
        image: img/detect-object
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := yamlx.Decode(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroModelResolve flattens a three-level hierarchy.
func BenchmarkMicroModelResolve(b *testing.B) {
	pkg := &model.Package{Classes: []model.ClassDef{
		{Name: "A", Functions: []model.FunctionDef{{Name: "f1", Image: "i"}}},
		{Name: "B", Parent: "A", Functions: []model.FunctionDef{{Name: "f2", Image: "i"}}},
		{Name: "C", Parent: "B", Functions: []model.FunctionDef{{Name: "f1", Image: "j"}}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.Resolve(pkg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroRingOwner measures consistent-hash lookup.
func BenchmarkMicroRingOwner(b *testing.B) {
	ring := memtable.NewRing(64)
	for i := 0; i < 12; i++ {
		ring.Add(fmt.Sprintf("vm-%02d", i))
	}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("state/Class/obj-%04d/key", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ring.Owner(keys[i%len(keys)])
	}
}

// BenchmarkMicroKVStorePut measures the document store write path
// (unlimited capacity).
func BenchmarkMicroKVStorePut(b *testing.B) {
	s := kvstore.Open(kvstore.Config{})
	defer s.Close()
	ctx := context.Background()
	val := json.RawMessage(`{"seq":123,"score":4.5,"flag":true}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put(ctx, fmt.Sprintf("k%05d", i%1024), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroMemtablePut measures the write-behind table's in-memory
// write path.
func BenchmarkMicroMemtablePut(b *testing.B) {
	db := kvstore.Open(kvstore.Config{})
	defer db.Close()
	tbl, err := memtable.New(memtable.Config{Mode: memtable.ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer tbl.Close()
	ctx := context.Background()
	val := json.RawMessage(`{"seq":123}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.Put(ctx, fmt.Sprintf("k%05d", i%1024), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroPresign measures presigned-URL generation+verification.
func BenchmarkMicroPresign(b *testing.B) {
	s := objectstore.New("bench-secret", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := s.Presign("GET", "bucket", "obj/key.png", time.Minute)
		if err := s.Verify("GET", "bucket", "obj/key.png", q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroInvokeTask measures the in-process pure-function
// offload path (task encode -> handler -> state merge).
func BenchmarkMicroInvokeTask(b *testing.B) {
	reg := invoker.NewRegistry()
	reg.Register("img/echo", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.Payload, State: map[string]json.RawMessage{"k": task.Payload}}, nil
	}))
	local := invoker.NewLocal(reg)
	ctx := context.Background()
	task := invoker.Task{
		ID: "bench", Class: "C", Object: "o", Function: "f",
		State:   map[string]json.RawMessage{"k": json.RawMessage(`1`)},
		Payload: json.RawMessage(`{"x":1}`),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := local.Offload(ctx, "img/echo", task)
		if err != nil {
			b.Fatal(err)
		}
		_ = invoker.MergeState(task.State, res.State)
	}
}

// BenchmarkMicroDataflowCompile measures DAG validation+planning.
func BenchmarkMicroDataflowCompile(b *testing.B) {
	def := model.DataflowDef{Name: "d", Steps: []model.DataflowStep{
		{Name: "a", Function: "f"},
		{Name: "b", Function: "f", After: []string{"a"}},
		{Name: "c", Function: "f", After: []string{"a"}},
		{Name: "d", Function: "f", After: []string{"b", "c"}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dataflow.Compile(def); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroEndToEndInvoke measures a full platform invocation
// (state load -> task bundle -> engine -> state merge) on a warm
// nonpersist deployment.
func BenchmarkMicroEndToEndInvoke(b *testing.B) {
	noServe := false
	tmpl := Template{
		Name:       "micro",
		EngineMode: EngineDeployment, TableMode: TableMemoryOnly,
		DefaultConcurrency: 64, InitialScale: 2, MaxScale: 16,
	}
	plat, err := New(Config{Workers: 2, OpsPerMilliCPU: 1000, Templates: []Template{tmpl}, ServeObjectStore: &noServe})
	if err != nil {
		b.Fatal(err)
	}
	defer plat.Close()
	plat.Images().Register("img/echo", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		return Result{Output: task.Payload}, nil
	}))
	ctx := context.Background()
	pkg := "classes:\n  - name: E\n    keySpecs:\n      - name: k\n        default: 0\n    functions:\n      - name: f\n        image: img/echo\n"
	if _, err := plat.DeployYAML(ctx, []byte(pkg)); err != nil {
		b.Fatal(err)
	}
	id, err := plat.CreateObject(ctx, "E", "")
	if err != nil {
		b.Fatal(err)
	}
	payload := json.RawMessage(`{"n":1}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plat.Invoke(ctx, id, "f", payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}
