// Command oprc-bench regenerates the paper's evaluation in real time:
// every modelled cost is paid on the wall clock, so the numbers also
// depend on how busy the host is. internal/experiment's tests run the
// same experiments in virtual time and gate Figure 3's shape and each
// ablation's effect exactly.
//
// Experiments:
//
//	figure3    – scalability sweep (paper §V, Figure 3): throughput of
//	             knative / oprc / oprc-bypass / oprc-bypass-nonpersist
//	             over 3..12 worker VMs.
//	batch      – ablation A1: DB write amplification of write-through
//	             vs write-behind batch consolidation.
//	coldstart  – ablation A2: cold vs warm invocation latency under
//	             scale-to-zero.
//	dataflow   – ablation A3: parallel fan-out vs sequential chain.
//	locality   – ablation A4: state co-located in the class runtime vs
//	             fetched from the remote document store.
//	templates  – ablation A5: requirement-driven template selection.
//	multiregion – ablation A6: multi-datacenter deployment (the paper's
//	             §VI future work): jurisdiction-pinned placement and
//	             cross-region invocation latency.
//	all        – everything above.
//
// Usage:
//
//	oprc-bench -exp figure3 [-duration 1.5s] [-concurrency 256] \
//	           [-workers 3,6,9,12] [-db-cap 6500] [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/hpcclab/oparaca-go/internal/experiment"
	"github.com/hpcclab/oparaca-go/internal/metrics"
)

func main() {
	var (
		exp         = flag.String("exp", "figure3", "experiment: figure3|batch|coldstart|dataflow|locality|templates|multiregion|all")
		duration    = flag.Duration("duration", 1500*time.Millisecond, "measured duration per point")
		warmup      = flag.Duration("warmup", 500*time.Millisecond, "warmup before each point")
		concurrency = flag.Int("concurrency", 256, "closed-loop client count")
		workers     = flag.String("workers", "3,6,9,12", "comma-separated VM counts for figure3")
		dbCap       = flag.Float64("db-cap", 6500, "document store write ops/sec ceiling")
		objects     = flag.Int("objects", 128, "distinct objects targeted by the workload")
		asJSON      = flag.Bool("json", false, "emit JSON instead of tables")
	)
	flag.Parse()

	params := experiment.DefaultParams()
	params.Duration = *duration
	params.Warmup = *warmup
	params.Concurrency = *concurrency
	params.DBWriteOpsPerSec = *dbCap
	params.Objects = *objects
	ws, err := parseWorkers(*workers)
	if err != nil {
		fatal(err)
	}
	params.Workers = ws

	ctx := context.Background()
	run := func(name string) {
		switch name {
		case "figure3":
			runFigure3(ctx, params, *asJSON)
		case "batch":
			runBatch(ctx, params, *asJSON)
		case "coldstart":
			runColdStart(ctx, *asJSON)
		case "dataflow":
			runDataflow(ctx, *asJSON)
		case "locality":
			runLocality(ctx, *asJSON)
		case "templates":
			runTemplates(ctx, *asJSON)
		case "multiregion":
			runMultiRegion(ctx, *asJSON)
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
	}
	if *exp == "all" {
		for _, name := range []string{"figure3", "batch", "coldstart", "dataflow", "locality", "templates", "multiregion"} {
			run(name)
		}
		return
	}
	run(*exp)
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no worker counts given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oprc-bench:", err)
	os.Exit(1)
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func runFigure3(ctx context.Context, p experiment.Params, asJSON bool) {
	rows, err := experiment.RunFigure3(ctx, p)
	if err != nil {
		fatal(err)
	}
	if asJSON {
		emitJSON(rows)
		return
	}
	fmt.Println("== Figure 3: Oparaca scalability vs Knative (JSON randomization app) ==")
	fmt.Printf("%-24s %8s %14s %12s %12s\n", "system", "workers", "ops/sec", "p95", "db writes")
	for _, r := range rows {
		fmt.Printf("%-24s %8d %14s %12s %12d\n",
			r.System, r.Workers, metrics.FormatRate(r.ThroughputOPS), r.P95.Round(time.Millisecond), r.DBWriteOps)
	}
	fmt.Println()
}

func runBatch(ctx context.Context, p experiment.Params, asJSON bool) {
	rows, err := experiment.RunBatchAblation(ctx, p)
	if err != nil {
		fatal(err)
	}
	if asJSON {
		emitJSON(rows)
		return
	}
	fmt.Println("== Ablation A1: write-behind batch consolidation (9 VMs) ==")
	fmt.Printf("%-20s %14s %22s\n", "config", "ops/sec", "db writes / 1k ops")
	for _, r := range rows {
		fmt.Printf("%-20s %14s %22.1f\n", r.Config, metrics.FormatRate(r.ThroughputOPS), r.DBWritesPer1kOp)
	}
	fmt.Println()
}

func runColdStart(ctx context.Context, asJSON bool) {
	row, err := experiment.RunColdStartAblation(ctx, 5, 100*time.Millisecond)
	if err != nil {
		fatal(err)
	}
	if asJSON {
		emitJSON(row)
		return
	}
	fmt.Println("== Ablation A2: scale-to-zero cold starts ==")
	fmt.Printf("cold p50: %-12s warm p50: %-12s cold starts: %d over %d rounds\n\n",
		row.ColdP50.Round(time.Millisecond), row.WarmP50.Round(time.Microsecond), row.ColdStarts, row.Rounds)
}

func runDataflow(ctx context.Context, asJSON bool) {
	rows, err := experiment.RunDataflowAblation(ctx, 4, 20*time.Millisecond, 5)
	if err != nil {
		fatal(err)
	}
	if asJSON {
		emitJSON(rows)
		return
	}
	fmt.Println("== Ablation A3: dataflow parallelism (width 4, 20ms steps) ==")
	for _, r := range rows {
		fmt.Printf("%-22s %2d steps  mean %s\n", r.Shape, r.Steps, r.MeanTime.Round(time.Millisecond))
	}
	fmt.Println()
}

func runLocality(ctx context.Context, asJSON bool) {
	row, err := experiment.RunLocalityAblation(ctx, 64, 5*time.Millisecond)
	if err != nil {
		fatal(err)
	}
	if asJSON {
		emitJSON(row)
		return
	}
	fmt.Println("== Ablation A4: data locality (co-located state vs remote DB read) ==")
	fmt.Printf("cold (read-through) p50: %-12s warm (co-located) p50: %-12s hits=%d misses=%d\n\n",
		row.ColdP50.Round(time.Microsecond), row.WarmP50.Round(time.Microsecond), row.Hits, row.Misses)
}

func runTemplates(ctx context.Context, asJSON bool) {
	rows, err := experiment.RunTemplateAblation(ctx, 700*time.Millisecond, 128)
	if err != nil {
		fatal(err)
	}
	if asJSON {
		emitJSON(rows)
		return
	}
	fmt.Println("== Ablation A5: requirement-driven template selection ==")
	fmt.Printf("%-16s %-18s %12s %14s %12s %8s\n", "class", "template", "required", "ops/sec", "p95", "meets")
	for _, r := range rows {
		req := "-"
		if r.RequiredRPS > 0 {
			req = metrics.FormatRate(r.RequiredRPS)
		}
		fmt.Printf("%-16s %-18s %12s %14s %12s %8v\n",
			r.Class, r.Template, req, metrics.FormatRate(r.ThroughputOPS), r.P95.Round(time.Millisecond), r.MeetsQoS)
	}
	fmt.Println()
}

func runMultiRegion(ctx context.Context, asJSON bool) {
	row, err := experiment.RunMultiRegionAblation(ctx, 25*time.Millisecond, 50)
	if err != nil {
		fatal(err)
	}
	if asJSON {
		emitJSON(row)
		return
	}
	fmt.Println("== Ablation A6: multi-datacenter deployment (jurisdiction + latency) ==")
	fmt.Printf("home region: %s  placement compliant: %v\n", row.HomeRegion, row.PlacementCompliant)
	fmt.Printf("same-region mean: %-12s cross-region mean: %-12s (configured RTT %s)\n\n",
		row.LocalMean.Round(time.Microsecond), row.RemoteMean.Round(time.Millisecond), row.InterRegionRTT)
}
