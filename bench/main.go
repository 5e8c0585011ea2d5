// Command bench is the gateway-to-commit benchmark: it boots the
// platform the way the daemon does, serves the real gateway on a
// loopback listener, and drives four closed-loop HTTP workloads
// against it, reporting end-to-end metrics from untraced windows and a
// per-layer budget timed from outside in a separate serial pass. See
// README.md for what is measured and why.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-seed N] [-out results.json] [-trace-out spans.json]   all four workloads, interleaved
//	bash bench/run.sh -compare a1.json,a2.json,… b1.json,b2.json,…             verdict per metric × workload for two sets of runs
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1           one workload, for the acceptance driver
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Many short windows, not a few long ones: on a shared host the noise
// is bursty at the scale of seconds, a median over 54 half-second
// windows shrugs a burst off where a median over 9 three-second ones
// does not, and each window's host-speed probes sit closer to its work.
// A tighter time budget (-seconds) shortens every window equally; the
// count is fixed.
const (
	windowCount      = 54
	defaultWindowLen = 500 * time.Millisecond
	// hostProbeLen is the host-speed probe that follows every window,
	// inside the window's budget: 40 ms of spin and 40 ms of no-op HTTP,
	// ten of the host's 4 ms scheduling quanta each.
	hostProbeLen = 80 * time.Millisecond
	// setup_s is the median of this many set-ups. The driver's ten runs
	// per workload give it thirty samples; one run of the whole suite has
	// to resolve it alone.
	suiteSetups  = 7
	driverSetups = 3
)

type config struct {
	seed      uint64
	clients   int
	windows   int
	windowLen time.Duration
	probeLen  time.Duration
	setups    int
	traced    bool
	sizes     sizes
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
		seed         = flag.Uint64("seed", 1, "seed of the op stream (objects, payload bytes, batch composition)")
		seconds      = flag.Int("seconds", 0, "total measuring time per workload, split evenly over the 54 windows (default 27)")
		traceFlag    = flag.Int("trace", 1, "1 runs the traced per-layer pass after the windows; with -workload, 0 reports end-to-end metrics and 1 per-layer metrics")
		out          = flag.String("out", ".bench_build/results.json", "results file: stamp, metrics, and every window's raw values and host speed")
		traceOut     = flag.String("trace-out", ".bench_build/spans.json", "where the traced pass's spans are written")
		compare      = flag.Bool("compare", false, "compare two sets of runs, each a comma-separated list of results files, and exit")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two sets of results files"))
		}
		os.Exit(compareSets(strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")))
	}
	cfg := config{
		seed: *seed, clients: min(runtime.NumCPU(), 4), windows: windowCount, windowLen: defaultWindowLen,
		probeLen: hostProbeLen, setups: suiteSetups, traced: *traceFlag != 0, sizes: fullSizes,
	}
	if *seconds > 0 {
		cfg.windowLen = time.Duration(*seconds) * time.Second / windowCount
	}
	names := make([]string, len(workloadSpecs))
	for i, spec := range workloadSpecs {
		names[i] = spec.name
	}
	if *workloadName != "" {
		names, cfg.setups = []string{*workloadName}, driverSetups
		if cfg.traced {
			// The counters need windows too, but the pass is what this
			// run is for: a third of the budget goes to the windows.
			cfg.windowLen /= 3
		}
	}
	st := newStamp(cfg.seed, cfg.windows, cfg.windowLen, cfg.clients)
	printHeader(st)
	sessions, err := runSessions(names, cfg)
	if err != nil {
		fatal(err)
	}
	res := results{Stamp: st, Workloads: map[string]*workloadResult{}}
	spans := map[string][]span{}
	correct := true
	for _, s := range sessions {
		wr := s.result()
		res.Workloads[s.w.name] = wr
		spans[s.w.name] = s.spans
		if f, ok := s.layers["http.floor_us"]; ok && res.Stamp.HTTPFloorUs == 0 {
			res.Stamp.HTTPFloorUs = f
		}
		printWorkload(s, wr, cfg.traced)
		if len(s.failures) != 0 || wr.Failed != 0 {
			correct = false
		}
	}
	if err := writeJSON(*out, res, true); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresults written to %s\n", *out)
	if cfg.traced {
		if err := writeJSON(*traceOut, spans, false); err != nil {
			fatal(err)
		}
		fmt.Printf("spans written to %s\n", *traceOut)
	}
	if *workloadName != "" {
		printDriverLine(res.Workloads[*workloadName], cfg.traced, correct)
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: correctness gates FAILED")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runSessions sets up every workload on its own platform, warms each,
// measures the windows round-robin (w1 w2 w3 w4, w1 …) so host drift
// hits all workloads alike, runs the traced pass, and checks the
// end-state gates. Gate violations land in session.failures; an error
// is returned only when the run could not be carried out.
func runSessions(names []string, cfg config) ([]*session, error) {
	probe, err := newHostProbe(cfg.clients, cfg.probeLen)
	if err != nil {
		return nil, err
	}
	defer probe.close()
	var sessions []*session
	defer func() {
		for _, s := range sessions {
			closeClients(s.clients)
			s.w.close()
		}
	}()
	for _, name := range names {
		s := &session{layers: map[string]float64{}}
		var heapBefore float64
		for i := range cfg.setups {
			w, err := newWorkload(name, cfg.seed, cfg.sizes)
			if err != nil {
				return nil, err
			}
			if i == cfg.setups-1 {
				heapBefore = liveHeapMB()
			}
			t0 := time.Now()
			err = w.setup(cfg.clients)
			took := time.Since(t0).Seconds()
			speed := 0.0
			if err == nil {
				w.settle()
				speed, err = probe.speed()
			}
			if err != nil {
				w.close()
				return nil, fmt.Errorf("%s: set-up: %w", name, err)
			}
			s.setups, s.rawSetups = append(s.setups, took*speed), append(s.rawSetups, took)
			if i < cfg.setups-1 {
				w.close()
				continue
			}
			s.w = w
		}
		sessions = append(sessions, s)
		if s.clients, err = s.open("windows", cfg.clients); err != nil {
			return nil, err
		}
		if err := s.warmup(heapBefore); err != nil {
			return nil, err
		}
	}
	for _, s := range sessions {
		s.w.settle()
	}
	speed, err := probe.speed()
	if err != nil {
		return nil, err
	}
	for range cfg.windows {
		for _, s := range sessions {
			if speed, err = s.measure(cfg.windowLen, speed, probe); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range sessions {
		s.counterLayers()
		if cfg.traced {
			if err := s.tracedPass(); err != nil {
				s.failures = append(s.failures, err)
			}
		}
		if err := s.w.finish(); err != nil {
			s.failures = append(s.failures, err)
		}
	}
	return sessions, nil
}

// results is the file -out writes and -compare reads.
type results struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd     map[string]summary `json:"end_to_end"`
	Windows      []windowRow        `json:"windows"` // as measured, with the host speed each was taken at
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	FailedShare  float64            `json:"failed_share"`
	Expectations []expectation      `json:"expectations"`
	Stages       []stageRow         `json:"program_reported_stages,omitempty"`
	Violations   []string           `json:"violations,omitempty"`
}

func (s *session) result() *workloadResult {
	wr := &workloadResult{EndToEnd: s.endToEndOf(), PerLayer: s.layers, Expectations: s.expectations(), Stages: s.stages}
	for _, w := range s.windows {
		wr.Windows = append(wr.Windows, w.row())
		wr.Attempted += w.attempted
		wr.Failed += w.failed
	}
	wr.FailedShare = float64(wr.Failed) / float64(max(wr.Attempted, 1))
	for _, err := range s.failures {
		wr.Violations = append(wr.Violations, strings.Split(err.Error(), "\n")...)
	}
	return wr
}

// writeJSON writes v to path, indented for a file people read.
func writeJSON(path string, v any, indent bool) error {
	raw, err := json.Marshal(v)
	if indent {
		raw, err = json.MarshalIndent(v, "", "  ")
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func printHeader(st stamp) {
	fmt.Printf("oparaca gateway-to-commit benchmark\n")
	fmt.Printf("  commit %s  seed %d  %s  GOMAXPROCS %d  nproc %d\n", st.Commit, st.Seed, st.GoVersion, st.GOMAXPROCS, st.NProc)
	fmt.Printf("  cpu %q  kernel %s\n", st.CPUModel, st.Kernel)
	fmt.Printf("  %d windows x %.2f s per workload  C=%d closed-loop keep-alive connections  calib_spin_ns %.0f\n",
		st.Windows, st.WindowS, st.Clients, st.CalibSpinNs)
}

func printWorkload(s *session, wr *workloadResult, traced bool) {
	fmt.Printf("\n== %s ==\n", s.w.name)
	fmt.Printf("  %-18s %14s %14s %14s %4s  %-6s %s\n", "end-to-end", "median", "q1", "q3", "n", "unit", "as measured (median)")
	var speeds []float64
	for _, w := range wr.Windows {
		speeds = append(speeds, w.HostSpeed)
	}
	for _, m := range endToEnd {
		e := wr.EndToEnd[m.name]
		fmt.Printf("  %-18s %14.4f %14.4f %14.4f %4d  %-6s", m.name, e.Median, e.Q1, e.Q3, e.N, e.Unit)
		if e.Raw != 0 {
			fmt.Printf(" %.4f", e.Raw)
		}
		fmt.Println()
	}
	fmt.Printf("  %-18s %14.6f %35s ratio  (%d failed of %d attempted)\n", "failed_share", wr.FailedShare, "", wr.Failed, wr.Attempted)
	q1, med, q3 := quartiles(speeds)
	fmt.Printf("  host speed during the windows: median %.3f, quartiles %.3f and %.3f of the reference host's; rates and times above are at reference speed\n", med, q1, q3)
	fmt.Printf("  %-30s %14s  %s\n", "per-layer", "value", "unit")
	for _, m := range perLayer {
		if v, ok := wr.PerLayer[m.name]; ok {
			fmt.Printf("  %-30s %14.4f  %s\n", m.name, v, m.unit)
		}
	}
	if traced {
		if rt := wr.PerLayer["reconcile.roundtrip_us"]; rt > 0 && strings.HasPrefix(s.w.name, "sync_") {
			sum := wr.PerLayer["reconcile.sum_us"]
			verdict := "reconciles"
			if d := (sum - rt) / rt; d > 0.10 || d < -0.10 {
				verdict = "DOES NOT RECONCILE (limit 10 %)"
			}
			fmt.Printf("  layer budget: parts sum to %.2f us, traced round trip %.2f us, residual %+.2f us (%+.1f %%): %s\n",
				sum, rt, rt-sum, 100*(rt-sum)/rt, verdict)
		}
		if len(wr.Stages) > 0 {
			fmt.Printf("  program-reported stages (diagnostic: the product's own spans from /api/traces, never gated)\n")
			for _, row := range wr.Stages {
				fmt.Printf("    %-26s %12.2f us  (%d spans)\n", row.Name, row.MedianUs, row.Samples)
			}
		}
	}
	for _, e := range wr.Expectations {
		mark := "held"
		if !e.Held {
			mark = "MISSED (product finding)"
		}
		fmt.Printf("  expectation: %-50s %s\n", e.Text, mark)
	}
	for _, v := range wr.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

// printDriverLine ends the output with the acceptance driver's JSON:
// end-to-end metrics for --trace 0, per-layer metrics for --trace 1.
func printDriverLine(wr *workloadResult, traced, correct bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			metrics[m.name] = value{wr.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{wr.EndToEnd[m.name].Median, m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(wr.Attempted, 1), "failed": wr.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

// minRuns is how many runs a set needs before its run-to-run spread
// (quartiles of the runs) means anything.
const minRuns = 4

// compareSets prints, per workload, whether each end-to-end metric of
// set b is within its bound of set a, worse, or unresolved. A set is
// several runs of one configuration; a metric's value in a set is the
// median of its runs, and its spread the distance between the runs'
// quartiles as a share of that median — the acceptance driver's rule.
// It returns the process exit code.
func compareSets(pathsA, pathsB []string) int {
	var runs [2][]results
	for i, paths := range [2][]string{pathsA, pathsB} {
		for _, path := range paths {
			var r results
			raw, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(raw, &r)
			}
			if err != nil {
				fatal(fmt.Errorf("reading %s: %w", path, err))
			}
			runs[i] = append(runs[i], r)
			if reason := stampMismatch(runs[0][0].Stamp, r.Stamp); reason != "" {
				fmt.Fprintf(os.Stderr, "bench: refusing to compare %s with %s: %s\n", path, pathsA[0], reason)
				return 2
			}
		}
	}
	names := make([]string, 0, len(runs[0][0].Workloads))
	for name := range runs[0][0].Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%d runs against %d; a verdict other than worse needs %d a side\n", len(runs[0]), len(runs[1]), minRuns)
	code := 0
	for _, name := range names {
		fmt.Printf("%-16s", name)
		var failed [2]float64
		for _, m := range endToEnd {
			var sets [2]summary
			for i := range runs {
				values := make([]float64, 0, len(runs[i]))
				for _, r := range runs[i] {
					wr := r.Workloads[name]
					if wr == nil {
						fmt.Fprintf(os.Stderr, "\nbench: %s is missing from a run\n", name)
						return 2
					}
					values = append(values, wr.EndToEnd[m.name].Median)
					failed[i] = max(failed[i], wr.FailedShare)
				}
				sets[i] = summarize(values, m.unit)
			}
			v := verdict(m, sets[0], sets[1])
			if v != "within" {
				code = 1
			}
			fmt.Printf(" %s=%s", m.name, v)
		}
		if failed[1] > failed[0] {
			code = 1
			fmt.Printf(" failed_share=worse")
		} else {
			fmt.Printf(" failed_share=within")
		}
		fmt.Println()
	}
	return code
}

// stampMismatch names the first configuration difference that makes
// two results incomparable, or "".
func stampMismatch(a, b stamp) string {
	switch {
	case a.Windows != b.Windows:
		return fmt.Sprintf("windows %d vs %d", a.Windows, b.Windows)
	case a.WindowS != b.WindowS:
		return fmt.Sprintf("window length %.2fs vs %.2fs", a.WindowS, b.WindowS)
	case a.Clients != b.Clients:
		return fmt.Sprintf("C %d vs %d", a.Clients, b.Clients)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	return ""
}

// verdict applies one metric's bound to two sets of runs: "worse" when
// b's median is worse than a's by more than the bound; "unresolved"
// when either set's runs spread wider than the bound, or are too few to
// tell — "no change" cannot be claimed then; otherwise "within".
func verdict(m metricDef, a, b summary) string {
	worse := b.Median - a.Median
	if m.better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.bound*a.Median:
		return "worse"
	case min(a.N, b.N) < minRuns || a.spread() > m.bound || b.spread() > m.bound:
		return "unresolved"
	}
	return "within"
}
