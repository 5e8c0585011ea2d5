// Package loadgen provides a closed-loop workload generator plus
// latency/throughput reporting for the benchmark harness that
// regenerates the paper's evaluation (§V).
package loadgen

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/metrics"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Op is one unit of workload. The worker index lets operations spread
// across objects or keys.
type Op func(ctx context.Context, worker int) error

// Config shapes a load run.
type Config struct {
	// Concurrency is the number of closed-loop workers. Defaults 8.
	Concurrency int
	// Duration is the measured run length. Defaults to 1s.
	Duration time.Duration
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	return c
}

// Report summarizes a load run.
type Report struct {
	// Elapsed is the measured wall time.
	Elapsed time.Duration `json:"elapsed"`
	// Ops / Errors count completed operations.
	Ops    int64 `json:"ops"`
	Errors int64 `json:"errors"`
	// ThroughputOPS is Ops divided by Elapsed.
	ThroughputOPS float64 `json:"throughput_ops"`
	// Latency summarizes successful-op latencies.
	Latency metrics.HistogramSnapshot `json:"latency"`
}

// Run drives op under cfg and reports the measured throughput. A
// warm-up is a Run of its own whose report the caller drops.
func Run(ctx context.Context, cfg Config, op Op) Report {
	cfg = cfg.withDefaults()
	var (
		okOps  atomic.Int64
		errOps atomic.Int64
		hist   metrics.Histogram
	)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	clock := vclock.NewReal()
	start := clock.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if clock.Now().After(deadline) || runCtx.Err() != nil {
					return
				}
				opStart := clock.Now()
				err := op(runCtx, worker)
				if runCtx.Err() != nil {
					return // do not count operations cut off at the end
				}
				if err != nil {
					errOps.Add(1)
					continue
				}
				hist.Observe(clock.Since(opStart))
				okOps.Add(1)
			}
		}(w)
	}

	// End the run exactly at the deadline even if ops block.
	go func() {
		_ = clock.Sleep(runCtx, cfg.Duration)
		cancel()
	}()
	wg.Wait()
	elapsed := clock.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return Report{
		Elapsed:       elapsed,
		Ops:           okOps.Load(),
		Errors:        errOps.Load(),
		ThroughputOPS: float64(okOps.Load()) / elapsed.Seconds(),
		Latency:       hist.Snapshot(),
	}
}
