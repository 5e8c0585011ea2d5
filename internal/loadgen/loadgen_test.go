package loadgen

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestClosedLoopCountsOps(t *testing.T) {
	var n atomic.Int64
	rep := Run(context.Background(), Config{Concurrency: 4, Duration: 100 * time.Millisecond},
		func(context.Context, int) error {
			n.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		})
	if rep.Ops == 0 {
		t.Fatal("no ops recorded")
	}
	if rep.Ops > n.Load() {
		t.Fatalf("reported %d ops but only %d ran", rep.Ops, n.Load())
	}
	if rep.ThroughputOPS <= 0 {
		t.Fatalf("throughput = %v", rep.ThroughputOPS)
	}
}

func TestErrorsCountedSeparately(t *testing.T) {
	var n atomic.Int64
	rep := Run(context.Background(), Config{Concurrency: 2, Duration: 50 * time.Millisecond},
		func(context.Context, int) error {
			if n.Add(1)%2 == 0 {
				return errors.New("boom")
			}
			time.Sleep(time.Millisecond)
			return nil
		})
	if rep.Errors == 0 {
		t.Fatal("errors not counted")
	}
	if rep.Ops == 0 {
		t.Fatal("successes not counted")
	}
}

func TestWorkerIndexSpread(t *testing.T) {
	seen := make([]atomic.Int64, 4)
	Run(context.Background(), Config{Concurrency: 4, Duration: 50 * time.Millisecond},
		func(_ context.Context, w int) error {
			seen[w].Add(1)
			time.Sleep(time.Millisecond)
			return nil
		})
	for i := range seen {
		if seen[i].Load() == 0 {
			t.Fatalf("worker %d never ran", i)
		}
	}
}

func TestRunStopsAtDeadlineWithBlockingOps(t *testing.T) {
	start := time.Now()
	rep := Run(context.Background(), Config{Concurrency: 2, Duration: 80 * time.Millisecond},
		func(ctx context.Context, _ int) error {
			<-ctx.Done() // blocks until the run is cancelled
			return ctx.Err()
		})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("run took %v; deadline not enforced", elapsed)
	}
	if rep.Ops != 0 {
		t.Fatalf("blocked ops counted: %d", rep.Ops)
	}
}

func TestContextCancellationStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	Run(ctx, Config{Concurrency: 2, Duration: time.Hour},
		func(context.Context, int) error {
			time.Sleep(time.Millisecond)
			return nil
		})
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled run did not stop")
	}
}

func TestWarmupNotMeasured(t *testing.T) {
	var phase atomic.Int64 // counts all executions including warmup
	rep := Run(context.Background(), Config{
		Concurrency: 1,
		Warmup:      50 * time.Millisecond,
		Duration:    50 * time.Millisecond,
	}, func(context.Context, int) error {
		phase.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if rep.Ops >= phase.Load() {
		t.Fatalf("measured ops %d >= total %d; warmup was counted", rep.Ops, phase.Load())
	}
}

func TestLatencyRecorded(t *testing.T) {
	rep := Run(context.Background(), Config{Concurrency: 1, Duration: 60 * time.Millisecond},
		func(context.Context, int) error {
			time.Sleep(5 * time.Millisecond)
			return nil
		})
	if rep.Latency.Count == 0 {
		t.Fatal("no latency samples")
	}
	if rep.Latency.Mean < 2*time.Millisecond {
		t.Fatalf("mean latency = %v, implausibly low", rep.Latency.Mean)
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Concurrency != 8 || cfg.Duration != time.Second {
		t.Fatalf("defaults = %+v", cfg)
	}
}
