//go:build goexperiment.synctest

package experiment

// Figure 3 and the ablations A1–A6 in synctest bubbles. Every modelled
// cost (a handler's compute, a DB write's admission, a cold start, a
// store read, an inter-region hop) is a wait on the bubble's clock,
// which moves only when every goroutine of the bubble is durably
// blocked. So what a point measures does not depend on the host's speed,
// and the gates below compare numbers with no tolerance beyond the 1 %
// band of the DB ceiling. The clock also stands still while a goroutine
// waits on a mutex, so a lock held across a clock wait hangs a point:
// these tests are the dynamic check that none is. Tier-1 runs them
// through TestBubbles.
//
// A point does depend on the order in which goroutines that wake at the
// same virtual instant run, which decides how many optimistic commits
// of the two clients that share each object abort. That order changes
// from run to run and with how many of them run at once. On a 2-vCPU
// host, oprc at 3 workers aborted 100 commits with GOMAXPROCS=1 against
// 307 with 2, and with GOMAXPROCS=1, or with two points run in parallel,
// it outran oprc-bypass, which fails the ordering gate. So the points
// run one at a time.

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// figure3Params sizes the gated point at the given worker count:
// DefaultParams' systems, worker counts and costs, with 100 ms of
// warm-up and a 300 ms window, or 600 ms at 3 workers. There oprc and
// oprc-bypass are closest: a 300 ms window read them 3–4 % apart and,
// on a loaded host, put oprc ahead in 1 of 4 runs; a 600 ms window
// reads them 7 % apart. Lengthen the window if the order flips again.
func figure3Params(workers int) Params {
	p := DefaultParams()
	p.Duration = 300 * time.Millisecond
	if workers == 3 {
		p.Duration = 600 * time.Millisecond
	}
	p.Warmup = 100 * time.Millisecond
	return p
}

// TestFigure3 measures the 16 points of Figure 3, each in a bubble of
// its own, then gates the figure's shape on them.
func TestFigure3(t *testing.T) {
	// Each token-bucket wait of a point arms a timer: collecting a
	// quarter as often takes about 12 % off the sweep's wall time, for
	// about 11 MB more peak heap (22 → 33 MB on a 2-vCPU host).
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	p := DefaultParams()
	rows := map[System][]Row{} // in p.Workers' order
	for _, system := range allSystems() {
		rows[system] = make([]Row, len(p.Workers))
	}
	t.Run("points", func(t *testing.T) {
		for _, system := range allSystems() {
			for i, workers := range p.Workers {
				t.Run(fmt.Sprintf("%s/%d", system, workers), func(t *testing.T) {
					simtest.Run(t, func(t *testing.T) {
						row, err := MeasurePoint(context.Background(), system, workers, figure3Params(workers))
						if err != nil {
							t.Fatal(err)
						}
						t.Logf("%s at %d workers: %.1f ops/s, p95 %v, %d errors, %d DB writes", system, workers, row.ThroughputOPS, row.P95, row.Errors, row.DBWriteOps)
						rows[system][i] = row
					})
				})
			}
		}
	})
	for _, rs := range rows {
		for _, r := range rs {
			if r.Workers == 0 {
				return // a point failed, or -run left it out: no shape to gate
			}
		}
	}
	// A bubble's window ends exactly when it should.
	ops := func(r Row) int64 {
		return int64(math.Round(r.ThroughputOPS * figure3Params(r.Workers).Duration.Seconds()))
	}
	// dbBound: the worker counts from 9 on, where Figure 3's Knative has
	// reached the DB write ceiling.
	dbBound := func(i int) bool { return p.Workers[i] >= 9 }
	kn, oprc, bypass, nonpersist := rows[SystemKnative], rows[SystemOprc], rows[SystemOprcBypass], rows[SystemOprcBypassNonpersist]

	t.Run("every-op-succeeds", func(t *testing.T) {
		for _, rs := range rows {
			for _, r := range rs {
				if r.Errors != 0 || r.ThroughputOPS <= 0 {
					t.Errorf("%s at %d workers: %d errors, %.1f ops/s", r.System, r.Workers, r.Errors, r.ThroughputOPS)
				}
			}
		}
	})
	t.Run("knative-at-the-db-ceiling", func(t *testing.T) {
		for i, r := range kn {
			if dbBound(i) && (r.ThroughputOPS < p.DBWriteOpsPerSec*0.99 || r.ThroughputOPS > p.DBWriteOpsPerSec*1.01) {
				t.Errorf("knative at %d workers: %.1f ops/s, want within 1%% of the DB ceiling %.0f", r.Workers, r.ThroughputOPS, p.DBWriteOpsPerSec)
			}
		}
	})
	t.Run("oprc-below-bypass-below-nonpersist", func(t *testing.T) {
		for i, w := range p.Workers {
			if !(oprc[i].ThroughputOPS < bypass[i].ThroughputOPS && bypass[i].ThroughputOPS < nonpersist[i].ThroughputOPS) {
				t.Errorf("at %d workers: oprc %.1f, oprc-bypass %.1f, nonpersist %.1f ops/s; want them rising in that order",
					w, oprc[i].ThroughputOPS, bypass[i].ThroughputOPS, nonpersist[i].ThroughputOPS)
			}
		}
	})
	t.Run("knative-not-above-oprc-where-db-bound", func(t *testing.T) {
		for i, w := range p.Workers {
			if dbBound(i) && kn[i].ThroughputOPS > oprc[i].ThroughputOPS {
				t.Errorf("at %d workers: knative %.1f above oprc %.1f ops/s", w, kn[i].ThroughputOPS, oprc[i].ThroughputOPS)
			}
		}
	})
	t.Run("monotone-in-workers", func(t *testing.T) {
		// Knative is flat once DB-bound: knative-at-the-db-ceiling holds it.
		for system, rs := range rows {
			for i := 1; i < len(rs); i++ {
				if system == SystemKnative && dbBound(i-1) {
					continue
				}
				if rs[i].ThroughputOPS <= rs[i-1].ThroughputOPS {
					t.Errorf("%s: %.1f ops/s at %d workers, not above %.1f at %d",
						system, rs[i].ThroughputOPS, rs[i].Workers, rs[i-1].ThroughputOPS, rs[i-1].Workers)
				}
			}
		}
	})
	t.Run("nonpersist-writes-nothing", func(t *testing.T) {
		for _, r := range nonpersist {
			if r.DBWriteOps != 0 {
				t.Errorf("at %d workers: %d DB writes", r.Workers, r.DBWriteOps)
			}
		}
	})
	t.Run("knative-writes-once-per-op", func(t *testing.T) {
		for _, r := range kn {
			if r.DBWriteOps < ops(r) {
				t.Errorf("at %d workers: %d DB writes for %d measured ops", r.Workers, r.DBWriteOps, ops(r))
			}
			t.Logf("at %d workers: %d DB writes for %d measured ops; %d by ops the window's end cut off",
				r.Workers, r.DBWriteOps, ops(r), r.DBWriteOps-ops(r))
		}
	})
	t.Run("oprc-writes-a-fifth-of-knative-where-db-bound", func(t *testing.T) {
		for i, w := range p.Workers {
			o, k := oprc[i].DBWriteOps, kn[i].DBWriteOps
			if o >= k || dbBound(i) && float64(o) > 0.2*float64(k) {
				t.Errorf("at %d workers: oprc %d DB writes against knative's %d", w, o, k)
			}
			t.Logf("at %d workers: oprc %d DB writes, %.3f of knative's %d", w, o, float64(o)/float64(k), k)
		}
	})
}

// TestBatchAblationMonotonic (A1): write-through writes once per op, and
// write-behind far less, the less the longer it waits to flush.
func TestBatchAblationMonotonic(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		p := DefaultParams()
		p.Duration = 100 * time.Millisecond
		p.Warmup = 50 * time.Millisecond
		p.Concurrency = 64
		p.Objects = 32
		rows, err := RunBatchAblation(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			t.Logf("%s: %.1f ops/s, %.1f DB writes per 1k ops", r.Config, r.ThroughputOPS, r.DBWritesPer1kOp)
		}
		wt := rows[0]
		if wt.DBWritesPer1kOp < 1000 {
			t.Errorf("write-through: %.1f DB writes per 1k ops, want at least one per op", wt.DBWritesPer1kOp)
		}
		for i, r := range rows[1:] {
			if r.DBWritesPer1kOp*2 > wt.DBWritesPer1kOp {
				t.Errorf("%s (%.1f/1k) not clearly below write-through (%.1f/1k)", r.Config, r.DBWritesPer1kOp, wt.DBWritesPer1kOp)
			}
			if prev := rows[i]; i > 0 && r.DBWritesPer1kOp >= prev.DBWritesPer1kOp {
				t.Errorf("%s (%.1f/1k) not below %s (%.1f/1k)", r.Config, r.DBWritesPer1kOp, prev.Config, prev.DBWritesPer1kOp)
			}
		}
	})
}

// TestColdStartAblation (A2): each round after scale-to-zero pays one
// cold start, and the warm calls after it pay none.
func TestColdStartAblation(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		const coldStart = 50 * time.Millisecond
		row, err := RunColdStartAblation(context.Background(), 3, coldStart)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%+v", row)
		if row.ColdStarts != int64(row.Rounds) {
			t.Errorf("%d cold starts in %d rounds, want one per round", row.ColdStarts, row.Rounds)
		}
		if row.ColdP50 < coldStart || row.WarmP50 >= coldStart {
			t.Errorf("cold p50 %v, warm p50 %v: want the cold calls to pay the %v cold start and the warm ones not", row.ColdP50, row.WarmP50, coldStart)
		}
	})
}

// TestDataflowAblationParallelWins (A3): a fan-out of width 4 takes its
// three levels of steps, the chain of the same six steps all six.
func TestDataflowAblationParallelWins(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		const step = 15 * time.Millisecond
		rows, err := RunDataflowAblation(context.Background(), 4, step, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("rows = %d", len(rows))
		}
		if fan, chain := rows[0], rows[1]; fan.MeanTime != 3*step || chain.MeanTime != 6*step {
			t.Errorf("fan %v, chain %v: want %v and %v", fan.MeanTime, chain.MeanTime, 3*step, 6*step)
		}
	})
}

// TestLocalityAblation (A4): every object's first call reads through to
// the store and pays its latency, and its second finds the state local.
func TestLocalityAblation(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		const objects, readLatency = 32, 5 * time.Millisecond
		row, err := RunLocalityAblation(context.Background(), objects, readLatency)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%+v", row)
		if row.Misses != objects || row.Hits != objects {
			t.Errorf("%d misses and %d hits, want %d of each", row.Misses, row.Hits, objects)
		}
		if row.ColdP50 < readLatency || row.WarmP50 >= readLatency {
			t.Errorf("cold p50 %v, warm p50 %v: want the first calls to pay the %v read and the second ones not", row.ColdP50, row.WarmP50, readLatency)
		}
	})
}

// TestTemplateAblationSelections (A5): each class gets the template its
// requirements select. Whether HighThroughput then meets its QoS is not
// gated; see RunTemplateAblation.
func TestTemplateAblationSelections(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		rows, err := RunTemplateAblation(context.Background(), 300*time.Millisecond, 32)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]string{
			"Plain":          "standard",
			"HighThroughput": "high-throughput",
			"Ephemeral":      "ephemeral",
		}
		if len(rows) != len(want) {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			t.Logf("%+v", r)
			if want[r.Class] != r.Template {
				t.Errorf("class %s selected template %q, want %q", r.Class, r.Template, want[r.Class])
			}
			if r.ThroughputOPS <= 0 {
				t.Errorf("class %s throughput = %v", r.Class, r.ThroughputOPS)
			}
			if r.Class == "HighThroughput" && r.RequiredRPS != 5000 {
				t.Errorf("HighThroughput required = %v", r.RequiredRPS)
			}
		}
	})
}

// TestMultiRegionAblation (A6): the pinned object lives in eu, a call
// from eu costs nothing, and one from the other region exactly the
// round trip.
func TestMultiRegionAblation(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		row, err := RunMultiRegionAblation(context.Background(), 10*time.Millisecond, 10)
		if err != nil {
			t.Fatal(err)
		}
		if row.HomeRegion != "eu" {
			t.Errorf("home region = %q", row.HomeRegion)
		}
		if !row.PlacementCompliant {
			t.Error("jurisdiction placement violated")
		}
		if row.LocalMean != 0 || row.RemoteMean != row.InterRegionRTT || row.InterRegionRTT != 20*time.Millisecond {
			t.Errorf("local mean %v, remote mean %v, RTT %v: want 0 and the 20ms RTT", row.LocalMean, row.RemoteMean, row.InterRegionRTT)
		}
	})
}
