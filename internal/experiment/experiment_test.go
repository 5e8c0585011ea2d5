package experiment

import (
	"context"
	"testing"
	"time"
)

// smallParams shrinks the experiment so tests stay fast.
func smallParams() Params {
	p := DefaultParams()
	p.Workers = []int{3, 6}
	p.Duration = 250 * time.Millisecond
	p.Warmup = 100 * time.Millisecond
	p.Concurrency = 64
	p.Objects = 32
	return p
}

func TestSystemStrings(t *testing.T) {
	want := map[System]string{
		SystemKnative:              "knative",
		SystemOprc:                 "oprc",
		SystemOprcBypass:           "oprc-bypass",
		SystemOprcBypassNonpersist: "oprc-bypass-nonpersist",
	}
	for s, label := range want {
		if s.String() != label {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), label)
		}
	}
	if len(allSystems()) != 4 {
		t.Fatal("allSystems wrong")
	}
}

func TestMeasurePointProducesThroughput(t *testing.T) {
	p := smallParams()
	row, err := MeasurePoint(context.Background(), SystemOprcBypassNonpersist, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	if row.ThroughputOPS <= 0 {
		t.Fatalf("throughput = %v", row.ThroughputOPS)
	}
	if row.Errors != 0 {
		t.Fatalf("errors = %d", row.Errors)
	}
	if row.DBWriteOps != 0 {
		t.Fatalf("nonpersist system wrote %d DB ops", row.DBWriteOps)
	}
}

func TestKnativeSystemWritesPerOp(t *testing.T) {
	p := smallParams()
	row, err := MeasurePoint(context.Background(), SystemKnative, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	// Write-through means roughly one DB write per op (warmup writes
	// inflate the count; require at least 0.5 writes/op).
	if float64(row.DBWriteOps) < float64(row.ThroughputOPS)*p.Duration.Seconds()*0.5 {
		t.Fatalf("knative DB writes %d too low for %v ops/s", row.DBWriteOps, row.ThroughputOPS)
	}
}

func TestOprcWritesFarFewerDBOps(t *testing.T) {
	p := smallParams()
	ctx := context.Background()
	kn, err := MeasurePoint(ctx, SystemKnative, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	op, err := MeasurePoint(ctx, SystemOprc, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	if op.DBWriteOps*5 > kn.DBWriteOps {
		t.Fatalf("oprc writes (%d) not far below knative (%d); batching ineffective",
			op.DBWriteOps, kn.DBWriteOps)
	}
}

// TestFigure3Shape verifies the qualitative claims of the paper's
// Figure 3 at reduced scale: the Knative baseline is DB-bound (does
// not scale 3→6 VMs at the full compute ratio) while the nonpersist
// variant scales with compute, and the systems order correctly at the
// top worker count.
func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	p := smallParams()
	p.Workers = []int{3, 6}
	p.Duration = 400 * time.Millisecond
	// Lower the DB ceiling so the knative plateau appears inside this
	// reduced sweep (at full scale it appears at 6 VMs).
	p.DBWriteOpsPerSec = 3500
	ctx := context.Background()
	rows, err := RunFigure3(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.System+"/"+itoa(r.Workers)] = r
	}
	kn3, kn6 := byKey["knative/3"], byKey["knative/6"]
	np3, np6 := byKey["oprc-bypass-nonpersist/3"], byKey["oprc-bypass-nonpersist/6"]
	// Knative gains little from doubling VMs once DB-bound.
	knGain := kn6.ThroughputOPS / kn3.ThroughputOPS
	npGain := np6.ThroughputOPS / np3.ThroughputOPS
	if knGain > npGain {
		t.Fatalf("knative scaled better (%.2fx) than nonpersist (%.2fx); plateau missing", knGain, npGain)
	}
	if npGain < 1.5 {
		t.Fatalf("nonpersist gained only %.2fx from 3->6 VMs", npGain)
	}
	// Ordering at 6 VMs: knative <= oprc <= bypass <= nonpersist,
	// with 10% tolerance for measurement noise.
	or6 := byKey["oprc/6"]
	by6 := byKey["oprc-bypass/6"]
	if kn6.ThroughputOPS > or6.ThroughputOPS*1.1 {
		t.Fatalf("knative (%.0f) above oprc (%.0f)", kn6.ThroughputOPS, or6.ThroughputOPS)
	}
	if or6.ThroughputOPS > by6.ThroughputOPS*1.1 {
		t.Fatalf("oprc (%.0f) above bypass (%.0f)", or6.ThroughputOPS, by6.ThroughputOPS)
	}
	if by6.ThroughputOPS > np6.ThroughputOPS*1.1 {
		t.Fatalf("bypass (%.0f) above nonpersist (%.0f)", by6.ThroughputOPS, np6.ThroughputOPS)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestBatchAblationMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	p := smallParams()
	rows, err := RunBatchAblation(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Write-through must cost far more DB writes per op than any
	// write-behind configuration.
	wt := rows[0]
	for _, r := range rows[1:] {
		if r.DBWritesPer1kOp*2 > wt.DBWritesPer1kOp {
			t.Fatalf("write-behind %q (%.1f/1k) not clearly below write-through (%.1f/1k)",
				r.Config, r.DBWritesPer1kOp, wt.DBWritesPer1kOp)
		}
	}
}

func TestColdStartAblation(t *testing.T) {
	row, err := RunColdStartAblation(context.Background(), 3, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if row.ColdStarts < int64(row.Rounds) {
		t.Fatalf("cold starts %d < rounds %d", row.ColdStarts, row.Rounds)
	}
	if row.ColdP50 < row.WarmP50*2 {
		t.Fatalf("cold p50 %v not clearly above warm p50 %v", row.ColdP50, row.WarmP50)
	}
}

func TestDataflowAblationParallelWins(t *testing.T) {
	rows, err := RunDataflowAblation(context.Background(), 4, 15*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	fan, chain := rows[0], rows[1]
	// Chain does width+2 sequential steps; fan should take roughly 3
	// step-times. Require a clear win.
	if fan.MeanTime*15/10 > chain.MeanTime {
		t.Fatalf("fan %v not clearly faster than chain %v", fan.MeanTime, chain.MeanTime)
	}
}

func TestLocalityAblation(t *testing.T) {
	row, err := RunLocalityAblation(context.Background(), 32, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if row.Misses == 0 {
		t.Fatal("no read-through misses recorded")
	}
	if row.ColdP50 < row.WarmP50 {
		t.Fatalf("cold p50 %v below warm p50 %v", row.ColdP50, row.WarmP50)
	}
}

func TestTemplateAblationSelections(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	rows, err := RunTemplateAblation(context.Background(), 300*time.Millisecond, 32)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Plain":          "standard",
		"HighThroughput": "high-throughput",
		"Ephemeral":      "ephemeral",
	}
	for _, r := range rows {
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
}

func TestMultiRegionAblation(t *testing.T) {
	row, err := RunMultiRegionAblation(context.Background(), 10*time.Millisecond, 10)
	if err != nil {
		t.Fatal(err)
	}
	if row.HomeRegion != "eu" {
		t.Fatalf("home region = %q", row.HomeRegion)
	}
	if !row.PlacementCompliant {
		t.Fatal("jurisdiction placement violated")
	}
	if row.RemoteMean < row.InterRegionRTT {
		t.Fatalf("remote mean %v below the inter-region RTT %v", row.RemoteMean, row.InterRegionRTT)
	}
	if row.LocalMean >= row.RemoteMean {
		t.Fatalf("local mean %v not below remote mean %v", row.LocalMean, row.RemoteMean)
	}
}
