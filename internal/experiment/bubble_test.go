//go:build goexperiment.synctest

package experiment

// The Figure 3 points in a synctest bubble, where time moves only when
// every goroutine is durably blocked. A goroutine blocked on a mutex is
// not, so a lock held across a clock wait (a handler's compute, a store
// write) stops the bubble's clock and hangs the point: this test is the
// dynamic check of the rule that no lock is held across a clock wait.
// It asserts completion only, not the figure's shape. Run it with
//
//	GOEXPERIMENT=synctest go test -timeout 120s -run TestFigure3CompletesInABubble -v ./internal/experiment

import (
	"context"
	"fmt"
	"testing"
	"testing/synctest"
)

func TestFigure3CompletesInABubble(t *testing.T) {
	p := DefaultParams()
	for _, system := range allSystems() {
		for _, workers := range []int{3, 12} {
			t.Run(fmt.Sprintf("%s/%d", system, workers), func(t *testing.T) {
				var row Row
				var err error
				synctest.Run(func() {
					row, err = MeasurePoint(context.Background(), system, workers, p)
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s at %d workers: %.0f ops/s of virtual time, p95 %v, %d errors, %d DB writes",
					row.System, row.Workers, row.ThroughputOPS, row.P95, row.Errors, row.DBWriteOps)
				if row.ThroughputOPS <= 0 {
					t.Fatalf("throughput = %v, want some completed operations", row.ThroughputOPS)
				}
			})
		}
	}
}
