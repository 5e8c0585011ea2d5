//go:build goexperiment.synctest

package experiment

// The Figure 3 points in a synctest bubble, where time moves only when
// every goroutine is durably blocked. A goroutine blocked on a mutex is
// not, so a lock held across a clock wait (a handler's compute, a store
// write) stops the bubble's clock and hangs the point: this test is the
// dynamic check of the rule that no lock is held across a clock wait.
// It asserts completion only, not the figure's shape. The package has no
// entry test, so tier-1 does not run it (the eight points take about
// 26 s); CI's "No lock is held across a clock wait" step does, with
//
//	GOEXPERIMENT=synctest go test -count=1 -timeout 180s -run 'TestFigure3CompletesInABubble$' -v ./internal/experiment

import (
	"context"
	"fmt"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/simtest"
)

func TestFigure3CompletesInABubble(t *testing.T) {
	p := DefaultParams()
	for _, system := range allSystems() {
		for _, workers := range []int{3, 12} {
			t.Run(fmt.Sprintf("%s/%d", system, workers), func(t *testing.T) {
				simtest.Run(t, func(t *testing.T) {
					row, err := MeasurePoint(context.Background(), system, workers, p)
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("%s at %d workers: %.0f ops/s of virtual time, p95 %v, %d errors, %d DB writes",
						row.System, row.Workers, row.ThroughputOPS, row.P95, row.Errors, row.DBWriteOps)
					if row.ThroughputOPS <= 0 {
						t.Fatalf("throughput = %v, want some completed operations", row.ThroughputOPS)
					}
				})
			})
		}
	}
}
