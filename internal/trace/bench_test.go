package trace

import (
	"fmt"
	"testing"
)

// BenchmarkSpanOpenClose is the steady-state cost of one child span on a
// trace the sampler drops: pooled span out, attr set, span parked.
func BenchmarkSpanOpenClose(b *testing.B) {
	tr, _ := newTestTracer(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := tr.Root("invoke", "")
		c := root.Child("handler")
		c.SetAttr("class", "Counter")
		c.End()
		root.End()
	}
}

// BenchmarkFinalizeKept is the write side of a kept trace: open and end
// every span, then copy them into the ring. Allocations must not scale
// with the span count.
func BenchmarkFinalizeKept(b *testing.B) {
	for _, nspans := range []int{3, 160} {
		b.Run(fmt.Sprintf("%dspans", nspans), func(b *testing.B) {
			tr, _ := newTestTracer(-1)
			tps := forcedTraceparents(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runKeptTrace(tr, tps[i], nspans, nil)
			}
		})
	}
}

// BenchmarkTraceByID is the read side, which now pays the render: hex
// ids and an attrs map per span, outside the tracer lock.
func BenchmarkTraceByID(b *testing.B) {
	b.Run("160spans", func(b *testing.B) {
		tr, _ := newTestTracer(-1)
		tp := forcedTraceparents(1)[0]
		runKeptTrace(tr, tp, 160, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v, ok := tr.TraceByID(tp[3:35]); !ok || len(v.Spans) != 160 {
				b.Fatalf("kept trace not served: ok=%v spans=%d", ok, len(v.Spans))
			}
		}
	})
}
