// Package heaptest measures what a data structure keeps resident, for
// the per-entry budgets beside each layer that owns per-object state.
package heaptest

import (
	"runtime"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/israce"
)

// PerEntry returns the live-heap bytes fill leaves behind, divided by
// n. The caller keeps whatever fill built reachable until PerEntry
// returns, and anything fill only borrowed (keys made beforehand) too —
// runtime.KeepAlive after the call — or its release is counted as a
// negative cost. Skips under the race detector, whose bookkeeping
// shares the heap.
func PerEntry(t testing.TB, n int, fill func()) float64 {
	t.Helper()
	if israce.Enabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	before := live()
	fill()
	return (float64(live()) - float64(before)) / float64(n)
}

// live is HeapAlloc after two collections (the second frees what the
// first's finalizers released).
func live() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
