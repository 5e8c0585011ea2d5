package trace

import (
	"fmt"
	"testing"
	"time"
)

// rootOf finalizes one root on route, lasting about d on the test
// clock, and reports why it was kept ("" when dropped).
func rootOf(tr *Tracer, clk *testClock, route string, d time.Duration) string {
	kept := tr.Stats().Kept
	sp := tr.Root("gateway", "")
	sp.SetRoute(route)
	clk.Advance(d)
	sp.End()
	if tr.Stats().Kept == kept {
		return ""
	}
	return tr.Traces(1)[0].Reason
}

// TestEachRouteJudgedByItsOwnTail mixes a fast route A (roots of about
// 1 µs) with a slow one B (about 300 µs), one B root for every 32 of
// A's — an invoke-batch among its long-polls. Judged against one window
// over both, every B root is above the p95 the A roots set and is kept
// as slow. Judged by route, B's ordinary roots are not kept, while an
// outlier on either route still is.
func TestEachRouteJudgedByItsOwnTail(t *testing.T) {
	tr, clk := newTestTracer(-1) // only slow keeps
	const (
		a, b  = "GET /api/invocations/{id}", "POST /api/invoke-batch"
		perB  = 32
		learn = recomputeEvery
	)
	round := func(i int) (keptB bool) {
		for j := 0; j < perB; j++ {
			rootOf(tr, clk, a, time.Duration(j%3)*time.Microsecond)
		}
		return rootOf(tr, clk, b, 300*time.Microsecond+time.Duration(i%8)*time.Microsecond) != ""
	}
	for i := 0; i < learn; i++ {
		round(i)
	}
	if tr.slowThreshold(a) == 0 || tr.slowThreshold(b) == 0 {
		t.Fatalf("thresholds not learned: A %v, B %v", tr.slowThreshold(a), tr.slowThreshold(b))
	}
	keptB := 0
	for i := 0; i < 2*learn; i++ {
		if round(i) {
			keptB++
		}
	}
	if keptB != 0 {
		t.Fatalf("%d of %d ordinary B roots kept as slow (B threshold %v, A threshold %v)",
			keptB, 2*learn, tr.slowThreshold(b), tr.slowThreshold(a))
	}
	if got := rootOf(tr, clk, b, 3*time.Millisecond); got != "slow" {
		t.Fatalf("a 10x outlier on B kept as %q, want slow", got)
	}
	if got := rootOf(tr, clk, a, 50*time.Microsecond); got != "slow" {
		t.Fatalf("an outlier on A kept as %q, want slow", got)
	}
}

// TestRouteMakesNoSlowKeepsUntilLearned: a route's first roots have no
// threshold to exceed, however slow they are, until the route has
// finished recomputeEvery of them — another route's threshold does not
// stand in for it.
func TestRouteMakesNoSlowKeepsUntilLearned(t *testing.T) {
	tr, clk := newTestTracer(-1)
	for i := 0; i < recomputeEvery; i++ {
		rootOf(tr, clk, "fast", 0)
	}
	for i := 1; i < recomputeEvery; i++ {
		if got := rootOf(tr, clk, "new", time.Duration(i)*time.Millisecond); got != "" {
			t.Fatalf("root %d of an unlearned route kept as %q", i, got)
		}
	}
	if tr.slowThreshold("new") != 0 {
		t.Fatal("threshold learned before recomputeEvery roots")
	}
	rootOf(tr, clk, "new", time.Millisecond)
	if tr.slowThreshold("new") == 0 {
		t.Fatal("threshold not learned after recomputeEvery roots")
	}
}

// TestRoutesSharingAPatternShareAWindow: 1000 roots on one pattern,
// each with a distinct path, make one window, and a root with no route
// keys on its span name.
func TestRoutesSharingAPatternShareAWindow(t *testing.T) {
	tr, _ := newTestTracer(-1)
	for i := 0; i < 1000; i++ {
		sp := tr.Root("gateway", "")
		sp.SetAttr("path", fmt.Sprintf("/api/objects/o%d/invoke/bump", i))
		sp.SetRoute("POST /api/objects/{id}/invoke/{fn}")
		sp.End()
	}
	if n := tr.routes(); n != 1 {
		t.Fatalf("%d windows for one pattern, want 1", n)
	}
	tr.Root("invoke", "").End()
	if n := tr.routes(); n != 2 {
		t.Fatalf("%d windows after an unrouted root, want 2", n)
	}
	tr.mu.Lock()
	roots := tr.tails["POST /api/objects/{id}/invoke/{fn}"].roots
	_, byName := tr.tails["invoke"]
	tr.mu.Unlock()
	if roots != 1000 || !byName {
		t.Fatalf("pattern window saw %d roots, span-name window present %v", roots, byName)
	}
}
