package trace

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sync"
	"testing"
	"time"
)

// testClock is a monotonically advancing fake clock.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Microsecond)
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestTracer(rate float64) (*Tracer, *testClock) {
	clk := newTestClock()
	return New(Config{Settings: Settings{SampleRate: rate, Capacity: 8}, Now: clk.Now}), clk
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Root("x", "")
	if sp != nil {
		t.Fatalf("nil tracer Root = %v", sp)
	}
	// Every span method must be a no-op on nil.
	sp.SetAttr("k", "v")
	sp.SetInt("k", 1)
	sp.Error(errors.New("boom"))
	sp.SetInvocation("inv")
	if got := sp.Traceparent(); got != "" {
		t.Fatalf("nil Traceparent = %q", got)
	}
	child := sp.Child("c")
	if child != nil {
		t.Fatal("nil Child non-nil")
	}
	l := sp.Link()
	if s := l.Start("d"); s != nil {
		t.Fatal("zero Link Start non-nil")
	}
	l.Release()
	sp.End()
	ctx := ContextWith(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("nil span round-tripped through context")
	}
	if tr.Attach("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "x") != nil {
		t.Fatal("nil tracer Attach non-nil")
	}
	if got := tr.Traces(10); got != nil {
		t.Fatalf("nil tracer Traces = %v", got)
	}
}

func TestForcedTraceKeptWithSpanTree(t *testing.T) {
	tr, _ := newTestTracer(-1) // probabilistic off: only forced/error/slow kept
	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	root := tr.Root("gateway", parent)
	if root == nil {
		t.Fatal("Root returned nil")
	}
	if got := root.TraceIDString(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %q", got)
	}
	tp := root.Traceparent()
	if len(tp) != 55 || tp[54] != '1' {
		t.Fatalf("emitted traceparent %q should carry the forced flag", tp)
	}
	root.SetAttr("method", "POST")
	c := root.Child("handler")
	c.SetInt("attempt", 1)
	c.End()
	root.SetInvocation("inv-1")
	root.End()

	v, ok := tr.TraceByID("4bf92f3577b34da6a3ce929d0e0e4736")
	if !ok {
		t.Fatal("forced trace not retained")
	}
	if v.Reason != "forced" {
		t.Fatalf("reason = %q", v.Reason)
	}
	if len(v.Spans) != 2 {
		t.Fatalf("spans = %d", len(v.Spans))
	}
	if v.Spans[0].Name != "gateway" || v.Spans[1].Name != "handler" {
		t.Fatalf("span order = %q, %q", v.Spans[0].Name, v.Spans[1].Name)
	}
	if v.Spans[1].Parent != v.Spans[0].ID {
		t.Fatal("child span not parented to root")
	}
	if v.Spans[0].Attrs["method"] != "POST" {
		t.Fatalf("root attrs = %v", v.Spans[0].Attrs)
	}
	if got, _ := v.Spans[1].Attrs["attempt"].(int64); got != 1 {
		t.Fatalf("child attrs = %v", v.Spans[1].Attrs)
	}
	byInv, ok := tr.ByInvocation("inv-1")
	if !ok || byInv.ID != v.ID {
		t.Fatal("invocation index lookup failed")
	}
}

func TestErroredTraceAlwaysKept(t *testing.T) {
	tr, _ := newTestTracer(-1)
	root := tr.Root("invoke", "")
	c := root.Child("commit")
	c.Error(errors.New("fence rejected"))
	c.End()
	root.End()
	traces := tr.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	if traces[0].Reason != "error" {
		t.Fatalf("reason = %q", traces[0].Reason)
	}
	found := false
	for _, sv := range traces[0].Spans {
		if sv.Name == "commit" && sv.Error == "fence rejected" {
			found = true
		}
	}
	if !found {
		t.Fatalf("commit error not recorded: %+v", traces[0].Spans)
	}
}

func TestUnremarkableTracesDroppedWhenSamplingDisabled(t *testing.T) {
	tr, _ := newTestTracer(-1)
	for i := 0; i < 50; i++ {
		sp := tr.Root("invoke", "")
		sp.Child("handler").End()
		sp.End()
	}
	st := tr.Stats()
	if st.Kept != 0 || st.Dropped != 50 {
		t.Fatalf("stats = %+v, want 0 kept / 50 dropped", st)
	}
	if got := tr.Traces(0); len(got) != 0 {
		t.Fatalf("retained %d traces", len(got))
	}
}

func TestProbabilisticSamplingKeepsAll(t *testing.T) {
	tr, _ := newTestTracer(1.0)
	for i := 0; i < 20; i++ {
		tr.Root("invoke", "").End()
	}
	if st := tr.Stats(); st.Kept != 20 {
		t.Fatalf("stats = %+v, want 20 kept", st)
	}
}

func TestSlowTraceKeptAfterThresholdLearned(t *testing.T) {
	tr, clk := newTestTracer(-1)
	// Teach the tracer a baseline of fast traces (threshold recomputes
	// every recomputeEvery finalizations).
	for i := 0; i < recomputeEvery; i++ {
		tr.Root("invoke", "").End() // ~µs roots
	}
	if tr.slowThreshold("invoke") == 0 {
		t.Fatal("slow threshold not learned")
	}
	sp := tr.Root("invoke", "")
	clk.Advance(time.Second)
	sp.End()
	traces := tr.Traces(0)
	if len(traces) != 1 || traces[0].Reason != "slow" {
		t.Fatalf("slow trace not kept: %+v", traces)
	}
}

func TestRingEvictionBoundsRetention(t *testing.T) {
	tr, _ := newTestTracer(1.0) // keep everything; capacity 8
	for i := 0; i < 30; i++ {
		sp := tr.Root("invoke", "")
		sp.SetInvocation(fmt.Sprintf("inv-%d", i))
		sp.End()
	}
	traces := tr.Traces(0)
	if len(traces) != 8 {
		t.Fatalf("retained %d traces, want capacity 8", len(traces))
	}
	// Newest first; evicted invocation index entries must be gone.
	if traces[0].Invocations[0] != "inv-29" {
		t.Fatalf("newest trace = %v", traces[0].Invocations)
	}
	if _, ok := tr.ByInvocation("inv-0"); ok {
		t.Fatal("evicted trace still indexed by invocation")
	}
	if _, ok := tr.ByInvocation("inv-29"); !ok {
		t.Fatal("retained trace lost its invocation index")
	}
}

func TestLinkSpansAsyncBoundary(t *testing.T) {
	tr, _ := newTestTracer(1.0)
	root := tr.Root("gateway", "")
	wait := root.Child("queue.wait")
	link := root.Link()
	root.End() // request returns while the task is queued
	if got := tr.Traces(0); len(got) != 0 {
		t.Fatal("trace finalized while link held")
	}
	wait.End()
	drain := link.Start("queue.drain")
	handler := drain.Child("handler")
	handler.End()
	drain.End()
	link.Release()
	traces := tr.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("kept %d traces", len(traces))
	}
	names := map[string]bool{}
	for _, sv := range traces[0].Spans {
		names[sv.Name] = true
	}
	for _, want := range []string{"gateway", "queue.wait", "queue.drain", "handler"} {
		if !names[want] {
			t.Fatalf("span %q missing from %v", want, names)
		}
	}
}

func TestAttachActiveAndLate(t *testing.T) {
	tr, _ := newTestTracer(-1)
	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	root := tr.Root("invoke", "")
	tp := root.Traceparent()

	// Active attach: joins the live trace.
	att := tr.Attach(tp, "eventlog.append")
	if att == nil {
		t.Fatal("Attach to active trace returned nil")
	}
	att.End()
	root.Error(errors.New("keep me"))
	root.End()

	// Late attach: the trace has finalized and was kept; the late span
	// must land on the stored view.
	late := tr.Attach(tp, "webhook.delivery")
	if late == nil {
		t.Fatal("Attach to kept trace returned nil")
	}
	late.SetAttr("url", "http://example")
	late.End()

	v, ok := tr.TraceByID(root.TraceIDString())
	if ok {
		t.Log("trace id still resolvable after End via captured string")
	}
	v, ok = tr.TraceByID(tp[3:35])
	if !ok {
		t.Fatal("trace not retained")
	}
	names := map[string]bool{}
	for _, sv := range v.Spans {
		names[sv.Name] = true
	}
	if !names["eventlog.append"] || !names["webhook.delivery"] {
		t.Fatalf("attached spans missing: %v", names)
	}

	// Attach to an unknown (dropped) trace is nil.
	if tr.Attach(parent, "x") != nil {
		t.Fatal("Attach to unknown trace returned a span")
	}
}

func TestRootJoinsActiveTraceOnForwardedHop(t *testing.T) {
	tr, _ := newTestTracer(-1)
	const hdr = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	ingress := tr.Root("gateway", hdr)
	// The owner node sees the same traceparent while the ingress span
	// is still open: it must join, not fork.
	owner := tr.Root("gateway", ingress.Traceparent())
	owner.End()
	ingress.End()
	traces := tr.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("forwarded hop forked the trace: %d kept", len(traces))
	}
	if len(traces[0].Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(traces[0].Spans))
	}
}

func TestParseTraceparent(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", true},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", true},
		{"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", true}, // future version
		{"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", false},
		{"garbage", false},
		{"", false},
		// The W3C grammar: HEXDIGLC only, version 00 exactly 55 bytes, a
		// later version's extra fields after a '-'.
		{"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A", false},
		{"CC-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", false},
		{"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", false},
		{"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true},
	}
	for _, c := range cases {
		if _, ok := parseTraceparent(c.in); ok != c.ok {
			t.Errorf("parseTraceparent(%q) ok = %v, want %v", c.in, ok, c.ok)
		}
	}
}

var acceptedTraceparent = regexp.MustCompile(`^[0-9a-f]{2}-[0-9a-f]{32}-[0-9a-f]{16}-[0-9a-f]{2}(-|$)`)

// FuzzTraceparent: a header parseTraceparent accepts is at least 55
// bytes, its version, IDs and flags lowercase hex between dashes, and
// its fields re-render to its first 55 bytes.
func FuzzTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00-x",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, ok := parseTraceparent(s)
		if !ok {
			return
		}
		if !acceptedTraceparent.MatchString(s) {
			t.Fatalf("accepted %q", s)
		}
		if got := fmt.Sprintf("%s-%s-%s-%02x", s[:2], p.traceID, p.spanID, p.flags); got != s[:55] {
			t.Fatalf("parsed %q re-renders as %q", s, got)
		}
	})
}

func TestConcurrentSpansSingleTrace(t *testing.T) {
	tr, _ := newTestTracer(1.0)
	root := tr.Root("gateway", "")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		link := root.Link()
		go func(i int) {
			defer wg.Done()
			sp := link.Start("worker")
			sp.SetInt("i", i)
			sp.End()
			link.Release()
		}(i)
	}
	root.End()
	wg.Wait()
	traces := tr.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("kept %d traces", len(traces))
	}
	if got := len(traces[0].Spans); got != 17 {
		t.Fatalf("spans = %d, want 17", got)
	}
}

func TestDisabledPathAllocations(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	n := testing.AllocsPerRun(100, func() {
		sp := tr.Root("gateway", "")
		c := FromContext(ContextWith(ctx, sp)).Child("handler")
		c.SetAttr("k", "v")
		c.End()
		sp.End()
	})
	if n != 0 {
		t.Fatalf("disabled tracing path allocates %v per op", n)
	}
}

func TestUnsampledPathSteadyStateAllocations(t *testing.T) {
	tr, _ := newTestTracer(-1)
	// Warm the pools and the recent-duration window.
	for i := 0; i < 200; i++ {
		sp := tr.Root("invoke", "")
		sp.Child("handler").End()
		sp.End()
	}
	n := testing.AllocsPerRun(500, func() {
		sp := tr.Root("invoke", "")
		c := sp.Child("handler")
		c.SetAttr("class", "X")
		c.End()
		sp.End()
	})
	// Pool-recycled spans and accumulators: a small constant for the
	// occasional slow-keep view is tolerated, but the path must not
	// allocate per span.
	if n > 2 {
		t.Fatalf("unsampled trace path allocates %v per op", n)
	}
}

// A traceData goes back to the pool when its trace finalizes, and the
// bus attaches to traces that are finishing (Event.Trace outlives the
// invocation). An Attach that looked the accumulator up just before
// finalize recycled it must neither race Root's re-initialisation nor
// land its span on the trace that reuses the accumulator. Run under
// -race.
func TestLateAttachVsPooledReuse(t *testing.T) {
	tr, _ := newTestTracer(-1) // nothing is kept: every trace recycles
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	tps := make(chan string)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(tps)
		for i := 0; i < rounds; i++ {
			root := tr.Root("invoke", "")
			tps <- root.Traceparent()
			root.End()
		}
	}()
	go func() {
		defer wg.Done()
		for tp := range tps {
			sp := tr.Attach(tp, "trigger.dispatch")
			if sp == nil {
				continue
			}
			if got := sp.TraceIDString(); got != tp[3:35] {
				t.Errorf("span attached to trace %s, asked for %s", got, tp[3:35])
			}
			sp.End()
		}
	}()
	wg.Wait()
	if st := tr.Stats(); st.Started != int64(rounds) {
		t.Fatalf("started %d traces, want %d", st.Started, rounds)
	}
}

// TestAttachDuringFinalizeLandsOnTheKeptTrace: a span attached to a
// kept trace while that trace finalizes on another goroutine joins it —
// as a child before finalize begins, as a late span once the kept view
// is stored — and is never dropped: Attach must not return nil between
// finalize marking the trace done and the kept view appearing, nor
// between its own lookup and its join. One goroutine ends the root
// while this one attaches and ends spans until one lands late. Run
// under -race.
func TestAttachDuringFinalizeLandsOnTheKeptTrace(t *testing.T) {
	const rounds = 1000
	tr := New(Config{Settings: Settings{SampleRate: -1, Capacity: rounds}})
	for i := 0; i < rounds; i++ {
		root := tr.Root("invoke", fmt.Sprintf("00-%032x-%016x-01", i+1, i+1))
		for j := 0; j < 32; j++ {
			root.Child("stage").End() // a long keep copy widens the window
		}
		tp := root.Traceparent()
		ended := make(chan struct{})
		go func() {
			root.End()
			close(ended)
		}()
		attached := 0
		for late := false; !late; {
			sp := tr.Attach(tp, "webhook.delivery")
			if sp == nil {
				t.Fatalf("round %d: Attach to a forced trace returned nil after %d spans", i, attached)
			}
			attached++
			late = sp.td == nil
			sp.End()
		}
		<-ended
		v, ok := tr.TraceByID(tp[3:35])
		if !ok {
			t.Fatalf("round %d: forced trace not kept", i)
		}
		if got := v.spanCount("webhook.delivery"); got != attached {
			t.Fatalf("round %d: kept trace holds %d attached spans, want %d", i, got, attached)
		}
	}
}

// spanCount counts the view's spans named name.
func (v TraceView) spanCount(name string) int {
	n := 0
	for _, s := range v.Spans {
		if s.Name == name {
			n++
		}
	}
	return n
}
