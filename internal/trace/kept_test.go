package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/israce"
)

// forcedTraceparents returns n distinct W3C headers with the sampled
// flag set, so every trace rooted from one is kept as "forced".
func forcedTraceparents(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("00-%032x-00f067aa0ba902b7-01", i+1)
	}
	return out
}

// runKeptTrace drives one forced trace of nspans spans to finalization:
// a root, children carrying the attribute mix the platform records, and
// one errored leaf.
func runKeptTrace(tr *Tracer, traceparent string, nspans int, err error) {
	root := tr.Root("gateway", traceparent)
	root.SetAttr("method", "POST")
	root.SetInvocation("inv-1")
	for i := 1; i < nspans; i++ {
		c := root.Child("queue.drain")
		c.SetInt("coalesced", i)
		if i%3 == 0 {
			c.SetAttr("class", "Counter")
		}
		if i == nspans-1 {
			c.Error(err)
		}
		c.End()
	}
	root.End()
}

// TestFinalizeKeptAllocationBudget pins what keeping a trace costs: the
// keptTrace header, its invocation IDs, one span-value slice and one
// attr slice — the same handful of objects for 3 spans and for 160,
// nothing per span (the views are rendered on read).
func TestFinalizeKeptAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	errBoom := errors.New("boom")
	for _, nspans := range []int{3, 160} {
		tr, _ := newTestTracer(-1)
		const runs = 200
		tps := forcedTraceparents(runs + 50)
		next := 0
		run := func() {
			runKeptTrace(tr, tps[next], nspans, errBoom)
			next++
		}
		for i := 0; i < 40; i++ { // warm the pools, fill the ring
			run()
		}
		n := testing.AllocsPerRun(runs, run)
		if n > 4 {
			t.Errorf("keeping a %d-span trace allocates %v objects, want <= 4", nspans, n)
		}
		if st := tr.Stats(); st.Dropped != 0 {
			t.Fatalf("forced traces dropped: %+v", st)
		}
	}
}

// TestTraceByIDGoldenJSON holds the served JSON of a kept trace byte for
// byte: field set and order, hex ids, int64 and string attr types, spans
// in start order with the late span after them. The golden text was
// captured from the eager-view implementation this one replaced.
func TestTraceByIDGoldenJSON(t *testing.T) {
	clk := newTestClock()
	tr := New(Config{Settings: Settings{SampleRate: -1, Capacity: 8}, Seed: 7, Now: clk.Now})
	const hdr = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	root := tr.Root("gateway", hdr)
	root.SetAttr("method", "POST")
	root.SetInt("status", 202)
	root.SetInvocation("inv-abc")
	wait := root.Child("queue.wait")
	drain := root.Child("queue.drain") // starts after wait, ends before it
	drain.SetInt("coalesced", 4)
	commit := drain.Child("commit")
	commit.Error(errors.New(`fence "moved" <epoch 3>`))
	commit.End()
	drain.End()
	wait.End()
	tp := root.Traceparent()
	root.End()
	late := tr.Attach(tp, "webhook.delivery")
	late.SetAttr("url", "http://example/hook")
	late.Child("webhook.attempt").End()
	late.End()

	v, ok := tr.TraceByID(hdr[3:35])
	if !ok {
		t.Fatal("forced trace not retained")
	}
	got, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"id":"4bf92f3577b34da6a3ce929d0e0e4736","root":"gateway","start":"2023-11-14T22:13:20.000001Z","duration_ns":8000,"reason":"forced","invocations":["inv-abc"],"spans":[{"id":"d70d3259e4e1cb63","parent":"00f067aa0ba902b7","name":"gateway","start":"2023-11-14T22:13:20.000001Z","duration_ns":8000,"attrs":{"method":"POST","status":202}},{"id":"1c663cf4d73c4c04","parent":"d70d3259e4e1cb63","name":"queue.wait","start":"2023-11-14T22:13:20.000003Z","duration_ns":5000},{"id":"022ab1ba804098e6","parent":"d70d3259e4e1cb63","name":"queue.drain","start":"2023-11-14T22:13:20.000004Z","duration_ns":3000,"attrs":{"coalesced":4}},{"id":"cb293e6770eb3a95","parent":"022ab1ba804098e6","name":"commit","start":"2023-11-14T22:13:20.000005Z","duration_ns":1000,"error":"fence \"moved\" \u003cepoch 3\u003e"},{"id":"11aabecb86beda3f","parent":"da211e6a663bd373","name":"webhook.attempt","start":"2023-11-14T22:13:20.000011Z","duration_ns":1000},{"id":"da211e6a663bd373","parent":"d70d3259e4e1cb63","name":"webhook.delivery","start":"2023-11-14T22:13:20.00001Z","duration_ns":3000,"attrs":{"url":"http://example/hook"}}]}`
	if string(got) != want {
		t.Fatalf("trace JSON drifted\n got: %s\nwant: %s", got, want)
	}
	byInv, ok := tr.ByInvocation("inv-abc")
	if !ok {
		t.Fatal("trace not indexed by invocation")
	}
	if again, _ := json.Marshal(byInv); string(again) != want {
		t.Fatalf("ByInvocation serves a different document: %s", again)
	}
	if list := tr.Traces(0); len(list) != 1 {
		t.Fatalf("Traces = %d entries, want 1", len(list))
	} else if again, _ := json.Marshal(list[0]); string(again) != want {
		t.Fatalf("Traces serves a different document: %s", again)
	}
}
