package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

const (
	tracedBlocks  = 4  // plain and spanned operations alternate in this many blocks each
	traceSampling = 16 // 1 in 16 spanned requests carries a sampled traceparent
	scrapeSamples = 20
	probeObject   = "bench-probe" // scratch object of the eventlog/trigger probes
)

// stageRow is one line of the diagnostic, program-reported stage table.
type stageRow struct {
	Name     string  `json:"name"`
	MedianUs float64 `json:"median_us"`
	Samples  int     `json:"samples"`
}

func us(ns float64) float64 { return ns / 1e3 }

// tracedPass prices every layer from outside, serially (C = 1), after
// the untraced windows. It fills s.layers with the pass's metrics and
// keeps the spans in s.spans.
func (s *session) tracedPass() error {
	w, rig := s.w, s.w.rig
	clients, err := s.open("traced", 1)
	if err != nil {
		return err
	}
	defer closeClients(clients)
	c := clients[0]
	arm(clients, 3*time.Minute)
	L, tracedOps := s.layers, int64(w.sz.tracedOps)

	// http.floor_us: the same listener, a handler that does nothing.
	var floor hist
	for range tracedOps {
		t0 := time.Now()
		if status, _, err := c.conn.do("GET", noopPath, "", nil); err != nil || status != http.StatusNoContent {
			return fmt.Errorf("no-op route: status %d: %v", status, err)
		}
		floor.record(int64(time.Since(t0)))
	}
	L["http.floor_us"] = us(floor.quantile(0.5))

	// The workload's operations, serially, in alternating blocks: plain
	// (no wrapper, no spans — the base of bench.traced_p50_ratio) and
	// spanned (client.roundtrip ⊃ gateway.ServeHTTP ⊃ handler nest for
	// real inside each request). Alternating lets drift cancel in the
	// ratio.
	sl := newSpanLog()
	sampler, err := newTraceSampler(s, c, sl)
	if err != nil {
		return err
	}
	defer sampler.side.close()
	var plain, spanned hist
	for block := range 2 * tracedBlocks {
		var lat hist
		if block%2 == 0 {
			lat, err = s.serialOps(c, tracedOps/tracedBlocks, nil, nil)
			plain.merge(&lat)
		} else {
			rig.spans.Store(sl)
			c.conn.spans = sl
			s.lag.reset()
			lat, err = s.serialOps(c, tracedOps/tracedBlocks, sampler.before, sampler.after)
			rig.spans.Store(nil)
			c.conn.spans = nil
			spanned.merge(&lat)
			sampler.lag.merge(&s.lag)
		}
		if err != nil {
			return err
		}
	}
	s.stages = sampler.stages()
	L["bench.traced_p50_ratio"] = spanned.quantile(0.5) / plain.quantile(0.5)
	L["trigger.delivery_lag_p50_us"] = us(sampler.lag.quantile(0.5))
	L["trigger.delivery_lag_p90_us"] = us(sampler.lag.quantile(0.9))

	// Deeper levels: each layer's public entry point on the live
	// instances, driven with the same seeded operations — every call a
	// real, counted invocation.
	rig.spans.Store(sl)
	probes, err := s.probeLayers(c, sl)
	rig.spans.Store(nil)
	if err != nil {
		return err
	}

	// metrics: the operator's scrapes.
	var scrapes []float64
	for range scrapeSamples {
		t0 := time.Now()
		for _, path := range []string{"/metrics", "/api/stats"} {
			if status, _, err := c.conn.do("GET", path, "", nil); err != nil || status != http.StatusOK {
				return fmt.Errorf("scraping %s: status %d: %v", path, status, err)
			}
		}
		scrapes = append(scrapes, float64(time.Since(t0))/1e6)
	}
	L["metrics.scrape_ms"] = median(scrapes)

	// The budget is drawn from one interleaved phase: the round trips
	// of the requests that entered at the gateway, the gateway's time
	// inside each of them, and the two levels timed in between.
	rt, gwIn := sl.durations(layerRTProbe, ""), sl.durations(layerGWProbe, "")
	if len(rt) != len(gwIn) {
		return fmt.Errorf("%s: %d timed round trips but %d gateway spans", w.name, len(rt), len(gwIn))
	}
	httpSelf := make([]float64, len(rt))
	for i := range rt { // serial, so the i-th spans belong to one request
		httpSelf[i] = rt[i] - gwIn[i]
	}
	m := levelMedians{
		roundtrip: median(rt), httpSelf: median(httpSelf),
		gwLevel:       median(gwIn),
		core:          median(sl.durations(layerCore, "")),
		runtime:       median(sl.durations(layerRuntime, "")),
		load:          median(sl.durations(layerMemLoad, "")),
		commit:        median(sl.durations(layerMemCommit, "")),
		faas:          median(sl.durations(layerFaas, "")),
		handlerInFaas: median(sl.durations(layerHandler, layerFaas)),
		handler:       median(sl.durations(layerHandler, layerGWProbe)),
	}
	for name, v := range m.budget(w.fn == "bump") {
		L[name] = v
	}
	allocOps := float64(max(tracedOps/2, 1))
	L["gateway.allocs_per_op"] = (sl.sum(layerGWProbe) - sl.sum(layerCore)) / allocOps
	L["core.allocs_per_op"] = (sl.sum(layerCore) - sl.sum(layerRuntime)) / allocOps
	L["eventlog.append_us"] = us(median(sl.durations(layerAppend, "")))
	L["eventlog.kv_writes_per_append"] = probes.kvWritesPerAppend
	L["trigger.publish_us"] = us(median(sl.durations(layerPublish, "")))
	L["asyncq.submit_us"] = us(median(sl.durations(layerSubmit, "")))
	L["asyncq.queue_wait_p50_us"] = us(probes.queueWait.quantile(0.5))
	L["asyncq.queue_wait_p90_us"] = us(probes.queueWait.quantile(0.9))
	L["asyncq.exec_p50_us"] = us(probes.exec.quantile(0.5))
	L["trace.span_us"] = us(median(sl.durations(layerTraceSpan, "")))
	L["kvstore.batchput_us_per_doc"] = probes.batchPutPerDocUs
	s.spans = sl.all
	return nil
}

// levelMedians are the traced pass's median durations in nanoseconds:
// the served round trip, and each entry point below it.
type levelMedians struct {
	roundtrip     float64 // the invocation's round trip, entering at the gateway
	httpSelf      float64 // that round trip − Gateway.ServeHTTP inside the same request
	gwLevel       float64 // Gateway.ServeHTTP, timed like the two levels below it
	core          float64 // Platform.InvokeRoutedFrom, called on the connection's goroutine
	runtime       float64 // ClassRuntime.Invoke, likewise
	load, commit  float64 // Table.GetManyVersionedInto, Table.PutManyIfVersion
	faas          float64 // Engine.Invoke
	handlerInFaas float64 // the handler inside Engine.Invoke
	handler       float64 // the handler inside served requests
}

// budget turns level medians into self times (µs): a level minus its
// children. The commit is a child of the runtime only when the
// operation writes. reconcile.sum_us adds the parts back up; on the
// sync workloads it must come within 10 % of reconcile.roundtrip_us.
func (m levelMedians) budget(writes bool) map[string]float64 {
	commitOnPath := 0.0
	if writes {
		commitOnPath = m.commit
	}
	b := map[string]float64{
		"http.self_us":       us(m.httpSelf),
		"gateway.self_us":    us(m.gwLevel - m.core),
		"core.self_us":       us(m.core - m.runtime),
		"runtime.self_us":    us(m.runtime - m.load - commitOnPath - m.faas),
		"memtable.load_us":   us(m.load),
		"memtable.commit_us": us(m.commit),
		"faas.self_us":       us(m.faas - m.handlerInFaas),
		"handler.self_us":    us(m.handler),
	}
	b["reconcile.sum_us"] = b["http.self_us"] + b["gateway.self_us"] + b["core.self_us"] + b["runtime.self_us"] +
		us(m.load+commitOnPath) + b["faas.self_us"] + b["handler.self_us"]
	b["reconcile.roundtrip_us"] = us(m.roundtrip)
	return b
}

// pick draws the next operation's target.
func (w *workload) pick(c *client) int {
	if w.hot != nil {
		return w.hot[c.s.r.intn(hotObjects)]
	}
	return c.s.nextObject()
}

// serialOps runs n operations one at a time, each fully complete
// (delivered) before the next is sent, calling before and after around
// every operation. It returns the operations' latencies.
func (s *session) serialOps(c *client, n int64, before, after func()) (hist, error) {
	one := []*client{c}
	for c.attempted < n && !c.dead {
		if before != nil {
			before()
		}
		s.w.step(s.w, c)
		if undelivered := s.w.drain(one); undelivered != 0 {
			return hist{}, fmt.Errorf("%s: %d traced operations were never delivered", s.w.name, undelivered)
		}
		if after != nil {
			after()
		}
	}
	win := s.collect(one, 0)
	if win.failed != 0 {
		return hist{}, fmt.Errorf("%s: %d of %d traced operations failed", s.w.name, win.failed, win.attempted)
	}
	return win.lat, nil
}

// traceSampler numbers the spanned operations and sends a sampled
// traceparent on one in sixteen; that trace is fetched back from
// /api/traces/{id} right away (the kept ring is small) for the
// program-reported stage table.
type traceSampler struct {
	rig     *rig
	c       *client
	sl      *spanLog
	side    *conn // fetches traces without leaving spans
	ids     rng
	op      int64
	traceID string
	byName  map[string][]float64
	lag     hist // event_chain: Event.Time → receipt during spanned blocks
}

func newTraceSampler(s *session, c *client, sl *spanLog) (*traceSampler, error) {
	side, err := dial(s.w.rig.addr)
	if err != nil {
		return nil, err
	}
	side.arm(time.Now().Add(3 * time.Minute))
	return &traceSampler{rig: s.w.rig, c: c, sl: sl, side: side, ids: rng{s: mix(s.w.seed, 0x7ace)}, byName: map[string][]float64{}}, nil
}

func (t *traceSampler) before() {
	t.sl.op.Store(t.op)
	t.traceID = ""
	if t.op%traceSampling == 0 {
		t.traceID = fmt.Sprintf("%016x%016x", t.ids.next(), t.ids.next()|1)
		t.c.conn.extra = fmt.Sprintf("traceparent: 00-%s-%016x-01\r\n", t.traceID, t.ids.next()|1)
	}
	t.op++
}

func (t *traceSampler) after() {
	t.c.conn.extra = ""
	if t.traceID == "" {
		return
	}
	var view struct {
		Spans []struct {
			Name     string `json:"name"`
			Duration int64  `json:"duration_ns"`
		} `json:"spans"`
	}
	t.rig.spans.Store(nil) // the fetch is not part of the workload
	defer t.rig.spans.Store(t.sl)
	for range 20 { // an async trace closes a moment after its last record
		status, body, err := t.side.do("GET", "/api/traces/"+t.traceID, "", nil)
		if err == nil && status == http.StatusOK && json.Unmarshal(body, &view) == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, sp := range view.Spans {
		t.byName[sp.Name] = append(t.byName[sp.Name], float64(sp.Duration))
	}
}

func (t *traceSampler) stages() []stageRow {
	rows := make([]stageRow, 0, len(t.byName))
	for name, d := range t.byName {
		rows = append(rows, stageRow{Name: name, MedianUs: us(median(d)), Samples: len(d)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// probeResults carries what the probes measure besides spans.
type probeResults struct {
	kvWritesPerAppend float64
	queueWait, exec   hist
	batchPutPerDocUs  float64
}

// probeLayers drives each layer's entry point tracedOps times.
func (s *session) probeLayers(c *client, sl *spanLog) (probeResults, error) {
	var res probeResults
	w, p := s.w, s.w.rig.p
	tracedOps := int64(w.sz.tracedOps)
	ctx := context.Background()
	rt, err := p.Runtime(w.class)
	if err != nil {
		return res, err
	}
	tracer := p.Tracer()

	// The invocation path's three upper levels, measured in place: the
	// same verified request, served by rig.serveLevel entering at the
	// gateway, at Platform.InvokeRoutedFrom or at ClassRuntime.Invoke.
	// First counted in allocations, then timed; both round-robin, one
	// request per level in turn, so that whatever else happens during
	// the pass (flushes and their allocations, GC phase, host noise)
	// hits all three alike and cancels in the differences that make
	// self times.
	levels := []string{layerGWProbe, layerCore, layerRuntime}
	atLevel := func(level string) error {
		sl.lvl.Store(level)
		c.conn.extra = levelHeader + ": " + level + "\r\n"
		t0 := sl.now()
		ok := w.invoke(c, w.pick(c))
		if level == layerGWProbe {
			sl.add(layerRTProbe, "", t0, sl.now())
		}
		c.conn.extra = ""
		if !ok {
			return fmt.Errorf("%s: invocation entered at %s failed or returned a wrong output", w.name, level)
		}
		return nil
	}
	for range max(tracedOps/2, 1) {
		for _, level := range levels {
			if err := atLevel(level + allocsSuffix); err != nil {
				return res, err
			}
		}
	}
	for op := range tracedOps {
		sl.op.Store(op)
		for _, level := range levels {
			if err := atLevel(level); err != nil {
				return res, err
			}
		}
	}
	if undelivered := w.drain([]*client{c}); undelivered != 0 {
		return res, fmt.Errorf("%s: %d writes of the level probes were never delivered", w.name, undelivered)
	}

	// memtable: load and commit on the live table with the class's key
	// set. The commit writes back what it just read, version-checked,
	// so object state is unchanged.
	table := rt.Table()
	keys := make([]string, 0, 2)
	snap := make(map[string]memtable.VersionedValue, 2)
	ops := make(map[string]memtable.CASOp, 2)
	state := make(map[string]json.RawMessage, 2)
	sl.lvl.Store(layerMemLoad)
	for op := range tracedOps {
		sl.op.Store(op)
		nKey, docKey := w.stateKeys(w.pick(c))
		keys = append(keys[:0], nKey, docKey)
		clear(snap)
		t0 := sl.now()
		err := table.GetManyVersionedInto(ctx, keys, snap)
		sl.add(layerMemLoad, "", t0, sl.now())
		if err != nil || len(snap) != len(keys) {
			return res, fmt.Errorf("memtable load of %s: %d keys: %v", nKey, len(snap), err)
		}
		clear(ops)
		for k, v := range snap {
			ops[k] = memtable.CASOp{Expect: v.Version, Value: v.Value, Write: true}
		}
		t0 = sl.now()
		err = table.PutManyIfVersion(ctx, ops)
		sl.add(layerMemCommit, "", t0, sl.now())
		if err != nil {
			return res, fmt.Errorf("memtable commit of %s: %w", nKey, err)
		}
	}

	// faas: the engine with a task bundled the way the runtime bundles
	// it; the handler runs, nothing commits.
	engine := rt.Engine()
	sl.lvl.Store(layerFaas)
	var expect []byte
	for op := range tracedOps {
		sl.op.Store(op)
		obj := w.pick(c)
		nKey, docKey := w.stateKeys(obj)
		keys = append(keys[:0], nKey, docKey)
		clear(snap)
		if err := table.GetManyVersionedInto(ctx, keys, snap); err != nil {
			return res, fmt.Errorf("memtable load of %s: %w", nKey, err)
		}
		clear(state)
		state["n"], state["doc"] = snap[nKey].Value, snap[docKey].Value
		c.payload = c.s.nextPayload(c.payload[:0])
		t0 := sl.now()
		out, err := engine.Invoke(ctx, w.class+"."+w.fn, invoker.Task{
			ID: "bench-probe", Class: w.class, Object: objectID(w.prefix, obj), Function: w.fn, State: state, Payload: c.payload,
		})
		sl.add(layerFaas, "", t0, sl.now())
		expect = w.appendOutput(expect[:0], obj)
		if err != nil || !bytes.Equal(out.Output, expect) {
			return res, fmt.Errorf("%s via %s: got %.40q, want %.40q: %v", w.name, layerFaas, out.Output, expect, err)
		}
	}

	// eventlog: appends to a scratch object's log on the live Log, with
	// the backing-store writes they cost.
	elog := p.EventLog()
	event := trigger.Event{Type: trigger.StateChanged, Class: w.class, Object: probeObject, Function: "bump", Keys: []string{"doc", "n"}}
	sl.lvl.Store(layerAppend)
	kv0 := p.Backing().Stats().WriteOps
	for op := range tracedOps {
		sl.op.Store(op)
		t0 := sl.now()
		_, err := elog.Append(ctx, probeObject, func(off int64) (json.RawMessage, error) {
			event.Offset = off
			return json.Marshal(event)
		})
		sl.add(layerAppend, "", t0, sl.now())
		if err != nil {
			return res, fmt.Errorf("eventlog append: %w", err)
		}
	}
	res.kvWritesPerAppend = float64(p.Backing().Stats().WriteOps-kv0) / float64(tracedOps)

	// trigger: Publish with the workload's subscriptions installed
	// (durable append included, as on the commit path). The receiver
	// ignores the scratch object's deliveries.
	bus := p.TriggerBus()
	event.Offset = 0
	sl.lvl.Store(layerPublish)
	for op := range tracedOps {
		sl.op.Store(op)
		t0 := sl.now()
		bus.Publish(event)
		sl.add(layerPublish, "", t0, sl.now())
	}
	// Let the probe's deliveries finish before the next probe is timed.
	// (Bus.Drain is for a quiesced platform; here the chained audit
	// invocations may still be publishing.)
	for last, stable, deadline := int64(-1), 0, time.Now().Add(drainTimeout); stable < 5 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if d := bus.Stats().Delivered; d == last {
			stable++
		} else {
			last, stable = d, 0
		}
	}

	// asyncq: submit through Platform.InvokeAsyncBatch, then read queue
	// wait and execution time off the terminal records.
	sl.lvl.Store(layerSubmit)
	if w.ev != nil {
		w.ev.untracked.Store(true)
	}
	reqs := make([]asyncq.Request, batchSize)
	targets := make([]int, batchSize)
	for op := int64(0); op < tracedOps/batchSize; op++ {
		sl.op.Store(op)
		for i := range reqs {
			targets[i] = w.pick(c)
			c.payload = c.s.nextPayload(c.payload[:0])
			reqs[i] = asyncq.Request{Object: objectID(w.prefix, targets[i]), Member: w.fn, Payload: bytes.Clone(c.payload)}
			if w.fn == "bump" {
				w.n[targets[i]].Add(1)
			}
		}
		t0 := sl.now()
		accepted := p.InvokeAsyncBatch(ctx, reqs)
		t1 := sl.now()
		// One span per batch, scaled to one invocation.
		sl.add(layerSubmit, "", t0, t0+(t1-t0)/batchSize)
		for _, a := range accepted {
			if a.Err != nil {
				return res, fmt.Errorf("async submit: %w", a.Err)
			}
			wctx, cancel := context.WithTimeout(ctx, drainTimeout)
			rec, err := p.WaitInvocation(wctx, a.ID)
			cancel()
			if err != nil || rec.Status != asyncq.StatusCompleted {
				return res, fmt.Errorf("async invocation %s: status %q: %v %s", a.ID, rec.Status, err, rec.Error)
			}
			res.queueWait.record(int64(rec.Started.Sub(rec.Enqueued)))
			res.exec.record(int64(rec.Finished.Sub(rec.Started)))
		}
	}
	if w.ev != nil {
		for deadline := time.Now().Add(drainTimeout); ; time.Sleep(time.Millisecond) {
			if _, undelivered := w.ev.deliveredCount(); undelivered == 0 {
				break
			} else if time.Now().After(deadline) {
				return res, fmt.Errorf("%s: %d objects miss deliveries for asynchronous probe writes", w.name, undelivered)
			}
		}
	}

	// trace: Root + Child + End on the live tracer.
	sl.lvl.Store(layerTraceSpan)
	for op := range tracedOps {
		sl.op.Store(op)
		t0 := sl.now()
		sp := tracer.Root("bench.probe", "")
		sp.Child("child").End()
		sp.End()
		sl.add(layerTraceSpan, "", t0, sl.now())
	}

	// kvstore: BatchPut of 256 docs on a scratch store.
	scratch := kvstore.Open(kvstore.Config{})
	defer scratch.Close()
	entries := make(map[string]json.RawMessage, 256)
	var puts []float64
	for round := range 50 {
		for i := range 256 {
			entries["scratch/"+strconv.Itoa(i)] = appendDoc(nil, w.seed, i, int64(round))
		}
		t0 := time.Now()
		if err := scratch.BatchPut(ctx, entries); err != nil {
			return res, fmt.Errorf("scratch BatchPut: %w", err)
		}
		puts = append(puts, float64(time.Since(t0))/256)
	}
	res.batchPutPerDocUs = us(median(puts))

	return res, nil
}
