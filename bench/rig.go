package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/gateway"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/trace"
)

// sizes are the run's populations and fixed operation counts. The Doc
// population is well above the client count, so same-object contention
// is absent unless a workload asks for it (the hot set).
type sizes struct {
	docObjects int // sync_read, sync_write, async_batch_hot
	evObjects  int // event_chain
	warmupOps  int // unmeasured operations before the first window
	tracedOps  int // operations per level of the traced pass
}

var fullSizes = sizes{docObjects: 16384, evObjects: 1024, warmupOps: 20000, tracedOps: 2000}

const (
	hotObjects = 8
	auditID    = "audit-1"
)

// docPackage is deployed through POST /api/packages. The declared QoS
// (2000 rps, persistent) is what makes the template matcher pick
// "high-throughput": deployment engine + write-behind table — the
// paper's package path, not a hand-built template.
const docPackage = `classes:
  - name: Doc
    qos:
      throughput: 2000
    constraint:
      persistent: true
    keySpecs:
      - name: n
        kind: number
        default: 0
      - name: doc
        kind: string
    functions:
      - name: peek
        image: bench/peek
        readonly: true
      - name: bump
        image: bench/bump
`

// evPackage adds the event plane: every committed bump on an Ev object
// chains to audit-1.record through the async queue (as
// examples/eventchain does), and set-up also subscribes a webhook.
const evPackage = `classes:
  - name: Ev
    qos:
      throughput: 2000
    constraint:
      persistent: true
    keySpecs:
      - name: n
        kind: number
        default: 0
      - name: doc
        kind: string
    functions:
      - name: bump
        image: bench/bump
    triggers:
      - on: stateChanged
        targetObject: audit-1
        function: record
  - name: Audit
    concurrencyMode: locked
    qos:
      throughput: 2000
    constraint:
      persistent: true
    keySpecs:
      - name: n
        kind: number
        default: 0
    functions:
      - name: record
        image: bench/record
`

// rig is one booted platform behind a loopback listener.
type rig struct {
	p    *core.Platform
	gw   *gateway.Gateway
	srv  *http.Server
	addr string
	seed uint64
	// spans is set only during the traced pass; the listener's handler
	// and the registered images record into it.
	spans atomic.Pointer[spanLog]
}

// ServeHTTP fronts the gateway on the benchmark's listener. The no-op
// route prices the HTTP stack alone (http.floor_us); the span branch
// is live only during the traced pass.
func (r *rig) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path == noopPath {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	sl := r.spans.Load()
	if sl == nil {
		r.gw.ServeHTTP(w, req)
		return
	}
	if level := req.Header.Get(levelHeader); level != "" {
		r.serveLevel(w, req, level, sl)
		return
	}
	t0 := sl.now()
	r.gw.ServeHTTP(w, req)
	sl.add(layerGateway, layerRoundtrip, t0, sl.now())
}

const (
	noopPath = "/bench/noop"
	hdrJSON  = "Content-Type: application/json\r\n"
	hdrYAML  = "Content-Type: application/yaml\r\n"
	// levelHeader asks the listener's handler, during the traced pass,
	// to serve an invoke request by calling one entry point of the
	// invocation path directly and timing just that call.
	levelHeader  = "X-Bench-Level"
	allocsSuffix = "+allocs"
)

// serveLevel answers POST /api/objects/{id}/invoke/{fn} the way the
// gateway would, but by entering the invocation path at the named
// level — the gateway itself, Platform.InvokeRoutedFrom, or
// ClassRuntime.Invoke — and timing only that call. Measuring every
// level here, on the connection's goroutine with the real request and
// response writer, puts them on the same footing (a goroutine just
// woken by the poller, cold caches), so their differences are self
// times and the parts add up to the served round trip. A level ending
// in allocsSuffix is counted in allocations instead of timed.
func (r *rig) serveLevel(w http.ResponseWriter, req *http.Request, level string, sl *spanLog) {
	level, countAllocs := strings.CutSuffix(level, allocsSuffix)
	measure := func(call func()) {
		if countAllocs {
			m0 := mallocs()
			call()
			sl.count(level, float64(mallocs()-m0))
			return
		}
		t0 := sl.now()
		call()
		sl.add(level, layerRTProbe, t0, sl.now())
	}
	if level == layerGWProbe {
		measure(func() { r.gw.ServeHTTP(w, req) })
		return
	}
	fail := func(err error) { http.Error(w, err.Error(), http.StatusInternalServerError) }
	body, err := io.ReadAll(req.Body)
	parts := strings.Split(req.URL.Path, "/") // "", api, objects, {id}, invoke, {fn}
	if err != nil || len(parts) != 6 {
		fail(fmt.Errorf("bad level request %s: %v", req.URL.Path, err))
		return
	}
	id, fn := parts[3], parts[5]
	class, err := r.p.ObjectClass(id)
	if err != nil {
		fail(err)
		return
	}
	rt, err := r.p.Runtime(class)
	if err != nil {
		fail(err)
		return
	}
	// In a served request the gateway opens the trace root; the levels
	// below it get one opened outside the measured call, so they are not
	// charged for a root of their own.
	root := r.p.Tracer().Root("bench.level", "")
	ctx := trace.ContextWith(req.Context(), root)
	var out []byte
	measure(func() {
		if level == layerCore {
			out, _, err = r.p.InvokeRoutedFrom(ctx, "", "", id, fn, body, nil)
		} else {
			out, err = rt.Invoke(ctx, id, fn, body, nil)
		}
	})
	root.End()
	if err != nil {
		fail(err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(append([]byte(outputPrefix), out...), '}', '\n'))
}

// boot starts a platform the way cmd/oparaca does — three workers,
// tracing and the optimizer on, an info-level text logger (to
// io.Discard), the durable event log — with one modelled constant
// neutralised: at the default OpsPerMilliCPU of 1, three 4-vCPU
// workers form a 12 000 tokens/s compute bucket that would set
// throughput instead of the code. DB latencies and the write cap are
// zero by default and stay so.
func boot(seed uint64) (*rig, error) {
	p, err := core.New(core.Config{
		Workers:         3,
		EnableOptimizer: true,
		EnableTracing:   true,
		OpsPerMilliCPU:  1000,
	})
	if err != nil {
		return nil, fmt.Errorf("booting platform: %w", err)
	}
	r := &rig{p: p, seed: seed}
	r.registerHandlers(p.Images())
	r.gw = gateway.New(p)
	r.gw.SetLogger(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	r.addr = ln.Addr().String()
	r.srv = &http.Server{Handler: r, ReadHeaderTimeout: 5 * time.Second, WriteTimeout: 60 * time.Second}
	go func() { _ = r.srv.Serve(ln) }()
	return r, nil
}

// close stops the listener, then the platform (which drains queued
// async work and pending deliveries first).
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := r.srv.Shutdown(ctx); err != nil {
		_ = r.srv.Close()
	}
	cancel()
	r.p.Close()
}

// registerHandlers installs the benchmark's images. None sleeps; the
// traced pass times them from inside (handler.self_us).
func (r *rig) registerHandlers(reg *invoker.Registry) {
	timed := func(f invoker.HandlerFunc) invoker.HandlerFunc {
		return func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
			sl := r.spans.Load()
			if sl == nil {
				return f(ctx, task)
			}
			t0 := sl.now()
			res, err := f(ctx, task)
			sl.add(layerHandler, sl.level(), t0, sl.now())
			return res, err
		}
	}
	counter := func(task invoker.Task) (int64, error) {
		raw, ok := task.State["n"]
		if !ok {
			return 0, errors.New("state key n missing")
		}
		n, err := strconv.ParseInt(string(raw), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("state key n: %w", err)
		}
		return n + 1, nil
	}
	reg.Register("bench/peek", timed(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.State["doc"]}, nil
	}))
	reg.Register("bench/bump", timed(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		n, err := counter(task)
		if err != nil {
			return invoker.Result{}, err
		}
		raw := strconv.AppendInt(make([]byte, 0, 12), n, 10)
		doc := appendDoc(make([]byte, 0, docBytes), r.seed, objectIndex(task.Object), n)
		return invoker.Result{Output: raw, State: map[string]json.RawMessage{"n": raw, "doc": doc}}, nil
	}))
	reg.Register("bench/record", timed(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		n, err := counter(task)
		if err != nil {
			return invoker.Result{}, err
		}
		raw := strconv.AppendInt(make([]byte, 0, 12), n, 10)
		return invoker.Result{State: map[string]json.RawMessage{"n": raw}}, nil
	}))
}
