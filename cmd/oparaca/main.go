// Command oparaca runs the OaaS platform daemon: the REST gateway, the
// simulated worker cluster, the document store, the S3-style object
// store (served for presigned URL access), and the QoS optimizer
// (paper §IV steps 1–2: install the platform, access it through its
// API).
//
// A library of built-in container images is registered so the tutorial
// flow works out of the box (see builtinImages). Classes can also
// reference remote images by URL ("http://host:port/img/name"), which
// are offloaded over HTTP to any code-execution runtime speaking the
// invoker protocol.
//
// Usage:
//
//	oparaca [-addr :8020] [-workers 3] [-db-write-cap 0] [-optimize] [-pprof addr]
//	        [-trace] [-trace-sample 0.05] [-trace-capacity 256]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/gateway"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/runtime"
	"github.com/hpcclab/oparaca-go/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8020", "gateway listen address")
		workers   = flag.Int("workers", 3, "simulated worker VM count")
		dbCap     = flag.Float64("db-write-cap", 0, "document store write ops/sec ceiling (0 = unlimited)")
		optimize  = flag.Bool("optimize", true, "enable the QoS optimizer control loop")
		apply     = flag.String("apply", "", "optional package YAML to deploy at startup")
		recordTTL = flag.Duration("async-record-ttl", 0,
			"delete completed/failed async invocation records from the store this long after they finish (0 = keep them stored forever; memory holds a record only until it is flushed)")
		invokeTimeout = flag.Duration("invoke-timeout", 0,
			"default per-invocation deadline for classes that declare none (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second,
			"how long shutdown waits for in-flight requests and queued async work")
		pprofAddr = flag.String("pprof", "",
			"serve net/http/pprof on this address (e.g. localhost:6060); empty disables profiling")
		leaseTTL = flag.Duration("ownership-lease-ttl", 0,
			"enable lease-based object ownership across the worker nodes with this lease TTL (0 = disabled)")
		traceOn = flag.Bool("trace", true,
			"record invocation traces (tail-sampled; served at /api/traces)")
		traceSample = flag.Float64("trace-sample", 0,
			"probabilistic keep rate for unremarkable traces (0 = default 0.05, negative = errors/slow only)")
		traceCap = flag.Int("trace-capacity", 0,
			"kept-trace ring capacity (0 = default 256)")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()

	// All daemon output is structured: one slog TextHandler on stderr,
	// request lines carrying trace and invocation IDs via the gateway.
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "oparaca: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// Profiling is opt-in and served on its own listener, never the
	// gateway address: the debug endpoints expose heap contents and
	// must not ride on the customer-facing port.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	p, err := core.New(core.Config{
		Workers:           *workers,
		DB:                kvstore.Settings{WriteOpsPerSec: *dbCap},
		EnableOptimizer:   *optimize,
		Async:             asyncq.Settings{RecordTTL: *recordTTL},
		OwnershipLeaseTTL: *leaseTTL,
		EnableTracing:     *traceOn,
		Trace:             trace.Settings{SampleRate: *traceSample, Capacity: *traceCap},
		Runtime: runtime.Settings{
			DefaultInvokeTimeout: *invokeTimeout,
			// Handler goroutines carry class/function pprof labels only
			// when a profiler is actually attached.
			PprofLabels: *pprofAddr != "",
		},
	})
	if err != nil {
		fatal("platform init", "err", err)
	}
	defer p.Close()
	registerBuiltinImages(p.Images())

	if *apply != "" {
		raw, err := os.ReadFile(*apply)
		if err != nil {
			fatal("reading package", "path", *apply, "err", err)
		}
		names, err := p.DeployYAML(context.Background(), raw)
		if err != nil {
			fatal("deploying package", "path", *apply, "err", err)
		}
		logger.Info("deployed classes", "classes", strings.Join(names, ", "))
	}

	gw := gateway.New(p)
	gw.SetLogger(logger)

	// Slow-client protection: a peer that stalls mid-headers or never
	// reads its response must not pin a handler goroutine forever. The
	// write timeout leaves headroom over the gateway's 30s long-poll
	// cap; the SSE handler clears its own write deadline for the
	// lifetime of the stream.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           gw,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	// Shutdown waits for active requests and an SSE stream stays active
	// until its client leaves: end the streams when it begins.
	srv.RegisterOnShutdown(gw.CloseStreams)
	go func() {
		logger.Info("gateway listening",
			"addr", *addr, "workers", *workers, "object_store", p.ObjectStoreURL(),
			"tracing", *traceOn)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatal("gateway", "err", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("draining in-flight requests")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("forced shutdown with requests in flight", "err", err)
	}
	// The deferred platform Close drains queued async work before the
	// process exits.
	logger.Info("gateway stopped, draining async queue")
}

// registerBuiltinImages installs the stock function library. Each
// image follows the pure-function contract: reads come from the task,
// writes go into the result.
func registerBuiltinImages(reg *invoker.Registry) {
	// img/echo returns its payload unchanged.
	reg.Register("img/echo", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.Payload}, nil
	}))
	// img/uppercase upper-cases a JSON string payload.
	reg.Register("img/uppercase", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var s string
		if err := json.Unmarshal(task.Payload, &s); err != nil {
			return invoker.Result{}, fmt.Errorf("payload must be a JSON string: %w", err)
		}
		out, _ := json.Marshal(strings.ToUpper(s))
		return invoker.Result{Output: out}, nil
	}))
	// img/set-state writes the payload into the state key named by
	// args["key"].
	reg.Register("img/set-state", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		key := task.Args["key"]
		if key == "" {
			return invoker.Result{}, fmt.Errorf("arg %q is required", "key")
		}
		return invoker.Result{
			Output: task.Payload,
			State:  map[string]json.RawMessage{key: task.Payload},
		}, nil
	}))
	// img/get-state returns the state key named by args["key"].
	reg.Register("img/get-state", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		key := task.Args["key"]
		v, ok := task.State[key]
		if !ok {
			return invoker.Result{Output: json.RawMessage("null")}, nil
		}
		return invoker.Result{Output: v}, nil
	}))
	// img/counter-incr increments the numeric "count" state key.
	reg.Register("img/counter-incr", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var n float64
		if raw, ok := task.State["count"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		out, _ := json.Marshal(n + 1)
		return invoker.Result{Output: out, State: map[string]json.RawMessage{"count": out}}, nil
	}))
	// img/json-random replaces the "doc" state key with a randomized
	// document (the evaluation workload).
	reg.Register("img/json-random", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		h := fnv.New64a()
		_, _ = h.Write([]byte(task.ID))
		seed := h.Sum64() | 1
		next := func() uint64 {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			return seed
		}
		doc := map[string]any{
			"seq":   next() % 1_000_000,
			"score": float64(next()%10_000) / 100,
			"flag":  next()%2 == 0,
		}
		raw, _ := json.Marshal(doc)
		return invoker.Result{Output: raw, State: map[string]json.RawMessage{"doc": raw}}, nil
	}))
}
