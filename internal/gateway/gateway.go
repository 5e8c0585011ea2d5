// Package gateway exposes the Oparaca platform over a REST API (paper
// §IV step 5: "Developers can use CLI, REST API, or gRPC to interact
// with objects"). The CLI (cmd/ocli) and external clients speak this
// API; gRPC is substituted by the same JSON framing over HTTP per the
// stdlib-only constraint.
//
// # Request path
//
// Every request passes ServeHTTP's wrapper, the one http.ServeMux
// routing table and a handler; what they allocate on a warm invoke is
// budgeted (TestWarmInvokeAllocationBudget). What is reused is scoped
// to the request:
//
//   - The statusRecorder around the ResponseWriter is pooled. A request
//     owns one until mux.ServeHTTP has returned — for an SSE stream or
//     a long poll, until that ends — so a handler must not keep its
//     ResponseWriter past its own return. It also carries the accepted
//     async invocation ID to the log line; the trace span is the only
//     context value, added (with the one request copy) when tracing.
//   - Response staging buffers (bufPool) are pooled for one write; one
//     grown past maxPooledBuf is dropped. Every JSON response's
//     Content-Type value is one shared slice (jsonContentType).
//   - Request bodies are NOT pooled: an invoke payload crosses into the
//     handler (Task.Payload), which may retain it. readBody pre-sizes
//     from Content-Length up to maxBodyPresize and refuses a body over
//     maxBodyBytes with 413 "payload_too_large".
//   - writeRawEnvelope writes {"output":…} and {"value":…} byte for
//     byte as encoding/json would (a golden table and FuzzRawEnvelope
//     hold it to that) through internal/jsonw, without the reflective
//     encoder; writeRecord does the same for any invocation record,
//     through the encoder asyncq stores records with
//     (TestInvocationBodyGolden, TestWriteRecordGolden). Each has one
//     path: raw that is not JSON, or a time RFC 3339 cannot express,
//     answers the 500 envelope with encoding/json's error text.
//   - A route that reads one query key asks queryValue, which scans
//     RawQuery instead of parsing it into url.Values; a query with an
//     escape or a semicolon in it still goes through url.ParseQuery, so
//     the answer is r.URL.Query().Get's either way (TestQueryValue).
//     The invoke routes keep the full parse: there every other key is
//     an invocation arg.
//   - POST /api/invoke-batch reads a body in the shape clients write in
//     one pass (scanBatch), each payload an alias of the body, and
//     leaves any other to json.Unmarshal, which reads it the same
//     (FuzzInvokeBatchBody); its 202 body is written through jsonw, as
//     encoding/json would write it (TestInvokeBatchBodyGolden).
//   - GET /api/invocations/{id} reads the record before it arms a wait,
//     so a poll of a finished invocation allocates no context, timer or
//     waiter (TestLongPollAllocationBudget).
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/jsonw"
	"github.com/hpcclab/oparaca-go/internal/metrics"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/resilience"
	"github.com/hpcclab/oparaca-go/internal/trace"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// Gateway serves the REST API over a core.Platform.
type Gateway struct {
	platform *core.Platform
	mux      *http.ServeMux
	logger   *slog.Logger
	// streamsDone is closed by CloseStreams; every event stream selects
	// on it.
	streamsDone chan struct{}
	streamsOnce sync.Once
}

// New builds a gateway for the platform.
func New(p *core.Platform) *Gateway {
	g := &Gateway{platform: p, mux: http.NewServeMux(), streamsDone: make(chan struct{})}
	g.routes()
	return g
}

// CloseStreams ends every open event stream (GET
// /api/objects/{id}/events), and any opened later at once. A stream ends
// only when its client leaves or the platform closes, and
// http.Server.Shutdown waits for active requests without cancelling
// them, so a server that serves the gateway registers this with its
// RegisterOnShutdown; otherwise one attached client holds Shutdown for
// its whole context. Idempotent.
func (g *Gateway) CloseStreams() {
	g.streamsOnce.Do(func() { close(g.streamsDone) })
}

// SetLogger installs a structured request logger. When nil (the
// default) the gateway logs nothing; when set, every request emits one
// slog record carrying method, path, status, duration, and — when
// tracing is on — the trace ID plus any accepted async invocation ID.
func (g *Gateway) SetLogger(l *slog.Logger) { g.logger = l }

// statusRecorder captures, for the request span and log line, the
// response status and — on the invoke-async route — the accepted
// invocation ID. It forwards Flush so SSE streaming keeps working
// through the wrapper, and exposes Unwrap for http.ResponseController.
// Recorders are pooled; the package doc says how long a request owns
// one.
type statusRecorder struct {
	http.ResponseWriter
	status     int
	invocation string
}

var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

func (s *statusRecorder) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *statusRecorder) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// ServeHTTP implements http.Handler. While the platform is in
// degraded mode (backing-store breaker not closed) every response
// carries X-Oparaca-Degraded so clients can tell a cache-served read
// from a fully durable one.
//
// With tracing enabled each request runs under a "gateway" root span:
// an inbound W3C traceparent header continues the caller's trace, and
// the response carries the traceparent the request executed under so
// clients can fetch the trace afterwards. The span is the request's
// only context value, so only a traced request pays for a context and
// a request copy; a logged-only one pays for neither.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.platform.Degraded() {
		w.Header().Set("X-Oparaca-Degraded", "true")
	}
	tr := g.platform.Tracer()
	if tr == nil && g.logger == nil {
		g.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	var (
		sp      *trace.Span
		traceID string
	)
	req := r
	if tr != nil {
		// The key is spelled canonically: Get allocates to canonicalize
		// any other spelling.
		sp = tr.Root("gateway", r.Header.Get("Traceparent"))
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		if tp := sp.Traceparent(); tp != "" {
			w.Header().Set("Traceparent", tp)
			traceID = tp[3:35] // the hex trace ID, rendered once
		}
		req = r.WithContext(trace.ContextWith(r.Context(), sp))
	}
	rec := recorderPool.Get().(*statusRecorder)
	rec.ResponseWriter = w
	g.mux.ServeHTTP(rec, req)
	status, invocation := rec.status, rec.invocation
	*rec = statusRecorder{}
	recorderPool.Put(rec)
	if status == 0 {
		status = http.StatusOK
	}
	if sp != nil {
		// The mux set the pattern it matched on req: a fixed string,
		// so each route keeps its own tail window ("" when nothing
		// matched leaves the span name as the key).
		sp.SetRoute(req.Pattern)
		sp.SetInt("status", status)
		if status >= http.StatusInternalServerError {
			sp.Error(fmt.Errorf("HTTP %d", status))
		}
		sp.End()
	}
	if g.logger == nil {
		return
	}
	lvl := slog.LevelInfo
	switch {
	case status >= http.StatusInternalServerError:
		lvl = slog.LevelError
	case status >= http.StatusBadRequest:
		lvl = slog.LevelWarn
	}
	if !g.logger.Enabled(r.Context(), lvl) {
		return
	}
	attrs := [6]slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Duration("duration", time.Since(start)),
	}
	n := 4
	if traceID != "" {
		attrs[n] = slog.String("trace", traceID)
		n++
	}
	if invocation != "" {
		attrs[n] = slog.String("invocation", invocation)
		n++
	}
	g.logger.LogAttrs(r.Context(), lvl, "request", attrs[:n]...)
}

func (g *Gateway) routes() {
	g.mux.HandleFunc("GET /healthz", g.handleHealth)
	g.mux.HandleFunc("GET /readyz", g.handleReady)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /api/stats", g.handleStats)
	g.mux.HandleFunc("GET /api/traces", g.handleListTraces)
	g.mux.HandleFunc("GET /api/traces/{id}", g.handleGetTrace)
	g.mux.HandleFunc("GET /api/invocations/{id}/trace", g.handleInvocationTrace)
	g.mux.HandleFunc("GET /api/cluster", g.handleCluster)
	g.mux.HandleFunc("GET /api/classes", g.handleListClasses)
	g.mux.HandleFunc("GET /api/classes/{name}", g.handleGetClass)
	g.mux.HandleFunc("POST /api/packages", g.handleDeploy)
	g.mux.HandleFunc("POST /api/objects", g.handleCreateObject)
	g.mux.HandleFunc("GET /api/objects", g.handleListObjects)
	g.mux.HandleFunc("GET /api/objects/{id}", g.handleGetObject)
	g.mux.HandleFunc("DELETE /api/objects/{id}", g.handleDeleteObject)
	g.mux.HandleFunc("POST /api/objects/{id}/invoke/{fn}", g.handleInvoke)
	g.mux.HandleFunc("POST /api/objects/{id}/invoke-async/{fn}", g.handleInvokeAsync)
	g.mux.HandleFunc("POST /api/invoke-batch", g.handleInvokeBatch)
	g.mux.HandleFunc("GET /api/invocations/{id}", g.handleGetInvocation)
	g.mux.HandleFunc("GET /api/objects/{id}/state/{key}", g.handleGetState)
	g.mux.HandleFunc("PUT /api/objects/{id}/state/{key}", g.handlePutState)
	g.mux.HandleFunc("GET /api/objects/{id}/files/{key}/url", g.handlePresign)
	g.mux.HandleFunc("GET /api/objects/{id}/events", g.handleObjectEvents)
	g.mux.HandleFunc("GET /api/triggers", g.handleListTriggers)
	g.mux.HandleFunc("PUT /api/triggers/{name}", g.handlePutTrigger)
	g.mux.HandleFunc("DELETE /api/triggers/{name}", g.handleDeleteTrigger)
	g.mux.HandleFunc("GET /api/optimizer/actions", g.handleOptimizerActions)
}

// errorBody is the JSON error envelope. Code carries a
// machine-readable discriminator for errors that share a status with
// other conditions (a class-quota 429 vs a queue-full 429).
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// bufPool recycles response-encoding buffers so writeJSON and
// writeRawEnvelope do not allocate a staging buffer per request.
var bufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// maxPooledBuf caps the size of buffers returned to the pool; an
// occasional huge response (a big invocation output) must not pin its
// buffer for the rest of the process lifetime.
const maxPooledBuf = 64 << 10

// getBuf takes an empty staging buffer from bufPool; putBuf returns it
// unless it grew past maxPooledBuf.
func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// writeJSON writes v as JSON with the given status. The value is
// encoded into a pooled buffer before the header goes out, so an
// encode failure produces a clean 500 error envelope instead of a
// success status line glued to a broken body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeEncodingError(w, err)
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeEncodingError answers the 500 envelope for a response its
// encoder refused.
func writeEncodingError(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusInternalServerError, errorBody{Error: "encoding response: " + err.Error()})
}

// jsonContentType is the Content-Type value of every JSON response,
// shared so that setting it allocates nothing. len == cap == 1: an Add
// to the header elsewhere copies it instead of writing into it.
var jsonContentType = []string{"application/json"}

// writeBody sends one staged JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeRawEnvelope answers 200 with {"<key>":<raw>}, the bytes
// writeJSON produces for map[string]json.RawMessage{key: raw}, through
// jsonw instead of the map and the reflective encoder; empty raw is
// sent as null. Raw that is not JSON answers writeJSON's 500 envelope,
// with encoding/json's error text.
func writeRawEnvelope(w http.ResponseWriter, key string, raw json.RawMessage) {
	if len(raw) == 0 {
		raw = json.RawMessage("null")
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.Grow(len(`{"":}`) + len(key) + len(raw) + 1)
	doc, err := jsonw.AppendRaw(jsonw.AppendKey(append(buf.AvailableBuffer(), '{'), key), raw)
	if err != nil {
		writeEncodingError(w, err)
		return
	}
	writeBody(w, http.StatusOK, append(doc, '}', '\n'))
}

// writeRecord answers 200 with an invocation record, byte for byte the
// body writeJSON renders for it, through the append encoder asyncq
// stores records with. That encoder copies Payload and Result as they
// are, so they get what encoding/json gives a RawMessage first
// (jsonw.AppendRaw, both into one scratch buffer). A record
// encoding/json refuses (raw fields that are not JSON, a time RFC 3339
// cannot express) answers writeJSON's 500 envelope, with encoding/json's
// error text.
func writeRecord(w http.ResponseWriter, rec *asyncq.Record) {
	raws, buf := getBuf(), getBuf()
	defer putBuf(raws)
	defer putBuf(buf)
	raws.Grow(len(rec.Payload) + len(rec.Result))
	b := raws.AvailableBuffer()
	var err error
	if len(rec.Payload) > 0 {
		b, err = jsonw.AppendRaw(b, rec.Payload)
	}
	split := len(b)
	if len(rec.Result) > 0 && err == nil {
		b, err = jsonw.AppendRaw(b, rec.Result)
	}
	if err == nil {
		wire := *rec
		wire.Payload, wire.Result = b[:split], b[split:]
		// Room for the document in the pooled buffer, so the encoder
		// appends in place; one that needs more (long names) grows a
		// slice of its own.
		buf.Grow(512 + len(b) + len(rec.Error))
		var doc []byte
		if doc, err = asyncq.AppendRecord(buf.AvailableBuffer(), &wire); err == nil {
			writeBody(w, http.StatusOK, append(doc, '\n'))
			return
		}
	}
	writeEncodingError(w, err)
}

// writeError maps platform errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var code string
	switch {
	case errors.Is(err, core.ErrClassNotFound),
		errors.Is(err, core.ErrObjectNotFound),
		errors.Is(err, core.ErrMemberNotFound),
		errors.Is(err, core.ErrInvocationNotFound):
		status = http.StatusNotFound
	case errors.Is(err, core.ErrObjectExists):
		status = http.StatusConflict
	case errors.Is(err, core.ErrClassQuotaExceeded):
		status = http.StatusTooManyRequests
		code = "class_quota_exceeded"
	case errors.Is(err, core.ErrQueueFull):
		status = http.StatusTooManyRequests
		code = "queue_full"
	case errors.Is(err, model.ErrValidation),
		errors.Is(err, model.ErrInheritanceCycle),
		errors.Is(err, model.ErrClassNotFound),
		errors.Is(err, trigger.ErrInvalidSubscription):
		status = http.StatusBadRequest
	case errors.Is(err, asyncq.ErrInvalidPayload):
		// The HTTP routes validate bodies before submitting; this is the
		// queue's own refusal, for callers that reach it another way.
		status = http.StatusBadRequest
		code = "invalid_payload"
	case errors.Is(err, core.ErrOffsetCompacted):
		status = http.StatusGone
		code = "offset_compacted"
	case errors.Is(err, cluster.ErrOwnershipMoving):
		// A failover or drain is rebalancing object ownership; routing
		// now would race the handoff. Retry-After carries the remaining
		// transition window.
		status = http.StatusServiceUnavailable
		code = "ownership_moving"
		var tr *cluster.TransitionError
		if errors.As(err, &tr) && tr.RetryAfter > 0 {
			secs := int((tr.RetryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	case errors.Is(err, cluster.ErrOwnershipMoved):
		// The commit was fenced: ownership moved under the invocation.
		// Nothing was persisted; a retry routes to the new owner.
		status = http.StatusServiceUnavailable
		code = "ownership_moved"
	case errors.Is(err, resilience.ErrOpen):
		// The backing-store circuit breaker is open: the write (or
		// uncached read) was fast-failed without touching the store.
		// Retry-After tells well-behaved clients when the breaker will
		// admit its next half-open probe.
		status = http.StatusServiceUnavailable
		code = "backing_unavailable"
		var open *resilience.OpenError
		if errors.As(err, &open) && open.RetryAfter > 0 {
			secs := int((open.RetryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	case errors.Is(err, context.DeadlineExceeded):
		// An invocation deadline (function/class/platform default or
		// the request's ?timeoutMs=) expired before the handler
		// committed. Nothing was committed.
		status = http.StatusRequestTimeout
		code = "deadline_exceeded"
	case errors.Is(err, core.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyView is the GET /readyz body: liveness says the process is up
// (healthz), readiness says it can currently take durable work.
type readyView struct {
	Ready bool `json:"ready"`
	// Breaker is the backing-store circuit breaker state
	// (closed|open|half-open); anything but closed means degraded.
	Breaker  string `json:"breaker"`
	Degraded bool   `json:"degraded"`
	// AsyncDepth / AsyncCapacity report queue pressure; a full queue
	// rejects new submissions, so it flips readiness too.
	AsyncDepth    int64 `json:"async_depth"`
	AsyncCapacity int   `json:"async_capacity"`
	// TriggerBacklog sums undelivered durable-cursor lag across
	// trigger subscriptions.
	TriggerBacklog int64 `json:"trigger_backlog"`
	// LeakedHandlers gauges deadline-abandoned handlers still running.
	LeakedHandlers int64 `json:"leaked_handlers"`
	// ClusterEnabled reports an active ownership layer; when it is on,
	// readiness additionally requires ClusterConverged — the membership
	// view reflects every live lease and no post-rebalance transition
	// window is open.
	ClusterEnabled   bool   `json:"cluster_enabled"`
	ClusterConverged bool   `json:"cluster_converged"`
	Epoch            uint64 `json:"epoch,omitempty"`
}

// readiness derives the readiness view from what it needs alone, none
// of it read under the platform lock. It is the single source for both
// /readyz and the readiness gauges on /metrics, so a scrape and a probe
// can never disagree about whether the node is taking durable work.
func (g *Gateway) readiness() readyView {
	res := g.platform.Resilience()
	q := g.platform.AsyncQueue().Stats()
	view := readyView{
		Breaker:        res.Breaker.State,
		Degraded:       res.Degraded,
		AsyncDepth:     q.Depth,
		AsyncCapacity:  q.Capacity,
		LeakedHandlers: res.LeakedHandlers,
	}
	if mem := g.platform.Membership(); mem != nil {
		view.ClusterEnabled = true
		view.ClusterConverged = mem.Converge()
		view.Epoch = mem.Epoch()
	}
	view.Ready = !view.Degraded && q.Depth < int64(q.Capacity) &&
		(!view.ClusterEnabled || view.ClusterConverged)
	return view
}

// handleReady reports whether the platform can take durable work
// right now: 200 when the backing-store breaker is closed and the
// async queue has headroom, 503 (with the same body) otherwise so
// load balancers can steer traffic away during degraded mode.
func (g *Gateway) handleReady(w http.ResponseWriter, _ *http.Request) {
	view := g.readiness()
	// The backlog informs and does not decide; a scrape reads it as the
	// bus's trigger.backlog gauge, so only the probe body walks for it.
	view.TriggerBacklog = g.platform.TriggerBus().Backlog()
	status := http.StatusOK
	if !view.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, view)
}

// b01 renders a boolean as a 0/1 gauge value.
func b01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// handleMetrics serves the Prometheus text exposition. It writes by
// hand only what readiness derives — oparaca_ready, oparaca_degraded,
// the one-hot oparaca_breaker_state{state}, oparaca_cluster_enabled and,
// with ownership on, oparaca_cluster_converged — and renders everything
// else from the components' own registries (Platform.Registries), merged
// by family so each family stays contiguous as the format requires.
func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	view := g.readiness()
	pw := metrics.NewPromWriter()
	pw.Gauge("oparaca_ready", "", b01(view.Ready))
	pw.Gauge("oparaca_degraded", "", b01(view.Degraded))
	// A one-hot labeled gauge, so dashboards plot transitions without
	// string parsing.
	for _, state := range []string{"closed", "open", "half-open"} {
		pw.Gauge("oparaca_breaker_state", metrics.Labels("state", state), b01(view.Breaker == state))
	}
	pw.Gauge("oparaca_cluster_enabled", "", b01(view.ClusterEnabled))
	if view.ClusterEnabled {
		pw.Gauge("oparaca_cluster_converged", "", b01(view.ClusterConverged))
	}
	pw.Registries(g.platform.Registries()...)
	w.Header().Set("Content-Type", metrics.ContentType)
	_, _ = w.Write(pw.Bytes())
}

// handleListTraces serves the newest kept traces (?n= caps the count)
// plus the tracer's sampling counters.
func (g *Gateway) handleListTraces(w http.ResponseWriter, r *http.Request) {
	tr := g.platform.Tracer()
	if tr == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "tracing disabled", Code: "tracing_disabled"})
		return
	}
	n := 0
	if raw := queryValue(r, "n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad n %q: want a non-negative integer", raw)})
			return
		}
		n = v
	}
	views := tr.Traces(n)
	if views == nil {
		views = []trace.TraceView{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": views, "stats": tr.Stats()})
}

func (g *Gateway) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	tr := g.platform.Tracer()
	if tr == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "tracing disabled", Code: "tracing_disabled"})
		return
	}
	v, ok := tr.TraceByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no kept trace with that ID"})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleInvocationTrace maps an async invocation ID to the kept trace
// that carried it (SetInvocation stamps the association at submit).
func (g *Gateway) handleInvocationTrace(w http.ResponseWriter, r *http.Request) {
	tr := g.platform.Tracer()
	if tr == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "tracing disabled", Code: "tracing_disabled"})
		return
	}
	v, ok := tr.ByInvocation(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no kept trace for that invocation"})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, g.platform.Stats())
}

// handleCluster serves the ownership-layer snapshot: live members
// with lease ages and per-node object counts, the epoch, and the
// failover counters — without the full Stats walk.
func (g *Gateway) handleCluster(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, g.platform.ClusterStats())
}

func (g *Gateway) handleListClasses(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"classes": g.platform.Classes()})
}

// classView is the API shape of a resolved class.
type classView struct {
	Name      string              `json:"name"`
	Parent    string              `json:"parent,omitempty"`
	Ancestry  []string            `json:"ancestry,omitempty"`
	Keys      []model.KeySpec     `json:"keys,omitempty"`
	Functions []model.FunctionDef `json:"functions,omitempty"`
	Dataflows []model.DataflowDef `json:"dataflows,omitempty"`
	QoS       model.QoS           `json:"qos"`
	Template  string              `json:"template"`
}

func (g *Gateway) handleGetClass(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	c, err := g.platform.Class(name)
	if err != nil {
		writeError(w, err)
		return
	}
	view := classView{
		Name: c.Name, Parent: c.Parent, Ancestry: c.Ancestry,
		Keys: c.Keys, Functions: c.Functions, Dataflows: c.Dataflows,
		QoS: c.QoS,
	}
	if rt, err := g.platform.Runtime(name); err == nil {
		view.Template = rt.Template().Name
	}
	writeJSON(w, http.StatusOK, view)
}

func (g *Gateway) handleDeploy(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	ct := r.Header.Get("Content-Type")
	var (
		pkg *model.Package
		err error
	)
	if strings.Contains(ct, "json") {
		pkg, err = model.ParseJSON(body)
	} else {
		pkg, err = model.ParseYAML(body)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	names, err := g.platform.DeployPackage(r.Context(), pkg)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string][]string{"deployed": names})
}

// createObjectRequest is the POST /api/objects body.
type createObjectRequest struct {
	Class string `json:"class"`
	ID    string `json:"id,omitempty"`
}

func (g *Gateway) handleCreateObject(w http.ResponseWriter, r *http.Request) {
	var req createObjectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad JSON: " + err.Error()})
		return
	}
	if req.Class == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "class is required"})
		return
	}
	id, err := g.platform.CreateObject(r.Context(), req.Class, req.ID)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id, "class": req.Class})
}

func (g *Gateway) handleListObjects(w http.ResponseWriter, r *http.Request) {
	class := queryValue(r, "class")
	ids := g.platform.ListObjects(class)
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, map[string][]string{"objects": ids})
}

func (g *Gateway) handleGetObject(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	class, err := g.platform.ObjectClass(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "class": class})
}

func (g *Gateway) handleDeleteObject(w http.ResponseWriter, r *http.Request) {
	if err := g.platform.DeleteObject(r.Context(), r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// Request bodies are capped at maxBodyBytes. The read buffer is
// pre-sized from Content-Length only up to maxBodyPresize and grows as
// bytes arrive, so a declared-but-unsent large body reserves nothing.
const (
	maxBodyBytes   = 8 << 20
	maxBodyPresize = 64 << 10
)

// readBody reads the whole request body into a fresh allocation the
// caller owns (an invoke payload crosses the handler boundary, so it
// is never pooled). It writes the error response itself and reports
// ok=false: 413 payload_too_large for a body over maxBodyBytes —
// declared or discovered — and 400 for one that cannot be read.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	n := r.ContentLength
	var err error
	switch {
	case n > maxBodyBytes:
		err = &http.MaxBytesError{Limit: maxBodyBytes}
	case n < 0:
		// Chunked: the length is unknown until the limit trips.
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	default:
		body = make([]byte, 0, min(n, maxBodyPresize))
		for int64(len(body)) < n && err == nil {
			if len(body) == cap(body) {
				body = append(body, 0)[:len(body)]
			}
			var m int
			m, err = r.Body.Read(body[len(body):min(int64(cap(body)), n)])
			body = body[:len(body)+m]
		}
		switch {
		case err == io.EOF && int64(len(body)) == n:
			err = nil // the last Read may report EOF with the final bytes
		case err == io.EOF:
			err = io.ErrUnexpectedEOF // the body ended short of its length
		}
	}
	if err == nil {
		return body, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
			Error: fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit), Code: "payload_too_large"})
		return nil, false
	}
	writeJSON(w, http.StatusBadRequest, errorBody{Error: "unreadable body"})
	return nil, false
}

// queryValue is r.URL.Query().Get(key) for the routes that read one
// key: a scan of the raw query for the first key=value pair, without
// the parsed map and its slices. A query holding an escape or a
// semicolon (%, +, ;) is left to url.ParseQuery, whose answer for those
// it would otherwise have to copy.
func queryValue(r *http.Request, key string) string {
	query := r.URL.RawQuery
	if strings.ContainsAny(query, "%+;") {
		return r.URL.Query().Get(key)
	}
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key {
			return v
		}
	}
	return ""
}

// readInvokeRequest extracts the JSON payload, query-string args, and
// the optional ?timeoutMs= deadline override shared by the sync and
// async invoke handlers. timeoutMs is consumed here — it shapes the
// request context rather than reaching the handler as an invocation
// arg. It writes the error response itself and reports ok=false on
// bad input.
func readInvokeRequest(w http.ResponseWriter, r *http.Request) (payload []byte, args map[string]string, timeout time.Duration, ok bool) {
	payload, ok = readBody(w, r)
	if !ok {
		return nil, nil, 0, false
	}
	if len(payload) > 0 && !json.Valid(payload) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "payload must be JSON"})
		return nil, nil, 0, false
	}
	if r.URL.RawQuery == "" {
		return payload, nil, 0, true
	}
	query := r.URL.Query()
	for k, vs := range query {
		if len(vs) == 0 || k == "timeoutMs" {
			continue
		}
		if args == nil {
			args = make(map[string]string)
		}
		args[k] = vs[0]
	}
	if raw := query.Get("timeoutMs"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 || ms > model.MaxTimeoutMs {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad timeoutMs %q: want an integer from 0 to %d", raw, model.MaxTimeoutMs)})
			return nil, nil, 0, false
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	return payload, args, timeout, true
}

// detached is a request context's values without its cancellation.
// Async submissions must outlive the HTTP request (the handler runs
// after the 202), so they never see Done or Err — but a ?timeoutMs=
// override still needs to surface through Deadline() for the queue to
// min-combine into the task's submission deadline, and the queue
// enforces that absolute deadline with its own timers. Unlike
// context.WithoutCancel, whose value receiver boxes itself on every
// Value call, a lookup (trace.FromContext on each submitted call)
// allocates nothing.
type detached struct {
	parent context.Context
	dl     time.Time // zero: no deadline
}

func (c *detached) Deadline() (time.Time, bool) { return c.dl, !c.dl.IsZero() }
func (c *detached) Done() <-chan struct{}       { return nil }
func (c *detached) Err() error                  { return nil }
func (c *detached) Value(key any) any           { return c.parent.Value(key) }

// clientRegion resolves the requester's declared region: the
// X-Client-Region header, with X-Oprc-Region kept as the historical
// alias. The sync, async and batch invoke routes all honor it, so a
// cross-datacenter request is charged the configured inter-region
// round trip — once per request: a batch is one message however many
// invocations it carries, and pays only when at least one of them is
// homed outside the client's region.
func clientRegion(r *http.Request) string {
	if region := r.Header.Get("X-Client-Region"); region != "" {
		return region
	}
	return r.Header.Get("X-Oprc-Region")
}

func (g *Gateway) handleInvoke(w http.ResponseWriter, r *http.Request) {
	id, fn := r.PathValue("id"), r.PathValue("fn")
	payload, args, timeout, ok := readInvokeRequest(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = g.platform.Clock().WithTimeout(ctx, timeout)
		defer cancel()
	}
	// X-Oparaca-Node pins the ingress node (tests and node-affine
	// clients); empty means the router's round-robin ingress. With the
	// ownership layer disabled only the region charge remains.
	out, served, err := g.platform.InvokeRoutedFrom(ctx, clientRegion(r), r.Header.Get("X-Oparaca-Node"), id, fn, payload, args)
	if err != nil {
		writeError(w, err)
		return
	}
	if served != "" {
		w.Header().Set("X-Oparaca-Node", served)
	}
	writeRawEnvelope(w, "output", out)
}

func (g *Gateway) handleInvokeAsync(w http.ResponseWriter, r *http.Request) {
	id, fn := r.PathValue("id"), r.PathValue("fn")
	payload, args, timeout, ok := readInvokeRequest(w, r)
	if !ok {
		return
	}
	// The submission context must outlive this request: the handler
	// runs after the 202 response is written. A ?timeoutMs= override
	// still has to reach the queue's submission-deadline min-combine,
	// so it rides a deadline-only context rather than a cancellable
	// one — the queue enforces the absolute deadline itself.
	ctx := &detached{parent: r.Context()}
	if timeout > 0 {
		ctx.dl = g.platform.Clock().Now().Add(timeout)
	}
	// A single submission is a batch of one.
	res := g.platform.InvokeAsyncBatchFrom(ctx, clientRegion(r), []asyncq.Request{{Object: id, Member: fn, Payload: payload, Args: args}})[0]
	if res.Err != nil {
		writeError(w, res.Err)
		return
	}
	invID := res.ID
	if rec, ok := w.(*statusRecorder); ok {
		rec.invocation = invID // for the request's log line
	}
	writeJSON(w, http.StatusAccepted, asyncAccepted{Invocation: invID, Status: asyncq.StatusPending})
}

// asyncAccepted is the 202 body of POST invoke-async. A struct, not a
// map: the reflective encoder sorts and copies a map's keys, eight
// allocations a request (TestInvokeAsyncAllocationBudget).
type asyncAccepted struct {
	Invocation string        `json:"invocation"`
	Status     asyncq.Status `json:"status"`
}

// batchRequest is the POST /api/invoke-batch body, as json.Unmarshal
// reads it.
type batchRequest struct {
	Invocations []asyncq.Request `json:"invocations"`
}

// decodeBatch reads a POST /api/invoke-batch body: scanBatch the bodies
// in the shape clients write, json.Unmarshal any other. Either way it
// returns the calls json.Unmarshal reads into batchRequest, or
// json.Unmarshal's error (FuzzInvokeBatchBody).
func decodeBatch(body []byte) ([]asyncq.Request, error) {
	if reqs, ok := scanBatch(body); ok {
		return reqs, nil
	}
	var req batchRequest
	err := json.Unmarshal(body, &req)
	return req.Invocations, err
}

// scanBatch reads body in one pass if it is, byte for byte, a list of
// calls {"invocations":[…]} each written {"object":…,"member":…} with
// "payload" and "args" after them when present, in that order, keys in
// lowercase and no whitespace between tokens (a payload may hold some).
// It reports false — for json.Unmarshal to read the body — for anything
// else, so it accepts no body json.Unmarshal rejects and reads none
// differently. A payload aliases body, which the request owns (readBody)
// and nothing writes into. A batch names a few objects and one or two
// members many times, so a call whose object or member one of the calls
// just before it names shares that one's string.
func scanBatch(body []byte) ([]asyncq.Request, bool) {
	s := jsonw.NewScanner(body)
	if !s.Lit(`{"invocations":[`) {
		return nil, false
	}
	reqs := make([]asyncq.Request, 0, bytes.Count(body, []byte(`{"object":`)))
	for more := !s.Lit(`]`); more; {
		if !s.Lit(`{"object":`) {
			return nil, false
		}
		var r asyncq.Request
		r.Object = recent(s.Str(nil), reqs, func(r *asyncq.Request) string { return r.Object })
		if !s.Lit(`,"member":`) {
			return nil, false
		}
		r.Member = recent(s.Str(nil), reqs, func(r *asyncq.Request) string { return r.Member })
		if s.Lit(`,"payload":`) {
			r.Payload = s.Value()
		}
		if s.Lit(`,"args":{`) {
			r.Args = make(map[string]string)
			for more := !s.Lit(`}`); more; {
				k := s.Str(nil)
				if !s.Lit(`:`) {
					return nil, false
				}
				r.Args[string(k)] = string(s.Str(nil))
				if more = s.Lit(`,`); !more && !s.Lit(`}`) {
					return nil, false
				}
			}
		}
		if !s.Lit(`}`) {
			return nil, false
		}
		reqs = append(reqs, r)
		if more = s.Lit(`,`); !more && !s.Lit(`]`) {
			return nil, false
		}
	}
	if !s.Lit(`}`) || !s.Done() {
		return nil, false
	}
	return reqs, true
}

// recent returns b as a string: the string field holds in one of the
// last recentCalls calls of reqs, if one holds b, else a copy.
func recent(b []byte, reqs []asyncq.Request, field func(*asyncq.Request) string) string {
	for i := len(reqs) - 1; i >= max(0, len(reqs)-recentCalls); i-- {
		if f := field(&reqs[i]); string(b) == f {
			return f
		}
	}
	return string(b)
}

// recentCalls is how many calls back recent looks for a string to share.
const recentCalls = 8

func (g *Gateway) handleInvokeBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	reqs, err := decodeBatch(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad JSON: " + err.Error()})
		return
	}
	if len(reqs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invocations is required"})
		return
	}
	writeBatchAccepted(w, g.platform.InvokeAsyncBatchFrom(&detached{parent: r.Context()}, clientRegion(r), reqs))
}

// writeBatchAccepted answers 202 with each call's outcome, byte for byte
// the body writeJSON renders for batchAccepted (TestInvokeBatchBodyGolden),
// through jsonw: {"accepted":…,"rejected":…,"results":[…]}, one result
// per call, {"invocation":…} or {"error":…}.
func writeBatchAccepted(w http.ResponseWriter, results []asyncq.BatchResult) {
	accepted := 0
	for _, res := range results {
		if res.Err == nil {
			accepted++
		}
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.Grow(len(`{"accepted":,"rejected":,"results":[]}`) + 40 + len(results)*len(`{"invocation":"inv-0123456789abcdef01234567"},`))
	b := strconv.AppendInt(append(buf.AvailableBuffer(), `{"accepted":`...), int64(accepted), 10)
	b = strconv.AppendInt(append(b, `,"rejected":`...), int64(len(results)-accepted), 10)
	b = append(b, `,"results":[`...)
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		switch {
		case res.Err != nil:
			if msg := res.Err.Error(); msg != "" {
				b = jsonw.AppendString(jsonw.AppendKey(b, "error"), msg)
			}
		case res.ID != "":
			b = jsonw.AppendString(jsonw.AppendKey(b, "invocation"), res.ID)
		}
		b = append(b, '}')
	}
	writeBody(w, http.StatusAccepted, append(b, "]}\n"...))
}

// maxLongPollWait caps the server-side long-poll block so a client
// asking for an absurd waitMs cannot pin a handler goroutine for it.
const maxLongPollWait = 30 * time.Second

// handleGetInvocation returns one invocation record. With ?waitMs=N it
// long-polls: the request blocks until the invocation reaches a
// terminal status or the (bounded) wait elapses, in which case the
// current non-terminal record is returned — either way the client gets
// a 200 with the freshest record instead of running a poll loop.
//
// The record is read before any wait is armed: most polls arrive after
// their invocation finished, and those cost a table lookup and a
// buffer write — no context, timer or waiter. Queue.Wait checks again
// once its waiter is registered, so a completion between the read here
// and the wait is not missed.
func (g *Gateway) handleGetInvocation(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var wait time.Duration
	if rawWait := queryValue(r, "waitMs"); rawWait != "" {
		waitMs, err := strconv.Atoi(rawWait)
		if err != nil || waitMs < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad waitMs %q: want a non-negative integer", rawWait)})
			return
		}
		// Clamp before converting: a huge waitMs would overflow the
		// Duration multiply into a negative wait and silently skip the
		// long poll the client asked for.
		wait = time.Duration(min(waitMs, int(maxLongPollWait/time.Millisecond))) * time.Millisecond
	}
	rec, err := g.platform.Invocation(r.Context(), id)
	if err == nil && wait > 0 && !rec.Status.Terminal() {
		wctx, cancel := g.platform.Clock().WithTimeout(r.Context(), wait)
		rec, err = g.platform.WaitInvocation(wctx, id)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil {
			// The bounded wait elapsed — not a real failure (unknown ID,
			// client gone): answer with the record as it stands now.
			rec, err = g.platform.Invocation(r.Context(), id)
		}
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeRecord(w, &rec)
}

func (g *Gateway) handleGetState(w http.ResponseWriter, r *http.Request) {
	v, err := g.platform.GetState(r.Context(), r.PathValue("id"), r.PathValue("key"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeRawEnvelope(w, "value", v)
}

func (g *Gateway) handlePutState(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if len(body) == 0 || !json.Valid(body) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body must be a JSON value"})
		return
	}
	if err := g.platform.PutState(r.Context(), r.PathValue("id"), r.PathValue("key"), body); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *Gateway) handlePresign(w http.ResponseWriter, r *http.Request) {
	method := strings.ToUpper(queryValue(r, "method"))
	if method == "" {
		method = http.MethodGet
	}
	if method != http.MethodGet && method != http.MethodPut && method != http.MethodDelete {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unsupported method %q", method)})
		return
	}
	url, err := g.platform.PresignFile(r.PathValue("id"), r.PathValue("key"), method)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"url": url, "method": method})
}

// triggerView is one named subscription in the list response, with
// its durable-delivery counters (delivered/retried/dropped and the
// cursor lag — events appended but not yet acknowledged).
type triggerView struct {
	Name string `json:"name"`
	trigger.Subscription
	Stats trigger.SubscriptionStats `json:"stats"`
}

func (g *Gateway) handleListTriggers(w http.ResponseWriter, _ *http.Request) {
	names, subs := g.platform.TriggerSubscriptions()
	stats := g.platform.TriggerBus().Stats().Subscriptions
	views := make([]triggerView, 0, len(names))
	for _, name := range names {
		views = append(views, triggerView{
			Name:         name,
			Subscription: subs[name],
			Stats:        stats["named/"+name],
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"triggers": views})
}

func (g *Gateway) handlePutTrigger(w http.ResponseWriter, r *http.Request) {
	var sub trigger.Subscription
	if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad JSON: " + err.Error()})
		return
	}
	name := r.PathValue("name")
	if err := g.platform.SubscribeTrigger(name, sub); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, triggerView{Name: name, Subscription: sub})
}

func (g *Gateway) handleDeleteTrigger(w http.ResponseWriter, r *http.Request) {
	ok, err := g.platform.UnsubscribeTrigger(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such trigger subscription"})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleObjectEvents serves a server-sent-events stream of one
// object's events (StateChanged commits plus terminal async
// invocations): `event:` carries the event type, `data:` the event
// JSON. With ?fromOffset=N the handler first replays retained
// event-log entries from offset N (410 Gone when N has been
// compacted away), then switches to the live stream; replayed and
// live deliveries are deduplicated by offset, and any gap between a
// live event's offset and the last delivered one is healed by
// re-reading the log, so a resuming client observes a gap-free,
// per-object-ordered sequence. A gap the log cannot fill — compacted,
// or unreadable — is reported in a `: skipped <from>-<to>` comment line
// instead. Offsets count logged events, and an object's log begins with
// the first event someone could read (this stream included), so
// fromOffset=1 on an object nobody has observed replays nothing and goes
// live. Without fromOffset the stream starts live, and a consumer that
// falls behind its buffer skips events (counted in
// Stats().Triggers.StreamSkipped) rather than stalling the committing
// writer; once it has seen an offset, those gaps heal the same way. The
// stream also ends when the server shuts down (CloseStreams).
func (g *Gateway) handleObjectEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	id := r.PathValue("id")
	var from int64
	if s := queryValue(r, "fromOffset"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "fromOffset must be a non-negative integer"})
			return
		}
		from = v
	}
	// Subscribe to the live stream BEFORE replaying history so no
	// event can fall between the replay and the subscription; the
	// offset dedup below absorbs the overlap.
	stream, err := g.platform.StreamEvents(id, 64)
	if err != nil {
		writeError(w, err)
		return
	}
	defer stream.Close()
	// Fetch the stored backlog before committing the response status:
	// a compacted fromOffset must fail the whole request with 410, not
	// surface mid-stream.
	var backlog []core.EventLogEntry
	if from > 0 {
		backlog, err = g.platform.ReadEvents(r.Context(), id, from, 0)
		if err != nil {
			writeError(w, err)
			return
		}
	}
	// The stream outlives any server-wide WriteTimeout by design;
	// clear the connection's write deadline for its lifetime (no-op
	// when the server sets none).
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	tail := &eventTail{w: w, flusher: flusher}
	for _, e := range backlog {
		if !tail.emitEntry(e) {
			return
		}
	}
	read := func(from int64, n int) ([]core.EventLogEntry, error) {
		return g.platform.ReadEvents(r.Context(), id, from, n)
	}
	for {
		select {
		case ev, open := <-stream.Events():
			if !open {
				return // platform shutting down
			}
			if ev.Offset > 0 && ev.Offset <= tail.last {
				continue // already delivered during replay
			}
			// The live buffer skipped ahead (stream overflow, or two
			// racing commits published out of offset order): heal the gap
			// from the log.
			if tail.last > 0 && ev.Offset > tail.last+1 && !tail.heal(read, ev.Offset) {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if !tail.emit(string(ev.Type), data) {
				return
			}
			tail.last = max(tail.last, ev.Offset)
		case <-r.Context().Done():
			return
		case <-g.streamsDone:
			return
		}
	}
}

// eventTail writes one object's events to an SSE response. last is the
// highest durable offset it has accounted for — delivered, or reported
// skipped; 0 until the first offset-stamped event.
type eventTail struct {
	w       io.Writer
	flusher http.Flusher
	last    int64
}

// emit writes one event frame and reports whether the client is still
// there.
func (t *eventTail) emit(evType string, data []byte) bool {
	if _, err := fmt.Fprintf(t.w, "event: %s\ndata: %s\n\n", evType, data); err != nil {
		return false
	}
	t.flusher.Flush()
	return true
}

// emitEntry writes one stored event. A malformed stored payload is
// passed over, and the stream goes on.
func (t *eventTail) emitEntry(e core.EventLogEntry) bool {
	var ev trigger.Event
	if err := json.Unmarshal(e.Payload, &ev); err != nil {
		return true
	}
	if !t.emit(string(ev.Type), e.Payload) {
		return false
	}
	t.last = e.Offset
	return true
}

// heal writes the events a live stream skipped before offset next,
// reading them back with read, and a `: skipped <from>-<to>` comment for
// every run of offsets it cannot: compacted away, or the read failed. A
// compacted gap start can't 410 after the headers, and jumping over it
// silently would make a gap look like none.
func (t *eventTail) heal(read func(from int64, n int) ([]core.EventLogEntry, error), next int64) bool {
	gap, err := read(t.last+1, int(next-t.last-1))
	if err != nil {
		gap = nil
	}
	for _, e := range gap {
		if e.Offset >= next {
			break
		}
		if !t.skipTo(e.Offset) || !t.emitEntry(e) {
			return false
		}
	}
	return t.skipTo(next)
}

// skipTo reports the offsets from last+1 up to, not including, to as
// skipped, if there are any.
func (t *eventTail) skipTo(to int64) bool {
	if to <= t.last+1 {
		return true
	}
	if _, err := fmt.Fprintf(t.w, ": skipped %d-%d\n\n", t.last+1, to-1); err != nil {
		return false
	}
	t.flusher.Flush()
	t.last = to - 1
	return true
}

func (g *Gateway) handleOptimizerActions(w http.ResponseWriter, _ *http.Request) {
	acts := g.platform.Optimizer().Actions()
	if acts == nil {
		writeJSON(w, http.StatusOK, map[string]any{"actions": []any{}})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"actions": acts})
}
