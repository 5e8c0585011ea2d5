// Package invoker defines Oparaca's pure-function invocation contract
// (paper §III-C): the class runtime "bundles the object state and
// input request into the standalone invocation task for offloading
// this task to the code execution runtime (FaaS engine) and expects
// the runtime to return with the modified state".
//
// A Task is fully self-contained — structured state travels with the
// request, unstructured state is referenced by presigned URLs — so any
// engine that speaks the HTTP framing can execute it. The package
// provides the Handler abstraction for function code ("container
// images"), an image registry, a local transport, and an HTTP
// transport with timeouts and retries.
package invoker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/hpcclab/oparaca-go/internal/jsonw"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Sentinel errors.
var (
	// ErrImageNotFound is returned when no handler is registered for
	// an image name.
	ErrImageNotFound = errors.New("invoker: image not found")
	// ErrFunctionFailed wraps an error reported by function code.
	ErrFunctionFailed = errors.New("invoker: function failed")
)

// Task is a standalone invocation request. It carries everything the
// function needs, decoupling code execution from state management.
type Task struct {
	// ID uniquely identifies this invocation.
	ID string `json:"id"`
	// Class and Object identify the receiver; Function is the method.
	Class    string `json:"class"`
	Object   string `json:"object"`
	Function string `json:"function"`
	// State maps structured state keys to their current values.
	State map[string]json.RawMessage `json:"state,omitempty"`
	// Payload is the request body.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Args are free-form invocation parameters.
	Args map[string]string `json:"args,omitempty"`
	// Refs maps unstructured state keys to presigned URLs (paper
	// §III-D) so function code accesses files without credentials.
	Refs map[string]string `json:"refs,omitempty"`
	// Cost is the simulated compute cost in node-compute tokens
	// (defaults to 1 when zero).
	Cost float64 `json:"cost,omitempty"`
}

// Result is the function's reply: its output plus any modified state.
type Result struct {
	// Output is the function's return value.
	Output json.RawMessage `json:"output,omitempty"`
	// State holds modified structured-state entries. Keys absent from
	// the map are unchanged; a key mapped to JSON null is deleted.
	State map[string]json.RawMessage `json:"state,omitempty"`
}

// Handler is the interface function code implements. Handlers must be
// pure with respect to platform state: all reads come from task.State
// or task.Refs, all writes go into the Result.
type Handler interface {
	Invoke(ctx context.Context, task Task) (Result, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, task Task) (Result, error)

// Invoke implements Handler.
func (f HandlerFunc) Invoke(ctx context.Context, task Task) (Result, error) {
	return f(ctx, task)
}

// Registry maps container-image names (e.g. "img/resize") to handlers,
// standing in for a container registry. It is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	images map[string]Handler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{images: make(map[string]Handler)}
}

// Register binds image to handler, replacing any previous binding.
func (r *Registry) Register(image string, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.images[image] = h
}

// Lookup returns the handler for image.
func (r *Registry) Lookup(image string) (Handler, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.images[image]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrImageNotFound, image)
	}
	return h, nil
}

// Transport delivers a task to the execution runtime of one image and
// returns the function's result. Implementations: Local (in-process)
// and Client (HTTP).
type Transport interface {
	Offload(ctx context.Context, image string, task Task) (Result, error)
}

// Local executes tasks in-process against a Registry.
type Local struct {
	registry *Registry
}

var _ Transport = (*Local)(nil)

// NewLocal returns a Transport that runs handlers in-process.
func NewLocal(registry *Registry) *Local {
	return &Local{registry: registry}
}

// Offload implements Transport.
func (l *Local) Offload(ctx context.Context, image string, task Task) (Result, error) {
	h, err := l.registry.Lookup(image)
	if err != nil {
		return Result{}, err
	}
	res, err := h.Invoke(ctx, task)
	if err != nil {
		return Result{}, fmt.Errorf("%w: image %q: %v", ErrFunctionFailed, image, err)
	}
	return res, nil
}

// wireRequest is the HTTP framing of an offloaded task.
type wireRequest struct {
	Image string `json:"image"`
	Task  Task   `json:"task"`
}

// wireResponse is the HTTP framing of a result.
type wireResponse struct {
	Result Result `json:"result"`
	Error  string `json:"error,omitempty"`
}

// Server exposes a Registry over HTTP at POST /invoke, so any
// platform component (or an external FaaS engine, paper §III-C:
// "connecting the other FaaS engine can be done by configuring the
// URL") can execute tasks via RPC.
func Server(registry *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/invoke", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 32<<20))
		if err != nil {
			http.Error(w, "unreadable body", http.StatusBadRequest)
			return
		}
		var req wireRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		h, err := registry.Lookup(req.Image)
		if err != nil {
			writeWire(w, http.StatusNotFound, wireResponse{Error: err.Error()})
			return
		}
		res, err := h.Invoke(r.Context(), req.Task)
		if err != nil {
			writeWire(w, http.StatusUnprocessableEntity, wireResponse{Error: err.Error()})
			return
		}
		writeWire(w, http.StatusOK, wireResponse{Result: res})
	})
	return mux
}

func writeWire(w http.ResponseWriter, status int, resp wireResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

// ClientConfig tunes the HTTP transport.
type ClientConfig struct {
	// BaseURL is the execution runtime's address, e.g.
	// "http://127.0.0.1:8081".
	BaseURL string
	// Retries is the number of additional attempts on transport
	// errors (function errors are not retried: the contract does not
	// assume idempotent functions beyond state-merge semantics).
	Retries int
	// Clock supplies time for backoff sleeps and attempt timeouts.
	Clock vclock.Clock
}

const (
	// attemptTimeout bounds one attempt.
	attemptTimeout = 30 * time.Second
	// firstBackoff is the first retry delay, doubled per attempt.
	firstBackoff = 10 * time.Millisecond
)

// Client is the HTTP Transport.
type Client struct {
	cfg    ClientConfig
	client http.Client
}

var _ Transport = (*Client)(nil)

// NewClient returns an HTTP transport targeting cfg.BaseURL.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewReal()
	}
	return &Client{cfg: cfg}
}

// Offload implements Transport. Transport-level failures are retried
// with exponential backoff; HTTP 4xx/422 responses are terminal.
func (c *Client) Offload(ctx context.Context, image string, task Task) (Result, error) {
	payload, err := json.Marshal(wireRequest{Image: image, Task: task})
	if err != nil {
		return Result{}, fmt.Errorf("invoker: encoding task: %w", err)
	}
	backoff := firstBackoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if err := c.cfg.Clock.Sleep(ctx, backoff); err != nil {
				return Result{}, err
			}
			backoff *= 2
		}
		res, done, err := c.attempt(ctx, payload)
		if done {
			return res, err
		}
		lastErr = err
	}
	return Result{}, fmt.Errorf("invoker: offload failed after %d attempts: %w", c.cfg.Retries+1, lastErr)
}

// attempt performs one HTTP round trip. done=true means the outcome is
// terminal (success or a non-retryable failure).
func (c *Client) attempt(ctx context.Context, payload []byte) (Result, bool, error) {
	actx, cancel := c.cfg.Clock.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.cfg.BaseURL+"/invoke", bytes.NewReader(payload))
	if err != nil {
		return Result{}, true, fmt.Errorf("invoker: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return Result{}, true, ctx.Err()
		}
		return Result{}, false, err // transport error: retryable
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return Result{}, false, err
	}
	var wire wireResponse
	if err := json.Unmarshal(body, &wire); err != nil {
		return Result{}, false, fmt.Errorf("invoker: bad response: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return wire.Result, true, nil
	case http.StatusNotFound:
		return Result{}, true, fmt.Errorf("%w: %s", ErrImageNotFound, wire.Error)
	case http.StatusUnprocessableEntity:
		return Result{}, true, fmt.Errorf("%w: %s", ErrFunctionFailed, wire.Error)
	default:
		return Result{}, false, fmt.Errorf("invoker: HTTP %d: %s", resp.StatusCode, wire.Error)
	}
}

// MergeState applies a Result's state delta onto base, honoring the
// pure-function contract: nil map = no change, JSON null value =
// delete key. It returns a new map; base is not mutated.
func MergeState(base map[string]json.RawMessage, delta map[string]json.RawMessage) map[string]json.RawMessage {
	merged := make(map[string]json.RawMessage, len(base)+len(delta))
	for k, v := range base {
		merged[k] = v
	}
	for k, v := range delta {
		if jsonw.IsNull(v) {
			delete(merged, k)
			continue
		}
		merged[k] = v
	}
	return merged
}
