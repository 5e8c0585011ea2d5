package invoker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// sleepClock is a Manual clock that reports each sleep once it is armed,
// so a test advances exactly past a retry backoff.
type sleepClock struct {
	*vclock.Manual
	armed chan time.Duration
}

func newSleepClock() sleepClock {
	return sleepClock{vclock.NewManual(time.Unix(1_700_000_000, 0)), make(chan time.Duration)}
}

func (c sleepClock) Sleep(ctx context.Context, d time.Duration) error {
	wake := c.After(d)
	c.armed <- d
	select {
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backOff advances c past each of the backoffs want, in order, as the
// client arms them.
func (c sleepClock) backOff(t *testing.T, want ...time.Duration) {
	t.Helper()
	for _, w := range want {
		if d := <-c.armed; d != w {
			t.Fatalf("backoff = %v, want %v", d, w)
		}
		c.Advance(w)
	}
}

// echoHandler returns its payload as output and bumps a state counter.
func echoHandler() Handler {
	return HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		var n int
		if raw, ok := task.State["count"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		raw, _ := json.Marshal(n + 1)
		return Result{
			Output: task.Payload,
			State:  map[string]json.RawMessage{"count": raw},
		}, nil
	})
}

func TestRegistryLookup(t *testing.T) {
	r := NewRegistry()
	r.Register("img/echo", echoHandler())
	if _, err := r.Lookup("img/echo"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("img/none"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("missing image err = %v", err)
	}
}

func TestRegistryReplace(t *testing.T) {
	r := NewRegistry()
	r.Register("img/x", HandlerFunc(func(context.Context, Task) (Result, error) {
		return Result{Output: json.RawMessage(`"v1"`)}, nil
	}))
	r.Register("img/x", HandlerFunc(func(context.Context, Task) (Result, error) {
		return Result{Output: json.RawMessage(`"v2"`)}, nil
	}))
	h, _ := r.Lookup("img/x")
	res, _ := h.Invoke(context.Background(), Task{})
	if string(res.Output) != `"v2"` {
		t.Fatalf("got %s, want replacement handler", res.Output)
	}
}

func TestLocalOffload(t *testing.T) {
	r := NewRegistry()
	r.Register("img/echo", echoHandler())
	l := NewLocal(r)
	res, err := l.Offload(context.Background(), "img/echo", Task{
		Payload: json.RawMessage(`{"hello":1}`),
		State:   map[string]json.RawMessage{"count": json.RawMessage(`41`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != `{"hello":1}` {
		t.Fatalf("output = %s", res.Output)
	}
	if string(res.State["count"]) != `42` {
		t.Fatalf("state count = %s", res.State["count"])
	}
}

func TestLocalOffloadUnknownImage(t *testing.T) {
	l := NewLocal(NewRegistry())
	if _, err := l.Offload(context.Background(), "img/none", Task{}); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalOffloadFunctionError(t *testing.T) {
	r := NewRegistry()
	r.Register("img/bad", HandlerFunc(func(context.Context, Task) (Result, error) {
		return Result{}, errors.New("boom")
	}))
	l := NewLocal(r)
	if _, err := l.Offload(context.Background(), "img/bad", Task{}); !errors.Is(err, ErrFunctionFailed) {
		t.Fatalf("err = %v", err)
	}
}

func newHTTPPair(t *testing.T, r *Registry) *Client {
	t.Helper()
	srv := httptest.NewServer(Server(r))
	t.Cleanup(srv.Close)
	return NewClient(ClientConfig{BaseURL: srv.URL})
}

func TestHTTPOffloadRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Register("img/echo", echoHandler())
	c := newHTTPPair(t, r)
	res, err := c.Offload(context.Background(), "img/echo", Task{
		ID:       "t1",
		Class:    "Image",
		Object:   "o1",
		Function: "resize",
		Payload:  json.RawMessage(`"payload"`),
		State:    map[string]json.RawMessage{"count": json.RawMessage(`9`)},
		Args:     map[string]string{"w": "100"},
		Refs:     map[string]string{"image": "http://store/b/k?sig=x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != `"payload"` {
		t.Fatalf("output = %s", res.Output)
	}
	if string(res.State["count"]) != `10` {
		t.Fatalf("state = %s", res.State["count"])
	}
}

func TestHTTPOffloadTaskFieldsArrive(t *testing.T) {
	r := NewRegistry()
	var got Task
	r.Register("img/capture", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		got = task
		return Result{}, nil
	}))
	c := newHTTPPair(t, r)
	want := Task{
		ID: "abc", Class: "C", Object: "obj-1", Function: "f",
		Args: map[string]string{"k": "v"},
		Refs: map[string]string{"file": "http://x"},
		Cost: 2.5,
	}
	if _, err := c.Offload(context.Background(), "img/capture", want); err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Class != want.Class || got.Object != want.Object ||
		got.Function != want.Function || got.Args["k"] != "v" ||
		got.Refs["file"] != "http://x" || got.Cost != 2.5 {
		t.Fatalf("task fields lost in transit: %+v", got)
	}
}

func TestHTTPOffloadImageNotFound(t *testing.T) {
	c := newHTTPPair(t, NewRegistry())
	if _, err := c.Offload(context.Background(), "img/none", Task{}); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPOffloadFunctionError(t *testing.T) {
	r := NewRegistry()
	r.Register("img/bad", HandlerFunc(func(context.Context, Task) (Result, error) {
		return Result{}, errors.New("kaput")
	}))
	c := newHTTPPair(t, r)
	_, err := c.Offload(context.Background(), "img/bad", Task{})
	if !errors.Is(err, ErrFunctionFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPServerRejectsGET(t *testing.T) {
	srv := httptest.NewServer(Server(NewRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/invoke")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHTTPServerRejectsBadJSON(t *testing.T) {
	srv := httptest.NewServer(Server(NewRegistry()))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/invoke", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestClientRetriesTransportErrors(t *testing.T) {
	var calls atomic.Int64
	// Fail twice with a 503, then succeed.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(wireResponse{Result: Result{Output: json.RawMessage(`"ok"`)}})
	}))
	defer srv.Close()
	clock := newSleepClock()
	c := NewClient(ClientConfig{BaseURL: srv.URL, Retries: 3, Clock: clock})
	type offload struct {
		res Result
		err error
	}
	done := make(chan offload, 1)
	go func() {
		res, err := c.Offload(context.Background(), "img/x", Task{})
		done <- offload{res, err}
	}()
	clock.backOff(t, firstBackoff, 2*firstBackoff)
	o := <-done
	res, err := o.res, o.err
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != `"ok"` {
		t.Fatalf("output = %s", res.Output)
	}
	if calls.Load() != 3 {
		t.Fatalf("server called %d times, want 3", calls.Load())
	}
}

func TestClientDoesNotRetryFunctionErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		_ = json.NewEncoder(w).Encode(wireResponse{Error: "app bug"})
	}))
	defer srv.Close()
	c := NewClient(ClientConfig{BaseURL: srv.URL, Retries: 5})
	_, err := c.Offload(context.Background(), "img/x", Task{})
	if !errors.Is(err, ErrFunctionFailed) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("function error retried %d times", calls.Load())
	}
}

func TestClientExhaustsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "always down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	clock := newSleepClock()
	c := NewClient(ClientConfig{BaseURL: srv.URL, Retries: 2, Clock: clock})
	done := make(chan error, 1)
	go func() {
		_, err := c.Offload(context.Background(), "img/x", Task{})
		done <- err
	}()
	clock.backOff(t, firstBackoff, 2*firstBackoff)
	if err := <-done; err == nil {
		t.Fatal("offload to dead server succeeded")
	}
}

func TestClientContextCancellation(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer srv.Close()
	defer close(block)
	c := NewClient(ClientConfig{BaseURL: srv.URL})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Offload(ctx, "img/x", Task{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestMergeState(t *testing.T) {
	base := map[string]json.RawMessage{
		"a": json.RawMessage(`1`),
		"b": json.RawMessage(`2`),
	}
	delta := map[string]json.RawMessage{
		"b": json.RawMessage(`20`),   // update
		"c": json.RawMessage(`3`),    // insert
		"a": json.RawMessage(`null`), // delete
	}
	merged := MergeState(base, delta)
	if _, ok := merged["a"]; ok {
		t.Fatal("null value did not delete key")
	}
	if string(merged["b"]) != `20` || string(merged["c"]) != `3` {
		t.Fatalf("merged = %v", merged)
	}
	// base untouched
	if string(base["b"]) != `2` {
		t.Fatal("MergeState mutated base")
	}
}

func TestMergeStateNilDelta(t *testing.T) {
	base := map[string]json.RawMessage{"a": json.RawMessage(`1`)}
	merged := MergeState(base, nil)
	if len(merged) != 1 || string(merged["a"]) != `1` {
		t.Fatalf("merged = %v", merged)
	}
}

func TestMergeStateNilBase(t *testing.T) {
	merged := MergeState(nil, map[string]json.RawMessage{"x": json.RawMessage(`1`)})
	if string(merged["x"]) != `1` {
		t.Fatalf("merged = %v", merged)
	}
}

// Property: MergeState is idempotent for deltas without nulls.
func TestMergeStateIdempotentProperty(t *testing.T) {
	prop := func(baseKeys, deltaKeys []byte) bool {
		base := map[string]json.RawMessage{}
		for _, k := range baseKeys {
			base[fmt.Sprintf("k%d", k%16)] = json.RawMessage(`"base"`)
		}
		delta := map[string]json.RawMessage{}
		for _, k := range deltaKeys {
			delta[fmt.Sprintf("k%d", k%16)] = json.RawMessage(`"delta"`)
		}
		once := MergeState(base, delta)
		twice := MergeState(once, delta)
		if len(once) != len(twice) {
			return false
		}
		for k, v := range once {
			if string(twice[k]) != string(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskJSONRoundTrip(t *testing.T) {
	task := Task{
		ID: "i", Class: "C", Object: "o", Function: "f",
		State:   map[string]json.RawMessage{"k": json.RawMessage(`{"deep":[1,2]}`)},
		Payload: json.RawMessage(`"p"`),
		Args:    map[string]string{"a": "b"},
		Refs:    map[string]string{"r": "u"},
		Cost:    1.5,
	}
	raw, err := json.Marshal(task)
	if err != nil {
		t.Fatal(err)
	}
	var back Task
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != task.ID || string(back.State["k"]) != string(task.State["k"]) || back.Cost != 1.5 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
