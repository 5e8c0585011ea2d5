package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/gateway"
	"github.com/hpcclab/oparaca-go/internal/invoker"
)

// newServer stands up a platform+gateway and returns a CLI client
// pointed at it.
func newServer(t *testing.T) *client {
	t.Helper()
	p, err := core.New(core.Config{Workers: 2, FaaS: faas.Settings{ColdStart: time.Millisecond, IdleTimeout: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/echo", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		out, _ := json.Marshal(map[string]any{"payload": string(task.Payload), "args": task.Args})
		return invoker.Result{Output: out, State: map[string]json.RawMessage{"last": task.Payload}}, nil
	}))
	srv := httptest.NewServer(gateway.New(p))
	t.Cleanup(srv.Close)
	return &client{base: srv.URL}
}

const cliPackage = `classes:
  - name: Echoer
    keySpecs:
      - name: last
      - name: blob
        kind: file
    functions:
      - name: echo
        image: img/echo
`

// writePackage writes the test package to a temp file.
func writePackage(t *testing.T, ext string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pkg"+ext)
	content := cliPackage
	if ext == ".json" {
		raw := map[string]any{"classes": []any{map[string]any{
			"name": "Echoer",
			"functions": []any{
				map[string]any{"name": "echo", "image": "img/echo"},
			},
		}}}
		b, _ := json.Marshal(raw)
		content = string(b)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout runs f with os.Stdout redirected and returns output.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<16)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), ferr
}

func TestCLIApplyAndLifecycle(t *testing.T) {
	c := newServer(t)
	pkg := writePackage(t, ".yaml")

	out, err := captureStdout(t, func() error { return c.dispatch([]string{"apply", pkg}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Echoer") {
		t.Fatalf("apply output = %q", out)
	}

	out, err = captureStdout(t, func() error { return c.dispatch([]string{"classes"}) })
	if err != nil || !strings.Contains(out, "Echoer") {
		t.Fatalf("classes = %q, %v", out, err)
	}

	out, err = captureStdout(t, func() error { return c.dispatch([]string{"class", "Echoer"}) })
	if err != nil || !strings.Contains(out, "img/echo") {
		t.Fatalf("class = %q, %v", out, err)
	}

	out, err = captureStdout(t, func() error { return c.dispatch([]string{"create", "Echoer", "e1"}) })
	if err != nil || !strings.Contains(out, "e1") {
		t.Fatalf("create = %q, %v", out, err)
	}

	out, err = captureStdout(t, func() error {
		return c.dispatch([]string{"invoke", "e1", "echo", "-d", `"hi"`, "-a", "k=v"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `\"hi\"`) && !strings.Contains(out, "hi") {
		t.Fatalf("invoke output = %q", out)
	}
	if !strings.Contains(out, `"k": "v"`) {
		t.Fatalf("invoke args missing: %q", out)
	}

	out, err = captureStdout(t, func() error { return c.dispatch([]string{"state-get", "e1", "last"}) })
	if err != nil || !strings.Contains(out, "hi") {
		t.Fatalf("state-get = %q, %v", out, err)
	}

	if _, err = captureStdout(t, func() error {
		return c.dispatch([]string{"state-set", "e1", "last", `"forced"`})
	}); err != nil {
		t.Fatal(err)
	}

	out, err = captureStdout(t, func() error { return c.dispatch([]string{"file-url", "e1", "blob", "PUT"}) })
	if err != nil || !strings.Contains(out, "X-Oprc-Signature") {
		t.Fatalf("file-url = %q, %v", out, err)
	}

	out, err = captureStdout(t, func() error { return c.dispatch([]string{"objects", "Echoer"}) })
	if err != nil || !strings.Contains(out, "e1") {
		t.Fatalf("objects = %q, %v", out, err)
	}

	out, err = captureStdout(t, func() error { return c.dispatch([]string{"object", "e1"}) })
	if err != nil || !strings.Contains(out, "Echoer") {
		t.Fatalf("object = %q, %v", out, err)
	}

	out, err = captureStdout(t, func() error { return c.dispatch([]string{"stats"}) })
	if err != nil || !strings.Contains(out, "workers") {
		t.Fatalf("stats = %q, %v", out, err)
	}

	out, err = captureStdout(t, func() error { return c.dispatch([]string{"actions"}) })
	if err != nil || !strings.Contains(out, "actions") {
		t.Fatalf("actions = %q, %v", out, err)
	}

	if err := c.dispatch([]string{"delete", "e1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.dispatch([]string{"object", "e1"}); err == nil {
		t.Fatal("object lookup after delete succeeded")
	}
}

func TestCLIApplyJSON(t *testing.T) {
	c := newServer(t)
	pkg := writePackage(t, ".json")
	if _, err := captureStdout(t, func() error { return c.dispatch([]string{"apply", pkg}) }); err != nil {
		t.Fatal(err)
	}
}

func TestCLIErrors(t *testing.T) {
	c := newServer(t)
	cases := [][]string{
		{"unknown-command"},
		{"apply"},                          // missing file
		{"apply", "/does/not/exist.yaml"},  // unreadable
		{"class"},                          // missing arg
		{"create"},                         // missing class
		{"invoke", "only-id"},              // missing fn
		{"invoke", "x", "f", "-a", "noeq"}, // bad arg format
		{"state-get", "x"},                 // missing key
		{"state-set", "x", "k"},            // missing value
		{"file-url", "x"},                  // missing key
		{"delete"},                         // missing id
		{"object"},                         // missing id
	}
	for _, args := range cases {
		if err := c.dispatch(args); err == nil {
			t.Errorf("dispatch(%v) succeeded, want error", args)
		}
	}
}

func TestCLIServerErrorSurfaced(t *testing.T) {
	c := newServer(t)
	err := c.dispatch([]string{"class", "Ghost"})
	if err == nil || !strings.Contains(err.Error(), "404") && !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v", err)
	}
}

func TestEnvOr(t *testing.T) {
	t.Setenv("OCLI_TEST_VAR", "set")
	if envOr("OCLI_TEST_VAR", "def") != "set" {
		t.Fatal("env value ignored")
	}
	if envOr("OCLI_TEST_VAR_ABSENT", "def") != "def" {
		t.Fatal("default ignored")
	}
}

func TestMultiFlag(t *testing.T) {
	var m multiFlag
	m.Set("a=1")
	m.Set("b=2")
	if m.String() != "a=1,b=2" {
		t.Fatalf("String = %q", m.String())
	}
}

// extractInvocationID pulls the "invocation" field out of printed JSON.
func extractInvocationID(t *testing.T, out string) string {
	t.Helper()
	var resp struct {
		Invocation string `json:"invocation"`
	}
	if err := json.Unmarshal([]byte(out), &resp); err != nil || resp.Invocation == "" {
		t.Fatalf("invoke-async output = %q (%v)", out, err)
	}
	return resp.Invocation
}

func TestCLIAsyncInvokeAndPoll(t *testing.T) {
	c := newServer(t)
	pkg := writePackage(t, ".yaml")
	if _, err := captureStdout(t, func() error { return c.dispatch([]string{"apply", pkg}) }); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error { return c.dispatch([]string{"create", "Echoer", "a1"}) }); err != nil {
		t.Fatal(err)
	}

	out, err := captureStdout(t, func() error {
		return c.dispatch([]string{"invoke-async", "a1", "echo", "-d", `"ping"`})
	})
	if err != nil {
		t.Fatal(err)
	}
	id := extractInvocationID(t, out)

	// invoke-wait polls until the record is terminal.
	out, err = captureStdout(t, func() error {
		return c.dispatch([]string{"invoke-wait", id, "-t", "10s"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"completed"`) || !strings.Contains(out, "ping") {
		t.Fatalf("invoke-wait output = %q", out)
	}

	// Direct poll shows the same terminal record.
	out, err = captureStdout(t, func() error { return c.dispatch([]string{"invocation", id}) })
	if err != nil || !strings.Contains(out, `"completed"`) {
		t.Fatalf("invocation = %q, %v", out, err)
	}
}

func TestCLIAsyncErrors(t *testing.T) {
	c := newServer(t)
	cases := [][]string{
		{"invoke-async", "only-id"}, // missing fn
		{"invocation"},              // missing id
		{"invoke-wait"},             // missing id
	}
	for _, args := range cases {
		if err := c.dispatch(args); err == nil {
			t.Errorf("dispatch(%v) succeeded, want error", args)
		}
	}
	// Unknown invocation surfaces the server's 404.
	if err := c.dispatch([]string{"invocation", "inv-ghost"}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("invocation inv-ghost err = %v", err)
	}
	if err := c.dispatch([]string{"invoke-wait", "inv-ghost", "-t", "1s"}); err == nil {
		t.Error("invoke-wait on unknown id succeeded")
	}
}
