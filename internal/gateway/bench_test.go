package gateway

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/invoker"
)

// fakeWriter is a reusable in-memory http.ResponseWriter, so a test or
// benchmark can drive Gateway.ServeHTTP without the allocations of
// net/http's server or httptest's recorder.
type fakeWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (f *fakeWriter) Header() http.Header { return f.header }

func (f *fakeWriter) WriteHeader(code int) {
	if f.status == 0 {
		f.status = code
	}
}

func (f *fakeWriter) Write(b []byte) (int, error) {
	if f.status == 0 {
		f.status = http.StatusOK
	}
	return f.body.Write(b)
}

// Flush makes fakeWriter an http.Flusher, which the events route asks for
// before it reads its query.
func (f *fakeWriter) Flush() {}

func (f *fakeWriter) reset() {
	clear(f.header)
	f.status = 0
	f.body.Reset()
}

// replayBody is a request body that can be rewound between requests.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }

const peekPackage = `classes:
  - name: Doc
    keySpecs:
      - name: doc
        kind: string
    functions:
      - name: peek
        image: img/peek
        readonly: true
`

// warmInvoke is one gateway with a warm readonly invocation ready to be
// served repeatedly: POST /api/objects/d1/invoke/peek with a 64-byte
// JSON payload, answered with the object's 64-byte doc.
type warmInvoke struct {
	gw   *Gateway
	w    *fakeWriter
	req  *http.Request
	body *replayBody
	want string
}

// newWarmInvoke boots the platform with tracing on or off, installs an
// info-level text logger to io.Discard when logged, and serves the
// request until it is warm.
func newWarmInvoke(tb testing.TB, traced, logged bool) *warmInvoke {
	tb.Helper()
	p, err := core.New(core.Config{Workers: 2, EnableTracing: traced, OpsPerMilliCPU: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(p.Close)
	p.Images().Register("img/peek", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: task.State["doc"]}, nil
	}))
	gw := New(p)
	if logged {
		gw.SetLogger(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})))
	}
	doc := `"` + strings.Repeat("d", 62) + `"`
	setup := func(method, path, body string, want int) {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			tb.Fatalf("%s %s: status = %d (%s), want %d", method, path, rec.Code, rec.Body, want)
		}
	}
	setup(http.MethodPost, "/api/packages", peekPackage, http.StatusCreated)
	setup(http.MethodPost, "/api/objects", `{"class":"Doc","id":"d1"}`, http.StatusCreated)
	setup(http.MethodPut, "/api/objects/d1/state/doc", doc, http.StatusNoContent)

	wi := &warmInvoke{
		gw:   gw,
		w:    &fakeWriter{header: make(http.Header)},
		body: &replayBody{data: []byte(`"` + strings.Repeat("p", 62) + `"`)},
		want: `{"output":` + doc + "}\n",
	}
	wi.req = httptest.NewRequest(http.MethodPost, "/api/objects/d1/invoke/peek", nil)
	wi.req.Body = wi.body
	wi.req.ContentLength = int64(len(wi.body.data))
	for range 64 {
		wi.serve()
	}
	if wi.w.status != http.StatusOK || wi.w.body.String() != wi.want {
		tb.Fatalf("warm invoke: status = %d, body = %q, want 200 %q", wi.w.status, wi.w.body.String(), wi.want)
	}
	return wi
}

func (wi *warmInvoke) serve() {
	wi.w.reset()
	wi.body.off = 0
	wi.gw.ServeHTTP(wi.w, wi.req)
}

// BenchmarkGatewayInvoke prices the gateway's share of a warm
// synchronous invocation (wrapper, routing, body read, envelope) plus
// the in-process invocation under it, without net/http's server.
func BenchmarkGatewayInvoke(b *testing.B) {
	for _, mode := range []struct {
		name           string
		traced, logged bool
	}{
		{"traced+logged", true, true},
		{"bare", false, false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			wi := newWarmInvoke(b, mode.traced, mode.logged)
			b.ReportAllocs()
			for b.Loop() {
				wi.serve()
			}
		})
	}
}

// BenchmarkRawEnvelope prices the response envelope alone.
func BenchmarkRawEnvelope(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"64B", 64}, {"256B", 256}, {"16KiB", 16 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			raw := []byte(`"` + strings.Repeat("x", size.bytes-2) + `"`)
			w := &fakeWriter{header: make(http.Header)}
			b.ReportAllocs()
			b.SetBytes(int64(size.bytes))
			for b.Loop() {
				w.reset()
				writeRawEnvelope(w, "output", raw)
			}
		})
	}
}
