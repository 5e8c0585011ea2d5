package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
)

// TestMalformedBodies asserts 400s for unparsable or invalid request
// bodies on every body-accepting route.
func TestMalformedBodies(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("m1")
	cases := []struct {
		name, method, path string
		body               string
	}{
		{"create-object-broken-json", http.MethodPost, "/api/objects", `{broken`},
		{"invoke-broken-payload", http.MethodPost, "/api/objects/m1/invoke/set", `{broken`},
		{"invoke-async-broken-payload", http.MethodPost, "/api/objects/m1/invoke-async/set", `{broken`},
		{"batch-broken-json", http.MethodPost, "/api/invoke-batch", `{broken`},
		{"batch-wrong-shape", http.MethodPost, "/api/invoke-batch", `{"invocations":"not-a-list"}`},
		{"batch-empty", http.MethodPost, "/api/invoke-batch", `{}`},
		// Balanced, so a scan by nesting depth alone would end the payload
		// where it ends, but not JSON: the whole body is refused.
		{"batch-invalid-payload", http.MethodPost, "/api/invoke-batch", `{"invocations":[{"object":"m1","member":"set","payload":{"a":tru}}]}`},
		{"deploy-broken-yaml", http.MethodPost, "/api/packages", "classes: ["},
		{"put-state-empty", http.MethodPut, "/api/objects/m1/state/text", ""},
		{"put-state-broken-json", http.MethodPut, "/api/objects/m1/state/text", `{broken`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _ := f.do(tc.method, tc.path, "application/json", []byte(tc.body))
			if status != http.StatusBadRequest {
				t.Fatalf("%s %s: status = %d, want 400", tc.method, tc.path, status)
			}
		})
	}
}

// TestUnknownResources asserts 404s for unknown classes, objects,
// members, and invocation IDs across the API.
func TestUnknownResources(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("u1")
	cases := []struct {
		name, method, path string
		body               string
	}{
		{"unknown-class-view", http.MethodGet, "/api/classes/Ghost", ""},
		{"unknown-class-create", http.MethodPost, "/api/objects", `{"class":"Ghost"}`},
		{"unknown-object-get", http.MethodGet, "/api/objects/ghost", ""},
		{"unknown-object-delete", http.MethodDelete, "/api/objects/ghost", ""},
		{"unknown-object-invoke", http.MethodPost, "/api/objects/ghost/invoke/set", ""},
		{"unknown-object-invoke-async", http.MethodPost, "/api/objects/ghost/invoke-async/set", ""},
		{"unknown-object-state", http.MethodGet, "/api/objects/ghost/state/text", ""},
		{"unknown-object-presign", http.MethodGet, "/api/objects/ghost/files/attachment/url", ""},
		{"unknown-member-invoke", http.MethodPost, "/api/objects/u1/invoke/nope", ""},
		{"unknown-member-invoke-async", http.MethodPost, "/api/objects/u1/invoke-async/nope", ""},
		{"unknown-invocation", http.MethodGet, "/api/invocations/inv-ghost", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _ := f.do(tc.method, tc.path, "application/json", []byte(tc.body))
			if status != http.StatusNotFound {
				t.Fatalf("%s %s: status = %d, want 404", tc.method, tc.path, status)
			}
		})
	}
}

// TestMethodNotAllowedOnEveryRoute sends a wrong HTTP verb to each
// registered route and expects 405 from the method-aware mux.
func TestMethodNotAllowedOnEveryRoute(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("v1")
	cases := []struct {
		name, method, path string
	}{
		{"healthz", http.MethodPost, "/healthz"},
		{"stats", http.MethodPost, "/api/stats"},
		{"list-classes", http.MethodPost, "/api/classes"},
		{"get-class", http.MethodDelete, "/api/classes/Note"},
		{"deploy", http.MethodGet, "/api/packages"},
		{"objects", http.MethodPut, "/api/objects"},
		{"object", http.MethodPost, "/api/objects/v1"},
		{"invoke", http.MethodGet, "/api/objects/v1/invoke/set"},
		{"invoke-async", http.MethodGet, "/api/objects/v1/invoke-async/set"},
		{"invoke-batch", http.MethodGet, "/api/invoke-batch"},
		{"invocation", http.MethodPost, "/api/invocations/inv-x"},
		{"state", http.MethodPost, "/api/objects/v1/state/text"},
		{"state-delete", http.MethodDelete, "/api/objects/v1/state/text"},
		{"presign", http.MethodPost, "/api/objects/v1/files/attachment/url"},
		{"optimizer-actions", http.MethodPost, "/api/optimizer/actions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _ := f.do(tc.method, tc.path, "", nil)
			if status != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status = %d, want 405", tc.method, tc.path, status)
			}
		})
	}
}

// TestBodyLimitAndReadErrors drives every route that reads a whole
// body with one over maxBodyBytes — declared by Content-Length (never
// read) or chunked (discovered by the reader) — and with one that fails
// mid-read: too large is 413 payload_too_large, unreadable stays 400.
func TestBodyLimitAndReadErrors(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("b1")
	gw := New(f.p) // served directly: no client racing a closed upload
	oversized := bytes.Repeat([]byte{' '}, maxBodyBytes+1)
	routes := []struct{ name, method, path string }{
		{"deploy", http.MethodPost, "/api/packages"},
		{"invoke", http.MethodPost, "/api/objects/b1/invoke/set"},
		{"invoke-async", http.MethodPost, "/api/objects/b1/invoke-async/set"},
		{"invoke-batch", http.MethodPost, "/api/invoke-batch"},
		{"put-state", http.MethodPut, "/api/objects/b1/state/text"},
	}
	// cutOff delivers the first bytes of a body, then fails.
	cutOff := func() io.Reader {
		return io.MultiReader(strings.NewReader(`"0123`), iotest.ErrReader(errors.New("connection reset")))
	}
	bodies := []struct {
		name   string
		body   func() io.Reader
		length int64 // Content-Length; -1 = chunked
		status int
		code   string
	}{
		{"declared-too-large", func() io.Reader { return iotest.ErrReader(errors.New("body must not be read")) }, maxBodyBytes + 1, http.StatusRequestEntityTooLarge, "payload_too_large"},
		{"chunked-too-large", func() io.Reader { return bytes.NewReader(oversized) }, -1, http.StatusRequestEntityTooLarge, "payload_too_large"},
		{"declared-unreadable", cutOff, 12, http.StatusBadRequest, ""},
		{"chunked-unreadable", cutOff, -1, http.StatusBadRequest, ""},
	}
	for _, rt := range routes {
		for _, b := range bodies {
			t.Run(rt.name+"/"+b.name, func(t *testing.T) {
				req := httptest.NewRequest(rt.method, rt.path, b.body())
				req.ContentLength = b.length
				rec := httptest.NewRecorder()
				gw.ServeHTTP(rec, req)
				var body errorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Fatalf("body %q: %v", rec.Body, err)
				}
				if rec.Code != b.status || body.Code != b.code || body.Error == "" {
					t.Fatalf("status = %d, body = %+v; want %d with code %q", rec.Code, body, b.status, b.code)
				}
			})
		}
	}
}

// FuzzReadBody holds readBody's framing to its contract for any bytes and
// any declared Content-Length (-1 is chunked): it returns the declared
// prefix — all of it, for a chunked body — exactly when that arrived
// complete and within maxBodyBytes, answers 413 for a body over the limit
// and 400 for one that ended early, and writes nothing when it succeeds.
// The body arrives in one piece or a byte per Read, the last one with EOF.
func FuzzReadBody(f *testing.F) {
	for _, seed := range []struct {
		data     string
		declared int64
	}{
		{"", 0}, {"", -1}, {"{}", 2}, {"{}", -1}, {"{}", 1}, {"{}", 3}, {`"abc"`, 5}, {`"abc"`, 64},
		{"x", maxBodyBytes}, {"x", maxBodyBytes + 1}, {"", 1 << 62}, {"x", -2},
	} {
		f.Add([]byte(seed.data), seed.declared, false)
		f.Add([]byte(seed.data), seed.declared, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, declared int64, byteAtATime bool) {
		var body io.Reader = bytes.NewReader(data)
		if byteAtATime {
			body = iotest.DataErrReader(iotest.OneByteReader(body))
		}
		req := httptest.NewRequest(http.MethodPost, "/", body)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		got, ok := readBody(rec, req)
		want, status := data, 0
		switch {
		case declared > maxBodyBytes || declared < 0 && len(data) > maxBodyBytes:
			status = http.StatusRequestEntityTooLarge
		case declared >= 0 && int64(len(data)) < declared:
			status = http.StatusBadRequest
		case declared >= 0:
			want = data[:declared]
		}
		if status != 0 {
			if ok || rec.Code != status {
				t.Fatalf("%d bytes declared %d: ok = %v, status %d; want %d", len(data), declared, ok, rec.Code, status)
			}
			return
		}
		if !ok || !bytes.Equal(got, want) || rec.Body.Len() != 0 {
			t.Fatalf("%d bytes declared %d: ok = %v, body %q, response %q; want %q", len(data), declared, ok, got, rec.Body, want)
		}
	})
}

// TestBodySizesRoundTrip sends payloads around the pre-size cap through
// the real server: the buffer sized from Content-Length (and grown past
// maxBodyPresize as bytes arrive) must hand the handler every byte.
func TestBodySizesRoundTrip(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.createObject("b2")
	for _, size := range []int{2, 3, maxBodyPresize - 1, maxBodyPresize, maxBodyPresize + 1, 5*maxBodyPresize + 7} {
		payload := []byte(`"` + strings.Repeat("p", size-2) + `"`)
		status, body := f.do(http.MethodPost, "/api/objects/b2/invoke/set", "application/json", payload)
		if status != http.StatusOK || !bytes.Equal(body["output"], payload) {
			t.Fatalf("%d-byte payload: status = %d, echoed %d bytes", size, status, len(body["output"]))
		}
	}
	// No body at all is an empty payload, not an error.
	if status, body := f.do(http.MethodPost, "/api/objects/b2/invoke/shout", "", nil); status != http.StatusOK {
		t.Fatalf("empty payload: status = %d %v", status, body)
	}
}

// TestInvalidPayloadMapsTo400: the HTTP routes validate bodies before
// submitting, so the queue's own refusal of a non-JSON payload is only
// reachable through the Go API — but if it ever surfaces here it is the
// caller's error, not a 500.
func TestInvalidPayloadMapsTo400(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, fmt.Errorf("submit: %w", asyncq.ErrInvalidPayload))
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || body.Code != "invalid_payload" {
		t.Fatalf("status %d code %q, want 400 invalid_payload", rec.Code, body.Code)
	}
}

// batchBodies are invoke-batch bodies that the batch decoder must read as
// json.Unmarshal does: TestMalformedBodies's, and the near misses of the
// shape scanBatch takes.
var batchBodies = []string{
	`{broken`, `{"invocations":"not-a-list"}`, `{}`,
	`{"invocations":[{"object":"m1","member":"set","payload":{"a":tru}}]}`,
	`{"invocations":[{"object":"a\"b\u00e9\ud83d\ude00\ud800","member":"m\\n\/","payload":"x\u2028<&>"}]}`,
	"{\"invocations\":[{\"object\":\"\xff\xe2\x80\",\"member\":\"m\"}]}",
	`{ "invocations" : [ { "object" : "a" , "member" : "m" , "payload" : 1 } ] }`,
	`{"invocations":[{"object":"a","member":"m","payload": [ 1 , {"b" : null} ] }]}`,
	`{"invocations":[{"object":"a","member":"m"}]}`,
	`{"invocations":[{"object":"a","member":"m","payload":null}]}`,
	`{"invocations":[{"object":"a","member":"m","args":null}]}`,
	`{"invocations":[{"Object":"a","member":"m"}]}`,
	`{"invocations":[{"object":"a","object":"b","member":"m","args":{"k":"1","k":"2"}}]}`,
	`{"invocations":[{"object":"a","member":"m","x":1}],"y":2}`,
	`{"invocations":[{"object":"a","member":"m","payload":{"n":[1,"]}"]},"args":{"k":"v","":""}},{"object":"a","member":"m","args":{}}]}`,
	`{"invocations":[{"object":"a","member":"m","args":{"k":1}}]}`,
	`{"invocations":[{"object":"a","member":"m","payload":1,}]}`,
	`{"invocations":[]}`, `{"invocations":null}`, `{"invocations":[null]}`, `{"invocations":[]}x`, `{"invocations":[]} `,
}

// TestScanBatchTakesTheShapeClientsWrite: the bodies clients write — the
// calls' fields in order, lowercase, no whitespace between tokens — are
// read in one scan, not by json.Unmarshal, and read as it reads them.
func TestScanBatchTakesTheShapeClientsWrite(t *testing.T) {
	for _, body := range []string{
		`{"invocations":[]}`,
		`{"invocations":[{"object":"d1","member":"bump","payload":{"n":1}},{"object":"d2","member":"bump","payload":"p"},{"object":"d1","member":"bump","payload":2}]}`,
		`{"invocations":[{"object":"a","member":"m"},{"object":"a","member":"m","payload":null,"args":{}},{"object":"b","member":"m","args":{"k":"v","w":"x"}}]}`,
		`{"invocations":[{"object":"a\"b\u00e9","member":"m","payload": [ 1 , 2 ] }]}`,
	} {
		got, ok := scanBatch([]byte(body))
		if !ok {
			t.Fatalf("scanBatch refused %s", body)
		}
		var want batchRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil || !reflect.DeepEqual(got, want.Invocations) {
			t.Fatalf("scanBatch read %s as %+v, json.Unmarshal as %+v (%v)", body, got, want.Invocations, err)
		}
	}
	// A batch names a few objects many times: their strings are shared.
	got, _ := scanBatch([]byte(`{"invocations":[{"object":"d1","member":"bump"},{"object":"d1","member":"bump"}]}`))
	if unsafe.StringData(got[0].Object) != unsafe.StringData(got[1].Object) || unsafe.StringData(got[0].Member) != unsafe.StringData(got[1].Member) {
		t.Fatal("two calls on one object and member hold two copies of their names")
	}
}

// FuzzInvokeBatchBody holds the batch decoder to json.Unmarshal into
// batchRequest on any bytes: it accepts exactly the bodies json.Unmarshal
// accepts, with its error for the others, and reads the same calls —
// payload bytes, args, nil against empty included.
func FuzzInvokeBatchBody(f *testing.F) {
	for _, body := range batchBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want batchRequest
		werr := json.Unmarshal(body, &want)
		got, err := decodeBatch(body)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("decodeBatch(%q) error = %v, json.Unmarshal's %v", body, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want.Invocations) {
			t.Fatalf("decodeBatch(%q) = %#v, json.Unmarshal reads %#v", body, got, want.Invocations)
		}
	})
}
