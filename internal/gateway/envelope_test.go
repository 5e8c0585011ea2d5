package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// referenceEnvelope is the envelope as the invoke and state routes
// wrote it before writeRawEnvelope: encoding/json over a one-key map,
// with empty output sent as null.
func referenceEnvelope(w http.ResponseWriter, key string, raw json.RawMessage) {
	if len(raw) == 0 {
		raw = json.RawMessage("null")
	}
	writeJSON(w, http.StatusOK, map[string]json.RawMessage{key: raw})
}

// envelopes runs raw through both writers.
func envelopes(key string, raw []byte) (got, ref *fakeWriter) {
	got = &fakeWriter{header: make(http.Header)}
	ref = &fakeWriter{header: make(http.Header)}
	writeRawEnvelope(got, key, raw)
	referenceEnvelope(ref, key, raw)
	return got, ref
}

func diffEnvelopes(t *testing.T, got, ref *fakeWriter) {
	t.Helper()
	if got.status != ref.status || !bytes.Equal(got.body.Bytes(), ref.body.Bytes()) {
		t.Errorf("writeRawEnvelope = %d %q, encoding/json = %d %q", got.status, got.body.Bytes(), ref.status, ref.body.Bytes())
	}
	if ct := got.header.Get("Content-Type"); ct != ref.header.Get("Content-Type") {
		t.Errorf("content type = %q, encoding/json path sets %q", ct, ref.header.Get("Content-Type"))
	}
}

func TestRawEnvelopeMatchesEncodingJSON(t *testing.T) {
	big := `"` + strings.Repeat("x", 100<<10) + `"`
	for _, tc := range []struct {
		name, key string
		raw       []byte
		status    int
		want      string // "" = only compared against encoding/json
	}{
		{"compact", "output", []byte(`{"a":1}`), 200, `{"output":{"a":1}}` + "\n"},
		{"state-key", "value", []byte(`7`), 200, `{"value":7}` + "\n"},
		{"whitespace", "output", []byte(" {\n\t\"a\" : [ 1 , 2 ] ,\r\n \"b\":\" kept \" } "), 200, `{"output":{"a":[1,2],"b":" kept "}}` + "\n"},
		{"html", "output", []byte(`"<script>&</script>"`), 200, `{"output":"\u003cscript\u003e\u0026\u003c/script\u003e"}` + "\n"},
		{"html-and-whitespace", "output", []byte(`[ "<" , ">" ]`), 200, `{"output":["\u003c","\u003e"]}` + "\n"},
		{"line-separators", "output", []byte("\"a\u2028b\u2029c\""), 200, `{"output":"a\u2028b\u2029c"}` + "\n"},
		{"other-e2-runes", "output", []byte(`"€ … ✓"`), 200, `{"output":"€ … ✓"}` + "\n"},
		{"truncated-e2", "output", []byte("\"\xe2\x80\""), 200, ""},
		{"escapes-kept", "output", []byte(`"<\n\""`), 200, `{"output":"\u003c\n\""}` + "\n"},
		{"nested", "output", []byte(`{"a":{"b":[{"c":null},{"d":[true,false]}]}}`), 200, `{"output":{"a":{"b":[{"c":null},{"d":[true,false]}]}}}` + "\n"},
		{"nil", "output", nil, 200, `{"output":null}` + "\n"},
		{"empty", "value", []byte{}, 200, `{"value":null}` + "\n"},
		{"big", "output", []byte(big), 200, `{"output":` + big + "}\n"},
		{"invalid", "output", []byte(`{broken`), 500, ""},
		{"invalid-with-html", "output", []byte(`<html>`), 500, ""},
		{"trailing-garbage", "output", []byte(`1 2`), 500, ""},
		{"only-whitespace", "output", []byte(" \n"), 500, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ref := envelopes(tc.key, tc.raw)
			diffEnvelopes(t, got, ref)
			if got.status != tc.status {
				t.Errorf("status = %d, want %d", got.status, tc.status)
			}
			if tc.want != "" && got.body.String() != tc.want {
				t.Errorf("body = %q, want %q", got.body.String(), tc.want)
			}
			if tc.status == http.StatusInternalServerError && !strings.HasPrefix(got.body.String(), `{"error":"encoding response: `) {
				t.Errorf("500 body = %q, want the encoding-response error envelope", got.body.String())
			}
		})
	}
}

// TestRawEnvelopeDoesNotPoolBigBuffers: a buffer grown past
// maxPooledBuf by one large output must be dropped, not pinned in
// bufPool. A Get right after the write would hand back the buffer just
// Put on this goroutine's P.
func TestRawEnvelopeDoesNotPoolBigBuffers(t *testing.T) {
	w := &fakeWriter{header: make(http.Header)}
	for _, raw := range []string{
		`"` + strings.Repeat("x", 2*maxPooledBuf) + `"`,
		`"` + strings.Repeat("<", 2*maxPooledBuf) + `"`, // escaped through a second buffer
	} {
		w.reset()
		writeRawEnvelope(w, "output", []byte(raw))
		if w.status != http.StatusOK {
			t.Fatalf("status = %d", w.status)
		}
		for range 2 {
			buf := bufPool.Get().(*bytes.Buffer)
			if buf.Cap() > maxPooledBuf {
				t.Fatalf("bufPool holds a %d-byte buffer, cap is %d", buf.Cap(), maxPooledBuf)
			}
		}
	}
}

// FuzzRawEnvelope holds writeRawEnvelope to encoding/json's output —
// status and body — on arbitrary handler output.
func FuzzRawEnvelope(f *testing.F) {
	for _, seed := range []string{
		``, `null`, `{"a":1}`, ` [ 1 , "two" , { "3" : 4.5e6 } ] `, `"<script>&"`,
		"\"\u2028\u2029\"", "\"\xe2\x80\"", `"\ud800"`, `{broken`, `1 2`, `<`, "\xe2\x80\xa8",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, ref := envelopes("output", raw)
		diffEnvelopes(t, got, ref)
	})
}
