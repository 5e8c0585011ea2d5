package jsonw

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzWriteAndScan holds the package to encoding/json as the reference:
// AppendString writes json.Marshal(string)'s bytes, AppendRaw writes
// json.Marshal(json.RawMessage)'s or fails with its error text, an
// object the writers make reads back through a Scanner as json.Unmarshal
// reads it,
// and a string token the Scanner accepts json.Unmarshal accepts and
// decodes to the same value, and the reverse.
func FuzzWriteAndScan(f *testing.F) {
	for _, seed := range []struct{ s, raw string }{
		{"plain", `{"a":1}`},
		{`image "img/fail": boom`, ` [ 1 , "two" , { "3" : 4.5e6 } ] `},
		{"<script>&</script>", `"<script>&"`},
		{"\u2028 \u2029 caf\u00e9 \U0001F600", "\"\u2028\u2029\""},
		{"\x00\x01\x1f\x7f\b\f\n\r\t\\/", `"\ud800"`},
		{"\xff\xfe bad \xe2\x80", "\"\xe2\x80\""},
		{"", `{broken`},
		{"A \U0001F600", "\"\U0001F600\\udc00\\ud800x\""},
		{"x", `1 2`},
		{"y", ` `},
		{"z", ``},
	} {
		f.Add(seed.s, []byte(seed.raw))
	}
	f.Fuzz(func(t *testing.T, s string, raw []byte) {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
		}

		wantRaw, wantErr := json.Marshal(json.RawMessage(raw))
		if raw == nil {
			wantRaw, wantErr = json.Marshal(json.RawMessage{}) // nil marshals as null
		}
		gotRaw, err := AppendRaw([]byte("prefix"), raw)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("AppendRaw(%q) error = %v, json.Marshal error = %v", raw, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("AppendRaw(%q) error = %q, json.Marshal error = %q", raw, err, wantErr)
		case err != nil && string(gotRaw) != "prefix":
			t.Fatalf("AppendRaw(%q) failed and wrote %q", raw, gotRaw)
		case err == nil && string(gotRaw) != "prefix"+string(wantRaw):
			t.Fatalf("AppendRaw(%q) = %s, json.Marshal = %s", raw, gotRaw[len("prefix"):], wantRaw)
		}

		// Write, then scan: the members in order, as a record is read.
		doc := AppendString(AppendKey([]byte("{"), "s"), s)
		if doc, err = AppendRaw(AppendKey(doc, "raw"), raw); err == nil {
			doc = append(AppendStringMap(AppendKey(doc, "m"), map[string]string{s: "v", "k": s}), '}')
			var ref struct {
				S   string            `json:"s"`
				Raw json.RawMessage   `json:"raw"`
				M   map[string]string `json:"m"`
			}
			if err := json.Unmarshal(doc, &ref); err != nil {
				t.Fatalf("wrote %s: %v", doc, err)
			}
			sc := NewScanner(doc)
			if !sc.Lit(`{"s":`) || string(sc.Str(nil)) != ref.S || !sc.Lit(`,"raw":`) ||
				!bytes.Equal(sc.Value(), ref.Raw) || !sc.Lit(`,"m":{`) {
				t.Fatalf("scanning %s does not read %+v", doc, ref)
			}
			for more := true; more; more = sc.Lit(",") {
				k := string(sc.Str([]byte{}))
				if !sc.Lit(":") || string(sc.Str(nil)) != ref.M[k] {
					t.Fatalf("scanning %s: member %q does not read %+v", doc, k, ref.M)
				}
			}
			if !sc.Lit("}}") || !sc.Done() {
				t.Fatalf("scanning %s does not end where it should", doc)
			}
		}

		// Any bytes as a string token: the Scanner takes what
		// json.Unmarshal takes, and reads the same value.
		var ref string
		refErr := json.Unmarshal(raw, &ref)
		trimmed := len(raw) > 0 && !isSpace(raw[0]) && !isSpace(raw[len(raw)-1])
		sc := NewScanner(raw)
		got := sc.Str([]byte("prefix"))
		switch done := sc.Done(); {
		case done && refErr != nil:
			t.Fatalf("Scanner reads %q as a string, json.Unmarshal: %v", raw, refErr)
		case done && string(got) != "prefix"+ref:
			t.Fatalf("Scanner reads %q as %q, json.Unmarshal as %q", raw, got[len("prefix"):], ref)
		case !done && refErr == nil && trimmed:
			t.Fatalf("Scanner refuses %q, json.Unmarshal reads %q", raw, ref)
		}
	})
}

// TestAppendTimeMatchesEncodingJSON: in range and out, what AppendTime
// writes or the error it fails with is encoding/json's.
func TestAppendTimeMatchesEncodingJSON(t *testing.T) {
	base := time.Date(2026, 9, 28, 10, 30, 0, 123456789, time.UTC)
	for _, ts := range []time.Time{
		{}, base, base.In(time.FixedZone("", 5*3600+30*60)), base.In(time.FixedZone("", -(23*3600 + 59*60))),
		base.In(time.FixedZone("", 24*3600)), base.In(time.FixedZone("", -24*3600)),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	} {
		want, wantErr := json.Marshal(ts)
		got, err := AppendTime(nil, ts)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || !bytes.Equal(got, want) {
			t.Errorf("AppendTime(%v) = %s, %v; json.Marshal = %s, %v", ts, got, err, want, wantErr)
		}
		var back time.Time
		if sc := NewScanner(got); err == nil {
			if sc.Time(&back); !sc.Done() || !back.Equal(ts) {
				t.Errorf("scanning %s reads %v, want %v", got, back, ts)
			}
		}
	}
}

// TestAppendRawCopiesWithoutAllocating: raw that is already compact and
// has nothing to escape — every envelope the sync routes write — costs
// nothing beyond the room it is written into.
func TestAppendRawCopiesWithoutAllocating(t *testing.T) {
	raw := []byte("{\"n\":1,\"s\":\"caf\u00e9 \\\"quoted\\\"\",\"a\":[true,null]}")
	dst := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(100, func() { _, _ = AppendRaw(dst, raw) }); n != 0 {
		t.Fatalf("AppendRaw allocates %v times, want 0", n)
	}
}

func TestIsNull(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"", true},
		{"null", true},
		{" null ", true},
		{"\t\nnull\r ", true},
		{"  ", true},
		{"0", false},
		{"false", false},
		{`"null"`, false},
		{"nul", false},
		{"nulll", false},
		{"[null]", false},
	}
	for _, c := range cases {
		if got := IsNull([]byte(c.in)); got != c.want {
			t.Errorf("IsNull(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
