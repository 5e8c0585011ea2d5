package asyncq

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"github.com/hpcclab/oparaca-go/internal/israce"
	"github.com/hpcclab/oparaca-go/internal/jsonw"
)

// decodeBoth runs rec through AppendRecord and json.Marshal and reads
// each document back the way Get does. AppendRecord's document must be
// json.Marshal's byte for byte once Payload and Result are rendered as
// encoding/json renders a RawMessage (what the gateway hands it), and
// scanRecord must read it without the fallback.
func decodeBoth(t testing.TB, rec Record) (viaAppend, viaMarshal Record, doc []byte) {
	t.Helper()
	doc, err := AppendRecord(nil, &rec)
	want, merr := json.Marshal(rec)
	if merr != nil {
		if err == nil {
			t.Fatalf("AppendRecord rendered a record json.Marshal rejects (%v): %s", merr, doc)
		}
		if err.Error() != merr.Error() {
			t.Fatalf("AppendRecord error = %v, json.Marshal error = %v", err, merr)
		}
		t.Skipf("json.Marshal rejects the record: %v", merr)
	}
	if err != nil {
		t.Fatalf("AppendRecord refused a record json.Marshal renders: %v", err)
	}
	if err := json.Unmarshal(want, &viaMarshal); err != nil {
		t.Fatalf("json.Marshal output does not decode: %v", err)
	}
	wire := rec
	if len(rec.Payload) > 0 {
		wire.Payload, _ = jsonw.AppendRaw(nil, rec.Payload)
	}
	if len(rec.Result) > 0 {
		wire.Result, _ = jsonw.AppendRaw(nil, rec.Result)
	}
	if served, _ := AppendRecord(nil, &wire); !bytes.Equal(served, want) {
		t.Fatalf("AppendRecord differs from json.Marshal\n got: %s\nwant: %s", served, want)
	}
	if !json.Valid(doc) {
		t.Fatalf("AppendRecord wrote invalid JSON: %s", doc)
	}
	if err := json.Unmarshal(doc, &viaAppend); err != nil {
		t.Fatalf("AppendRecord output does not decode: %v\n%s", err, doc)
	}
	// The codec's two halves meet: what AppendRecord writes for a status
	// the package knows, scanRecord reads, without the fallback — unless
	// the ID is not UTF-8, which reads back as another ID.
	var scanned Record
	if _, known := knownStatus([]byte(rec.Status)); known && utf8.ValidString(rec.ID) && !scanRecord(doc, rec.ID, &scanned) {
		t.Fatalf("scanRecord refuses a document AppendRecord wrote: %s", doc)
	}
	checkDecode(t, doc, rec.ID)
	for _, mutant := range mutants(doc, rec.ID) {
		checkDecode(t, mutant, rec.ID)
	}
	checkDecode(t, doc, rec.ID+"x")
	return viaAppend, viaMarshal, doc
}

// checkDecode holds decodeRecord to json.Unmarshal on one document
// stored under id: the same error or none, the same record — and
// scanRecord to accepting nothing json.Unmarshal rejects or reads
// differently, raw fields byte for byte. An id that is not the
// document's must send the document to the fallback.
func checkDecode(t testing.TB, doc []byte, id string) {
	t.Helper()
	var want, scanned, got Record
	wantErr := json.Unmarshal(doc, &want)
	if scanRecord(doc, id, &scanned) {
		if wantErr != nil {
			t.Fatalf("scanRecord accepts a document json.Unmarshal rejects (%v): %s", wantErr, doc)
		}
		if scanned.ID != id || want.ID != id {
			t.Fatalf("scanRecord read id %q from a document of %q stored under %q", scanned.ID, want.ID, id)
		}
		assertSameRecord(t, scanned, want)
		if !bytes.Equal(scanned.Payload, want.Payload) || !bytes.Equal(scanned.Result, want.Result) {
			t.Fatalf("scanRecord raw fields differ from json.Unmarshal's:\n got %q %q\nwant %q %q", scanned.Payload, scanned.Result, want.Payload, want.Result)
		}
	}
	err := decodeRecord(doc, id, &got)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decodeRecord error = %v, json.Unmarshal error = %v: %s", err, wantErr, doc)
	}
	if err == nil {
		assertSameRecord(t, got, want)
	}
}

// mutants derives from one AppendRecord document the near misses a
// scanner could be fooled by: truncations, trailing bytes, a duplicated
// and a reordered field, strings and keys spelled with escapes, another
// case or whitespace — some still valid JSON that reads differently,
// some not JSON at all.
func mutants(doc []byte, id string) [][]byte {
	d := string(doc)
	out := []string{
		d[:len(d)/2], d[:len(d)-1], d[:len(d)-2] + "}", d + " ", d + "\n", d + "x", d + d, d + ",", " " + d,
		strings.Replace(d, `,"enqueued":`, `,"enqueued":"2020-01-02T03:04:05Z","enqueued":`, 1),
		strings.Replace(d, `,"status":`, `,"status":"failed","status":`, 1),
		strings.Replace(d, `,"member":"`, `,"member":"\u006d`, 1),
		strings.Replace(d, `,"object":"`, `,"object":"\/`, 1),
		strings.Replace(d, `"enqueued":"2`, `"enqueued":"\u0032`, 1),
		strings.Replace(d, `"status":"`, `"status":"\u0070`, 1),
		strings.Replace(d, `{"id":`, `{"ID":`, 1),
		strings.Replace(d, `{"id":`, `{ "id" :`, 1),
		strings.Replace(d, `,"enqueued":`, `,"result":1 2,"enqueued":`, 1),
		strings.Replace(d, `,"enqueued":`, `,"result":{"a":"}"},"enqueued":`, 1),
		strings.Replace(d, `,"enqueued":`, `,"error":"x","error":"y","enqueued":`, 1),
		strings.Replace(d, `,"enqueued":`, `,"args":{},"enqueued":`, 1),
		strings.Replace(d, `,"enqueued":`, `,"args":{"k":"v","k":"w"},"args":null,"enqueued":`, 1),
		strings.Replace(d, `,"enqueued":`, `,"extra":true,"enqueued":`, 1),
		strings.Replace(d, `,"enqueued":"`, `,"enqueued":"x`, 1),
		strings.Replace(d, `"}`, `","finished":null}`, 1),
	}
	if rest, ok := strings.CutPrefix(d, `{"id":"`+id+`",`); ok {
		out = append(out, `{`+strings.TrimSuffix(rest, `}`)+`,"id":"`+id+`"}`) // id moved last
	}
	docs := make([][]byte, len(out))
	for i := range out {
		docs[i] = []byte(out[i])
	}
	return docs
}

// assertSameRecord compares two decoded records field for field. The raw
// JSON fields are compared as the gateway serves them — re-marshalled,
// which compacts and HTML-escapes — since AppendRecord stores payload
// and result bytes as submitted.
func assertSameRecord(t testing.TB, got, want Record) {
	t.Helper()
	if got.ID != want.ID || got.Object != want.Object || got.Member != want.Member ||
		got.Status != want.Status || got.Error != want.Error {
		t.Fatalf("string fields differ:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Args) != len(want.Args) {
		t.Fatalf("args differ: got %v want %v", got.Args, want.Args)
	}
	for k, v := range want.Args {
		if got.Args[k] != v {
			t.Fatalf("args[%q] = %q, want %q", k, got.Args[k], v)
		}
	}
	for _, ts := range [][2]time.Time{{got.Enqueued, want.Enqueued}, {got.Started, want.Started}, {got.Finished, want.Finished}} {
		if !ts[0].Equal(ts[1]) || ts[0].Format(time.RFC3339Nano) != ts[1].Format(time.RFC3339Nano) {
			t.Fatalf("timestamp differs: got %v want %v", ts[0], ts[1])
		}
	}
	for _, raw := range [][2]json.RawMessage{{got.Payload, want.Payload}, {got.Result, want.Result}} {
		if (raw[0] == nil) != (raw[1] == nil) {
			t.Fatalf("raw field presence differs: got %q want %q", raw[0], raw[1])
		}
		g, _ := json.Marshal(raw[0])
		w, _ := json.Marshal(raw[1])
		if string(g) != string(w) {
			t.Fatalf("raw field differs: got %s want %s", g, w)
		}
	}
}

// TestAppendRecordGolden holds AppendRecord to the document shape
// encoding/json reads back into the same Record, across every status and
// the field values that make the encoders diverge.
func TestAppendRecordGolden(t *testing.T) {
	base := time.Date(2026, 9, 28, 10, 30, 0, 0, time.UTC)
	offset := time.FixedZone("", 5*3600+30*60)
	cases := []struct {
		name   string
		rec    Record
		stored bool // doc is its exact document; every row's is json.Marshal's (decodeBoth)
		doc    string
	}{
		{name: "plain pending", stored: true,
			rec: Record{ID: "inv-01", Object: "obj-1", Member: "bump", Status: StatusPending, Payload: json.RawMessage(`{"n":1}`), Enqueued: base},
			doc: `{"id":"inv-01","object":"obj-1","member":"bump","status":"pending","payload":{"n":1},"enqueued":"2026-09-28T10:30:00Z"}`},
		{name: "running", stored: true,
			rec: Record{ID: "inv-02", Object: "o", Member: "m", Status: StatusRunning, Payload: json.RawMessage(`1`), Enqueued: base, Started: base.Add(time.Millisecond)},
			doc: `{"id":"inv-02","object":"o","member":"m","status":"running","payload":1,"enqueued":"2026-09-28T10:30:00Z","started":"2026-09-28T10:30:00.001Z"}`},
		{name: "completed", stored: true,
			rec: Record{ID: "inv-03", Object: "o", Member: "m", Status: StatusCompleted, Result: json.RawMessage(`"ok"`), Enqueued: base, Started: base.Add(time.Second), Finished: base.Add(2 * time.Second)},
			doc: `{"id":"inv-03","object":"o","member":"m","status":"completed","result":"ok","enqueued":"2026-09-28T10:30:00Z","started":"2026-09-28T10:30:01Z","finished":"2026-09-28T10:30:02Z"}`},
		{name: "failed", stored: true,
			rec: Record{ID: "inv-04", Object: "o", Member: "m", Status: StatusFailed, Error: "boom: no such key", Enqueued: base, Started: base, Finished: base},
			doc: `{"id":"inv-04","object":"o","member":"m","status":"failed","error":"boom: no such key","enqueued":"2026-09-28T10:30:00Z","started":"2026-09-28T10:30:00Z","finished":"2026-09-28T10:30:00Z"}`},
		{name: "expired", stored: true,
			rec: Record{ID: "inv-05", Object: "o", Member: "m", Status: StatusExpired, Error: "context deadline exceeded", Enqueued: base, Started: base, Finished: base},
			doc: `{"id":"inv-05","object":"o","member":"m","status":"expired","error":"context deadline exceeded","enqueued":"2026-09-28T10:30:00Z","started":"2026-09-28T10:30:00Z","finished":"2026-09-28T10:30:00Z"}`},
		{name: "zero started and finished omitted, zero enqueued kept", stored: true,
			rec: Record{ID: "inv-06", Object: "o", Member: "m", Status: StatusPending},
			doc: `{"id":"inv-06","object":"o","member":"m","status":"pending","enqueued":"0001-01-01T00:00:00Z"}`},
		{name: "sub-second and zone offset", stored: true,
			rec: Record{ID: "inv-07", Object: "o", Member: "m", Status: StatusCompleted, Enqueued: base.Add(123456789).In(offset), Started: base.Add(1500 * time.Microsecond).In(offset), Finished: base.Add(time.Minute).In(offset)},
			doc: `{"id":"inv-07","object":"o","member":"m","status":"completed","enqueued":"2026-09-28T16:00:00.123456789+05:30","started":"2026-09-28T16:00:00.0015+05:30","finished":"2026-09-28T16:01:00+05:30"}`},
		{name: "payload whitespace kept as submitted", stored: true,
			rec: Record{ID: "inv-08", Object: "o", Member: "m", Status: StatusPending, Payload: json.RawMessage(" { \"a\" : [ 1 , 2 ] ,\n\t\"b\" : \"<x>\" } "), Enqueued: base},
			doc: "{\"id\":\"inv-08\",\"object\":\"o\",\"member\":\"m\",\"status\":\"pending\",\"payload\": { \"a\" : [ 1 , 2 ] ,\n\t\"b\" : \"<x>\" } ,\"enqueued\":\"2026-09-28T10:30:00Z\"}"},
		{name: "null result kept, empty result omitted", stored: true,
			rec: Record{ID: "inv-09", Object: "o", Member: "m", Status: StatusCompleted, Result: json.RawMessage(`null`), Payload: json.RawMessage{}, Enqueued: base},
			doc: `{"id":"inv-09","object":"o","member":"m","status":"completed","result":null,"enqueued":"2026-09-28T10:30:00Z"}`},
		{name: "args set", stored: true, // in encoding/json's key order, between payload and result
			rec: Record{ID: "inv-10", Object: "o", Member: "m", Status: StatusPending, Payload: json.RawMessage(`1`), Result: json.RawMessage(`2`), Args: map[string]string{"triggerDepth": "2", "trigger": "stateChanged", "w": "120", "W": "", "": "empty key", "a b": "c/d"}, Enqueued: base},
			doc: `{"id":"inv-10","object":"o","member":"m","status":"pending","payload":1,"args":{"":"empty key","W":"","a b":"c/d","trigger":"stateChanged","triggerDepth":"2","w":"120"},"result":2,"enqueued":"2026-09-28T10:30:00Z"}`},
		{name: "args set, a value with a quote", rec: Record{ID: "inv-16", Object: "o", Member: "m", Status: StatusPending, Args: map[string]string{"w": "120", "q": `"`}, Enqueued: base}},
		{name: "args set, a key non-ASCII", rec: Record{ID: "inv-17", Object: "o", Member: "m", Status: StatusPending, Args: map[string]string{"clé": "v"}, Enqueued: base}},
		{name: "object id with quote", rec: Record{ID: "inv-11", Object: `ob"j`, Member: "m", Status: StatusPending, Enqueued: base}},
		{name: "object id with backslash", rec: Record{ID: "inv-12", Object: `ob\j`, Member: "m", Status: StatusPending, Enqueued: base}},
		{name: "object id with angle bracket", rec: Record{ID: "inv-13", Object: `<obj>&`, Member: "m", Status: StatusPending, Enqueued: base}},
		{name: "object id non-ASCII", rec: Record{ID: "inv-14", Object: "objet-é ", Member: "m", Status: StatusPending, Enqueued: base}},
		{name: "error with control bytes", rec: Record{ID: "inv-15", Object: "o", Member: "m", Status: StatusFailed, Error: "line1\nline2\x00\xff", Enqueued: base}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want, doc := decodeBoth(t, tc.rec)
			if tc.stored && string(doc) != tc.doc {
				t.Fatalf("document drifted\n got: %s\nwant: %s", doc, tc.doc)
			}
			assertSameRecord(t, got, want)
			// Whatever path encodeRecord takes, it stores a document that
			// decodes to the record it reports.
			rec, raw := new(recordWriter).encodeRecord(tc.rec)
			var back Record
			if err := decodeRecord(raw, tc.rec.ID, &back); err != nil {
				t.Fatalf("stored document does not decode: %v", err)
			}
			assertSameRecord(t, back, want)
			if rec.Status != tc.rec.Status {
				t.Fatalf("encodeRecord degraded an encodable record to %s", rec.Status)
			}
		})
	}
}

// TestEncodeRecordNeverStoresAnEmptyDocument feeds encodeRecord what
// encoding/json rejects of a record whose raw fields were checked on
// their way in — a timestamp RFC 3339 cannot express, whether or not a
// string needs escaping — and expects a decodable terminal failure each
// time, without payload, args or result, never zero bytes.
func TestEncodeRecordNeverStoresAnEmptyDocument(t *testing.T) {
	base := time.Date(2026, 9, 28, 10, 30, 0, 0, time.UTC)
	for name, rec := range map[string]Record{
		"year 10000":           {ID: "inv-3", Object: "o", Member: "m", Status: StatusCompleted, Result: json.RawMessage(`1`), Enqueued: base, Finished: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		"year -5, pending":     {ID: "inv-4", Object: `o"`, Member: "m", Status: StatusPending, Payload: json.RawMessage(`{"a":1}`), Args: map[string]string{"k": "v", "q": `"`}, Enqueued: time.Date(-5, 1, 1, 0, 0, 0, 0, time.UTC)},
		"a zone offset of 24h": {ID: "inv-5", Object: "o", Member: "m", Status: StatusPending, Payload: json.RawMessage(`2`), Enqueued: base.In(time.FixedZone("", 24*3600))},
	} {
		got, raw := new(recordWriter).encodeRecord(rec)
		var back Record
		if len(raw) == 0 || json.Unmarshal(raw, &back) != nil {
			t.Fatalf("%s: stored document %q is empty or undecodable", name, raw)
		}
		if got.Status != StatusFailed || back.Status != StatusFailed || back.ID != rec.ID || got.Payload != nil ||
			!strings.Contains(back.Error, "unencodable") || back.Payload != nil || back.Args != nil || back.Result != nil {
			t.Fatalf("%s: degraded record = %+v (stored %s)", name, got, raw)
		}
	}
}

// TestFailedRecordCostsWhatACompletedOneDoes: a handler failure's
// error names its image in quotes, so every failed record has a string
// that needs escaping. It must cost what a completed record costs to
// encode (the document) and to decode (object, member and error in one
// string), not send both halves to encoding/json's reflective paths.
func TestFailedRecordCostsWhatACompletedOneDoes(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	base := time.Date(2026, 9, 28, 10, 30, 0, 123456789, time.UTC)
	completed := Record{ID: "inv-0a1b2c", Object: "obj-1", Member: "bump", Status: StatusCompleted,
		Result: json.RawMessage(`{"n":1}`), Enqueued: base, Started: base, Finished: base}
	failed := completed
	failed.Status, failed.Result = StatusFailed, nil
	failed.Error = `runtime: invoking Counter.bump: faas: function failed: image "img/counter-incr": no such key`
	w := new(recordWriter)
	cost := func(rec Record) (encode, decode float64) {
		_, doc := w.encodeRecord(rec)
		var back Record
		if err := decodeRecord(doc, rec.ID, &back); err != nil || back.Error != rec.Error || back.Object != rec.Object {
			t.Fatalf("%s record reads back as %+v, %v", rec.Status, back, err)
		}
		encode = testing.AllocsPerRun(100, func() { _, doc = w.encodeRecord(rec) })
		decode = testing.AllocsPerRun(100, func() { _ = decodeRecord(doc, rec.ID, &back) })
		return encode, decode
	}
	wantEnc, wantDec := cost(completed)
	gotEnc, gotDec := cost(failed)
	t.Logf("completed: %v to encode, %v to decode; failed: %v, %v", wantEnc, wantDec, gotEnc, gotDec)
	if gotEnc != wantEnc || gotDec != wantDec {
		t.Fatalf("a failed record costs %v allocations to encode and %v to decode, a completed one %v and %v",
			gotEnc, gotDec, wantEnc, wantDec)
	}
}

// FuzzRecordDecoding holds decodeRecord to json.Unmarshal on arbitrary
// bytes: scanRecord takes only what reads the same both ways.
func FuzzRecordDecoding(f *testing.F) {
	base := time.Date(2026, 9, 28, 10, 30, 0, 0, time.UTC)
	for _, rec := range []Record{
		{ID: "inv-1", Object: "obj-1", Member: "bump", Status: StatusPending, Payload: json.RawMessage(` {"n": [1, "]"]} `), Args: map[string]string{"w": "120", "": "x"}, Enqueued: base},
		{ID: "inv-2", Object: "o", Member: "m", Status: StatusCompleted, Result: json.RawMessage(`"a\"b"`), Enqueued: base, Started: base, Finished: base.Add(time.Second)},
		{ID: "inv-3", Object: "o", Member: "m", Status: StatusFailed, Error: "boom", Enqueued: base.In(time.FixedZone("", -3600))},
	} {
		doc, _ := AppendRecord(nil, &rec)
		f.Add(doc, rec.ID)
		marshalled, _ := json.Marshal(rec)
		f.Add(marshalled, rec.ID)
	}
	f.Fuzz(func(t *testing.T, doc []byte, id string) {
		checkDecode(t, doc, id)
	})
}

// FuzzRecordEncoding checks the two encoders against each other for
// arbitrary field values: whenever AppendRecord renders a record its
// output is valid JSON and decodes to what json.Marshal's would — by
// json.Unmarshal and by decodeRecord alike, as do the near misses
// derived from it (decodeBoth).
func FuzzRecordEncoding(f *testing.F) {
	f.Add("inv-0a1b", "obj-1", "bump", "completed", `{"n":1}`, `"ok"`, "", "", int64(1_790_000_000_123_456_789), int64(1500), int64(2500), 0)
	f.Add("inv-1", `o"b\j<`, "m", "failed", ``, ``, "boom\n", "w=1", int64(0), int64(0), int64(0), 19800)
	f.Add("", "é", "", "pending", ` [ 1 , 2 ] `, `null`, "x", "", int64(-6_000_000_000_000_000_000), int64(-1), int64(1), -43200)
	f.Add("inv-2", "obj-2", "audit", "pending", `{"n":2}`, ``, "", "triggerDepth=2&trigger=stateChanged", int64(1_790_000_000_000_000_000), int64(0), int64(0), 0)
	f.Add("inv-3", "o", "m", "pending", ``, ``, "", "w=120&=empty key&W=&a b=c/d&z=5&k", int64(1), int64(0), int64(0), 3600)
	f.Add("inv-4", "o", "m", "failed", ``, ``, "boom", "ok=1&q=\"&clé=<v>", int64(1), int64(2), int64(3), 0)
	f.Fuzz(func(t *testing.T, id, object, member, status, payload, result, errMsg, arg string, enqueued, startedAfter, finishedAfter int64, zoneSeconds int) {
		if (payload != "" && !json.Valid([]byte(payload))) || (result != "" && !json.Valid([]byte(result))) {
			t.Skip() // Submit and runBatch admit only JSON
		}
		zone := time.FixedZone("", zoneSeconds%(30*3600))
		at := func(ns int64) time.Time {
			if ns == 0 {
				return time.Time{}
			}
			return time.Unix(0, enqueued).Add(time.Duration(ns)).In(zone)
		}
		rec := Record{
			ID: id, Object: object, Member: member, Status: Status(status), Error: errMsg,
			Payload: json.RawMessage(payload), Result: json.RawMessage(result),
			Enqueued: time.Unix(0, enqueued).In(zone), Started: at(startedAfter), Finished: at(finishedAfter),
		}
		// arg is a query string of args, so the fuzzer reaches several
		// keys (and their order); a pair without '=' is the value of "k".
		if arg != "" {
			rec.Args = map[string]string{}
			for _, pair := range strings.Split(arg, "&") {
				if k, v, ok := strings.Cut(pair, "="); ok {
					rec.Args[k] = v
				} else {
					rec.Args["k"] = pair
				}
			}
		}
		got, want, _ := decodeBoth(t, rec)
		assertSameRecord(t, got, want)
	})
}
