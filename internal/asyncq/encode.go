package asyncq

import (
	"slices"
	"time"
)

// recordOverhead bounds the bytes of a record document that are not
// field contents: punctuation, field names (each arg counts its own
// punctuation), and three RFC 3339 timestamps at their widest (35
// bytes each).
const recordOverhead = 240

// appendRecord appends rec's stored document to dst, following the
// names, order and omitempty/omitzero rules of Record's json tags, so
// json.Unmarshal reads back the Record json.Marshal's output would
// give. Payload and Result are copied as they are (Submit and runBatch
// admit only valid JSON); timestamps go through AppendFormat, which is
// Time.MarshalJSON minus the heap string; args are written in the key
// order encoding/json sorts a map into. It reports false, leaving dst
// alone, for a record it does not render trivially: a string (an arg's
// key or value included) that needs escaping, a timestamp encoding/json
// would reject. dst grows once, to the document's size.
func appendRecord(dst []byte, rec *Record) ([]byte, bool) {
	if !plain(rec.ID) || !plain(rec.Object) || !plain(rec.Member) ||
		!plain(string(rec.Status)) || !plain(rec.Error) ||
		!jsonTime(rec.Enqueued) || !jsonTime(rec.Started) || !jsonTime(rec.Finished) {
		return dst, false
	}
	// A trigger-chained submission carries two args; the array keeps
	// their sorted keys off the heap.
	var keyBuf [4]string
	keys, argBytes := keyBuf[:0], 0
	for k, v := range rec.Args {
		if !plain(k) || !plain(v) {
			return dst, false
		}
		keys = append(keys, k)
		argBytes += len(k) + len(v) + len(`"":"",`)
	}
	slices.Sort(keys)
	dst = slices.Grow(dst, recordOverhead+len(rec.ID)+len(rec.Object)+len(rec.Member)+
		len(rec.Status)+len(rec.Payload)+argBytes+len(rec.Result)+len(rec.Error))
	dst = append(dst, `{"id":"`...)
	dst = append(dst, rec.ID...)
	dst = append(dst, `","object":"`...)
	dst = append(dst, rec.Object...)
	dst = append(dst, `","member":"`...)
	dst = append(dst, rec.Member...)
	dst = append(dst, `","status":"`...)
	dst = append(dst, rec.Status...)
	dst = append(dst, '"')
	if len(rec.Payload) > 0 {
		dst = append(dst, `,"payload":`...)
		dst = append(dst, rec.Payload...)
	}
	sep := `,"args":{"`
	for _, k := range keys {
		dst = append(dst, sep...)
		dst = append(dst, k...)
		dst = append(dst, `":"`...)
		dst = append(dst, rec.Args[k]...)
		dst = append(dst, '"')
		sep = `,"`
	}
	if len(keys) > 0 {
		dst = append(dst, '}')
	}
	if len(rec.Result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, rec.Result...)
	}
	if rec.Error != "" {
		dst = append(dst, `,"error":"`...)
		dst = append(dst, rec.Error...)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"enqueued":"`...)
	dst = rec.Enqueued.AppendFormat(dst, time.RFC3339Nano)
	if !rec.Started.IsZero() {
		dst = append(dst, `","started":"`...)
		dst = rec.Started.AppendFormat(dst, time.RFC3339Nano)
	}
	if !rec.Finished.IsZero() {
		dst = append(dst, `","finished":"`...)
		dst = rec.Finished.AppendFormat(dst, time.RFC3339Nano)
	}
	return append(dst, `"}`...), true
}

// plain reports whether s is its own JSON string body: printable ASCII
// with nothing encoding/json escapes (quote, backslash, <, >, &).
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// jsonTime reports whether Time.MarshalJSON accepts t: a year within
// 0–9999 and a zone offset under a day.
func jsonTime(t time.Time) bool {
	y := t.Year()
	_, offset := t.Zone()
	return 0 <= y && y <= 9999 && -24*3600 < offset && offset < 24*3600
}
