package asyncq

import (
	"encoding/json"
	"slices"
	"time"
)

// recordOverhead bounds the bytes of a record document that are not
// field contents: punctuation, field names (each arg counts its own
// punctuation), and three RFC 3339 timestamps at their widest (35
// bytes each).
const recordOverhead = 240

// AppendRecord appends rec's stored document to dst, following the
// names, order and omitempty/omitzero rules of Record's json tags, so
// json.Unmarshal reads back the Record json.Marshal's output would
// give. Payload and Result are copied as they are (Submit and runBatch
// admit only valid JSON; the gateway, which serves the same document,
// compacts and HTML-escapes them first, and so writes json.Marshal's
// bytes); timestamps go through AppendFormat, which is
// Time.MarshalJSON minus the heap string; args are written in the key
// order encoding/json sorts a map into. It reports false, leaving dst
// alone, for a record it does not render trivially: a string (an arg's
// key or value included) that needs escaping, a timestamp encoding/json
// would reject. dst grows once, to the document's size.
func AppendRecord(dst []byte, rec *Record) ([]byte, bool) {
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
func plain[T string | []byte](s T) bool {
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

// decodeRecord reads a stored document back into rec — the mirror of
// encodeRecord: scanRecord for the documents AppendRecord writes,
// json.Unmarshal for every other (json.Marshal's fallback documents,
// anything a foreign writer left in the store). id is the invocation ID
// the document was stored under.
func decodeRecord(raw []byte, id string, rec *Record) error {
	if scanRecord(raw, id, rec) {
		return nil
	}
	// The reflective decoder makes its target escape; decoding into a
	// local keeps the caller's Record off the heap on the scanned path.
	var slow Record
	err := json.Unmarshal(raw, &slow)
	*rec = slow
	return err
}

// scanRecord reads raw into rec if it is, byte for byte, a document
// AppendRecord could have written for the invocation id: the fields in
// Record's order without whitespace between tokens, plain strings, an id
// equal to the caller's. It reports false — rec is then undefined — for
// anything else, so it accepts no document json.Unmarshal rejects and
// reads none differently. rec.ID is the caller's string, Status one of
// the package's constants, Object and Member share one allocation, and
// Payload and Result alias raw: the record table never writes into a
// value it holds, so a reader may keep them, and must not write into
// them either.
func scanRecord(raw []byte, id string, rec *Record) bool {
	*rec = Record{ID: id}
	s := recordScan{b: raw}
	if !s.lit(`{"id":"`) || string(s.str()) != id || !s.lit(`,"object":"`) {
		return false
	}
	objAt := s.i
	object := s.str()
	if !s.lit(`,"member":"`) {
		return false
	}
	member := s.str()
	if s.bad {
		return false
	}
	names := string(raw[objAt : s.i-1]) // object","member":"member
	rec.Object, rec.Member = names[:len(object)], names[len(names)-len(member):]
	if !s.lit(`,"status":"`) {
		return false
	}
	var known bool
	if rec.Status, known = knownStatus(s.str()); !known {
		return false
	}
	if s.lit(`,"payload":`) {
		rec.Payload = s.value()
	}
	if s.lit(`,"args":{"`) {
		rec.Args = make(map[string]string)
		for more := true; more; more = s.lit(`,"`) {
			k := s.str()
			if !s.lit(`:"`) {
				return false
			}
			rec.Args[string(k)] = string(s.str())
		}
		if !s.lit(`}`) {
			return false
		}
	}
	if s.lit(`,"result":`) {
		rec.Result = s.value()
	}
	if s.lit(`,"error":"`) {
		rec.Error = string(s.str())
	}
	if !s.lit(`,"enqueued":"`) {
		return false
	}
	s.time(&rec.Enqueued)
	if s.lit(`,"started":"`) {
		s.time(&rec.Started)
	}
	if s.lit(`,"finished":"`) {
		s.time(&rec.Finished)
	}
	return s.lit(`}`) && s.i == len(raw) && !s.bad
}

// knownStatus returns the package's status constant that b spells, so a
// scanned status costs no string.
func knownStatus(b []byte) (Status, bool) {
	for _, s := range [...]Status{StatusPending, StatusRunning, StatusCompleted, StatusFailed, StatusExpired} {
		if string(b) == string(s) {
			return s, true
		}
	}
	return "", false
}

// recordScan is scanRecord's cursor over a document. A token that is
// not what AppendRecord writes sets bad and the scan goes on over
// whatever follows; scanRecord reads bad once, at the end.
type recordScan struct {
	b   []byte
	i   int
	bad bool
}

// lit consumes s if the document continues with it.
func (s *recordScan) lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// str consumes a string body and its closing quote, the opening one
// already consumed, and returns the body. Only a plain body is taken:
// one that is its own decoding.
func (s *recordScan) str() []byte {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		s.i++
	}
	body := s.b[start:s.i]
	if s.i == len(s.b) || !plain(body) {
		s.bad = true
		return nil
	}
	s.i++
	return body
}

// time consumes a timestamp string, the opening quote already consumed,
// through Time.UnmarshalJSON — what json.Unmarshal calls with the same
// bytes.
func (s *recordScan) time(t *time.Time) {
	start := s.i - 1
	if s.str(); s.bad || t.UnmarshalJSON(s.b[start:s.i]) != nil {
		s.bad = true
	}
}

// value consumes one JSON value of any kind and returns it without the
// whitespace around it, as json.Unmarshal hands a RawMessage its bytes.
// It finds the end by nesting depth alone — the comma or closing brace
// outside every string and bracket — and has json.Valid vouch for what
// lies before it.
func (s *recordScan) value() json.RawMessage {
	for s.i < len(s.b) && jsonSpace(s.b[s.i]) {
		s.i++
	}
	start, depth, inString := s.i, 0, false
scan:
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case inString:
			if c == '\\' {
				s.i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == '{', c == '[':
			depth++
		case c == '}', c == ']':
			if depth == 0 {
				break scan
			}
			depth--
		case c == ',' && depth == 0:
			break scan
		}
	}
	end := min(s.i, len(s.b))
	for end > start && jsonSpace(s.b[end-1]) {
		end--
	}
	v := s.b[start:end:end]
	if !json.Valid(v) {
		s.bad = true
	}
	return v
}

func jsonSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
