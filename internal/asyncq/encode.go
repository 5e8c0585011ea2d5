package asyncq

import (
	"encoding/json"
	"slices"

	"github.com/hpcclab/oparaca-go/internal/jsonw"
)

// recordOverhead bounds the bytes of a record document that are not
// field contents: punctuation, field names (each arg counts its own
// punctuation), and three RFC 3339 timestamps at their widest (35
// bytes each).
const recordOverhead = 240

// AppendRecord appends rec's stored document to dst through jsonw, in
// the names, order and omitempty/omitzero rules of Record's json tags:
// json.Marshal's document, except that Payload and Result are copied as
// they are (encodeRecord checks that they are JSON; the gateway, which
// serves the same document, hands in their jsonw.AppendRaw renderings,
// and so writes json.Marshal's bytes). It fails, leaving dst alone, only
// for a timestamp encoding/json refuses, with encoding/json's error. dst
// grows once, to the document's size.
func AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	size := recordOverhead + len(rec.ID) + len(rec.Object) + len(rec.Member) +
		len(rec.Status) + len(rec.Payload) + len(rec.Result) + len(rec.Error)
	for k, v := range rec.Args {
		size += len(k) + len(v) + len(`"":"",`)
	}
	doc := append(slices.Grow(dst, size), '{')
	doc = jsonw.AppendString(jsonw.AppendKey(doc, "id"), rec.ID)
	doc = jsonw.AppendString(jsonw.AppendKey(doc, "object"), rec.Object)
	doc = jsonw.AppendString(jsonw.AppendKey(doc, "member"), rec.Member)
	doc = jsonw.AppendString(jsonw.AppendKey(doc, "status"), string(rec.Status))
	if len(rec.Payload) > 0 {
		doc = append(jsonw.AppendKey(doc, "payload"), rec.Payload...)
	}
	if len(rec.Args) > 0 {
		doc = jsonw.AppendStringMap(jsonw.AppendKey(doc, "args"), rec.Args)
	}
	if len(rec.Result) > 0 {
		doc = append(jsonw.AppendKey(doc, "result"), rec.Result...)
	}
	if rec.Error != "" {
		doc = jsonw.AppendString(jsonw.AppendKey(doc, "error"), rec.Error)
	}
	doc, err := jsonw.AppendTime(jsonw.AppendKey(doc, "enqueued"), rec.Enqueued)
	if !rec.Started.IsZero() && err == nil {
		doc, err = jsonw.AppendTime(jsonw.AppendKey(doc, "started"), rec.Started)
	}
	if !rec.Finished.IsZero() && err == nil {
		doc, err = jsonw.AppendTime(jsonw.AppendKey(doc, "finished"), rec.Finished)
	}
	if err != nil {
		return dst, err
	}
	return append(doc, '}'), nil
}

// decodeRecord reads a stored document back into rec — the mirror of
// encodeRecord: scanRecord for the documents AppendRecord writes,
// json.Unmarshal for any other a foreign writer left in the store. id is
// the invocation ID the document was stored under.
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

// recordStrings is the stack room scanRecord decodes a record's object,
// member and error into; longer ones cost one more allocation.
const recordStrings = 256

// scanRecord reads raw into rec if it is, byte for byte, a document
// AppendRecord could have written for the invocation id: the fields in
// Record's order without whitespace between tokens, an id equal to the
// caller's. It reports false — rec is then undefined — for anything
// else, so it accepts no document json.Unmarshal rejects and reads none
// differently. rec.ID is the caller's string, Status one of the
// package's constants, Object, Member and Error share one allocation,
// and Payload and Result alias raw: the record table never writes into
// a value it holds, so a reader may keep them, and must not write into
// them either.
func scanRecord(raw []byte, id string, rec *Record) bool {
	*rec = Record{ID: id}
	s := jsonw.NewScanner(raw)
	if !s.Lit(`{"id":`) || string(s.Str(nil)) != id || !s.Lit(`,"object":`) {
		return false
	}
	var room [recordStrings]byte
	strs := s.Str(room[:0])
	objectEnd := len(strs)
	if !s.Lit(`,"member":`) {
		return false
	}
	strs = s.Str(strs)
	memberEnd := len(strs)
	if !s.Lit(`,"status":`) {
		return false
	}
	var known bool
	if rec.Status, known = knownStatus(s.Str(nil)); !known {
		return false
	}
	if s.Lit(`,"payload":`) {
		rec.Payload = s.Value()
	}
	if s.Lit(`,"args":{`) {
		rec.Args = make(map[string]string)
		for more := true; more; more = s.Lit(`,`) {
			k := s.Str(nil)
			if !s.Lit(`:`) {
				return false
			}
			rec.Args[string(k)] = string(s.Str(nil))
		}
		if !s.Lit(`}`) {
			return false
		}
	}
	if s.Lit(`,"result":`) {
		rec.Result = s.Value()
	}
	if s.Lit(`,"error":`) {
		strs = s.Str(strs)
	}
	if !s.Lit(`,"enqueued":`) {
		return false
	}
	s.Time(&rec.Enqueued)
	if s.Lit(`,"started":`) {
		s.Time(&rec.Started)
	}
	if s.Lit(`,"finished":`) {
		s.Time(&rec.Finished)
	}
	if !s.Lit(`}`) || !s.Done() {
		return false
	}
	names := string(strs)
	rec.Object, rec.Member, rec.Error = names[:objectEnd], names[objectEnd:memberEnd], names[memberEnd:]
	return true
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
