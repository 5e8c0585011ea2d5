package asyncq

import (
	"context"
	"encoding/json"
	"slices"
	"sync"
	"time"

	"github.com/hpcclab/oparaca-go/internal/jsonw"
	"github.com/hpcclab/oparaca-go/internal/memtable"
)

// recordOverhead bounds the bytes of a record document that are not
// field contents: punctuation, field names (each arg counts its own
// punctuation), and three RFC 3339 timestamps at their widest (35
// bytes each).
const recordOverhead = 240

// AppendRecord appends rec's stored document to dst through jsonw, in
// the names, order and omitempty/omitzero rules of Record's json tags:
// json.Marshal's document, except that Payload and Result are copied as
// they are (the queue stores only payloads and results it has checked
// are JSON, see encodeRecord; the gateway, which serves the same
// document, hands in their jsonw.AppendRaw renderings, and so writes
// json.Marshal's bytes). It fails, leaving dst alone, only for a
// timestamp encoding/json refuses, with encoding/json's error. dst grows
// once, to the document's size.
func AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	doc, _, err := appendRecord(dst, rec)
	return doc, err
}

// appendRecord is AppendRecord, reporting also where in the document the
// payload's bytes begin.
func appendRecord(dst []byte, rec *Record) (doc []byte, payloadAt int, err error) {
	size := recordOverhead + len(rec.ID) + len(rec.Object) + len(rec.Member) +
		len(rec.Status) + len(rec.Payload) + len(rec.Result) + len(rec.Error)
	for k, v := range rec.Args {
		size += len(k) + len(v) + len(`"":"",`)
	}
	doc = append(slices.Grow(dst, size), '{')
	doc = jsonw.AppendString(jsonw.AppendKey(doc, "id"), rec.ID)
	doc = jsonw.AppendString(jsonw.AppendKey(doc, "object"), rec.Object)
	doc = jsonw.AppendString(jsonw.AppendKey(doc, "member"), rec.Member)
	doc = jsonw.AppendString(jsonw.AppendKey(doc, "status"), string(rec.Status))
	if len(rec.Payload) > 0 {
		doc = jsonw.AppendKey(doc, "payload")
		payloadAt = len(doc)
		doc = append(doc, rec.Payload...)
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
	doc, err = jsonw.AppendTime(jsonw.AppendKey(doc, "enqueued"), rec.Enqueued)
	if !rec.Started.IsZero() && err == nil {
		doc, err = jsonw.AppendTime(jsonw.AppendKey(doc, "started"), rec.Started)
	}
	if !rec.Finished.IsZero() && err == nil {
		doc, err = jsonw.AppendTime(jsonw.AppendKey(doc, "finished"), rec.Finished)
	}
	if err != nil {
		return dst, 0, err
	}
	return append(doc, '}'), payloadAt, nil
}

// recordWriter encodes the records of one table write — a submission's
// pending records, a pull's terminal ones — and hands them to the record
// table in one PutMany. It encodes each document into one scratch buffer
// it reuses and copies it out at its size: that copy is the one
// allocation a record costs, and what the table and the store keep. An
// encode buffer handed over instead would keep its spare capacity
// resident with the record.
type recordWriter struct {
	scratch []byte
	kvs     []memtable.KV
}

// maxPooledScratch caps the scratch a pooled writer keeps: a record with
// a huge payload must not pin its buffer for the life of the process.
const maxPooledScratch = 64 << 10

// writers are the recordWriters of submissions, which run on their
// submitters' goroutines; a worker keeps its own in its drain.
var writers = sync.Pool{New: func() any { return new(recordWriter) }}

// putWriter returns w to writers unless its scratch grew past
// maxPooledScratch.
func putWriter(w *recordWriter) {
	if cap(w.scratch) <= maxPooledScratch {
		writers.Put(w)
	}
}

// encodeRecord renders rec's stored document with AppendRecord and
// returns the record as stored, whose Payload aliases the document, and
// the document. Payload and Result are copied unchecked, so they must be
// JSON, and each is checked once on its way in: a payload when Submit or
// SubmitBatch admits it (newTask), a result when its handler returns
// (runBatch). A record no check saw — the terminal records of tasks
// RecoverStranded adopted, of tasks cancelled or expired while queued —
// carries neither. What is left for encoding/json to refuse is a
// timestamp RFC 3339 cannot express; such a record degrades to a terminal
// failure rather than leaving the invocation parked in a non-terminal
// state forever: the bad times are cleared and the record is written
// again, without payload, args or result, so the document is never
// empty.
func (w *recordWriter) encodeRecord(rec Record) (Record, json.RawMessage) {
	enc, at, err := appendRecord(w.scratch[:0], &rec)
	if err != nil {
		rec.Payload, rec.Args, rec.Result = nil, nil, nil
		rec.Status = StatusFailed
		rec.Error = "asyncq: unencodable record: " + err.Error()
		for _, ts := range []*time.Time{&rec.Enqueued, &rec.Started, &rec.Finished} {
			if _, bad := jsonw.AppendTime(nil, *ts); bad != nil {
				*ts = time.Time{}
			}
		}
		enc, _, _ = appendRecord(w.scratch[:0], &rec) // only strings and valid times are left
	}
	w.scratch = enc
	doc := append(json.RawMessage(nil), enc...)
	if n := len(rec.Payload); n > 0 {
		rec.Payload = doc[at : at+n : at+n]
	}
	return rec, doc
}

// add encodes rec, as encodeRecord does, for the table write under key,
// and returns the record as stored.
func (w *recordWriter) add(key string, rec Record) Record {
	rec, doc := w.encodeRecord(rec)
	w.kvs = append(w.kvs, memtable.KV{Key: key, Value: doc})
	return rec
}

// write hands the records added since the last write to the table, in
// one PutMany, which keeps their documents. Record writes outlive their
// submitters' contexts.
func (w *recordWriter) write(records *memtable.Table) {
	_ = records.PutMany(context.Background(), w.kvs)
	clear(w.kvs)
	w.kvs = w.kvs[:0]
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
