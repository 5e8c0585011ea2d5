package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// workloadSpecs lists the four workloads in reporting order, with the
// reason each exists (also BENCHMARK.json's "why").
var workloadSpecs = []struct{ name, why string }{
	{"sync_read", "readonly peek over 16384 warm objects: gateway+HTTP+core+memtable hit, no commit; the gateway's share is largest and a commit/flush/event change must not move it"},
	{"sync_write", "bump on the same objects with nobody subscribed: OCC commit, write-behind flush to kvstore; shows a read-path gain that costs the commit path"},
	{"async_batch_hot", "invoke-batch of 32 bumps over 4 of 8 hot objects plus long-polls: asyncq submit/drain, same-object coalescing, group commit, OCC contention; sync workloads bypass all of it"},
	{"event_chain", "bump on 1024 objects with a chained audit trigger and a webhook: eventlog append, trigger dispatch/delivery, webhook HTTP; latency is request send to delivery"},
}

const (
	batchSize       = 32 // invocations per async_batch_hot request
	batchObjects    = 4  // distinct hot objects per batch
	maxOutstanding  = 64 // undelivered writes one event_chain client may hold
	drainTimeout    = 10 * time.Second
	longPollWaitMs  = 5000
	outputPrefix    = `{"output":`
	statusCompleted = `"status":"completed"`
)

// workload is one traffic mix against its own platform. Operations are
// driven by clients through step; every reply is verified as it
// arrives and finish checks the end state.
type workload struct {
	name    string
	rig     *rig
	seed    uint64
	sz      sizes
	class   string
	prefix  byte
	objects int
	fn      string   // the invocation behind one operation: peek or bump
	paths   []string // POST path of fn, per object
	// n is the number of acknowledged bumps per object. Each object has
	// one writer at a time (its owning client, or the serial traced
	// pass), so entries are never shared between goroutines — except in
	// async_batch_hot, where completions are counted atomically.
	n    []atomic.Int64
	hot  []int
	ev   *eventPlane
	step func(w *workload, c *client)
}

// client is one closed-loop caller: one connection, one seeded stream,
// one histogram.
type client struct {
	conn      *conn
	s         *stream
	lat       hist
	attempted int64
	failed    int64
	completed int64
	payload   []byte
	expect    []byte
	sem       chan struct{} // event_chain: undelivered writes in flight
	ids       batchReply
	// dead is set once the connection fails: every further request
	// would fail at once, so the client stops instead of spinning.
	dead bool
}

func newWorkload(name string, seed uint64, sz sizes) (*workload, error) {
	w := &workload{name: name, seed: seed, sz: sz, class: "Doc", prefix: 'd', objects: sz.docObjects, fn: "bump"}
	switch name {
	case "sync_read":
		w.fn, w.step = "peek", (*workload).stepSync
	case "sync_write":
		w.step = (*workload).stepSync
	case "async_batch_hot":
		w.step = (*workload).stepBatch
		r := rng{s: mix(seed, 0x407)}
		for len(w.hot) < hotObjects {
			pick := r.intn(sz.docObjects)
			dup := false
			for _, h := range w.hot {
				dup = dup || h == pick
			}
			if !dup {
				w.hot = append(w.hot, pick)
			}
		}
	case "event_chain":
		w.class, w.prefix, w.objects = "Ev", 'e', sz.evObjects
		w.step = (*workload).stepEvent
		w.ev = newEventPlane(w)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w.n = make([]atomic.Int64, w.objects)
	w.paths = make([]string, w.objects)
	for i := range w.paths {
		w.paths[i] = "/api/objects/" + objectID(w.prefix, i) + "/invoke/" + w.fn
	}
	return w, nil
}

// setup boots a platform and brings it to the workload's starting
// state over HTTP: package deploy, object creation with a seeded doc
// per object, and (event_chain) the audit object and the webhook
// subscription. Its duration is setup_s.
func (w *workload) setup(clients int) error {
	r, err := boot(w.seed)
	if err != nil {
		return err
	}
	w.rig = r
	pkg := docPackage
	if w.ev != nil {
		pkg = evPackage
	}
	c, err := dial(r.addr)
	if err != nil {
		return err
	}
	defer c.close()
	c.arm(time.Now().Add(time.Minute))
	if status, body, err := c.do("POST", "/api/packages", hdrYAML, []byte(pkg)); err != nil || status != http.StatusCreated {
		return fmt.Errorf("deploying package: status %d: %s: %v", status, body, err)
	}
	if w.ev != nil {
		body := `{"class":"Audit","id":"` + auditID + `"}`
		if status, resp, err := c.do("POST", "/api/objects", hdrJSON, []byte(body)); err != nil || status != http.StatusCreated {
			return fmt.Errorf("creating %s: status %d: %s: %v", auditID, status, resp, err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for ci := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = w.createObjects(ci, clients)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if w.ev != nil {
		if err := w.ev.listen(); err != nil {
			return err
		}
		sub := `{"class":"Ev","type":"stateChanged","webhook":"` + w.ev.url + `"}`
		if status, resp, err := c.do("PUT", "/api/triggers/hook", hdrJSON, []byte(sub)); err != nil || status != http.StatusCreated {
			return fmt.Errorf("subscribing webhook: status %d: %s: %v", status, resp, err)
		}
	}
	return nil
}

func (w *workload) createObjects(client, clients int) error {
	c, err := dial(w.rig.addr)
	if err != nil {
		return err
	}
	defer c.close()
	c.arm(time.Now().Add(time.Minute))
	var body, doc []byte
	for i := client; i < w.objects; i += clients {
		id := objectID(w.prefix, i)
		body = append(body[:0], `{"class":"`+w.class+`","id":"`+id+`"}`...)
		if status, resp, err := c.do("POST", "/api/objects", hdrJSON, body); err != nil || status != http.StatusCreated {
			return fmt.Errorf("creating %s: status %d: %s: %v", id, status, resp, err)
		}
		doc = appendDoc(doc[:0], w.seed, i, 0)
		if status, resp, err := c.do("PUT", "/api/objects/"+id+"/state/doc", hdrJSON, doc); err != nil || status != http.StatusNoContent {
			return fmt.Errorf("seeding %s: status %d: %s: %v", id, status, resp, err)
		}
	}
	return nil
}

func (w *workload) close() {
	if w.ev != nil {
		w.ev.close()
	}
	if w.rig != nil {
		w.rig.close()
	}
}

// newClient opens connection i of clients. The stream depends on the
// phase label too, so warm-up, windows and the traced pass draw
// different (but seed-determined) operations.
func (w *workload) newClient(phase string, i, clients int) (*client, error) {
	conn, err := dial(w.rig.addr)
	if err != nil {
		return nil, err
	}
	// One request now: the server gives a fresh connection only its
	// ReadHeaderTimeout to send the first request, but lets a kept-alive
	// one idle between windows.
	conn.arm(time.Now().Add(5 * time.Second))
	if status, _, err := conn.do("GET", noopPath, "", nil); err != nil || status != http.StatusNoContent {
		conn.close()
		return nil, fmt.Errorf("first request on a new connection: status %d: %v", status, err)
	}
	objects := w.objects
	if w.hot != nil {
		objects = hotObjects
	}
	return &client{
		conn: conn,
		s:    newStream(w.seed, w.name+"/"+phase, i, clients, objects),
		sem:  make(chan struct{}, maxOutstanding),
	}, nil
}

// stateKeys returns the state-table (and backing-store) keys of obj's
// two state attributes.
func (w *workload) stateKeys(obj int) (n, doc string) {
	base := "state/" + w.class + "/" + objectID(w.prefix, obj) + "/"
	return base + "n", base + "doc"
}

// appendOutput appends what the workload's invocation must return when
// it next runs on obj: peek the object's current doc, bump its next
// counter value.
func (w *workload) appendOutput(dst []byte, obj int) []byte {
	if w.fn == "peek" {
		return appendDoc(dst, w.seed, obj, w.n[obj].Load())
	}
	return strconv.AppendInt(dst, w.n[obj].Load()+1, 10)
}

// invoke sends the workload's synchronous invocation to obj and checks
// the reply: peek must return the object's doc byte for byte, bump the
// object's next counter value. On event_chain it first registers the
// delivery the write will cause (it can overtake the HTTP reply) and
// takes one of the client's outstanding-write slots. It reports
// whether the call was acknowledged and correct.
func (w *workload) invoke(c *client, obj int) bool {
	if w.fn == "peek" {
		c.payload = c.s.nextPayload(c.payload[:0])
		status, body, err := c.conn.do("POST", w.paths[obj], hdrJSON, c.payload)
		c.dead = err != nil
		c.expect = append(w.appendOutput(append(c.expect[:0], outputPrefix...), obj), '}', '\n')
		return err == nil && status == http.StatusOK && bytes.Equal(body, c.expect)
	}
	if w.ev == nil {
		return w.bump(c, obj)
	}
	select {
	case c.sem <- struct{}{}:
	case <-w.ev.abort: // a drain timed out: deliveries have stalled
		c.dead = true
		return false
	}
	offset := w.n[obj].Load() + 1
	w.ev.expect(obj, offset, c.sem)
	if !w.bump(c, obj) {
		if w.ev.forget(obj, offset) {
			<-c.sem
		}
		return false
	}
	return true
}

// bump sends one bump to obj and checks the returned counter is the
// object's next value.
func (w *workload) bump(c *client, obj int) bool {
	c.payload = c.s.nextPayload(c.payload[:0])
	status, body, err := c.conn.do("POST", w.paths[obj], hdrJSON, c.payload)
	c.dead = err != nil
	if err != nil || status != http.StatusOK {
		return false
	}
	c.expect = append(w.appendOutput(append(c.expect[:0], outputPrefix...), obj), '}', '\n')
	if !bytes.Equal(body, c.expect) {
		// Resynchronise on whatever the platform reports so one bad
		// reply is one failure, not a cascade; finish still compares the
		// final counters with the acknowledged total.
		if got, ok := atoi(bytes.TrimSuffix(bytes.TrimPrefix(body, []byte(outputPrefix)), []byte("}\n"))); ok {
			w.n[obj].Store(int64(got))
		}
		return false
	}
	w.n[obj].Add(1)
	return true
}

// stepSync is one operation of sync_read and sync_write: the
// invocation, timed from send to verified reply.
func (w *workload) stepSync(c *client) {
	obj := c.s.nextObject()
	c.attempted++
	t0 := time.Now()
	ok := w.invoke(c, obj)
	lat := time.Since(t0)
	if !ok {
		c.failed++
		return
	}
	c.completed++
	c.lat.record(int64(lat))
}

// stepEvent is one operation of event_chain: bump an Ev object; the
// operation completes when the webhook for that (object, offset)
// arrives at the receiver, which records the latency.
func (w *workload) stepEvent(c *client) {
	c.attempted++
	if !w.invoke(c, c.s.nextObject()) {
		c.failed++
	}
}

type batchReply struct {
	Results []struct {
		Invocation string `json:"invocation"`
		Error      string `json:"error"`
	} `json:"results"`
}

// stepBatch: one POST /api/invoke-batch of 32 bumps spread over 4 of
// the 8 hot objects, then a long-poll per accepted id. One operation
// is one invocation, timed from the batch send to its completed
// record.
func (w *workload) stepBatch(c *client) {
	var picks [batchObjects]int
	for i := range picks {
		for again := true; again; {
			picks[i] = w.hot[c.s.r.intn(hotObjects)]
			again = false
			for _, p := range picks[:i] {
				again = again || p == picks[i]
			}
		}
	}
	var targets [batchSize]int
	b := append(c.payload[:0], `{"invocations":[`...)
	for i := range targets {
		targets[i] = picks[c.s.r.intn(batchObjects)]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"object":"`...)
		b = append(b, objectID(w.prefix, targets[i])...)
		b = append(b, `","member":"bump","payload":`...)
		b = c.s.nextPayload(b)
		b = append(b, '}')
	}
	c.payload = append(b, ']', '}')
	c.attempted += batchSize
	t0 := time.Now()
	status, body, err := c.conn.do("POST", "/api/invoke-batch", hdrJSON, c.payload)
	c.dead = err != nil
	c.ids.Results = c.ids.Results[:0]
	if err != nil || status != http.StatusAccepted || json.Unmarshal(body, &c.ids) != nil || len(c.ids.Results) != batchSize {
		c.failed += batchSize
		return
	}
	for i, res := range c.ids.Results {
		if res.Invocation == "" || !w.awaitCompleted(c, res.Invocation) {
			c.failed++
			continue
		}
		c.completed++
		c.lat.record(int64(time.Since(t0)))
		w.n[targets[i]].Add(1)
	}
}

// awaitCompleted long-polls one invocation until its record is
// terminal, and reports whether it completed.
func (w *workload) awaitCompleted(c *client, id string) bool {
	path := "/api/invocations/" + id + "?waitMs=" + strconv.Itoa(longPollWaitMs)
	for deadline := time.Now().Add(drainTimeout); time.Now().Before(deadline); {
		status, body, err := c.conn.do("GET", path, "", nil)
		c.dead = c.dead || err != nil
		if err != nil || status != http.StatusOK {
			return false
		}
		if bytes.Contains(body, []byte(statusCompleted)) {
			return true
		}
		if bytes.Contains(body, []byte(`"status":"failed"`)) || bytes.Contains(body, []byte(`"status":"expired"`)) {
			return false
		}
	}
	return false
}

// drain waits for operations that complete outside their request
// (event_chain deliveries) and returns how many never did.
func (w *workload) drain(clients []*client) int64 {
	if w.ev == nil {
		return 0
	}
	deadline := time.Now().Add(drainTimeout)
	for {
		var outstanding int64
		for _, c := range clients {
			outstanding += int64(len(c.sem))
		}
		if outstanding == 0 {
			return 0
		}
		if time.Now().After(deadline) {
			w.ev.abortOnce.Do(func() { close(w.ev.abort) })
			return outstanding
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// finish runs the end-state gates: after Platform.Flush the counters
// and docs read from the backing store must equal what was
// acknowledged (no acknowledged work lost, nothing applied twice),
// plus the event plane's own gates.
func (w *workload) finish() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	if w.ev != nil {
		errs = append(errs, w.ev.finish(ctx))
	}
	w.rig.p.Flush(ctx)
	store := w.rig.p.Backing()
	var total, acked int64
	var doc []byte
	bad := 0
	for i := range w.n {
		want := w.n[i].Load()
		acked += want
		id := objectID(w.prefix, i)
		nKey, docKey := w.stateKeys(i)
		docs, err := store.BatchGet(ctx, []string{nKey, docKey})
		if err != nil {
			return fmt.Errorf("%s: reading %s from the backing store: %w", w.name, id, err)
		}
		got, _ := strconv.ParseInt(string(docs[nKey].Value), 10, 64)
		total += got
		doc = appendDoc(doc[:0], w.seed, i, want)
		if got != want || !bytes.Equal(docs[docKey].Value, doc) {
			if bad++; bad <= 3 {
				errs = append(errs, fmt.Errorf("%s: %s persisted n=%d (doc match %v), acknowledged %d",
					w.name, id, got, bytes.Equal(docs[docKey].Value, doc), want))
			}
		}
	}
	if total != acked {
		errs = append(errs, fmt.Errorf("%s: persisted Σn=%d, acknowledged bumps %d", w.name, total, acked))
	}
	if w.name == "sync_read" {
		if rt, err := w.rig.p.Runtime(w.class); err == nil && rt.ConcurrencyStats().Aborts != 0 {
			errs = append(errs, fmt.Errorf("%s: %d OCC aborts on a read-only workload", w.name, rt.ConcurrencyStats().Aborts))
		}
	}
	return errors.Join(errs...)
}
