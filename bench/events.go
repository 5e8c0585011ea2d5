package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// eventPlane is event_chain's receiving side: the webhook endpoint the
// platform POSTs to, and the bookkeeping that turns deliveries into
// completed operations and checks them (gap-free per-object offsets,
// at-least-once, duplicates counted).
type eventPlane struct {
	w    *workload
	srv  *http.Server
	url  string
	objs []evObject

	abort     chan struct{} // closed when a drain times out, so blocked clients give up
	abortOnce sync.Once

	mu        sync.Mutex // guards lat, lag, completed
	lat       hist       // request send → webhook receipt
	lag       hist       // Event.Time → webhook receipt
	completed int64

	duplicates atomic.Int64
	gaps       atomic.Int64
	unexpected atomic.Int64 // deliveries for writes never registered
	// untracked is set for the asyncq probe, the run's last writer:
	// asynchronous bumps also log an invocationCompleted event per
	// call, so a write's offset can no longer be predicted. Deliveries
	// are then only counted (and checked for duplicates).
	untracked atomic.Bool
}

type evObject struct {
	mu        sync.Mutex
	delivered int64 // highest offset received
	count     int64 // distinct deliveries
	sent      map[int64]pendingWrite
}

type pendingWrite struct {
	at  time.Time
	sem chan struct{}
}

func newEventPlane(w *workload) *eventPlane {
	ev := &eventPlane{w: w, objs: make([]evObject, w.objects), abort: make(chan struct{})}
	for i := range ev.objs {
		ev.objs[i].sent = make(map[int64]pendingWrite)
	}
	return ev
}

func (ev *eventPlane) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("webhook listener: %w", err)
	}
	ev.url = "http://" + ln.Addr().String() + "/hook"
	ev.srv = &http.Server{Handler: ev, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = ev.srv.Serve(abortiveListener{ln.(*net.TCPListener)}) }()
	return nil
}

// abortiveListener makes the receiver answer a peer's close with a
// reset instead of a FIN. The platform's webhook client keeps two idle
// connections for four delivery workers, so it closes and reopens a
// connection for about every other event — thousands per second, each
// leaving its ephemeral port in TIME_WAIT for a minute (21 000–27 000
// of the 28 232 ports were seen held during one run, and a run that
// hits the end of the range loses deliveries). A reset frees the
// client's port at once. Nothing is lost by it: the receiver closes a
// connection only after the client has, with no reply pending.
type abortiveListener struct{ *net.TCPListener }

func (l abortiveListener) Accept() (net.Conn, error) {
	c, err := l.AcceptTCP()
	if err != nil {
		return nil, err
	}
	_ = c.SetLinger(0) // best effort: without it the run is merely at risk again
	return c, nil
}

func (ev *eventPlane) close() {
	if ev.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ev.srv.Shutdown(ctx); err != nil {
		_ = ev.srv.Close()
	}
}

// expect registers a write about to be sent: the next event of obj
// will carry offset.
func (ev *eventPlane) expect(obj int, offset int64, sem chan struct{}) {
	o := &ev.objs[obj]
	o.mu.Lock()
	o.sent[offset] = pendingWrite{at: time.Now(), sem: sem}
	o.mu.Unlock()
}

// forget withdraws a registration whose write failed, reporting
// whether it was still pending.
func (ev *eventPlane) forget(obj int, offset int64) bool {
	o := &ev.objs[obj]
	o.mu.Lock()
	_, ok := o.sent[offset]
	delete(o.sent, offset)
	o.mu.Unlock()
	return ok
}

// ServeHTTP receives one webhook delivery.
func (ev *eventPlane) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	now := time.Now()
	body, err := io.ReadAll(r.Body)
	var e struct {
		Offset int64     `json:"offset"`
		Object string    `json:"object"`
		Time   time.Time `json:"time"`
	}
	if err != nil || json.Unmarshal(body, &e) != nil {
		http.Error(rw, "bad event", http.StatusBadRequest)
		return
	}
	rw.WriteHeader(http.StatusNoContent)
	obj := objectIndex(e.Object)
	if len(e.Object) == 0 || e.Object[0] != ev.w.prefix || obj < 0 || obj >= len(ev.objs) {
		return // a layer probe's scratch object
	}
	o := &ev.objs[obj]
	o.mu.Lock()
	if e.Offset <= o.delivered {
		o.mu.Unlock()
		ev.duplicates.Add(1)
		return
	}
	untracked := ev.untracked.Load()
	if e.Offset != o.delivered+1 && !untracked {
		ev.gaps.Add(1)
	}
	o.delivered = e.Offset
	o.count++
	p, ok := o.sent[e.Offset]
	delete(o.sent, e.Offset)
	o.mu.Unlock()
	if !ok {
		if !untracked {
			ev.unexpected.Add(1)
		}
		return
	}
	ev.mu.Lock()
	ev.lat.record(int64(now.Sub(p.at)))
	ev.lag.record(int64(now.Sub(e.Time)))
	ev.completed++
	ev.mu.Unlock()
	<-p.sem
}

// take returns and clears what was delivered since the last call.
func (ev *eventPlane) take() (completed int64, lat, lag hist) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	completed, lat, lag = ev.completed, ev.lat, ev.lag
	ev.completed = 0
	ev.lat.reset()
	ev.lag.reset()
	return completed, lat, lag
}

// deliveredCount returns how many distinct events arrived and how many
// objects still miss a delivery for an acknowledged write.
func (ev *eventPlane) deliveredCount() (delivered int64, undelivered int) {
	for i := range ev.objs {
		o := &ev.objs[i]
		o.mu.Lock()
		delivered += o.count
		if o.count != ev.w.n[i].Load() || len(o.sent) != 0 {
			undelivered++
		}
		o.mu.Unlock()
	}
	return delivered, undelivered
}

// finish checks the event plane's gates: offsets arrived gap-free,
// every acknowledged write was delivered, and the chained audit
// object counted at least as many events as the webhook received.
func (ev *eventPlane) finish(ctx context.Context) error {
	var errs []error
	if g := ev.gaps.Load(); g != 0 {
		errs = append(errs, fmt.Errorf("event_chain: %d per-object offset gaps at the receiver", g))
	}
	if u := ev.unexpected.Load(); u != 0 {
		errs = append(errs, fmt.Errorf("event_chain: %d deliveries for writes that were never sent", u))
	}
	delivered, undelivered := ev.deliveredCount()
	if undelivered != 0 {
		st := ev.w.rig.p.TriggerBus().Stats()
		errs = append(errs, fmt.Errorf("event_chain: %d objects have acknowledged writes that were never delivered (bus: emitted %d delivered %d dropped %d retried %d log-failed %d; webhook cursor lag %d)",
			undelivered, st.Emitted, st.Delivered, st.Dropped, st.Retried, st.LogFailed, ev.w.rig.p.EventLog().CursorLag("named/hook")))
	}
	// The audit chain rides the async queue behind the deliveries; give
	// it time to settle before reading the counter.
	p := ev.w.rig.p
	var audit int64
	for deadline := time.Now().Add(drainTimeout); ; {
		raw, err := p.GetState(ctx, auditID, "n")
		if err != nil {
			return errors.Join(append(errs, fmt.Errorf("event_chain: reading %s.n: %w", auditID, err))...)
		}
		audit, _ = strconv.ParseInt(string(raw), 10, 64)
		if audit >= delivered || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if audit < delivered {
		errs = append(errs, fmt.Errorf("event_chain: %s.n=%d, below the %d events delivered", auditID, audit, delivered))
	}
	return errors.Join(errs...)
}
