package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// TestTriggerSubscriptionCRUD drives the PUT/GET/DELETE trigger
// endpoints end to end.
func TestTriggerSubscriptionCRUD(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	// PUT a valid subscription.
	sub, _ := json.Marshal(map[string]string{
		"class": "Note", "type": "stateChanged", "keyPrefix": "te", "targetFunction": "shout",
	})
	status, body := f.do(http.MethodPut, "/api/triggers/shout-on-write", "application/json", sub)
	if status != http.StatusCreated {
		t.Fatalf("put status = %d body=%v", status, body)
	}
	// Listed back, sorted by name.
	status, body = f.do(http.MethodGet, "/api/triggers", "", nil)
	if status != http.StatusOK {
		t.Fatalf("list status = %d", status)
	}
	var views []struct {
		Name  string `json:"name"`
		Class string `json:"class"`
		Type  string `json:"type"`
	}
	if err := json.Unmarshal(body["triggers"], &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].Name != "shout-on-write" || views[0].Class != "Note" || views[0].Type != "stateChanged" {
		t.Fatalf("triggers = %+v", views)
	}
	// Invalid bodies: bad JSON, bad subscription shape.
	if status, _ := f.do(http.MethodPut, "/api/triggers/bad", "application/json", []byte("{")); status != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", status)
	}
	noSink, _ := json.Marshal(map[string]string{"class": "Note", "type": "stateChanged"})
	if status, _ := f.do(http.MethodPut, "/api/triggers/bad", "application/json", noSink); status != http.StatusBadRequest {
		t.Fatalf("sinkless subscription status = %d", status)
	}
	// DELETE removes it; a second delete 404s.
	if status, _ := f.do(http.MethodDelete, "/api/triggers/shout-on-write", "", nil); status != http.StatusNoContent {
		t.Fatalf("delete status = %d", status)
	}
	if status, _ := f.do(http.MethodDelete, "/api/triggers/shout-on-write", "", nil); status != http.StatusNotFound {
		t.Fatalf("re-delete status = %d", status)
	}
}

// TestInvalidWebhookURLIsRefused: a webhook that is not an absolute http
// or https URL with a host is refused where it is declared — PUT
// /api/triggers/{name} answers 400 naming the URL, a package declaring
// one fails to deploy — instead of being stored and failing every
// delivery behind a cursor that never moves.
func TestInvalidWebhookURLIsRefused(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	for _, hook := range []string{"not a url", "ftp://x", "http://"} {
		sub, _ := json.Marshal(map[string]string{"class": "Note", "type": "stateChanged", "webhook": hook})
		status, body := f.do(http.MethodPut, "/api/triggers/bad-hook", "application/json", sub)
		var msg string
		_ = json.Unmarshal(body["error"], &msg)
		if want := `trigger: webhook "` + hook + `" is not an absolute http or https URL with a host`; status != http.StatusBadRequest || msg != want {
			t.Errorf("PUT webhook %q: status = %d, error = %q; want 400 %q", hook, status, msg, want)
		}
		pkg := "classes:\n  - name: Hooked\n    triggers:\n      - on: stateChanged\n        webhook: \"" + hook + "\"\n"
		status, body = f.do(http.MethodPost, "/api/packages", "application/yaml", []byte(pkg))
		msg = ""
		_ = json.Unmarshal(body["error"], &msg)
		if status != http.StatusBadRequest || !strings.Contains(msg, `webhook "`+hook+`" is not an absolute http or https URL with a host`) {
			t.Errorf("deploy with webhook %q: status = %d, error = %q; want 400", hook, status, msg)
		}
	}
	if status, body := f.do(http.MethodGet, "/api/triggers", "", nil); status != http.StatusOK || string(body["triggers"]) != "[]" {
		t.Fatalf("triggers after refused PUTs: %d %s", status, body["triggers"])
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	kind string
	data trigger.Event
}

// readSSE parses frames off an event-stream body into ch until the
// body closes.
func readSSE(t *testing.T, body *bufio.Scanner, ch chan<- sseEvent) {
	var kind string
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev trigger.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Errorf("bad SSE data %q: %v", line, err)
				continue
			}
			ch <- sseEvent{kind: kind, data: ev}
		}
	}
}

// TestObjectEventsSSELifecycle covers the live-tail stream: headers,
// event frames for commits and terminal async invocations, and clean
// client disconnect.
func TestObjectEventsSSELifecycle(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	id := f.createObject("sse-1")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.srv.URL+"/api/objects/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	events := make(chan sseEvent, 16)
	go readSSE(t, bufio.NewScanner(resp.Body), events)

	// A sync commit shows up as a stateChanged frame.
	if status, body := f.do(http.MethodPost, "/api/objects/"+id+"/invoke/set", "application/json", []byte(`"hello"`)); status != http.StatusOK {
		t.Fatalf("invoke = %d %v", status, body)
	}
	select {
	case ev := <-events:
		if ev.kind != string(trigger.StateChanged) || ev.data.Object != id || ev.data.Function != "set" ||
			strings.Join(ev.data.Keys, ",") != "text" {
			t.Fatalf("frame = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE frame for the sync commit")
	}
	// An async invocation yields its commit plus a terminal frame.
	status, body := f.do(http.MethodPost, "/api/objects/"+id+"/invoke-async/set", "application/json", []byte(`"again"`))
	if status != http.StatusAccepted {
		t.Fatalf("invoke-async = %d %v", status, body)
	}
	kinds := map[string]int{}
	deadline := time.After(5 * time.Second)
	for len(kinds) < 2 {
		select {
		case ev := <-events:
			kinds[ev.kind]++
		case <-deadline:
			t.Fatalf("frames so far = %v, want stateChanged and invocationCompleted", kinds)
		}
	}
	if kinds[string(trigger.StateChanged)] != 1 || kinds[string(trigger.InvocationCompleted)] != 1 {
		t.Fatalf("frames = %v", kinds)
	}
	// Client disconnect tears the stream down server-side without
	// wedging the platform (Close in cleanup would hang otherwise).
	cancel()

	// Unknown object: 404, not a stream.
	if status, _ := f.do(http.MethodGet, "/api/objects/ghost/events", "", nil); status != http.StatusNotFound {
		t.Fatalf("ghost stream status = %d", status)
	}
}

// TestShutdownEndsEventStreams: http.Server.Shutdown waits for active
// requests without cancelling them, and an SSE stream is active until
// its client leaves. With CloseStreams registered to run on shutdown, a
// server with a client attached stops at once and the client sees its
// stream end.
func TestShutdownEndsEventStreams(t *testing.T) {
	p := newTestPlatform(t, core.Config{})
	gw := New(p)
	srv := httptest.NewUnstartedServer(gw)
	srv.Config.RegisterOnShutdown(gw.CloseStreams)
	srv.Start()
	t.Cleanup(srv.Close)
	f := &fixture{t: t, p: p, srv: srv, client: srv.Client()}
	f.deploy()
	id := f.createObject("sse-shutdown")
	resp, err := f.client.Get(srv.URL + "/api/objects/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Config.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an SSE client attached: %v after %v", err, time.Since(start))
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown with an SSE client attached took %v", d)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("the stream did not end cleanly: %v", err)
	}
}

// TestClientRegionHeaderOnAsyncRoute verifies the X-Client-Region
// header reaches the async submission path (and the legacy
// X-Oprc-Region alias still works on the sync path).
func TestClientRegionHeaderOnAsyncRoute(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	id := f.createObject("region-1")
	for _, header := range []string{"X-Client-Region", "X-Oprc-Region"} {
		req, err := http.NewRequest(http.MethodPost, f.srv.URL+"/api/objects/"+id+"/invoke-async/set", strings.NewReader(`"x"`))
		if err != nil {
			t.Fatal(err)
		}
		// The default region name: no penalty, but the route must
		// accept and thread the header without erroring.
		req.Header.Set(header, "default")
		resp, err := f.client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Invocation string `json:"invocation"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted || out.Invocation == "" {
			t.Fatalf("%s: status=%d inv=%q err=%v", header, resp.StatusCode, out.Invocation, err)
		}
		// Wait it out so platform close stays clean.
		if status, _ := f.do(http.MethodGet, fmt.Sprintf("/api/invocations/%s?waitMs=5000", out.Invocation), "", nil); status != http.StatusOK {
			t.Fatalf("wait status = %d", status)
		}
	}
}

// invokeSet commits one write on the object and fails the test on a
// non-200.
func (f *fixture) invokeSet(id, val string) {
	f.t.Helper()
	if status, body := f.do(http.MethodPost, "/api/objects/"+id+"/invoke/set", "application/json", []byte(val)); status != http.StatusOK {
		f.t.Fatalf("invoke = %d %v", status, body)
	}
}

// TestObjectEventsFromOffsetReplay resumes the SSE feed from a stored
// offset: the retained history replays first, then the stream goes
// live, and the client observes a gap-free, strictly increasing
// offset sequence with no duplicates across the replay/live seam.
func TestObjectEventsFromOffsetReplay(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	f.observeNotes()
	id := f.createObject("resume-1")
	for i := 0; i < 3; i++ {
		f.invokeSet(id, fmt.Sprintf(`"v%d"`, i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.srv.URL+"/api/objects/"+id+"/events?fromOffset=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	events := make(chan sseEvent, 16)
	go readSSE(t, bufio.NewScanner(resp.Body), events)
	var offsets []int64
	for len(offsets) < 3 {
		select {
		case ev := <-events:
			offsets = append(offsets, ev.data.Offset)
		case <-time.After(5 * time.Second):
			t.Fatalf("replay stalled at offsets %v", offsets)
		}
	}
	// A commit made after the resume arrives live on the same stream.
	f.invokeSet(id, `"live"`)
	select {
	case ev := <-events:
		offsets = append(offsets, ev.data.Offset)
	case <-time.After(5 * time.Second):
		t.Fatal("no live frame after replay")
	}
	for i, off := range offsets {
		if off != int64(i+1) {
			t.Fatalf("offsets = %v, want 1,2,3,4 gap-free", offsets)
		}
	}
}

// observeNotes subscribes a webhook sink to Note state changes. An
// object's event log begins only once someone can read its events, so
// tests about logged history declare a consumer first.
func (f *fixture) observeNotes() {
	f.t.Helper()
	sink := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	f.t.Cleanup(sink.Close)
	sub, _ := json.Marshal(map[string]string{"class": "Note", "type": "stateChanged", "webhook": sink.URL})
	if status, body := f.do(http.MethodPut, "/api/triggers/observer", "application/json", sub); status != http.StatusCreated {
		f.t.Fatalf("subscribe status = %d body=%v", status, body)
	}
}

// TestObjectEventsFromOffsetErrors maps a compacted resume offset to
// 410 Gone (code offset_compacted) and a malformed one to 400.
func TestObjectEventsFromOffsetErrors(t *testing.T) {
	f := newFixtureCfg(t, core.Config{EventLogMaxPerObject: 2})
	f.deploy()
	f.observeNotes()
	id := f.createObject("gone-1")
	for i := 0; i < 5; i++ {
		f.invokeSet(id, fmt.Sprintf(`"v%d"`, i))
	}
	// The probe is bounded: anything but an immediate 410 would be an
	// SSE stream that never ends, and must fail the test, not hang it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		f.srv.URL+"/api/objects/"+id+"/events?fromOffset=1", nil)
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone {
		resp.Body.Close()
		t.Fatalf("compacted resume status = %d", resp.StatusCode)
	}
	var body map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var code string
	_ = json.Unmarshal(body["code"], &code)
	if code != "offset_compacted" {
		t.Fatalf("error code = %q body=%v", code, body)
	}
	// Resuming at the retained floor still works.
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet,
		f.srv.URL+"/api/objects/"+id+"/events?fromOffset=4", nil)
	resp, err = f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("floor resume status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if status, _ := f.do(http.MethodGet, "/api/objects/"+id+"/events?fromOffset=nope", "", nil); status != http.StatusBadRequest {
		t.Fatalf("bad fromOffset status = %d", status)
	}
}

// TestTriggersListIncludesStats checks the per-subscription delivery
// counters surface on GET /api/triggers.
func TestTriggersListIncludesStats(t *testing.T) {
	f := newFixture(t)
	f.deploy()
	id := f.createObject("stats-1")
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer hook.Close()
	sub, _ := json.Marshal(map[string]string{
		"class": "Note", "type": "stateChanged", "webhook": hook.URL,
	})
	if status, body := f.do(http.MethodPut, "/api/triggers/hook", "application/json", sub); status != http.StatusCreated {
		t.Fatalf("put status = %d body=%v", status, body)
	}
	f.invokeSet(id, `"x"`)
	type statsView struct {
		Name  string `json:"name"`
		Stats struct {
			Delivered int64 `json:"delivered"`
			CursorLag int64 `json:"cursorLag"`
		} `json:"stats"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, body := f.do(http.MethodGet, "/api/triggers", "", nil)
		if status != http.StatusOK {
			t.Fatalf("list status = %d", status)
		}
		var views []statsView
		if err := json.Unmarshal(body["triggers"], &views); err != nil {
			t.Fatal(err)
		}
		if len(views) == 1 && views[0].Name == "hook" && views[0].Stats.Delivered >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivery never surfaced in stats: %+v", views)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChainHandlerCannotScribbleOnTheLog: the chain sink submits the
// very bytes the event log holds (an event is encoded once), so the
// handler must be working on a copy — one that overwrites its payload
// must not change what a replay from the log returns.
func TestChainHandlerCannotScribbleOnTheLog(t *testing.T) {
	f := newFixture(t)
	scribbled := make(chan string, 1)
	f.p.Images().Register("img/scribble", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		before := string(task.Payload)
		for i := range task.Payload {
			task.Payload[i] = 'X'
		}
		scribbled <- before
		return invoker.Result{Output: json.RawMessage(`"done"`)}, nil
	}))
	pkg := `classes:
  - name: Note
    keySpecs:
      - name: text
        kind: string
        default: ""
    functions:
      - name: set
        image: img/set
      - name: scribble
        image: img/scribble
`
	if status, body := f.do(http.MethodPost, "/api/packages", "application/yaml", []byte(pkg)); status != http.StatusCreated {
		t.Fatalf("deploy status = %d body=%v", status, body)
	}
	sub, _ := json.Marshal(map[string]string{"class": "Note", "type": "stateChanged", "targetFunction": "scribble"})
	if status, body := f.do(http.MethodPut, "/api/triggers/scribble-on-write", "application/json", sub); status != http.StatusCreated {
		t.Fatalf("put status = %d body=%v", status, body)
	}
	id := f.createObject("alias-1")
	f.invokeSet(id, `"v"`)
	var handed string
	select {
	case handed = <-scribbled:
	case <-time.After(5 * time.Second):
		t.Fatal("chained handler never ran")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.srv.URL+"/api/objects/"+id+"/events?fromOffset=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewScanner(resp.Body)
	for body.Scan() {
		if data, ok := strings.CutPrefix(body.Text(), "data: "); ok {
			if data != handed {
				t.Fatalf("replayed entry differs from what the handler was handed:\n%s\n%s", data, handed)
			}
			var ev trigger.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil || ev.Offset != 1 || ev.Object != id {
				t.Fatalf("replayed entry = %+v (%v)", ev, err)
			}
			return
		}
	}
	t.Fatalf("no replayed frame: %v", body.Err())
}

// TestEventTailReportsWhatItCannotHeal: when a live stream skips ahead,
// the tail writes the skipped events it reads back from the log, and a
// `: skipped <from>-<to>` comment line for each run of offsets the log
// cannot give back — compacted away, or a failed read — and then goes
// on past them, so a gap never passes silently.
func TestEventTailReportsWhatItCannotHeal(t *testing.T) {
	entry := func(off int64) core.EventLogEntry {
		raw, _ := json.Marshal(trigger.Event{Offset: off, Type: trigger.StateChanged, Class: "Note", Object: "n-1"})
		return core.EventLogEntry{Offset: off, Payload: raw}
	}
	frame := func(off int64) string {
		e := entry(off)
		return "event: stateChanged\ndata: " + string(e.Payload) + "\n\n"
	}
	cases := []struct {
		name    string
		entries []core.EventLogEntry
		err     error
		want    string
	}{
		{"healed", []core.EventLogEntry{entry(2), entry(3), entry(4)}, nil, frame(2) + frame(3) + frame(4)},
		{"compacted", nil, core.ErrOffsetCompacted, ": skipped 2-4\n\n"},
		{"read failed", nil, errors.New("store unavailable"), ": skipped 2-4\n\n"},
		{"partly compacted", []core.EventLogEntry{entry(4)}, nil, ": skipped 2-3\n\n" + frame(4)},
		{"malformed entry", []core.EventLogEntry{entry(2), {Offset: 3, Payload: json.RawMessage(`{`)}, entry(4)}, nil,
			frame(2) + ": skipped 3-3\n\n" + frame(4)},
		{"tail missing", []core.EventLogEntry{entry(2)}, nil, frame(2) + ": skipped 3-4\n\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tail := &eventTail{w: rec, flusher: rec, last: 1}
			var from int64
			var n int
			read := func(f int64, max int) ([]core.EventLogEntry, error) {
				from, n = f, max
				return c.entries, c.err
			}
			if !tail.heal(read, 5) {
				t.Fatal("heal reported the client gone")
			}
			if from != 2 || n != 3 {
				t.Fatalf("read(%d, %d), want read(2, 3)", from, n)
			}
			if got := rec.Body.String(); got != c.want {
				t.Fatalf("wrote %q, want %q", got, c.want)
			}
			if tail.last != 4 {
				t.Fatalf("last = %d after healing up to 5, want 4", tail.last)
			}
		})
	}
}
