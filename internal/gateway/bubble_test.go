//go:build goexperiment.synctest

package gateway

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// TestInvocationBodyGolden holds every body of GET /api/invocations/{id}
// to the bytes encoding/json renders for the record, whether or not the
// poll waited. Each case runs on a rig of its own, in a bubble: a record
// is read once its run has ended or, if it has not, once the rig is idle.
func TestInvocationBodyGolden(t *testing.T) {
	cases := []struct {
		name, member, payload string
		status                asyncq.Status
		check                 func(asyncq.Record) bool // the record is the case its name says
	}{
		{"completed", "echo", `{"n":1}`, asyncq.StatusCompleted,
			func(r asyncq.Record) bool { return string(r.Result) == `{"n":1}` && !r.Finished.IsZero() }},
		{"result with insignificant whitespace", "echo", " { \"a\" : [ 1 , 2 ] ,\n\t\"b\" : null } ", asyncq.StatusCompleted,
			func(r asyncq.Record) bool { return bytes.ContainsAny(r.Result, " \n\t") }},
		{"result with <, & and U+2028", "echo", "{\"t\":\"<a&b>\u2028\"}", asyncq.StatusCompleted,
			func(r asyncq.Record) bool { return bytes.ContainsAny(r.Result, "<&\u2028") }},
		// A handler's failure names its image in quotes, so it is an "error
		// string needing escapes" whatever the handler said.
		{"failed", "fail", `"boom: no such key"`, asyncq.StatusFailed,
			func(r asyncq.Record) bool { return strings.HasSuffix(r.Error, `image "img/fail": boom: no such key`) }},
		{"error with control bytes and non-ASCII", "fail", `"said \"no\"\n<br> caf\u00e9"`, asyncq.StatusFailed,
			func(r asyncq.Record) bool { return strings.HasSuffix(r.Error, "\"no\"\n<br> café") }},
		// A parked call holds the only worker, so the one after it waits.
		{"running", "park", ``, asyncq.StatusRunning,
			func(r asyncq.Record) bool { return !r.Started.IsZero() && r.Finished.IsZero() }},
		{"pending with payload and args", "echo?w=120&trigger=stateChanged", `{"queued":true}`, asyncq.StatusPending,
			func(r asyncq.Record) bool { return len(r.Payload) > 0 && len(r.Args) == 2 && r.Started.IsZero() }},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			simtest.Run(t, func(t *testing.T) {
				rig := newPollRig(t)
				if tc.status == asyncq.StatusPending {
					rig.submit("park", "")
					defer close(rig.release)
				}
				id := rig.submit(tc.member, tc.payload)
				if tc.status.Terminal() {
					rig.await(id)
				}
				simtest.Wait()
				rec, err := rig.p.Invocation(ctx, id)
				if err != nil || !tc.check(rec) {
					t.Fatalf("record = %+v, err = %v", rec, err)
				}
				want := reflected(t, rec)
				// waitMs=1 on a record that is not terminal arms the wait,
				// lets it elapse and reads again.
				for _, query := range []string{"", "?waitMs=0", "?waitMs=1", "?waitMs=%31"} {
					status, body := rig.serve(http.MethodGet, "/api/invocations/"+id+query, "")
					if status != http.StatusOK || body != want || rig.w.header.Get("Content-Type") != "application/json" {
						t.Fatalf("GET %q: status = %d (%s)\n got: %s\nwant: %s", query, status, rig.w.header.Get("Content-Type"), body, want)
					}
				}
				if tc.status.Terminal() {
					start := time.Now()
					if _, body := rig.serve(http.MethodGet, "/api/invocations/"+id+"?waitMs=30000", ""); body != want || time.Since(start) != 0 {
						t.Fatalf("long poll of a terminal record took %v\n got: %s\nwant: %s", time.Since(start), body, want)
					}
				}
				if tc.status != asyncq.StatusRunning {
					return
				}
				// A poll woken by the completion answers with the record the
				// worker hands its waiter, not one read back from the table:
				// same bytes.
				woken := make(chan string, 1)
				go func() {
					w := &fakeWriter{header: make(http.Header)}
					rig.gw.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/invocations/"+id+"?waitMs=30000", nil))
					woken <- w.body.String()
				}()
				simtest.Wait() // the poll is in its wait; had it answered, the checks above would be re-run
				select {
				case body := <-woken:
					t.Fatalf("the poll of a running invocation answered before its release: %s", body)
				default:
				}
				close(rig.release)
				body := <-woken
				rec = rig.await(id)
				if want := reflected(t, rec); body != want || string(rec.Result) != `"released"` {
					t.Fatalf("woken poll\n got: %s\nwant: %s", body, want)
				}
				if status, _ := rig.serve(http.MethodGet, "/api/invocations/inv-nope?waitMs=50", ""); status != http.StatusNotFound {
					t.Fatalf("unknown ID with a wait: status = %d, want 404", status)
				}
			})
		})
	}
}
