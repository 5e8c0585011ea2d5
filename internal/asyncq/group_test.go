package asyncq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// groupOf builds n calls of member, each with its own payload and all
// sharing args, as an event-bus consumer run hands them over.
func groupOf(n int, member string, args map[string]string) []call.Call {
	calls := make([]call.Call, n)
	for i := range calls {
		calls[i] = call.Call{Member: member, Payload: json.RawMessage(fmt.Sprintf(`{"offset":%d}`, i+1)), Args: args}
	}
	return calls
}

// awaitDone waits for a group's done hook and returns what it reported.
func awaitDone(t *testing.T, done <-chan int) int {
	t.Helper()
	select {
	case n := <-done:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("the group's done hook never ran")
		return 0
	}
}

// TestGroupLeavesNoRecord: the tasks of a SubmitGroup are record-less.
// N of them run to completion, all reach OnTerminal with their IDs
// before the group's done runs (whichever workers ran them), and leave
// nothing in the record table or the backing store — while a Submit
// beside them keeps its record. Their payloads and args reach the
// handler as the submitter passed them, uncopied.
func TestGroupLeavesNoRecord(t *testing.T) {
	const n = 32
	db := kvstore.Open(kvstore.Config{})
	defer db.Close()
	args := map[string]string{"trigger": "stateChanged", "triggerDepth": "1"}
	calls := groupOf(n, "record", args)
	sent := make(map[*byte]bool, n)
	for _, c := range calls {
		sent[unsafe.SliceData(c.Payload)] = true
	}
	var mu sync.Mutex
	var terminal []Record
	var uncopied, shared int
	q, err := New(Config{
		Backing: db,
		Invoke: each(func(_ context.Context, _, _ string, payload json.RawMessage, a map[string]string) (json.RawMessage, error) {
			mu.Lock()
			defer mu.Unlock()
			if sent[unsafe.SliceData(payload)] {
				uncopied++
			}
			if fmt.Sprintf("%p", a) == fmt.Sprintf("%p", args) {
				shared++
			}
			return json.RawMessage(`"ok"`), nil
		}),
		OnTerminal: func(rec Record, _ map[string]string) {
			mu.Lock()
			terminal = append(terminal, rec)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	accepted, err := q.SubmitGroup(Target{}, "audit-1", calls, func(completed int) { done <- completed })
	if err != nil || accepted != n {
		t.Fatalf("SubmitGroup accepted %d of %d: %v", accepted, n, err)
	}
	if got := awaitDone(t, done); got != n {
		t.Fatalf("done reported %d completed, want %d", got, n)
	}
	// done runs after the OnTerminal hook of every task of its group.
	ctx := context.Background()
	mu.Lock()
	if len(terminal) != n || uncopied != n || shared != n {
		t.Fatalf("OnTerminal saw %d invocations, the handler %d uncopied payloads and %d shared args; want %d each",
			len(terminal), uncopied, shared, n)
	}
	for _, rec := range terminal {
		if rec.Status != StatusCompleted || rec.ID == "" || rec.Object != "audit-1" {
			t.Fatalf("terminal = %+v", rec)
		}
		if _, err := q.Get(ctx, rec.ID); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s) of a record-less invocation = %v, want ErrNotFound", rec.ID, err)
		}
	}
	mu.Unlock()
	id, err := q.Submit(ctx, Target{}, "audit-1", "record", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	if got := q.records.Len(); got != 1 {
		t.Fatalf("the record table holds %d records, want the Submit's 1", got)
	}
	q.Close()
	keys, err := db.List(ctx, recordPrefix)
	if err != nil || len(keys) != 1 || keys[0] != recordKey(id) {
		t.Fatalf("stored records = %v (%v), want only %s", keys, err, recordKey(id))
	}
	if s := q.Stats(); s.Enqueued != n+1 || s.Completed != n+1 {
		t.Fatalf("stats = %+v, want %d enqueued and completed", s, n+1)
	}
}

// TestGroupAcceptsAPrefix: a group larger than the room left takes what
// fits — the queue's capacity, then a class quota — and counts the rest
// rejected; done covers the accepted calls only, failures included. A
// closed queue takes none and never calls done.
func TestGroupAcceptsAPrefix(t *testing.T) {
	fail := errors.New("handler failed")
	q, started, release := blockingQueue(t, Config{
		Settings: Settings{Capacity: 4},
		Invoke: each(func(_ context.Context, _, _ string, payload json.RawMessage, _ map[string]string) (json.RawMessage, error) {
			if string(payload) == `{"offset":2}` {
				return nil, fail
			}
			return json.RawMessage(`"ok"`), nil
		}),
	})
	ctx := context.Background()
	if _, err := q.Submit(ctx, Target{}, "gate", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	done := make(chan int, 1)
	accepted, err := q.SubmitGroup(Target{}, "audit-1", groupOf(6, "record", nil), func(completed int) { done <- completed })
	if accepted != 4 || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("SubmitGroup on 4 free slots = %d, %v; want 4, ErrQueueFull", accepted, err)
	}
	if s := q.Stats(); s.Depth != 4 || s.Rejected != 2 {
		t.Fatalf("stats = %+v, want depth 4 and 2 rejected", s)
	}
	close(release)
	if got := awaitDone(t, done); got != 3 {
		t.Fatalf("done reported %d completed, want 3 (one of the 4 failed)", got)
	}
	q.Close()
	accepted, err = q.SubmitGroup(Target{}, "audit-1", groupOf(2, "record", nil), func(int) { t.Error("done ran for a refused group") })
	if accepted != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitGroup after Close = %d, %v; want 0, ErrClosed", accepted, err)
	}
}

// TestGroupQuotaAcceptsAPrefix: a class quota bounds a group the way it
// bounds submissions, counting each of the group's tasks.
func TestGroupQuotaAcceptsAPrefix(t *testing.T) {
	to := Target{Class: "Audit"}
	q, started, release := blockingQueue(t, Config{
		Settings: Settings{ClassQuotas: map[string]int{"Audit": 3}},
		Target:   func(string, string) Target { return to },
	})
	if _, err := q.Submit(context.Background(), Target{}, "gate", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	done := make(chan int, 1)
	accepted, err := q.SubmitGroup(to, "audit-1", groupOf(5, "record", nil), func(completed int) { done <- completed })
	if accepted != 3 || !errors.Is(err, ErrClassQuotaExceeded) {
		t.Fatalf("SubmitGroup under a quota of 3 = %d, %v; want 3, ErrClassQuotaExceeded", accepted, err)
	}
	if s := q.Stats(); s.QuotaRejected != 2 {
		t.Fatalf("QuotaRejected = %d, want 2", s.QuotaRejected)
	}
	close(release)
	if got := awaitDone(t, done); got != 3 {
		t.Fatalf("done reported %d completed, want 3", got)
	}
}

// TestKilledGroupNeverReportsDone: a group accepted but not yet run when
// the queue is killed is gone — nothing of it was stored — and its done
// hook never runs, so its submitter's cursor stays before its events.
func TestKilledGroupNeverReportsDone(t *testing.T) {
	q, started, release := blockingQueue(t, Config{})
	if _, err := q.Submit(context.Background(), Target{}, "gate", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	if n, err := q.SubmitGroup(Target{}, "audit-1", groupOf(3, "record", nil), func(int) { t.Error("done ran for a killed group") }); n != 3 || err != nil {
		t.Fatalf("SubmitGroup = %d, %v", n, err)
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		q.Kill()
	}()
	// Kill waits for the parked worker, so the gate opens once the queue
	// refuses work: after that, no task it holds runs.
	for {
		if _, err := q.SubmitGroup(Target{}, "probe", nil, nil); errors.Is(err, ErrClosed) {
			break
		}
		runtime.Gosched()
	}
	close(release)
	<-killed
	if s := q.Stats(); s.Completed != 1 {
		t.Fatalf("stats = %+v, want only the gate completed", s)
	}
}
