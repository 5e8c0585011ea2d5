package asyncq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/israce"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// TestHandlerPanicMarksFailedAndPoolSurvives submits a panicking
// invocation and verifies the record turns failed while the worker
// keeps draining later submissions.
func TestHandlerPanicMarksFailedAndPoolSurvives(t *testing.T) {
	q := newQueue(t, Config{Settings: Settings{Workers: 1}, Invoke: each(func(_ context.Context, objectID, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
		if objectID == "bomb" {
			panic("kaboom")
		}
		return json.RawMessage(`"ok"`), nil
	})})
	ctx := context.Background()
	bombID, err := q.Submit(ctx, Target{}, "bomb", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := q.Wait(ctx, bombID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, "kaboom") {
		t.Fatalf("panic record = %+v", rec)
	}
	// The single worker must still be alive to run this one.
	okID, err := q.Submit(ctx, Target{}, "fine", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = q.Wait(ctx, okID)
	if err != nil || rec.Status != StatusCompleted {
		t.Fatalf("post-panic record = %v %+v", err, rec)
	}
	if s := q.Stats(); s.Failed != 1 || s.Completed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestQueueOverflowReturnsBackpressure fills the queue past capacity
// while the single worker is blocked and expects ErrQueueFull.
func TestQueueOverflowReturnsBackpressure(t *testing.T) {
	release := make(chan struct{})
	q := newQueue(t, Config{Settings: Settings{Workers: 1, Capacity: 4}, Invoke: each(func(context.Context, string, string, json.RawMessage, map[string]string) (json.RawMessage, error) {
		<-release
		return nil, nil
	})})
	defer close(release)
	ctx := context.Background()
	// One task occupies the worker; Capacity more fill the queue. The
	// first submissions may race the dequeue, so keep submitting until
	// the queue pushes back.
	var sawFull bool
	for i := 0; i < 16 && !sawFull; i++ {
		_, err := q.Submit(ctx, Target{}, "obj", "m", nil, nil)
		switch {
		case err == nil:
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		default:
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("queue never returned ErrQueueFull")
	}
	if s := q.Stats(); s.Rejected == 0 {
		t.Fatalf("rejected counter = %+v", s)
	}
}

// TestQueuedInvocationObservesCancellation cancels a submission while
// it is still queued behind a blocked worker: it must fail with the
// context error without the handler ever running.
func TestQueuedInvocationObservesCancellation(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var ranMu sync.Mutex
	ran := make(map[string]bool)
	// The batched drain publishes a cancelled-while-queued failure as
	// soon as the pull is recorded — possibly while an earlier task of
	// the same pull is still executing — so the map needs a lock even
	// with a single worker.
	q := newQueue(t, Config{Settings: Settings{Workers: 1, Capacity: 8}, Invoke: each(func(_ context.Context, objectID, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
		ranMu.Lock()
		ran[objectID] = true
		ranMu.Unlock()
		if objectID == "blocker" {
			close(started)
		}
		<-release
		return nil, nil
	})})
	ctx := context.Background()
	if _, err := q.Submit(ctx, Target{}, "blocker", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Submit the victim only once the blocker is executing, so it can
	// never ride the blocker's drain pull (a pull snapshots each task's
	// cancellation state at dequeue, before this cancel lands).
	<-started
	cctx, cancel := context.WithCancel(ctx)
	victimID, err := q.Submit(cctx, Target{}, "victim", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)
	rec, err := q.Wait(ctx, victimID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, context.Canceled.Error()) {
		t.Fatalf("cancelled record = %+v", rec)
	}
	if ran["victim"] {
		t.Fatal("cancelled invocation still executed")
	}
}

// TestInFlightInvocationObservesCancellation verifies a running
// handler sees its submitter's cancellation through the task context.
func TestInFlightInvocationObservesCancellation(t *testing.T) {
	started := make(chan struct{})
	q := newQueue(t, Config{Settings: Settings{Workers: 1}, Invoke: each(func(ctx context.Context, _, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})})
	cctx, cancel := context.WithCancel(context.Background())
	id, err := q.Submit(cctx, Target{}, "o", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	rec, err := q.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, context.Canceled.Error()) {
		t.Fatalf("in-flight cancel record = %+v", rec)
	}
}

// TestCloseDrainsAcceptedRecords accepts a burst of slow tasks, closes
// the queue, and verifies every accepted invocation reached a terminal
// record — none lost.
func TestCloseDrainsAcceptedRecords(t *testing.T) {
	q, err := New(Config{Settings: Settings{Workers: 2, Capacity: 64}, Backing: kvstore.Open(kvstore.Config{}), Invoke: each(func(context.Context, string, string, json.RawMessage, map[string]string) (json.RawMessage, error) {
		time.Sleep(2 * time.Millisecond)
		return json.RawMessage(`"done"`), nil
	})})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ids := make([]string, 0, 32)
	for i := 0; i < 32; i++ {
		id, err := q.Submit(ctx, Target{}, fmt.Sprintf("o%d", i), "m", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	q.Close() // blocks until drained
	if s := q.Stats(); s.Completed != int64(len(ids)) || s.Depth != 0 {
		t.Fatalf("post-close stats = %+v", s)
	}
	// Records stay readable after Close for late pollers? The table is
	// closed with the queue; the contract is that all records reached
	// terminal state before shutdown, which the counters above prove.
}

// TestWaitHonorsContextDeadline ensures Wait unblocks on a context
// timeout while the invocation is still parked.
func TestWaitHonorsContextDeadline(t *testing.T) {
	release := make(chan struct{})
	q := newQueue(t, Config{Settings: Settings{Workers: 1}, Invoke: each(func(context.Context, string, string, json.RawMessage, map[string]string) (json.RawMessage, error) {
		<-release
		return nil, nil
	})})
	defer close(release)
	id, err := q.Submit(context.Background(), Target{}, "o", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.Wait(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestSubmitRejectsInvalidPayload: bytes that are not JSON can neither
// be stored in the pending record nor re-run from it, so Submit and
// SubmitBatch refuse them before anything is written, tracked or
// executed. Admission is the one place a payload is checked: the record
// encoder copies it as it is.
func TestSubmitRejectsInvalidPayload(t *testing.T) {
	inv := &echoInvoker{}
	q := newQueue(t, Config{Invoke: each(inv.invoke)})
	id, err := q.Submit(context.Background(), Target{}, "o", "m", json.RawMessage(`{bad`), nil)
	if !errors.Is(err, ErrInvalidPayload) || id != "" {
		t.Fatalf("Submit = %q, %v; want ErrInvalidPayload", id, err)
	}
	out := make([]BatchResult, 2)
	q.SubmitBatch([]Submission{
		{Object: "o", Call: call.Call{Member: "m", Payload: json.RawMessage(`{"a":tru}`)}},
		{Object: "o", Call: call.Call{Member: "m", Payload: json.RawMessage(`1 2`)}},
	}, out)
	for i, res := range out {
		if !errors.Is(res.Err, ErrInvalidPayload) || res.ID != "" {
			t.Fatalf("SubmitBatch call %d = %+v; want ErrInvalidPayload", i, res)
		}
	}
	if n := q.records.Len(); n != 0 {
		t.Fatalf("%d records stored for rejected submissions", n)
	}
	q.mu.Lock()
	tracked := len(q.tracked)
	q.mu.Unlock()
	if s := q.Stats(); tracked != 0 || s.Enqueued != 0 || s.Depth != 0 || inv.calls.Load() != 0 {
		t.Fatalf("rejected submissions left a trace: tracked=%d calls=%d stats=%+v", tracked, inv.calls.Load(), s)
	}
	// An empty payload still means "no payload".
	if _, err := q.Submit(context.Background(), Target{}, "o", "m", json.RawMessage{}, nil); err != nil {
		t.Fatal(err)
	}
}

// storedStatus flushes the record table and returns the status of the
// backing store's document for one invocation.
func storedStatus(t *testing.T, q *Queue, db *kvstore.Store, id string) Status {
	t.Helper()
	q.records.Flush(context.Background())
	doc, err := db.Get(context.Background(), recordKey(id))
	if err != nil {
		t.Fatalf("backing store has no document for %s: %v", id, err)
	}
	var rec Record
	if err := json.Unmarshal(doc.Value, &rec); err != nil {
		t.Fatalf("stored document for %s is undecodable: %v (%q)", id, err, doc.Value)
	}
	return rec.Status
}

// TestRunningIsOverlaidNotStored parks a handler mid-run and checks both
// sides of the dropped running write: Get reports running with the
// pull's start time, the backing store still says pending. Killing the
// process there and starting a successor on the same store re-runs the
// invocation under its original ID.
func TestRunningIsOverlaidNotStored(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	q, started, release := blockingQueue(t, Config{Backing: db, FlushInterval: time.Hour})
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // a failed assertion must not leave Close waiting on the handler
	ctx := context.Background()
	id, err := q.Submit(ctx, Target{}, "o", "m", json.RawMessage(`{"n":7}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	rec, err := q.Get(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusRunning || rec.Started.IsZero() || rec.Started.Before(rec.Enqueued) || !rec.Finished.IsZero() {
		t.Fatalf("in-flight record = %+v, want running with Started set", rec)
	}
	if got := storedStatus(t, q, db, id); got != StatusPending {
		t.Fatalf("backing store says %q for an in-flight invocation, want pending", got)
	}

	// Crash with the handler still parked: only the flushed pending
	// document survives.
	killed := make(chan struct{})
	go func() {
		q.Kill()
		close(killed)
	}()
	unpark()
	<-killed

	inv := &echoInvoker{}
	succ := newQueue(t, Config{Invoke: each(inv.invoke), Backing: db, FlushInterval: time.Hour})
	// A Wait that arrives before recovery finds a non-terminal record
	// nobody here owns; it must block until the adopted run finishes.
	early := make(chan Record, 1)
	go func() {
		rec, err := succ.Wait(ctx, id)
		if err != nil {
			t.Errorf("early Wait: %v", err)
		}
		early <- rec
	}()
	for registered := false; !registered; runtime.Gosched() {
		succ.mu.Lock()
		registered = len(succ.waiters) == 1
		succ.mu.Unlock()
	}
	if n, err := succ.RecoverStranded(ctx); err != nil || n != 1 {
		t.Fatalf("RecoverStranded = %d, %v; want 1 adopted", n, err)
	}
	rec, err = succ.Wait(ctx, id)
	if err != nil || rec.Status != StatusCompleted || string(rec.Result) != `{"n":7}` {
		t.Fatalf("recovered record = %+v, %v", rec, err)
	}
	if rec := <-early; rec.Status != StatusCompleted || rec.ID != id {
		t.Fatalf("early waiter got %+v", rec)
	}
	if inv.calls.Load() != 1 {
		t.Fatalf("successor ran the handler %d times, want 1", inv.calls.Load())
	}
	if got := storedStatus(t, succ, db, id); got != StatusCompleted {
		t.Fatalf("backing store says %q after recovery, want completed", got)
	}
}

// TestRequeueResetsRunningOverlay fences an in-flight invocation back to
// the queue behind a parked blocker: while it waits for its second run
// it reads pending again (no Started), and running once re-dequeued.
func TestRequeueResetsRunningOverlay(t *testing.T) {
	errFence := errors.New("ownership moved")
	type gate struct{ started, release chan struct{} }
	gates := map[string][]gate{
		"victim":  {{make(chan struct{}), make(chan struct{})}, {make(chan struct{}), make(chan struct{})}},
		"blocker": {{make(chan struct{}), make(chan struct{})}},
	}
	var mu sync.Mutex
	runs := map[string]int{}
	q := newQueue(t, Config{
		Settings: Settings{Workers: 1, DrainBatch: 1},
		Requeue:  func(err error) bool { return errors.Is(err, errFence) },
		Invoke: each(func(_ context.Context, objectID, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
			mu.Lock()
			g := gates[objectID][runs[objectID]]
			runs[objectID]++
			first := runs[objectID] == 1
			mu.Unlock()
			close(g.started)
			<-g.release
			if objectID == "victim" && first {
				return nil, errFence
			}
			return json.RawMessage(`"ok"`), nil
		}),
	})
	ctx := context.Background()
	status := func(id string) Record {
		t.Helper()
		rec, err := q.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	victim, err := q.Submit(ctx, Target{}, "victim", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-gates["victim"][0].started
	if _, err := q.Submit(ctx, Target{}, "blocker", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	if rec := status(victim); rec.Status != StatusRunning || rec.Started.IsZero() {
		t.Fatalf("first run reads %+v, want running", rec)
	}
	// Fence the victim: it goes back behind the blocker, which the one
	// worker picks up next — so once the blocker runs, the victim sits
	// queued.
	close(gates["victim"][0].release)
	<-gates["blocker"][0].started
	if rec := status(victim); rec.Status != StatusPending || !rec.Started.IsZero() {
		t.Fatalf("requeued invocation reads %+v, want pending with no Started", rec)
	}
	close(gates["blocker"][0].release)
	<-gates["victim"][1].started
	if rec := status(victim); rec.Status != StatusRunning || rec.Started.IsZero() {
		t.Fatalf("second run reads %+v, want running", rec)
	}
	close(gates["victim"][1].release)
	rec, err := q.Wait(ctx, victim)
	if err != nil || rec.Status != StatusCompleted {
		t.Fatalf("terminal record = %+v, %v", rec, err)
	}
	if s := q.Stats(); s.Requeued != 1 || s.Failed != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestWaitOnTerminalTakesNoWaiter: a long-poll that finds the record
// already terminal is a plain read — no waiter entry, no channel.
func TestWaitOnTerminalTakesNoWaiter(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := newQueue(t, Config{Invoke: each((&echoInvoker{}).invoke)})
	ctx := context.Background()
	id, err := q.Submit(ctx, Target{}, "o", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	read := testing.AllocsPerRun(200, func() {
		if rec, err := q.Get(ctx, id); err != nil || !rec.Status.Terminal() {
			t.Fatalf("Get = %+v, %v", rec, err)
		}
	})
	wait := testing.AllocsPerRun(200, func() {
		if rec, err := q.Wait(ctx, id); err != nil || !rec.Status.Terminal() {
			t.Fatalf("Wait = %+v, %v", rec, err)
		}
	})
	if wait != read {
		t.Fatalf("Wait on a terminal id allocates %v objects, a plain Get %v", wait, read)
	}
	q.mu.Lock()
	n := len(q.waiters)
	q.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d waiter entries left behind", n)
	}
}
