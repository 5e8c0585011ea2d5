package asyncq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/simtest"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// TestBubbles runs this package's bubble tests; see internal/simtest.
func TestBubbles(t *testing.T) { simtest.Bubbles(t) }

// echoInvoker returns the payload and counts executions.
type echoInvoker struct {
	calls atomic.Int64
}

func (e *echoInvoker) invoke(_ context.Context, objectID, member string, payload json.RawMessage, _ map[string]string) (json.RawMessage, error) {
	e.calls.Add(1)
	if len(payload) > 0 {
		return payload, nil
	}
	out, _ := json.Marshal(objectID + "." + member)
	return out, nil
}

// each is the Invoke hook that runs a group's calls one by one through
// a handler of one call.
func each(handler func(ctx context.Context, objectID, member string, payload json.RawMessage, args map[string]string) (json.RawMessage, error)) func(context.Context, string, []call.Call, []call.Result) {
	return func(_ context.Context, objectID string, calls []call.Call, results []call.Result) {
		for i, c := range calls {
			results[i].Output, results[i].Err = handler(c.Ctx, objectID, c.Member, c.Payload, c.Args)
		}
	}
}

// newQueue builds a queue on cfg, on a store of its own when cfg names
// none, and closes it when the test ends.
func newQueue(t *testing.T, cfg Config) *Queue {
	t.Helper()
	if cfg.Backing == nil {
		cfg.Backing = kvstore.Open(kvstore.Config{})
		t.Cleanup(cfg.Backing.Close)
	}
	q, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	return q
}

func TestSubmitCompletesAndRecordsResult(t *testing.T) {
	inv := &echoInvoker{}
	q := newQueue(t, Config{Invoke: each(inv.invoke), Settings: Settings{Workers: 2}})
	ctx := context.Background()
	id, err := q.Submit(ctx, Target{}, "obj-1", "greet", json.RawMessage(`"hi"`), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := q.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusCompleted {
		t.Fatalf("status = %s (err %q), want completed", rec.Status, rec.Error)
	}
	if string(rec.Result) != `"hi"` {
		t.Fatalf("result = %s", rec.Result)
	}
	if rec.Object != "obj-1" || rec.Member != "greet" {
		t.Fatalf("record target = %s.%s", rec.Object, rec.Member)
	}
	if rec.Enqueued.IsZero() || rec.Started.IsZero() || rec.Finished.IsZero() {
		t.Fatalf("timings incomplete: %+v", rec)
	}
	if inv.calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", inv.calls.Load())
	}
}

// TestDeadlineIsOnTheQueuesClock: a submission's deadline is computed on
// the queue's clock and expires on it, not on the wall clock. On a Manual
// clock an hour-long deadline neither fires at once nor waits on real
// time: a task that finishes before the clock moves completes, and a
// blocked one expires when Advance reaches its deadline.
func TestDeadlineIsOnTheQueuesClock(t *testing.T) {
	clock := vclock.NewManual(time.Unix(1_700_000_000, 0))
	entered := make(chan struct{}, 1)
	q := newQueue(t, Config{Settings: Settings{Workers: 1}, Clock: clock, Invoke: each(func(ctx context.Context, _, member string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
		if member == "block" {
			entered <- struct{}{}
			<-ctx.Done()
		}
		return nil, ctx.Err()
	})})
	ctx := context.Background()
	to := Target{Timeout: time.Hour}
	for _, c := range []struct {
		member string
		want   Status
		err    string
	}{
		{"quick", StatusCompleted, ""},
		{"block", StatusExpired, context.DeadlineExceeded.Error()},
	} {
		id, err := q.Submit(ctx, to, "o", c.member, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.member == "block" {
			<-entered
			clock.Advance(time.Hour)
		}
		rec, err := q.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != c.want || rec.Error != c.err {
			t.Fatalf("%s: status %s, error %q after %v of virtual time, want %s, %q",
				c.member, rec.Status, rec.Error, clock.Since(rec.Enqueued), c.want, c.err)
		}
	}
}

func TestGetUnknownInvocation(t *testing.T) {
	q := newQueue(t, Config{Invoke: each((&echoInvoker{}).invoke)})
	if _, err := q.Get(context.Background(), "inv-ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestFailedInvocationRecordsError(t *testing.T) {
	boom := errors.New("boom")
	q := newQueue(t, Config{Invoke: each(func(context.Context, string, string, json.RawMessage, map[string]string) (json.RawMessage, error) {
		return nil, boom
	})})
	id, err := q.Submit(context.Background(), Target{}, "o", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := q.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusFailed || rec.Error != "boom" {
		t.Fatalf("record = %+v", rec)
	}
	if s := q.Stats(); s.Failed != 1 || s.Completed != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWaitRetiresWaiterEntries(t *testing.T) {
	inv := &echoInvoker{}
	q := newQueue(t, Config{Invoke: each(inv.invoke), Settings: Settings{Workers: 2}})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		id, err := q.Submit(ctx, Target{}, fmt.Sprintf("o%d", i), "m", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Two waits per invocation: the first may consume the terminal
		// wake, the second exercises the already-terminal fast path.
		for j := 0; j < 2; j++ {
			if _, err := q.Wait(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Waiting on an unknown id must not leave an entry behind either.
	if _, err := q.Wait(ctx, "inv-ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	q.mu.Lock()
	n := len(q.waiters)
	q.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d waiter entries leaked", n)
	}
}

// TestInvalidHandlerOutputFailsRecord: a handler's result is checked
// once, when it returns — the record encoder copies it as it is — so a
// result that is not JSON fails its invocation there, and never reaches a
// stored document.
func TestInvalidHandlerOutputFailsRecord(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	q := newQueue(t, Config{Backing: db, Invoke: each(func(context.Context, string, string, json.RawMessage, map[string]string) (json.RawMessage, error) {
		return json.RawMessage("not-json"), nil
	})})
	id, err := q.Submit(context.Background(), Target{}, "o", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := q.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	const want = "asyncq: handler returned invalid JSON output"
	if rec.Status != StatusFailed || rec.Error != want || rec.Result != nil {
		t.Fatalf("record = %+v, want failed with %q", rec, want)
	}
	q.records.Flush(context.Background())
	doc, err := db.Get(context.Background(), recordKey(id))
	if err != nil || !json.Valid(doc.Value) || !strings.Contains(string(doc.Value), `"status":"failed"`) {
		t.Fatalf("stored record = %s, %v; want a failed record that is JSON", doc.Value, err)
	}
}

func TestRecordsSurviveFlushCycles(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	inv := &echoInvoker{}
	q := newQueue(t, Config{
		Invoke:        each(inv.invoke),
		Backing:       db,
		FlushInterval: time.Millisecond,
	})
	id, err := q.Submit(context.Background(), Target{}, "o", "m", json.RawMessage(`42`), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := q.Wait(context.Background(), id)
	if err != nil || rec.Status != StatusCompleted {
		t.Fatalf("wait: %v %+v", err, rec)
	}
	// Give the write-behind flusher a few cycles, then verify the
	// terminal record landed in the backing store too.
	awaitStored(t, db, id, StatusCompleted)
	// Still poll-able after completion.
	again, err := q.Get(context.Background(), id)
	if err != nil || string(again.Result) != `42` {
		t.Fatalf("re-poll: %v %+v", err, again)
	}
}

func TestStatsCountersMatchSubmissions(t *testing.T) {
	inv := &echoInvoker{}
	q := newQueue(t, Config{Invoke: each(inv.invoke), Settings: Settings{Workers: 4, Capacity: 64}})
	const n = 32
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id, err := q.Submit(context.Background(), Target{}, fmt.Sprintf("o%d", i), "m", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := q.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	s := q.Stats()
	if s.Enqueued != n || s.Completed != n || s.Failed != 0 || s.Rejected != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Depth != 0 || s.InFlight != 0 {
		t.Fatalf("queue not drained: %+v", s)
	}
	if s.Workers != 4 || s.Capacity < 64 {
		t.Fatalf("config echo = %+v", s)
	}
}

func TestConcurrentSubmitAndWait(t *testing.T) {
	inv := &echoInvoker{}
	q := newQueue(t, Config{Invoke: each(inv.invoke), Settings: Settings{Workers: 8, Capacity: 1024}})
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := q.Submit(context.Background(), Target{}, fmt.Sprintf("obj-%d", i%13), "m", nil, nil)
			if err != nil {
				errs <- err
				return
			}
			rec, err := q.Wait(context.Background(), id)
			if err == nil && rec.Status != StatusCompleted {
				err = fmt.Errorf("status %s: %s", rec.Status, rec.Error)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if inv.calls.Load() != n {
		t.Fatalf("handler ran %d times, want %d", inv.calls.Load(), n)
	}
}

func TestNewRequiresInvoker(t *testing.T) {
	if _, err := New(Config{Backing: kvstore.Open(kvstore.Config{})}); err == nil {
		t.Fatal("New accepted a nil Invoker")
	}
}

func TestNewRequiresABacking(t *testing.T) {
	if _, err := New(Config{Invoke: each((&echoInvoker{}).invoke)}); err == nil || !strings.Contains(err.Error(), "Config.Backing") {
		t.Fatalf("New without a backing store: err = %v", err)
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	q, err := New(Config{Invoke: each((&echoInvoker{}).invoke), Backing: kvstore.Open(kvstore.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	if _, err := q.Submit(context.Background(), Target{}, "o", "m", nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	q.Close() // idempotent
}

func TestStatusTerminal(t *testing.T) {
	for s, want := range map[Status]bool{
		StatusPending: false, StatusRunning: false,
		StatusCompleted: true, StatusFailed: true,
	} {
		if s.Terminal() != want {
			t.Errorf("Terminal(%s) = %v", s, !want)
		}
	}
}

// flakyInvoker fails the first failures calls, then succeeds.
type flakyInvoker struct {
	calls    atomic.Int64
	failures int64
}

func (f *flakyInvoker) invoke(_ context.Context, _, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
	if f.calls.Add(1) <= f.failures {
		return nil, errors.New("transient")
	}
	return json.RawMessage(`"recovered"`), nil
}

// TestNoRetriesByDefault pins that a failed invocation runs once: the
// queue re-runs work only when the Requeue classifier sends it back.
func TestNoRetriesByDefault(t *testing.T) {
	inv := &flakyInvoker{failures: 1}
	q := newQueue(t, Config{Invoke: each(inv.invoke), Settings: Settings{Workers: 1}})
	ctx := context.Background()
	id, err := q.Submit(ctx, Target{}, "obj", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := q.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", rec.Status)
	}
	if got := inv.calls.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
}

// --- Batched drain and quota tests -----------------------------------

// awaitStored polls the backing store until the invocation's record is
// there with the given status (the record table flushes write-behind)
// and returns the stored document.
func awaitStored(t *testing.T, db *kvstore.Store, id string, status Status) json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if doc, err := db.Get(context.Background(), "invocations/"+id); err == nil {
			var rec Record
			if err := json.Unmarshal(doc.Value, &rec); err != nil {
				t.Fatalf("stored record does not decode: %v\n%s", err, doc.Value)
			}
			if rec.Status == status {
				return doc.Value
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s record reached the backing store", status)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingQueue builds a single-worker queue whose hook
// parks on release, then runs cfg.Invoke when one is set and completes
// every call with "ok" when not; started signals the first group.
func blockingQueue(t *testing.T, cfg Config) (q *Queue, started, release chan struct{}) {
	t.Helper()
	started = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	cfg.Workers = 1
	hook := cfg.Invoke
	cfg.Invoke = func(ctx context.Context, objectID string, calls []call.Call, results []call.Result) {
		once.Do(func() { close(started) })
		<-release
		if hook != nil {
			hook(ctx, objectID, calls, results)
			return
		}
		for i := range results {
			results[i].Output = json.RawMessage(`"ok"`)
		}
	}
	return newQueue(t, cfg), started, release
}

// TestBatchedDrainCoalescesSameObject parks the worker, builds a
// same-object backlog, and verifies one multi-task pull dispatches the
// group in one call of the hook, with BatchedDrains and Coalesced
// reflecting it.
func TestBatchedDrainCoalescesSameObject(t *testing.T) {
	const backlog = 6
	var groups atomic.Int64
	var grouped atomic.Int64
	inv := &echoInvoker{}
	cfg := Config{
		Settings: Settings{Capacity: 32, DrainBatch: 8},
		Invoke: func(ctx context.Context, objectID string, calls []call.Call, results []call.Result) {
			if len(calls) > 1 {
				groups.Add(1)
				grouped.Add(int64(len(calls)))
			}
			each(inv.invoke)(ctx, objectID, calls, results)
		},
	}
	q, started, release := blockingQueue(t, cfg)
	ctx := context.Background()
	if _, err := q.Submit(ctx, Target{}, "blocker", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	ids := make([]string, 0, backlog)
	for i := 0; i < backlog; i++ {
		id, err := q.Submit(ctx, Target{}, "hot", "m", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	close(release)
	for _, id := range ids {
		rec, err := q.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != StatusCompleted {
			t.Fatalf("record = %+v", rec)
		}
		if string(rec.Result) != `"hot.m"` {
			t.Fatalf("result = %s", rec.Result)
		}
	}
	if groups.Load() == 0 {
		t.Fatal("the hook saw no group of more than one call, want a coalesced group")
	}
	s := q.Stats()
	if s.BatchedDrains == 0 {
		t.Fatalf("BatchedDrains = 0 after a %d-task backlog drained", backlog)
	}
	if s.Coalesced != grouped.Load() {
		t.Fatalf("Coalesced = %d, want %d (calls dispatched through groups)", s.Coalesced, grouped.Load())
	}
	if s.Completed != int64(backlog)+1 {
		t.Fatalf("Completed = %d, want %d", s.Completed, backlog+1)
	}
}

// TestBatchInvokerPanicFailsGroupOnly panics the hook itself on the hot
// object's groups: those records fail, the worker survives, and later
// work still completes.
func TestBatchInvokerPanicFailsGroupOnly(t *testing.T) {
	cfg := Config{
		Settings: Settings{Capacity: 32, DrainBatch: 8},
		Invoke: func(ctx context.Context, objectID string, calls []call.Call, results []call.Result) {
			if objectID == "hot" {
				panic("broken batch executor")
			}
			for i := range results {
				results[i].Output = json.RawMessage(`"ok"`)
			}
		},
	}
	q, started, release := blockingQueue(t, cfg)
	ctx := context.Background()
	if _, err := q.Submit(ctx, Target{}, "blocker", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		id, err := q.Submit(ctx, Target{}, "hot", "m", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	close(release)
	for _, id := range ids {
		rec, err := q.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if want := "asyncq: handler panic: broken batch executor"; rec.Status != StatusFailed || rec.Error != want {
			t.Fatalf("record = %+v, want failed with %q", rec, want)
		}
	}
	if got := q.Metrics().Counter("queue.panics").Value(); got == 0 {
		t.Fatal("queue.panics = 0 after the hook panicked")
	}
	// The worker survived: a fresh singleton completes.
	id, err := q.Submit(ctx, Target{}, "later", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := q.Wait(ctx, id); err != nil || rec.Status != StatusCompleted {
		t.Fatalf("post-panic record = %v %+v", err, rec)
	}
}

// TestTerminalMetricsConsistentAcrossExitPaths verifies every terminal
// record — completed, failed, and cancelled-while-queued — contributes
// exactly one queue.exec sample, so the histogram count always equals
// completed+failed (the cancelled path used to skip it).
func TestTerminalMetricsConsistentAcrossExitPaths(t *testing.T) {
	q, started, release := blockingQueue(t, Config{Settings: Settings{Capacity: 16, DrainBatch: 1}})
	ctx := context.Background()
	if _, err := q.Submit(ctx, Target{}, "blocker", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	cctx, cancel := context.WithCancel(ctx)
	victimID, err := q.Submit(cctx, Target{}, "victim", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)
	if rec, err := q.Wait(ctx, victimID); err != nil || rec.Status != StatusFailed {
		t.Fatalf("victim record = %v %+v", err, rec)
	}
	// Drain fully so the blocker's terminal bookkeeping is done too.
	id, err := q.Submit(ctx, Target{}, "after", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	s := q.Stats()
	if got, want := q.Metrics().Histogram("queue.exec").Count(), s.Completed+s.Failed; got != want {
		t.Fatalf("queue.exec samples = %d, terminal records = %d (completed %d + failed %d)",
			got, want, s.Completed, s.Failed)
	}
	if s.InFlight != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", s.InFlight)
	}
}

// TestNewRejectsQuotasWithoutClassOf: quotas with no resolver of an
// adopted record's class would silently never apply to recovered work,
// so construction must fail.
func TestNewRejectsQuotasWithoutClassOf(t *testing.T) {
	_, err := New(Config{
		Invoke:   each((&echoInvoker{}).invoke),
		Settings: Settings{ClassQuotas: map[string]int{"C": 1}},
		Backing:  kvstore.Open(kvstore.Config{}),
	})
	if err == nil || !strings.Contains(err.Error(), "Config.Target") {
		t.Fatalf("err = %v, want Config.Target requirement error", err)
	}
}

// TestRecordDocumentsAreNeverRewrittenInPlace: every durable transition
// is a freshly encoded document handed to the record table (which hands
// it, unchanged, to the store), and Submit's copy of the payload is the
// one defensive copy on the way in — so the caller may reuse its payload
// buffer and args map at once, and the pending document a reader (or a
// successor's recovery scan) holds keeps its bytes while the terminal one
// replaces it. A goroutine reads the held pending document throughout, so
// under -race a reused encode buffer is a reported race.
func TestRecordDocumentsAreNeverRewrittenInPlace(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	q, started, release := blockingQueue(t, Config{Backing: db, FlushInterval: time.Millisecond})
	ctx := context.Background()
	payload := []byte(`{"n":1}`)
	args := map[string]string{"trigger": "stateChanged", "triggerDepth": "1"}
	id, err := q.Submit(ctx, Target{}, "o", "m", payload, args)
	if err != nil {
		t.Fatal(err)
	}
	copy(payload, `{"n":2}`) // the submitter reuses its buffer and its map
	args["triggerDepth"] = "9"
	<-started

	pending := awaitStored(t, db, id, StatusPending)
	want := string(pending)
	var rec Record
	if err := json.Unmarshal(pending, &rec); err != nil || string(rec.Payload) != `{"n":1}` || rec.Args["triggerDepth"] != "1" {
		t.Fatalf("pending record = %s (%v), want the payload and args as submitted", pending, err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if string(pending) != want {
				t.Errorf("the pending document changed under its reader: %s", pending)
				return
			}
		}
	}()
	close(release)
	if rec, err := q.Wait(ctx, id); err != nil || rec.Status != StatusCompleted {
		t.Fatalf("wait: %v %+v", err, rec)
	}
	terminal := awaitStored(t, db, id, StatusCompleted)
	close(stop)
	readers.Wait()
	if string(pending) != want || &terminal[0] == &pending[0] {
		t.Fatalf("the terminal document reused the pending one's bytes: %s", pending)
	}
}

// TestHeldRecordFieldsKeepTheirBytes: the Payload and Result Get returns
// alias the stored document (scanRecord), so a reader that keeps them —
// the gateway while it writes a response, a caller of
// Platform.Invocation for as long as it likes — must find them unchanged
// after the record's next transition has replaced the document and after
// the GC has evicted it. A goroutine reads both throughout, so under
// -race a table or store that wrote into a value it held is a reported
// race. Appending to an aliased field must not reach the document
// either: its capacity ends where it does.
func TestHeldRecordFieldsKeepTheirBytes(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	q, started, release := blockingQueue(t, Config{Backing: db, FlushInterval: time.Millisecond,
		Settings: Settings{RecordTTL: 20 * time.Millisecond}})
	ctx := context.Background()
	id, err := q.Submit(ctx, Target{}, "o", "m", json.RawMessage(`{"n":1}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	running, err := q.Get(ctx, id)
	if err != nil || running.Status != StatusRunning || string(running.Payload) != `{"n":1}` {
		t.Fatalf("running record = %+v (%v)", running, err)
	}
	if cap(running.Payload) != len(running.Payload) {
		t.Fatalf("the payload Get returned has %d bytes of the document behind it to append into", cap(running.Payload)-len(running.Payload))
	}

	held := make(chan json.RawMessage, 1) // the terminal record's result, once there is one
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var result json.RawMessage
		for {
			select {
			case result = <-held:
			case <-stop:
				return
			default:
			}
			if string(running.Payload) != `{"n":1}` || (result != nil && string(result) != `"ok"`) {
				t.Errorf("held fields changed under their reader: payload %s, result %s", running.Payload, result)
				return
			}
		}
	}()
	close(release)
	if _, err := q.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	done, err := q.Get(ctx, id) // read back from the table, not the waiter's copy
	if err != nil || done.Status != StatusCompleted || string(done.Result) != `"ok"` || cap(done.Result) != len(done.Result) {
		t.Fatalf("terminal record = %+v (%v)", done, err)
	}
	held <- done.Result
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := q.Get(ctx, id); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the terminal record was never evicted")
		}
	}
	close(stop)
	reader.Wait()
	if string(running.Payload) != `{"n":1}` || string(done.Result) != `"ok"` {
		t.Fatalf("after eviction: payload %s, result %s", running.Payload, done.Result)
	}
}

// --- One queue ----------------------------------------------------------

// TestIdleWorkerTakesTheNextTask parks one of two workers in a handler
// and submits 20 more tasks: the other worker runs every one of them
// while the first is still parked. A queue that binds a task to one
// worker leaves that worker's share waiting behind the parked handler.
func TestIdleWorkerTakesTheNextTask(t *testing.T) {
	parked, open := make(chan struct{}), make(chan struct{})
	q := newQueue(t, Config{Settings: Settings{Workers: 2, DrainBatch: 1}, Invoke: each(func(_ context.Context, objectID, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
		if objectID == "gate" {
			close(parked)
			<-open
		}
		return json.RawMessage(`"ok"`), nil
	})})
	defer close(open) // before the queue's Close, which drains
	ctx := context.Background()
	if _, err := q.Submit(ctx, Target{}, "gate", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	<-parked
	ids := make([]string, 20)
	for i := range ids {
		id, err := q.Submit(ctx, Target{}, fmt.Sprintf("o%d", i), "m", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	waited := 0
	for _, id := range ids {
		if rec, err := q.Wait(wctx, id); err != nil || rec.Status != StatusCompleted {
			waited++
		}
	}
	if waited > 0 {
		t.Fatalf("%d of %d tasks waited behind the parked handler while a worker was idle", waited, len(ids))
	}
}

// TestCapacityIsExact parks all four workers on one task each, then
// fills the queue: it accepts exactly Capacity submissions, and when it
// refuses the next one its depth is its capacity. A partitioned queue
// refuses as soon as its first partition fills.
func TestCapacityIsExact(t *testing.T) {
	const workers, capacity = 4, 64
	started, open := make(chan struct{}, workers), make(chan struct{})
	q := newQueue(t, Config{Settings: Settings{Workers: workers, DrainBatch: 1, Capacity: capacity}, Invoke: each(func(context.Context, string, string, json.RawMessage, map[string]string) (json.RawMessage, error) {
		select {
		case started <- struct{}{}:
		default: // a queued task, run once the gates open
		}
		<-open
		return json.RawMessage(`"ok"`), nil
	})})
	defer close(open)
	ctx := context.Background()
	for i := range workers {
		if _, err := q.Submit(ctx, Target{}, fmt.Sprintf("gate-%d", i), "m", nil, nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-started:
		case <-time.After(2 * time.Second):
			t.Errorf("gate task %d did not start with %d of %d workers idle", i, workers-i, workers)
		}
	}
	accepted := 0
	for ; accepted <= capacity; accepted++ {
		_, err := q.Submit(ctx, Target{}, fmt.Sprintf("o%d", accepted), "m", nil, nil)
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := q.Stats(); accepted != capacity || s.Capacity != capacity || s.Depth != capacity {
		t.Fatalf("the queue refused after %d submissions at depth %d of capacity %d, want it to take %d", accepted, s.Depth, s.Capacity, capacity)
	}
}

// TestCapacityIsExactOnOneHotObject parks a worker on object hot and
// fills the queue with writes on hot: they wait in hot's box, which the
// parked worker holds, and a write waiting in a box is still queued, so
// the queue accepts exactly Capacity submissions and refuses the next at
// a depth of its capacity. Not counting boxed writes would let the box
// grow without bound.
func TestCapacityIsExactOnOneHotObject(t *testing.T) {
	const workers, capacity = 4, 64
	started, open := make(chan struct{}, 1), make(chan struct{})
	q := newQueue(t, Config{Settings: Settings{Workers: workers, DrainBatch: 1, Capacity: capacity}, Invoke: each(func(context.Context, string, string, json.RawMessage, map[string]string) (json.RawMessage, error) {
		select {
		case started <- struct{}{}:
		default: // a queued task, run once the gate opens
		}
		<-open
		return json.RawMessage(`"ok"`), nil
	})})
	defer close(open)
	ctx := context.Background()
	writes := Target{Writes: true}
	if _, err := q.Submit(ctx, writes, "hot", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	accepted := 0
	for ; accepted <= capacity; accepted++ {
		_, err := q.Submit(ctx, writes, "hot", "m", nil, nil)
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := q.Stats(); accepted != capacity || s.Depth != capacity {
		t.Fatalf("the queue refused after %d submissions on one hot object at depth %d, want it to take %d", accepted, s.Depth, capacity)
	}
}

// TestBatchAcceptsWhatFitsInRequestOrder submits one batch to a queue
// whose worker is parked, with room for six calls and a quota of two on
// class A: the queue admits the calls in request order — the third A
// call finds its class at quota while B's calls still go in, and the
// calls past the sixth find the queue full. None of the calls writes,
// so each is a unit of its own in the FIFO, and the worker, pulling one
// task at a time, runs the six it accepted in request order. A refused
// call leaves no record.
func TestBatchAcceptsWhatFitsInRequestOrder(t *testing.T) {
	classes := map[string]Target{"a": {Class: "A"}, "b": {Class: "B"}}
	var mu sync.Mutex
	var ran []string
	q, started, release := blockingQueue(t, Config{
		Settings:      Settings{Capacity: 6, DrainBatch: 1, ClassQuotas: map[string]int{"A": 2}},
		FlushInterval: time.Hour, // the table keeps every record it was given
		Target:        func(objectID, _ string) Target { return classes[objectID] },
		Invoke: each(func(_ context.Context, objectID, _ string, payload json.RawMessage, _ map[string]string) (json.RawMessage, error) {
			mu.Lock()
			defer mu.Unlock()
			if objectID != "gate" {
				ran = append(ran, objectID+string(payload))
			}
			return json.RawMessage(`"ok"`), nil
		}),
	})
	ctx := context.Background()
	if _, err := q.Submit(ctx, Target{}, "gate", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	order := []string{"a", "b", "a", "a", "b", "b", "b", "b", "a"}
	subs := make([]Submission, len(order))
	for i, obj := range order {
		subs[i] = Submission{Object: obj, To: classes[obj], Call: call.Call{Member: "m", Payload: json.RawMessage(strconv.Itoa(i)), Ctx: ctx}}
	}
	out := make([]BatchResult, len(subs))
	q.SubmitBatch(subs, out)
	for i, want := range []error{nil, nil, nil, ErrClassQuotaExceeded, nil, nil, nil, ErrQueueFull, ErrQueueFull} {
		if got := out[i]; want == nil && (got.Err != nil || got.ID == "") || want != nil && (!errors.Is(got.Err, want) || got.ID != "") {
			t.Fatalf("call %d (%s) = %+v, want error %v", i, order[i], got, want)
		}
	}
	if s := q.Stats(); s.Depth != 6 || s.Rejected != 2 || s.QuotaRejected != 1 {
		t.Fatalf("stats = %+v, want depth 6, 2 rejected for room and 1 for quota", s)
	}
	if n := q.records.Len(); n != 1+6 {
		t.Fatalf("the record table holds %d records, want the gate's and the 6 accepted calls'", n)
	}
	close(release)
	for _, res := range out {
		if res.Err == nil {
			if rec, err := q.Wait(ctx, res.ID); err != nil || rec.Status != StatusCompleted {
				t.Fatalf("wait %s: %v %+v", res.ID, err, rec)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"a0", "b1", "a2", "b4", "b5", "b6"}; !slices.Equal(ran, want) {
		t.Fatalf("the worker ran %v, want %v", ran, want)
	}
}

// tickClock is the real clock with a Now that never returns one instant
// twice, so the records of one pull, which share the pull's start, are
// told apart from every other pull's.
type tickClock struct {
	vclock.Real
	mu   sync.Mutex
	last time.Time
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	if !now.After(c.last) {
		now = c.last.Add(time.Nanosecond)
	}
	c.last = now
	return now
}

// TestBurstSpreadsOverThePool parks all four workers, queues 32 tasks on
// distinct objects and lets the workers go: no pull takes more than its
// share of the backlog it leaves behind, 1+31/4 = 8 tasks, so the burst
// runs in at least four pulls. Pulls of the full DrainBatch (16) would
// let two workers take it all.
func TestBurstSpreadsOverThePool(t *testing.T) {
	const workers, burst = 4, 32
	parked, open := make(chan struct{}, workers), make(chan struct{})
	q := newQueue(t, Config{Settings: Settings{Workers: workers}, Clock: &tickClock{}, Invoke: each(func(_ context.Context, objectID, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
		if strings.HasPrefix(objectID, "gate") {
			parked <- struct{}{}
			<-open
		}
		return json.RawMessage(`"ok"`), nil
	})})
	release := sync.OnceFunc(func() { close(open) })
	defer release() // a failed gate must not leave Close waiting on the others
	ctx := context.Background()
	for i := range workers {
		if _, err := q.Submit(ctx, Target{}, fmt.Sprintf("gate-%d", i), "m", nil, nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-parked:
		case <-time.After(2 * time.Second):
			t.Fatalf("gate task %d did not start with %d of %d workers idle", i, workers-i, workers)
		}
	}
	ids := make([]string, burst)
	for i := range ids {
		id, err := q.Submit(ctx, Target{}, fmt.Sprintf("o%d", i), "m", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	release()
	pulls := map[int64]int{} // pull start -> tasks
	for _, id := range ids {
		rec, err := q.Wait(ctx, id)
		if err != nil || rec.Status != StatusCompleted {
			t.Fatalf("wait: %v %+v", err, rec)
		}
		pulls[rec.Started.UnixNano()]++
	}
	share := 1 + (burst-1)/workers
	if sizes := slices.Sorted(maps.Values(pulls)); sizes[len(sizes)-1] > share || len(sizes) < workers {
		t.Fatalf("%d tasks ran in pulls of %v, want pulls of at most %d (so at least %d)", burst, sizes, share, workers)
	}
}
