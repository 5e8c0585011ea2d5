//go:build goexperiment.synctest

package asyncq

// A busy object's writes run on one worker, in bubbles: a test waits
// until every worker is blocked, so the tasks it submitted have been
// pulled and run, or wait in the box of an object a worker is running,
// and a hook that holds its object until then makes two workers running
// one object overlap for certain rather than by luck.

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// writes is the target of a call that commits its object's state.
var writes = Target{Writes: true}

// completeAll completes every call of a group with "ok".
func completeAll(results []call.Result) {
	for i := range results {
		results[i].Output = json.RawMessage(`"ok"`)
	}
}

// TestBusyObjectIsHandedToItsWorker parks a handler on object hot and
// submits six more writes on hot to a pool of four: they wait in hot's
// box, which the parked worker holds, so the idle workers find nothing
// ready, the hook is not entered for hot again while the first call is
// parked, and the six run as one group once it returns. Until then they
// are still queued.
func TestBusyObjectIsHandedToItsWorker(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		const more = 6
		parked, open := make(chan struct{}), make(chan struct{})
		var mu sync.Mutex
		var groups []int // the size of each group the hook was handed
		q := newQueue(t, Config{Settings: Settings{Workers: 4}, Invoke: func(_ context.Context, _ string, calls []call.Call, results []call.Result) {
			mu.Lock()
			groups = append(groups, len(calls))
			first := len(groups) == 1
			mu.Unlock()
			if first {
				close(parked)
				<-open
			}
			completeAll(results)
		}})
		release := sync.OnceFunc(func() { close(open) })
		defer release() // a failed check must not leave Close waiting on the parked call
		ctx := context.Background()
		ids := make([]string, 1+more)
		for i := range ids {
			id, err := q.Submit(ctx, writes, "hot", "m", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
			if i == 0 {
				<-parked
			}
		}
		simtest.Wait() // every other worker is idle: nothing is ready
		mu.Lock()
		entered := len(groups)
		mu.Unlock()
		if s, ready := q.Stats(), readyUnits(q); entered != 1 || ready != 0 || s.Depth != more {
			t.Fatalf("while hot's first call is parked: the hook was entered %d times, %d units are ready and the depth is %d; want 1, 0 and %d",
				entered, ready, s.Depth, more)
		}
		release()
		for _, id := range ids {
			if rec, err := q.Wait(ctx, id); err != nil || rec.Status != StatusCompleted {
				t.Fatalf("wait %s: %v %+v", id, err, rec)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if !slices.Equal(groups, []int{1, more}) {
			t.Fatalf("hot ran in groups of %v, want [1 %d]", groups, more)
		}
		if s := q.Stats(); s.Coalesced != more || s.Depth != 0 {
			t.Fatalf("stats = %+v, want %d coalesced and depth 0", s, more)
		}
	})
}

// TestBatchRunsEachObjectOnOneWorker submits a batch of 32 calls over 4
// objects, in round robin, while all four workers are parked, then lets
// them go: every call completes, and no object's calls ever run on two
// workers at once. The groups run in lockstep: each waits in the hook
// until every worker is blocked, so a worker that could enter a group
// on an object another one holds has done so before either returns.
// Pulled one call at a time in request order, each worker's share would
// hold two calls of every object.
func TestBatchRunsEachObjectOnOneWorker(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		const workers, objects, calls = 4, 4, 32
		parked, open := make(chan struct{}, workers), make(chan struct{})
		step := make(chan struct{})
		var mu sync.Mutex
		running := map[string]int{}
		overlaps, finished := 0, 0
		q := newQueue(t, Config{Settings: Settings{Workers: workers}, Invoke: func(_ context.Context, objectID string, calls []call.Call, results []call.Result) {
			if strings.HasPrefix(objectID, "gate") {
				parked <- struct{}{}
				<-open
				completeAll(results)
				return
			}
			mu.Lock()
			if running[objectID]++; running[objectID] > 1 {
				overlaps++
			}
			mu.Unlock()
			<-step
			mu.Lock()
			running[objectID]--
			finished += len(calls)
			mu.Unlock()
			completeAll(results)
		}})
		release := sync.OnceFunc(func() { close(open) })
		defer release()   // a failed check must not leave Close waiting on the gates
		defer close(step) // nor on a group
		ctx := context.Background()
		for i := range workers {
			if _, err := q.Submit(ctx, Target{}, fmt.Sprintf("gate-%d", i), "m", nil, nil); err != nil {
				t.Fatal(err)
			}
			<-parked
		}
		subs := make([]Submission, calls)
		for i := range subs {
			subs[i] = Submission{Object: fmt.Sprintf("o%d", i%objects), To: writes, Call: call.Call{Member: "m", Ctx: ctx}}
		}
		out := make([]BatchResult, calls)
		q.SubmitBatch(subs, out)
		release()
		for round := 0; ; round++ {
			simtest.Wait() // every worker is in a group or idle
			mu.Lock()
			done := finished == calls
			mu.Unlock()
			if done {
				break
			}
			if round == calls {
				t.Fatalf("%d of %d calls finished after %d rounds", finished, calls, round)
			}
			for stepped := true; stepped; { // let every waiting group finish
				select {
				case step <- struct{}{}:
				default:
					stepped = false
				}
			}
		}
		for i, res := range out {
			if res.Err != nil {
				t.Fatalf("call %d refused: %v", i, res.Err)
			}
			if rec, err := q.Wait(ctx, res.ID); err != nil || rec.Status != StatusCompleted {
				t.Fatalf("wait %s: %v %+v", res.ID, err, rec)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if overlaps > 0 {
			t.Fatalf("an object's calls ran on two workers at once %d times", overlaps)
		}
	})
}

// TestOtherCallsOnABusyObjectRunBeside parks a write on object hot and
// submits three calls on hot that do not write: they join no box, so
// the idle workers run them beside the parked write instead of queueing
// them behind it.
func TestOtherCallsOnABusyObjectRunBeside(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		const reads = 3
		parked, open := make(chan struct{}), make(chan struct{})
		q := newQueue(t, Config{Settings: Settings{Workers: 4}, Invoke: func(_ context.Context, _ string, calls []call.Call, results []call.Result) {
			if calls[0].Member == "write" {
				close(parked)
				<-open
			}
			completeAll(results)
		}})
		release := sync.OnceFunc(func() { close(open) })
		defer release() // a failed check must not leave Close waiting on the parked call
		ctx := context.Background()
		write, err := q.Submit(ctx, writes, "hot", "write", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		<-parked
		ids := make([]string, reads)
		for i := range ids {
			if ids[i], err = q.Submit(ctx, Target{}, "hot", "read", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		simtest.Wait() // every other worker is idle again
		for _, id := range ids {
			if rec, err := q.Get(ctx, id); err != nil || rec.Status != StatusCompleted {
				t.Fatalf("a read on hot while its write is parked: %v %+v, want it completed", err, rec)
			}
		}
		release()
		if rec, err := q.Wait(ctx, write); err != nil || rec.Status != StatusCompleted {
			t.Fatalf("wait %s: %v %+v", write, err, rec)
		}
	})
}

// TestHandedObjectsTakeTurns has one worker of two hold the boxes of
// objects a and b — it pulled a write on each in one pull, and parks on
// a's — while six more writes on a and one on b wait in them, and the
// other worker is parked, so the first serves both boxes alone. With
// DrainBatch 2, a's backlog alone would fill every group until it ran
// out; put back behind what is ready, b's box runs its write in the
// pull after a's next group, beside a's.
func TestHandedObjectsTakeTurns(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		gates := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
		parked := make(chan struct{}, len(gates))
		aParked, aOpen := make(chan struct{}), make(chan struct{})
		var mu sync.Mutex
		var groups []string // each group the hook was handed: its object and size
		q := newQueue(t, Config{Settings: Settings{Workers: 2, DrainBatch: 2}, Invoke: func(_ context.Context, objectID string, calls []call.Call, results []call.Result) {
			if gate, ok := strings.CutPrefix(objectID, "gate-"); ok {
				parked <- struct{}{}
				<-gates[gate[0]-'0']
				completeAll(results)
				return
			}
			mu.Lock()
			groups = append(groups, fmt.Sprint(objectID, len(calls)))
			first := objectID == "a" && !slices.Contains(groups[:len(groups)-1], "a1")
			mu.Unlock()
			if first {
				close(aParked)
				<-aOpen
			}
			completeAll(results)
		}})
		var once [4]sync.Once
		openGate := func(i int, c chan struct{}) { once[i].Do(func() { close(c) }) }
		defer openGate(0, gates[0]) // a failed check must not leave Close waiting
		defer openGate(1, gates[1])
		defer openGate(2, gates[2])
		defer openGate(3, aOpen)
		ctx := context.Background()
		gate := func(i int) {
			if _, err := q.Submit(ctx, Target{}, fmt.Sprintf("gate-%d", i), "m", nil, nil); err != nil {
				t.Fatal(err)
			}
			<-parked
		}
		gate(0)
		gate(1)
		// Queued as a, b, c, c: the first worker let go pulls its share,
		// a and b, and the other the two on c.
		var ids []string
		submit := func(objects ...string) {
			subs := make([]Submission, len(objects))
			for i, obj := range objects {
				subs[i] = Submission{Object: obj, To: writes, Call: call.Call{Member: "m", Ctx: ctx}}
			}
			out := make([]BatchResult, len(subs))
			q.SubmitBatch(subs, out)
			for _, res := range out {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				ids = append(ids, res.ID)
			}
		}
		submit("a", "b", "c", "c")
		openGate(0, gates[0])
		<-aParked
		openGate(1, gates[1])
		simtest.Wait() // c's calls ran; the second worker is idle
		for range 6 {
			submit("a")
		}
		submit("b")
		gate(2) // the second worker parks again
		simtest.Wait()
		mu.Lock()
		before := len(groups)
		mu.Unlock()
		if s := q.Stats(); s.Depth != 7 {
			t.Fatalf("depth = %d with a's first write parked, want the 7 boxed writes", s.Depth)
		}
		openGate(3, aOpen)
		for _, id := range ids {
			if rec, err := q.Wait(ctx, id); err != nil || rec.Status != StatusCompleted {
				t.Fatalf("wait %s: %v %+v", id, err, rec)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		// b1 first: the rest of the pull a's parked write was part of.
		if got, want := groups[before:], []string{"b1", "a2", "b1", "a1", "a2", "a1"}; !slices.Equal(got, want) {
			t.Fatalf("after a's first write the worker ran groups %v, want %v", got, want)
		}
	})
}

// TestPutBackWakesAnIdleWorker has one worker of two hold the boxes of
// objects x and y from one pull and park on x's write, while three more
// writes on x and one on y wait in them. Let go, the worker runs y's
// write, puts both boxes back and pulls x's box, whose group parks
// again: the idle second worker, woken by the second box put back, runs
// y's waiting write meanwhile instead of sleeping beside it.
func TestPutBackWakesAnIdleWorker(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		gates := []chan struct{}{make(chan struct{}), make(chan struct{})}
		parked := make(chan struct{}, len(gates))
		xParked, xOpen := make(chan struct{}), []chan struct{}{make(chan struct{}), make(chan struct{})}
		var mu sync.Mutex
		var groups []string // each group the hook was handed: its object and size
		q := newQueue(t, Config{Settings: Settings{Workers: 2, DrainBatch: 4}, Invoke: func(_ context.Context, objectID string, calls []call.Call, results []call.Result) {
			if gate, ok := strings.CutPrefix(objectID, "gate-"); ok {
				parked <- struct{}{}
				<-gates[gate[0]-'0']
				completeAll(results)
				return
			}
			mu.Lock()
			groups = append(groups, fmt.Sprint(objectID, len(calls)))
			xGroup := -1
			for _, g := range groups {
				if g[0] == 'x' {
					xGroup++
				}
			}
			mu.Unlock()
			if objectID == "x" && xGroup < len(xOpen) {
				xParked <- struct{}{}
				<-xOpen[xGroup]
			}
			completeAll(results)
		}})
		var once [4]sync.Once
		openGate := func(i int, c chan struct{}) { once[i].Do(func() { close(c) }) }
		defer openGate(0, gates[0]) // a failed check must not leave Close waiting
		defer openGate(1, gates[1])
		defer openGate(2, xOpen[0])
		defer openGate(3, xOpen[1])
		ctx := context.Background()
		for i := range gates {
			if _, err := q.Submit(ctx, Target{}, fmt.Sprintf("gate-%d", i), "m", nil, nil); err != nil {
				t.Fatal(err)
			}
			<-parked
		}
		submit := func(objects ...string) []string {
			subs := make([]Submission, len(objects))
			for i, obj := range objects {
				subs[i] = Submission{Object: obj, To: writes, Call: call.Call{Member: "m", Ctx: ctx}}
			}
			out := make([]BatchResult, len(subs))
			q.SubmitBatch(subs, out)
			ids := make([]string, len(out))
			for i, res := range out {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				ids[i] = res.ID
			}
			return ids
		}
		// Queued as x, y, z, z: the first worker let go pulls its share,
		// x and y, and the other the two on z.
		first := submit("x", "y", "z", "z")
		openGate(0, gates[0])
		<-xParked
		openGate(1, gates[1])
		simtest.Wait() // z's calls ran; the second worker is idle
		later := submit("x", "x", "x", "y")
		openGate(2, xOpen[0])
		<-xParked // the first worker runs x's box again
		simtest.Wait()
		if rec, err := q.Get(ctx, later[3]); err != nil || rec.Status != StatusCompleted {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("y's write while x's box is parked on the first worker: %v %+v, want it completed by the second (groups %v)", err, rec, groups)
		}
		openGate(3, xOpen[1])
		for _, id := range append(first, later...) {
			if rec, err := q.Wait(ctx, id); err != nil || rec.Status != StatusCompleted {
				t.Fatalf("wait %s: %v %+v", id, err, rec)
			}
		}
	})
}

// readyUnits is the length of q's ready FIFO.
func readyUnits(q *Queue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ready.Size()
}
