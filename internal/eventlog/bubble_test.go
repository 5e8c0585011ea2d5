//go:build goexperiment.synctest

package eventlog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/simtest"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// tick is what one store write takes in these tests, on a manual clock.
const tick = time.Millisecond

// TestSweepRacingDropSparesTheSuccessor: a sweep that took its garbage
// list before a Drop deletes nothing after it. Every store write takes a
// tick of a manual clock, so the test lets the sweep, the drop and the
// successor log's first append advance one write at a time: the sweep's
// deletes of the dropped log's evicted keys must not land in the entries
// the successor writes under the same keys. The clock moves only once
// every goroutine is durably blocked, so a Drop that waited for the
// sweep on a mutex would hang the test.
func TestSweepRacingDropSparesTheSuccessor(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		const retained, evicted = 4, 8
		clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
		st := kvstore.Open(kvstore.Config{WriteLatency: tick, Clock: clk})
		t.Cleanup(st.Close)
		l := testLog(t, Config{Backing: st, MaxPerObject: retained, Clock: clk})
		ctx := context.Background()
		// While nothing writes, the clock's waiters are the sweep's timer
		// and the cursor table's flush timer.
		const idle = 2
		simtest.Wait()
		if n := clk.Pending(); n != idle {
			t.Fatalf("%d clock waiters while idle, want %d", n, idle)
		}
		// One write of evicted+retained entries; the cap keeps the last
		// retained, so the first evicted are the sweep's garbage. Deleting
		// every entry from the store first leaves the drop only the bounds
		// to delete, while the sweep still pays a write per key.
		settle(t, clk, idle, goDone(func() {
			if _, err := l.AppendBatch(ctx, "obj", evicted+retained, func(_ int, off int64) (json.RawMessage, error) {
				return json.RawMessage(fmt.Sprintf(`{"old":%d}`, off)), nil
			}); err != nil {
				t.Error(err)
			}
			for off := int64(1); off <= evicted+retained; off++ {
				if err := st.Delete(ctx, entryKey("obj", off)); err != nil {
					t.Error(err)
				}
			}
		}))
		// The sweep takes its list and sleeps in its first delete; then the
		// object is deleted and made again, and the new log appends retained
		// entries in one write, under keys the sweep has yet to delete.
		swept := goDone(func() { l.Compact(ctx) })
		simtest.Wait()
		if n := clk.Pending(); n != idle+1 {
			t.Fatalf("%d clock waiters with the sweep started, want %d", n, idle+1)
		}
		settle(t, clk, idle, swept, goDone(func() {
			if err := l.Drop(ctx, "obj"); err != nil {
				t.Error(err)
				return
			}
			if first, err := l.AppendBatch(ctx, "obj", retained, func(_ int, off int64) (json.RawMessage, error) {
				return json.RawMessage(fmt.Sprintf(`{"new":%d}`, off)), nil
			}); err != nil || first != 1 {
				t.Errorf("successor's append = %d, %v, want offset 1", first, err)
			}
		}))

		reopened := testLog(t, Config{Backing: st, Clock: clk})
		for name, log := range map[string]*Log{"live": l, "reopened": reopened} {
			entries, err := log.Read(ctx, "obj", 1, 0)
			if err != nil || len(entries) != retained {
				t.Fatalf("%s log reads %d of the successor's %d entries, %v", name, len(entries), retained, err)
			}
			for i, e := range entries {
				if want := fmt.Sprintf(`{"new":%d}`, i+1); e.Offset != int64(i+1) || string(e.Payload) != want {
					t.Fatalf("%s log entry %d = %d %s, want %s", name, i, e.Offset, e.Payload, want)
				}
			}
		}
	})
}

// TestDropHonoursItsContextWhileASweepRuns: a Drop that waits for a
// sweep of its log ends when its context does, having deleted nothing,
// and the log is there to drop once the sweep is done.
func TestDropHonoursItsContextWhileASweepRuns(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
		st := kvstore.Open(kvstore.Config{WriteLatency: tick, Clock: clk})
		t.Cleanup(st.Close)
		l := testLog(t, Config{Backing: st, MaxPerObject: 1, Clock: clk})
		ctx := context.Background()
		simtest.Wait()
		idle := clk.Pending()
		// Two entries under a cap of one: the first is the sweep's garbage.
		settle(t, clk, idle, goDone(func() { appendN(t, l, "obj", 2) }))
		swept := goDone(func() { l.Compact(ctx) })
		simtest.Wait()
		if n := clk.Pending(); n != idle+1 {
			t.Fatalf("%d clock waiters with the sweep started, want %d", n, idle+1)
		}
		dctx, cancel := context.WithCancel(ctx)
		dropped := make(chan error, 1)
		go func() { dropped <- l.Drop(dctx, "obj") }()
		simtest.Wait()
		select {
		case err := <-dropped:
			t.Fatalf("Drop returned %v while the sweep was deleting", err)
		default:
		}
		if n := clk.Pending(); n != idle+1 {
			t.Fatalf("%d clock waiters with the Drop started, want %d: it must wait for the sweep before it deletes", n, idle+1)
		}
		cancel()
		if err := <-dropped; !errors.Is(err, context.Canceled) {
			t.Fatalf("Drop with its context cancelled = %v", err)
		}
		settle(t, clk, idle, swept)
		if entries, err := l.Read(ctx, "obj", 2, 0); err != nil || len(entries) != 1 || entries[0].Offset != 2 {
			t.Fatalf("after the cancelled Drop the log reads %+v, %v; want offset 2", entries, err)
		}
		settle(t, clk, idle, goDone(func() {
			if err := l.Drop(ctx, "obj"); err != nil {
				t.Error(err)
			}
		}))
		if entries, err := l.Read(ctx, "obj", 1, 0); err != nil || len(entries) != 0 {
			t.Fatalf("after the Drop the log reads %+v, %v", entries, err)
		}
	})
}

// TestAppendRacingADropWaitsOnTheLog: an append to an object whose Drop
// is asleep in a store delete waits for the drop without holding a mutex,
// so the bubble's clock still moves. Its wait ends at its context, having
// written nothing, or once the drop is done, in a fresh log that the drop
// does not delete.
func TestAppendRacingADropWaitsOnTheLog(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		clk := vclock.NewManual(time.Unix(1_700_000_000, 0))
		st := kvstore.Open(kvstore.Config{WriteLatency: tick, Clock: clk})
		t.Cleanup(st.Close)
		l := testLog(t, Config{Backing: st, Clock: clk})
		ctx := context.Background()
		simtest.Wait()
		idle := clk.Pending()
		settle(t, clk, idle, goDone(func() { appendN(t, l, "obj", 2) }))
		payload := func(off int64) (json.RawMessage, error) { return json.RawMessage(fmt.Sprintf(`{"new":%d}`, off)), nil }

		dropped := goDone(func() {
			if err := l.Drop(ctx, "obj"); err != nil {
				t.Error(err)
			}
		})
		simtest.Wait()
		if n := clk.Pending(); n != idle+1 {
			t.Fatalf("%d clock waiters with the Drop started, want %d: it sleeps in its first delete", n, idle+1)
		}
		actx, cancel := context.WithCancel(ctx)
		appended := make(chan error, 1)
		go func() {
			_, err := l.Append(actx, "obj", payload)
			appended <- err
		}()
		simtest.Wait() // a waiter on a mutex is not durably blocked: this would hang
		select {
		case err := <-appended:
			t.Fatalf("Append returned %v while the Drop was deleting", err)
		default:
		}
		if n := clk.Pending(); n != idle+1 {
			t.Fatalf("%d clock waiters with the Append started, want %d: it must not write while the Drop runs", n, idle+1)
		}
		cancel()
		if err := <-appended; !errors.Is(err, context.Canceled) {
			t.Fatalf("Append with its context cancelled = %v", err)
		}

		var off int64
		var err error
		settle(t, clk, idle, dropped, goDone(func() { off, err = l.Append(ctx, "obj", payload) }))
		if err != nil || off != 1 {
			t.Fatalf("the Append racing the Drop = %d, %v, want offset 1 of a fresh log", off, err)
		}
		reopened := testLog(t, Config{Backing: st, Clock: clk})
		for name, log := range map[string]*Log{"live": l, "reopened": reopened} {
			if entries, err := log.Read(ctx, "obj", 1, 0); err != nil || len(entries) != 1 || string(entries[0].Payload) != `{"new":1}` {
				t.Fatalf("%s log reads %+v, %v, want the one entry appended after the Drop", name, entries, err)
			}
		}
	})
}

// goDone runs fn on a goroutine of its own and returns a channel closed
// when fn returns.
func goDone(fn func()) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done
}

// settle advances clk a tick at a time, each once the bubble is idle,
// until every done is closed, so the goroutines behind them move one
// store write per tick together. idle is the number of clock waiters
// while nothing writes; a goroutine that is blocked, but not on the
// clock, fails the test.
func settle(t *testing.T, clk *vclock.Manual, idle int, done ...chan struct{}) {
	t.Helper()
	for {
		simtest.Wait()
		left := 0
		for _, d := range done {
			select {
			case <-d:
			default:
				left++
			}
		}
		if left == 0 {
			return
		}
		if clk.Pending() == idle {
			t.Fatalf("%d calls are blocked, none of them on the clock", left)
		}
		clk.Advance(tick)
	}
}
