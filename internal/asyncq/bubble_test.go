//go:build goexperiment.synctest

package asyncq

// Record TTL and quota tests in bubbles. The queue runs on a Manual
// clock that a test moves once every goroutine of the queue is blocked,
// so a sweep runs at the instant the test names, and a check that a
// record survived, or was evicted, is made after it and not after a
// guessed sleep.

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

// advance moves clock by d once the queue's goroutines are blocked, and
// returns once they are blocked again: every sweep and flush due by then
// has run.
func advance(clock *vclock.Manual, d time.Duration) {
	simtest.Wait()
	clock.Advance(d)
	simtest.Wait()
}

// TestRecordGCEvictsTerminalRecords verifies completed records are
// evicted once RecordTTL elapses, not before, and that the eviction is
// counted.
func TestRecordGCEvictsTerminalRecords(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		clock := vclock.NewManual(time.Unix(0, 0))
		inv := &echoInvoker{}
		q := newQueue(t, Config{
			Invoke:   each(inv.invoke),
			Settings: Settings{Workers: 2, RecordTTL: 30 * time.Millisecond},
			Clock:    clock,
		})
		ctx := context.Background()
		ids := make([]string, 5)
		for i := range ids {
			id, err := q.Submit(ctx, Target{}, fmt.Sprintf("obj-%d", i), "m", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		for _, id := range ids {
			if _, err := q.Wait(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		evicted := func() (n int) {
			for _, id := range ids {
				if _, err := q.Get(ctx, id); errors.Is(err, ErrNotFound) {
					n++
				}
			}
			return n
		}
		advance(clock, 29*time.Millisecond) // sweeps at a quarter TTL each
		if n := evicted(); n != 0 {
			t.Fatalf("%d/%d records evicted before their TTL", n, len(ids))
		}
		advance(clock, 11*time.Millisecond) // the first sweep past the TTL
		if n := evicted(); n != len(ids) {
			t.Fatalf("records not evicted after TTL: %d/%d gone", n, len(ids))
		}
		if got := q.Stats().Evicted; got != int64(len(ids)) {
			t.Fatalf("Stats().Evicted = %d, want %d", got, len(ids))
		}
	})
}

// TestRecordGCSparesNonTerminalRecords verifies in-flight records
// survive sweeps even when older than the TTL.
func TestRecordGCSparesNonTerminalRecords(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		clock := vclock.NewManual(time.Unix(0, 0))
		release := make(chan struct{})
		q := newQueue(t, Config{
			Invoke: each(func(ctx context.Context, _, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
				select {
				case <-release:
					return json.RawMessage(`"done"`), nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}),
			Settings: Settings{Workers: 1, RecordTTL: 10 * time.Millisecond},
			Clock:    clock,
		})
		ctx := context.Background()
		id, err := q.Submit(ctx, Target{}, "obj", "slow", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Let several TTLs and sweeps pass while the handler is running.
		for range 5 {
			advance(clock, 10*time.Millisecond)
		}
		rec, err := q.Get(ctx, id)
		if err != nil {
			t.Fatalf("running record evicted: %v", err)
		}
		if rec.Status.Terminal() {
			t.Fatalf("status = %s, want non-terminal", rec.Status)
		}
		close(release)
		if _, err := q.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
		// Now it is terminal and is evicted by the first sweep past its TTL.
		advance(clock, 10*time.Millisecond)
		advance(clock, 10*time.Millisecond/4)
		if _, err := q.Get(ctx, id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("terminal record not evicted a TTL and a sweep after it finished: %v", err)
		}
	})
}

// TestRecordGCEvictsFromBackingStore verifies eviction removes durable
// records from the backing document store, not just from memory.
func TestRecordGCEvictsFromBackingStore(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		clock := vclock.NewManual(time.Unix(0, 0))
		db := kvstore.Open(kvstore.Config{})
		defer db.Close()
		inv := &echoInvoker{}
		q := newQueue(t, Config{
			Invoke:        each(inv.invoke),
			Settings:      Settings{Workers: 1, RecordTTL: 20 * time.Millisecond},
			Backing:       db,
			FlushInterval: 2 * time.Millisecond,
			Clock:         clock,
		})
		ctx := context.Background()
		id, err := q.Submit(ctx, Target{}, "obj", "m", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
		advance(clock, 2*time.Millisecond) // the record's flush lands
		if keys, err := db.List(ctx, recordKey(id)); err != nil || len(keys) != 1 {
			t.Fatalf("backing store holds %v, %v after the flush, want the record", keys, err)
		}
		advance(clock, 20*time.Millisecond) // past the TTL, and a sweep
		keys, err := db.List(ctx, recordKey(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 0 {
			t.Fatalf("backing store still holds %v after TTL", keys)
		}
	})
}

// TestNoGCWithoutTTL verifies the zero-value config keeps records
// forever (the pre-GC behaviour).
func TestNoGCWithoutTTL(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		clock := vclock.NewManual(time.Unix(0, 0))
		inv := &echoInvoker{}
		q := newQueue(t, Config{Invoke: each(inv.invoke), Settings: Settings{Workers: 1}, Clock: clock})
		ctx := context.Background()
		id, err := q.Submit(ctx, Target{}, "obj", "m", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
		advance(clock, 24*time.Hour)
		if _, err := q.Get(ctx, id); err != nil {
			t.Fatalf("record evicted without a TTL: %v", err)
		}
		if q.Stats().Evicted != 0 {
			t.Fatalf("Evicted = %d, want 0", q.Stats().Evicted)
		}
	})
}

// TestClassQuotaRejectsAndReleases caps a class at 2 queued
// invocations: the third submission fails with ErrClassQuotaExceeded,
// and draining the backlog returns the quota.
func TestClassQuotaRejectsAndReleases(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		targetOf := func(objectID, _ string) Target {
			if objectID == "free" {
				return Target{Class: "Boundless"}
			}
			return Target{Class: "Capped"}
		}
		q, started, release := blockingQueue(t, Config{
			// Quota releases at dequeue; per-task draining keeps it deterministic.
			Settings: Settings{Capacity: 16, DrainBatch: 1, ClassQuotas: map[string]int{"Capped": 2}},
			Target:   targetOf,
		})
		ctx := context.Background()
		// Occupy the single worker with an unquoted class so the capped
		// submissions stay queued.
		if _, err := q.Submit(ctx, targetOf("free", "m"), "free", "m", nil, nil); err != nil {
			t.Fatal(err)
		}
		<-started
		for i := 0; i < 2; i++ {
			if _, err := q.Submit(ctx, targetOf("capped", "m"), "capped", "m", nil, nil); err != nil {
				t.Fatalf("submission %d within quota: %v", i, err)
			}
		}
		if _, err := q.Submit(ctx, targetOf("capped", "m"), "capped", "m", nil, nil); !errors.Is(err, ErrClassQuotaExceeded) {
			t.Fatalf("over-quota err = %v, want ErrClassQuotaExceeded", err)
		}
		// Unquoted classes are unaffected by the capped class's limit.
		if _, err := q.Submit(ctx, targetOf("free", "m"), "free", "m", nil, nil); err != nil {
			t.Fatalf("unquoted class rejected: %v", err)
		}
		if s := q.Stats(); s.QuotaRejected != 1 {
			t.Fatalf("QuotaRejected = %d, want 1", s.QuotaRejected)
		}
		close(release)
		simtest.Wait() // the backlog drains
		if n := q.Stats().Depth; n != 0 {
			t.Fatalf("%d invocations still queued once the worker is idle", n)
		}
		if _, err := q.Submit(ctx, targetOf("capped", "m"), "capped", "m", nil, nil); err != nil {
			t.Fatalf("quota not released after the drain: %v", err)
		}
	})
}
