//go:build goexperiment.synctest

package memtable

// Write-behind, buffer and flush-race tests in bubbles. The store's write
// latency runs on the bubble's virtual clock: a test waits for a batch
// to be in flight with simtest.Wait, and for it to land by blocking on
// the flush that carries it, so every interleaving below is forced, not
// guessed with a sleep.

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

// TestBufferKeepsAWriteNewerThanItsFlush: a write landing while its key's
// batch is in flight stays in memory, dirty, when the batch lands, and
// is what reads answer until its own flush lands.
func TestBufferKeepsAWriteNewerThanItsFlush(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		tbl, db := newBuffer(t, nil, 50*time.Millisecond)
		ctx := context.Background()
		if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { tbl.Flush(ctx); close(done) }()
		simtest.Wait() // the batch is in its write
		if err := tbl.Put(ctx, "k", json.RawMessage(`2`)); err != nil {
			t.Fatal(err)
		}
		<-done
		if got, err := tbl.Get(ctx, "k"); err != nil || string(got) != "2" {
			t.Fatalf("Get after the older batch landed = %s, %v, want 2", got, err)
		}
		if n := tbl.DirtyCount(); n != 1 {
			t.Fatalf("dirty = %d after the older batch landed, want 1", n)
		}
		tbl.Flush(ctx)
		if doc, err := db.Get(ctx, "k"); err != nil || string(doc.Value) != "2" {
			t.Fatalf("store holds %s, %v, want 2", doc.Value, err)
		}
		if n := tbl.Len(); n != 0 {
			t.Fatalf("buffer holds %d entries after the newer flush, want 0", n)
		}
	})
}

// TestBufferDeleteWaitsForTheFlushInFlight: a Delete of a key whose
// batch is in flight waits for the batch to land, so the batch cannot
// land the key after the delete and the tombstone can go with the
// delete.
func TestBufferDeleteWaitsForTheFlushInFlight(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		tbl, db := newBuffer(t, nil, 50*time.Millisecond)
		ctx := context.Background()
		if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		flushed := make(chan struct{})
		go func() { tbl.Flush(ctx); close(flushed) }()
		simtest.Wait() // the batch is in its write
		deleted := make(chan error, 1)
		go func() { deleted <- tbl.Delete(ctx, "k") }()
		simtest.Wait()
		select {
		case err := <-deleted:
			t.Fatalf("Delete returned %v while the batch was in flight", err)
		default:
		}
		<-flushed
		if err := <-deleted; err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got != 100*time.Millisecond {
			t.Fatalf("the delete returned after %v, want the batch's 50ms write and then its own", got)
		}
		if _, err := db.Get(ctx, "k"); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("store Get = %v, want ErrNotFound", err)
		}
		if n, dead := tbl.Len(), tbl.TombstoneCount(); n != 0 || dead != 0 {
			t.Fatalf("the buffer holds %d entries and %d tombstones, want none", n, dead)
		}
	})
}

// TestBufferFlushWaitHonoursCtx: a Flush waiting for the pass in flight
// gives up when its context ends.
func TestBufferFlushWaitHonoursCtx(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		tbl, _ := newBuffer(t, nil, 50*time.Millisecond)
		if err := tbl.Put(context.Background(), "k", json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
		flushed := make(chan struct{})
		go func() { tbl.Flush(context.Background()); close(flushed) }()
		simtest.Wait() // the pass is in its write
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		tbl.Flush(ctx) // returns although the pass in flight has not landed
		if err := tbl.Delete(ctx, "k"); !errors.Is(err, context.Canceled) {
			t.Fatalf("Delete behind the pass in flight = %v, want context.Canceled", err)
		}
		<-flushed
	})
}

// TestFlusherRecoversFromTransientBackingFailures injects a burst of
// write failures into the backing store and verifies the write-behind
// flusher retries until every acknowledged write is durable — the
// no-lost-acknowledged-write invariant under a flaky database. The
// flusher runs on a Manual clock, moved one interval at a time once it
// is asleep between passes.
func TestFlusherRecoversFromTransientBackingFailures(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		db := kvstore.Open(kvstore.Config{})
		defer db.Close()
		clock := vclock.NewManual(time.Unix(0, 0))
		tbl, err := New(Config{
			Mode:          ModeWriteBehind,
			Backing:       db,
			FlushInterval: 5 * time.Millisecond,
			Shards:        2,
			Clock:         clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		db.InjectWriteFailures(6, errors.New("transient outage"))
		want := map[string]string{}
		for i := 0; i < 32; i++ {
			k := fmt.Sprintf("k%02d", i)
			v := fmt.Sprintf(`"v%02d"`, i)
			if err := tbl.Put(ctx, k, json.RawMessage(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		// Let the flusher burn through the failures and drain.
		for passes := 0; ; passes++ {
			simtest.Wait() // the flusher is asleep between passes
			if tbl.DirtyCount() == 0 {
				break
			}
			if passes == 100 {
				t.Fatalf("flusher never drained; %d dirty, faults served %d",
					tbl.DirtyCount(), db.FaultsServed())
			}
			clock.Advance(5 * time.Millisecond)
		}
		tbl.Close()
		if db.FaultsServed() == 0 {
			t.Fatal("no faults were actually injected; test is vacuous")
		}
		for k, v := range want {
			doc, err := db.Get(ctx, k)
			if err != nil {
				t.Fatalf("key %s lost after transient failures: %v", k, err)
			}
			if string(doc.Value) != v {
				t.Fatalf("key %s = %s, want %s", k, doc.Value, v)
			}
		}
	})
}

// TestDeleteDuringInFlightFlushDoesNotResurrect pins down the
// delete/flush race: a key snapshotted into an in-flight flush batch
// is deleted (and the direct backing delete is lost to an outage)
// before the batch lands. The batch write would resurrect the key in
// the backing store; the flusher must re-delete it.
func TestDeleteDuringInFlightFlushDoesNotResurrect(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		db := kvstore.Open(kvstore.Config{WriteLatency: 50 * time.Millisecond})
		defer db.Close()
		tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		ctx := context.Background()
		if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		flushDone := make(chan struct{})
		go func() {
			tbl.Flush(ctx)
			close(flushDone)
		}()
		simtest.Wait() // the flush's BatchPut is in its write
		// Delete while the batch is in flight; the direct backing delete
		// is dropped by an injected outage, so only the flusher's
		// post-batch re-delete can keep the store consistent.
		sentinel := errors.New("delete dropped")
		db.InjectWriteFailures(1, sentinel)
		if err := tbl.Delete(ctx, "k"); !errors.Is(err, sentinel) {
			t.Fatalf("Delete err = %v, want injected sentinel", err)
		}
		<-flushDone
		// The batch lands at 50ms and the re-delete pays its own write.
		if got := time.Since(start); got != 100*time.Millisecond {
			t.Fatalf("the flush took %v, want the batch's 50ms write and the re-delete's", got)
		}
		if _, err := tbl.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("table resurrected deleted key: %v", err)
		}
		if _, err := db.Get(ctx, "k"); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("backing store resurrected deleted key: %v", err)
		}
	})
}

// TestOverlappingFlushesDoNotLoseDeleteTombstone: a Flush called while
// a pass is in flight waits for it, so a delete arriving while batch A
// is in flight is re-applied once A lands, and the waiting Flush B
// writes nothing stale after it.
func TestOverlappingFlushesDoNotLoseDeleteTombstone(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		db := kvstore.Open(kvstore.Config{WriteLatency: 50 * time.Millisecond})
		defer db.Close()
		tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		ctx := context.Background()
		if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		aDone := make(chan struct{})
		go func() { tbl.Flush(ctx); close(aDone) }()
		simtest.Wait() // batch A is in its write
		if err := tbl.Put(ctx, "k", json.RawMessage(`2`)); err != nil {
			t.Fatal(err)
		}
		bDone := make(chan struct{})
		go func() { tbl.Flush(ctx); close(bDone) }()
		// Delete while A is in flight; the direct backing delete is dropped
		// by an outage, so only A's post-batch re-delete remains.
		sentinel := errors.New("delete dropped")
		db.InjectWriteFailures(1, sentinel)
		if err := tbl.Delete(ctx, "k"); !errors.Is(err, sentinel) {
			t.Fatalf("Delete err = %v, want injected sentinel", err)
		}
		simtest.Wait()
		select {
		case <-bDone:
			t.Fatal("flush B returned while batch A was still in flight")
		default:
		}
		<-aDone
		// A lands at 50ms, resurrecting k, and re-deletes it.
		if got := time.Since(start); got != 100*time.Millisecond {
			t.Fatalf("flush A took %v, want its 50ms batch and its re-delete's 50ms", got)
		}
		<-bDone
		if _, err := tbl.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("table resurrected deleted key: %v", err)
		}
		if _, err := db.Get(ctx, "k"); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("backing store resurrected deleted key: %v", err)
		}
	})
}

// TestOverlappingFlushesLandInOrder: a Flush called while an earlier
// pass is in flight runs after it, so the store ends with the newer
// value. Overlapping passes could land out of order: the earlier batch,
// held up by a latency spike, overwrote the later one's value in the
// store while memory held the later value clean, never to be flushed
// again — an acknowledged write lost on restart.
func TestOverlappingFlushesLandInOrder(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		db := kvstore.Open(kvstore.Config{})
		defer db.Close()
		// Seed 6 spikes the first write (batch A) and not the second (B).
		db.SetFaultPlan(kvstore.FaultPlan{Seed: 6, LatencySpikeRate: 0.5, LatencySpike: time.Second})
		tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		ctx := context.Background()
		if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
		// A read admits the key, so the table keeps it after its flushes
		// and the last Get below is answered from memory.
		if _, err := tbl.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		aDone := make(chan struct{})
		go func() { tbl.Flush(ctx); close(aDone) }()
		simtest.Wait() // batch A is in its spike
		if err := tbl.Put(ctx, "k", json.RawMessage(`2`)); err != nil {
			t.Fatal(err)
		}
		bDone := make(chan struct{})
		go func() { tbl.Flush(ctx); close(bDone) }()
		<-aDone
		<-bDone
		doc, err := db.Get(ctx, "k")
		if err != nil {
			t.Fatal(err)
		}
		got, err := tbl.Get(ctx, "k")
		if err != nil {
			t.Fatal(err)
		}
		if string(doc.Value) != "2" || string(got) != "2" {
			t.Fatalf("store holds %s and memory %s after both flushes, want 2 and 2", doc.Value, got)
		}
	})
}

// TestWriteBehindFlushesEventually: the flusher lands a write one flush
// interval after it was made, with nobody calling Flush.
func TestWriteBehindFlushesEventually(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		tbl, db := newBacked(t, ModeWriteBehind)
		ctx := context.Background()
		if err := tbl.Put(ctx, "k", json.RawMessage(`7`)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond) // newBacked's flush interval
		simtest.Wait()                    // the flusher's pass lands
		if _, err := db.Get(ctx, "k"); err != nil {
			t.Fatalf("write-behind entry not flushed after one interval: %v", err)
		}
	})
}

// TestEarlyFlushOnBatchThreshold: a shard reaching FlushBatchSize dirty
// keys is flushed at once, not at the next interval.
func TestEarlyFlushOnBatchThreshold(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		db := kvstore.Open(kvstore.Config{})
		defer db.Close()
		tbl, err := New(Config{
			Mode: ModeWriteBehind, Backing: db,
			FlushInterval: time.Hour, FlushBatchSize: 8, Shards: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		ctx := context.Background()
		for i := 0; i < 8; i++ {
			tbl.Put(ctx, fmt.Sprintf("k%d", i), json.RawMessage(`1`))
		}
		simtest.Wait() // the threshold's flush lands; the interval's is an hour away
		if n := tbl.DirtyCount(); n != 0 {
			t.Fatalf("%d keys dirty after reaching the batch threshold, want 0", n)
		}
	})
}
