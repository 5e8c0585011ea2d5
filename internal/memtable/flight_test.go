package memtable

// Tests for writes in flight: a write with backing I/O marks its keys,
// does the I/O without a shard lock, and lands in memory after; writers
// and readers of a marked key wait for it, and nothing else does.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// parkedCtx closes parked the first time its Done channel is asked for.
// A table asks only when a caller waits for a write in flight, so parked
// says the caller is waiting.
type parkedCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func newParkedCtx(ctx context.Context) *parkedCtx {
	return &parkedCtx{Context: ctx, parked: make(chan struct{})}
}

func (c *parkedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// holdFlight stops the table's next write half done, at flightHook:
// held closes when it stops, and it goes on once release is closed.
// Later writes pass.
func holdFlight(tbl *Table) (held, release chan struct{}) {
	held, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	tbl.flightHook = func() {
		first := false
		once.Do(func() { first = true })
		if first {
			close(held)
			<-release
		}
	}
	return held, release
}

// waitOrPark waits until a call has returned or parked on a write in
// flight, whichever it does.
func waitOrPark(t *testing.T, done <-chan error, c *parkedCtx) (returned bool) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		return true
	case <-c.parked:
		return false
	case <-time.After(5 * time.Second):
		t.Fatal("the call neither returned nor waited")
		return false
	}
}

// sameShardKey returns a key other than k that the table routes to k's
// shard.
func sameShardKey(tbl *Table, k string) string {
	for i := 0; ; i++ {
		c := fmt.Sprintf("other-%d", i)
		if tbl.shardIndexFor(c) == tbl.shardIndexFor(k) {
			return c
		}
	}
}

// TestWriteThroughStallLeavesItsShardReadable: a write-through commit
// whose backing write is stalled holds no shard lock, so a read of
// another key of its shard is answered at once. A read of the key in
// flight waits, and sees the write once it lands.
func TestWriteThroughStallLeavesItsShardReadable(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	db := kvstore.Open(kvstore.Config{Clock: clock})
	t.Cleanup(db.Close)
	tbl, err := New(Config{Mode: ModeWriteThrough, Backing: db, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	ctx := context.Background()
	other := sameShardKey(tbl, "k")
	if err := tbl.Put(ctx, other, json.RawMessage(`"resident"`)); err != nil {
		t.Fatal(err)
	}
	// Every write from here on stalls for a second of the Manual clock.
	db.SetFaultPlan(kvstore.FaultPlan{LatencySpikeRate: 1, LatencySpike: time.Second})
	committed := make(chan error, 1)
	go func() {
		committed <- tbl.PutManyIfVersion(ctx, map[string]CASOp{"k": {Expect: 0, Value: json.RawMessage(`1`), Write: true}})
	}()
	for clock.Pending() == 0 { // the commit's BatchPut is stalled
		runtime.Gosched()
	}
	read := make(chan error, 1)
	go func() {
		v, err := tbl.Get(ctx, other)
		if err == nil && string(v) != `"resident"` {
			err = fmt.Errorf("Get(%s) = %s", other, v)
		}
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		clock.Advance(time.Second)
		<-committed
		t.Fatal("a read of another key of the shard waited for a stalled write-through commit")
	}
	inFlight := newParkedCtx(ctx)
	got := make(chan json.RawMessage, 1)
	go func() {
		v, err := tbl.Get(inFlight, "k")
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	<-inFlight.parked
	clock.Advance(time.Second)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if v := <-got; string(v) != "1" {
		t.Fatalf("a read of the key in flight = %s, want the commit's 1", v)
	}
}

// TestConcurrentWriteThroughPutsAgree: two write-through Puts of one
// key, the first held between its backing write and its memory commit,
// leave memory and the store holding the same value. The second Put
// waits for the first: without that it would land in both places while
// the first is held, and the first would then overwrite memory alone.
func TestConcurrentWriteThroughPutsAgree(t *testing.T) {
	tbl, db := newBacked(t, ModeWriteThrough)
	ctx := context.Background()
	held, release := holdFlight(tbl)
	first := make(chan error, 1)
	go func() { first <- tbl.Put(ctx, "k", json.RawMessage(`1`)) }()
	<-held
	c := newParkedCtx(ctx)
	second := make(chan error, 1)
	go func() { second <- tbl.Put(c, "k", json.RawMessage(`2`)) }()
	returned := waitOrPark(t, second, c)
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if !returned {
		if err := <-second; err != nil {
			t.Fatal(err)
		}
	}
	mem, err := tbl.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(mem) != string(doc.Value) || string(mem) != "2" {
		t.Fatalf("memory holds %s and the store %s, want both 2", mem, doc.Value)
	}
}

// TestDeleteLandsBeforeARacingPut: a cache's Delete, held after its
// tombstone and before its backing delete, keeps a Put of the key
// waiting until the delete returns. Without that, the Put could be
// flushed, and dropped from memory unread, before the delete lands in
// the store, and the key would be lost.
func TestDeleteLandsBeforeARacingPut(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	db := kvstore.Open(kvstore.Config{Clock: clock})
	t.Cleanup(db.Close)
	tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	ctx := context.Background()
	if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	tbl.Flush(ctx)
	held, release := holdFlight(tbl)
	deleted := make(chan error, 1)
	go func() { deleted <- tbl.Delete(ctx, "k") }()
	<-held
	c := newParkedCtx(ctx)
	put := make(chan error, 1)
	go func() { put <- tbl.Put(c, "k", json.RawMessage(`2`)) }()
	returned := waitOrPark(t, put, c)
	tbl.Flush(ctx)
	close(release)
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	if !returned {
		if err := <-put; err != nil {
			t.Fatal(err)
		}
	}
	tbl.Flush(ctx)
	doc, err := db.Get(ctx, "k")
	if err != nil || string(doc.Value) != "2" {
		t.Fatalf("store k = %s (%v), want the Put's 2", doc.Value, err)
	}
	if v, err := tbl.Get(ctx, "k"); err != nil || string(v) != "2" {
		t.Fatalf("Get(k) = %s (%v), want the Put's 2", v, err)
	}
}

// TestCASDeleteOvertakenByAFlushIsRedeleted: a write-behind CAS delete
// of a key whose flush batch is in flight, when the batch lands after
// the backing delete but before the commit lands in memory, leaves the
// key to the flusher's re-delete, so the store does not keep the value
// the batch carried.
func TestCASDeleteOvertakenByAFlushIsRedeleted(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	db := kvstore.Open(kvstore.Config{Clock: clock})
	t.Cleanup(db.Close)
	tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	ctx := context.Background()
	if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	got, err := getManyVersioned(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	pending := clock.Pending() // the flusher's interval timer
	db.SetFaultPlan(kvstore.FaultPlan{LatencySpikeRate: 1, LatencySpike: time.Second})
	flushed := make(chan struct{})
	go func() { tbl.Flush(ctx); close(flushed) }()
	for clock.Pending() == pending { // the batch holding k is in flight
		runtime.Gosched()
	}
	db.SetFaultPlan(kvstore.FaultPlan{})
	held, release := holdFlight(tbl)
	committed := make(chan error, 1)
	go func() {
		committed <- tbl.PutManyIfVersion(ctx, map[string]CASOp{"k": {Expect: got["k"].Version, Write: true}})
	}()
	<-held // the backing delete has landed
	clock.Advance(time.Second)
	<-flushed // and the batch has landed after it
	close(release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	tbl.Flush(ctx)
	if _, err := db.Get(ctx, "k"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("store Get(k) = %v after the delete, want ErrNotFound", err)
	}
	if _, err := tbl.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(k) = %v after the delete, want ErrNotFound", err)
	}
}

// TestPutManyCommitsAllOrNothing: a PutMany one of whose keys is in
// flight waits for it before committing any key, so when its context
// ends during that wait it returns the context's error having committed
// none of the batch.
func TestPutManyCommitsAllOrNothing(t *testing.T) {
	tbl, _ := newBacked(t, ModeWriteBehind)
	ctx := context.Background()
	held, release := holdFlight(tbl)
	deleted := make(chan error, 1)
	go func() { deleted <- tbl.Delete(ctx, "b") }()
	<-held
	cctx, cancel := context.WithCancel(ctx)
	c := newParkedCtx(cctx)
	put := make(chan error, 1)
	go func() {
		put <- tbl.PutMany(c, []KV{{"a", json.RawMessage(`1`)}, {"b", json.RawMessage(`2`)}})
	}()
	<-c.parked
	cancel()
	if err := <-put; !errors.Is(err, context.Canceled) {
		t.Fatalf("PutMany = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if v, err := tbl.Get(ctx, k); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%s) = %s (%v) after a PutMany that failed, want ErrNotFound", k, v, err)
		}
	}
}

// TestBatchReadWaitsForAWriteInFlight: a batch read of a key whose
// write-through commit is in flight waits for the commit to land, and
// then reads it, in both batch reads.
func TestBatchReadWaitsForAWriteInFlight(t *testing.T) {
	for name, read := range map[string]func(ctx context.Context, tbl *Table, keys []string) (json.RawMessage, error){
		"GetManyInto": func(ctx context.Context, tbl *Table, keys []string) (json.RawMessage, error) {
			out := map[string]json.RawMessage{}
			err := tbl.GetManyInto(ctx, keys, out)
			return out["k"], err
		},
		"GetManyVersionedInto": func(ctx context.Context, tbl *Table, keys []string) (json.RawMessage, error) {
			out := map[string]VersionedValue{}
			err := tbl.GetManyVersionedInto(ctx, keys, out)
			return out["k"].Value, err
		},
	} {
		t.Run(name, func(t *testing.T) {
			tbl, _ := newBacked(t, ModeWriteThrough)
			ctx := context.Background()
			for k, v := range map[string]string{"k": `1`, "other": `"o"`} {
				if err := tbl.Put(ctx, k, json.RawMessage(v)); err != nil {
					t.Fatal(err)
				}
			}
			held, release := holdFlight(tbl)
			put := make(chan error, 1)
			go func() { put <- tbl.Put(ctx, "k", json.RawMessage(`2`)) }()
			<-held // in the store, not yet in memory
			c := newParkedCtx(ctx)
			got := make(chan json.RawMessage, 1)
			done := make(chan error, 1)
			go func() {
				v, err := read(c, tbl, []string{"other", "k"})
				got <- v
				done <- err
			}()
			if waitOrPark(t, done, c) {
				close(release)
				<-put
				t.Fatalf("the read returned k = %s while its write was in flight, want it to wait", <-got)
			}
			close(release)
			if err := <-put; err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if v := <-got; string(v) != "2" {
				t.Fatalf("k = %s after the write landed, want 2", v)
			}
		})
	}
}
