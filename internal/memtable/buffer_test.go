package memtable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/heaptest"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// newBuffer returns a buffer-mode table over a fresh store whose writes
// take writeLatency on clock, with no background flush the test does
// not ask for.
func newBuffer(t *testing.T, clock vclock.Clock, writeLatency time.Duration) (*Table, *kvstore.Store) {
	t.Helper()
	db := kvstore.Open(kvstore.Config{WriteLatency: writeLatency, Clock: clock})
	t.Cleanup(db.Close)
	tbl, err := New(Config{Mode: ModeWriteBehind, Buffer: true, Backing: db, FlushInterval: time.Hour, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	return tbl, db
}

// TestBufferNeedsWriteBehind: the other modes have nothing to buffer.
func TestBufferNeedsWriteBehind(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	for _, mode := range []Mode{ModeWriteThrough, ModeMemoryOnly} {
		if _, err := New(Config{Mode: mode, Buffer: true, Backing: db}); err == nil {
			t.Errorf("New accepted a %v buffer", mode)
		}
	}
}

// TestBufferDropsWhatItFlushed: once its flush lands an entry leaves
// memory, and a read answers it from the store without caching it.
func TestBufferDropsWhatItFlushed(t *testing.T) {
	tbl, db := newBuffer(t, nil, 0)
	ctx := context.Background()
	if err := tbl.PutMany(ctx, []KV{{"a", json.RawMessage(`1`)}, {"b", json.RawMessage(`2`)}}); err != nil {
		t.Fatal(err)
	}
	if got, err := tbl.Get(ctx, "a"); err != nil || string(got) != "1" {
		t.Fatalf("unflushed Get = %s, %v", got, err)
	}
	tbl.Flush(ctx)
	if n := tbl.Len(); n != 0 {
		t.Fatalf("buffer holds %d entries after its flush, want 0", n)
	}
	reads := db.Stats().ReadOps
	if got, err := tbl.Get(ctx, "a"); err != nil || string(got) != "1" {
		t.Fatalf("flushed Get = %s, %v", got, err)
	}
	out, err := getMany(tbl, ctx, []string{"a", "b", "c"})
	if err != nil || len(out) != 2 || string(out["b"]) != "2" {
		t.Fatalf("flushed GetManyInto = %v, %v", out, err)
	}
	if n := tbl.Len(); n != 0 {
		t.Fatalf("reads cached %d entries in a buffer", n)
	}
	if got := db.Stats().ReadOps - reads; got != 2 {
		t.Fatalf("flushed reads cost %d store reads, want 2", got)
	}
	if _, err := tbl.Get(ctx, "c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a key found nowhere = %v, want ErrNotFound", err)
	}
}

// TestBufferDeleteLeavesNothing: a deleted key's tombstone goes once the
// backing delete lands, flushed or not; a delete the store refused keeps
// it, so the key reads deleted until a retry lands.
func TestBufferDeleteLeavesNothing(t *testing.T) {
	tbl, db := newBuffer(t, nil, 0)
	ctx := context.Background()
	for _, k := range []string{"flushed", "unflushed"} {
		if err := tbl.Put(ctx, k, json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
		if k == "flushed" {
			tbl.Flush(ctx)
		}
	}
	for _, k := range []string{"flushed", "unflushed", "never-written"} {
		if err := tbl.Delete(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	if n, dead := tbl.Len(), tbl.TombstoneCount(); n != 0 || dead != 0 {
		t.Fatalf("after the deletes the buffer holds %d entries and %d tombstones, want none", n, dead)
	}
	tbl.Flush(ctx)
	for _, k := range []string{"flushed", "unflushed"} {
		if _, err := db.Get(ctx, k); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("store Get %s = %v, want ErrNotFound", k, err)
		}
	}

	if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	tbl.Flush(ctx)
	sentinel := errors.New("delete dropped")
	db.InjectWriteFailures(1, sentinel)
	if err := tbl.Delete(ctx, "k"); !errors.Is(err, sentinel) {
		t.Fatalf("Delete = %v, want the injected failure", err)
	}
	if _, err := tbl.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after a refused delete = %v, want ErrNotFound", err)
	}
	if err := tbl.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if dead := tbl.TombstoneCount(); dead != 0 {
		t.Fatalf("%d tombstones after the retried delete, want 0", dead)
	}
	if _, err := tbl.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after the retried delete = %v, want ErrNotFound", err)
	}
}

// TestBufferRefusesVersionedOperations: a buffer forgets an entry's
// version with the entry, so it cannot validate one.
func TestBufferRefusesVersionedOperations(t *testing.T) {
	tbl, _ := newBuffer(t, nil, 0)
	ctx := context.Background()
	if _, err := getManyVersioned(tbl, ctx, []string{"k"}); !errors.Is(err, errBuffer) {
		t.Errorf("GetManyVersionedInto = %v, want errBuffer", err)
	}
	err := tbl.PutManyIfVersion(ctx, map[string]CASOp{"k": {Expect: AnyVersion, Value: json.RawMessage(`1`), Write: true}})
	if !errors.Is(err, errBuffer) {
		t.Errorf("PutManyIfVersion = %v, want errBuffer", err)
	}
}

// TestBufferGivesBackABurst: a buffer's shard maps keep the capacity of
// the largest burst they held only until the flush that drains them; then
// what a key costs is its store document, not a slot the buffer keeps
// for the next burst.
func TestBufferGivesBackABurst(t *testing.T) {
	const n = 100_000
	value := json.RawMessage(`"0123456789abcd"`) // 16 bytes: a size class of its own
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("evcursor/named/audit/obj-%06d", i)
	}
	ctx := context.Background()
	var db *kvstore.Store
	var tbl *Table
	per := heaptest.PerEntry(t, n, func() {
		db = kvstore.Open(kvstore.Config{})
		var err error
		// No early flush: the whole burst is in the buffer when Flush runs.
		if tbl, err = New(Config{Mode: ModeWriteBehind, Buffer: true, Backing: db, FlushInterval: time.Hour, FlushBatchSize: n}); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := tbl.Put(ctx, k, value); err != nil {
				t.Fatal(err)
			}
		}
		tbl.Flush(ctx)
	}) - float64(len(value))
	defer db.Close()
	defer tbl.Close()
	runtime.KeepAlive(keys)
	if tbl.Len() != 0 || db.Len() != n {
		t.Fatalf("buffer holds %d keys and the store %d, want 0 and %d", tbl.Len(), db.Len(), n)
	}
	t.Logf("%.1f B per flushed key beyond the key and its value, store included", per)
	// Measured 84.6 B, the store's document; 194–195 B while the shard
	// maps kept the burst's capacity after it drained.
	if per > 110 {
		t.Errorf("a burst leaves %.1f B per key, budget 110", per)
	}
}

// TestBufferKeepsItsMapsUnderASteadyLoad is TestBufferGivesBackABurst's
// other half: a buffer whose flush passes each drain about as many writes
// as the one before refills the same shard maps pass after pass, none
// rebuilt, and one whose load falls gives their capacity back by its
// second lighter pass.
func TestBufferKeepsItsMapsUnderASteadyLoad(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	tbl, err := New(Config{Mode: ModeWriteBehind, Buffer: true, Backing: db, FlushInterval: time.Hour, FlushBatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(1, 2)) // invocation IDs are random: every shard sees its share
	pass := func(perShard int) {
		kvs := make([]KV, len(tbl.shards)*perShard)
		for i := range kvs {
			kvs[i] = KV{fmt.Sprintf("invocations/inv-%024x", rng.Uint64()), json.RawMessage(`1`)}
		}
		if err := tbl.PutMany(ctx, kvs); err != nil {
			t.Fatal(err)
		}
		tbl.Flush(ctx)
	}
	// maps lists each shard's data and dirty maps.
	maps := func() (ptrs []uintptr) {
		for _, sh := range tbl.shards {
			sh.mu.Lock()
			ptrs = append(ptrs, reflect.ValueOf(sh.data).Pointer(), reflect.ValueOf(sh.dirty).Pointer())
			sh.mu.Unlock()
		}
		return ptrs
	}
	// rebuilt counts the shards whose data map is not the one in was.
	rebuilt := func(was []uintptr) (n int) {
		for i, p := range maps() {
			if i%2 == 0 && p != was[i] {
				n++
			}
		}
		return n
	}
	for range 3 {
		pass(100)
	}
	steady := maps()
	for range 50 {
		pass(100)
	}
	if !slices.Equal(maps(), steady) {
		t.Fatalf("a steady load rebuilt shard maps (the data maps of %d shards)", rebuilt(steady))
	}
	busy := 0
	for _, sh := range tbl.shards {
		sh.mu.Lock()
		if sh.dataSize.high > shrinkKeep {
			busy++
		}
		sh.mu.Unlock()
	}
	pass(2)
	if got := maps(); !slices.Equal(got, steady) {
		t.Fatal("one lighter pass rebuilt shard maps")
	}
	pass(2)
	if n := rebuilt(steady); busy == 0 || n != busy {
		t.Fatalf("the second lighter pass rebuilt %d shards' maps, want the %d that held over %d entries", n, busy, shrinkKeep)
	}
}
