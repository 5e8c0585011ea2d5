package memtable

// Tests for the versioned read / CAS commit surface backing the
// optimistic-concurrency invocation path.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

func newVersionedTable(t *testing.T, mode Mode) (*Table, *kvstore.Store) {
	t.Helper()
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	cfg := Config{Mode: mode, Backing: db, FlushInterval: time.Hour}
	if mode == ModeMemoryOnly {
		cfg.Backing = nil
	}
	tbl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	return tbl, db
}

func TestGetManyVersionedSeedsBackingVersion(t *testing.T) {
	tbl, db := newVersionedTable(t, ModeWriteBehind)
	ctx := context.Background()
	// Three backing writes leave the document at version 3.
	for i := 1; i <= 3; i++ {
		if _, err := db.Put(ctx, "k", json.RawMessage(fmt.Sprintf(`%d`, i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := getManyVersioned(tbl, ctx, []string{"k", "absent"})
	if err != nil {
		t.Fatal(err)
	}
	if vv := got["k"]; string(vv.Value) != "3" || vv.Version != 3 {
		t.Fatalf("k = {%s, v%d}, want {3, v3}", vv.Value, vv.Version)
	}
	if vv := got["absent"]; vv.Value != nil || vv.Version != 0 {
		t.Fatalf("absent = {%s, v%d}, want {nil, v0}", vv.Value, vv.Version)
	}
	// A table write advances from the seeded version.
	if err := tbl.Put(ctx, "k", json.RawMessage(`4`)); err != nil {
		t.Fatal(err)
	}
	got, err = getManyVersioned(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if vv := got["k"]; vv.Version != 4 {
		t.Fatalf("version after write = %d, want 4", vv.Version)
	}
}

func TestPutManyIfVersionCommitAndStale(t *testing.T) {
	for _, mode := range []Mode{ModeWriteBehind, ModeWriteThrough, ModeMemoryOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			tbl, _ := newVersionedTable(t, mode)
			ctx := context.Background()
			if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
				"a": {Expect: 0, Value: json.RawMessage(`1`), Write: true},
			}); err != nil {
				t.Fatal(err)
			}
			// Re-commit with the stale creation expectation: rejected.
			err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
				"a": {Expect: 0, Value: json.RawMessage(`2`), Write: true},
			})
			if !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("stale commit err = %v, want ErrVersionMismatch", err)
			}
			if v, err := tbl.Get(ctx, "a"); err != nil || string(v) != "1" {
				t.Fatalf("a = %s (%v), want 1 (stale commit must not land)", v, err)
			}
			// The current version commits.
			got, err := getManyVersioned(tbl, ctx, []string{"a"})
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
				"a": {Expect: got["a"].Version, Value: json.RawMessage(`2`), Write: true},
			}); err != nil {
				t.Fatal(err)
			}
			if v, _ := tbl.Get(ctx, "a"); string(v) != "2" {
				t.Fatalf("a = %s, want 2", v)
			}
		})
	}
}

func TestPutManyIfVersionReadSetValidation(t *testing.T) {
	tbl, _ := newVersionedTable(t, ModeWriteBehind)
	ctx := context.Background()
	if err := tbl.Put(ctx, "read", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	got, err := getManyVersioned(tbl, ctx, []string{"read"})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent writer changes the read key.
	if err := tbl.Put(ctx, "read", json.RawMessage(`2`)); err != nil {
		t.Fatal(err)
	}
	// A commit writing another key but validating the read key must
	// abort: the decision was based on stale state (write skew).
	err = tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"read":  {Expect: got["read"].Version},
		"write": {Expect: 0, Value: json.RawMessage(`10`), Write: true},
	})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch from check-only op", err)
	}
	if _, err := tbl.Get(ctx, "write"); !errors.Is(err, ErrNotFound) {
		t.Fatal("aborted commit leaked its write op")
	}
	// AnyVersion skips validation entirely.
	if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"read": {Expect: AnyVersion, Value: json.RawMessage(`9`), Write: true},
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Get(ctx, "read"); string(v) != "9" {
		t.Fatalf("read = %s, want 9", v)
	}
}

func TestPutManyIfVersionDeleteLeavesTombstone(t *testing.T) {
	tbl, db := newVersionedTable(t, ModeWriteBehind)
	ctx := context.Background()
	if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	tbl.Flush(ctx)
	got, err := getManyVersioned(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	staleVer := got["k"].Version
	// Delete through a CAS commit (nil value).
	if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"k": {Expect: staleVer, Write: true},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(ctx, "k"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("backing still has deleted key: %v", err)
	}
	// The tombstone version blocks the stale resurrection...
	err = tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"k": {Expect: staleVer, Value: json.RawMessage(`1`), Write: true},
	})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale resurrection err = %v, want ErrVersionMismatch", err)
	}
	// ...and the versioned read reports it as authoritatively absent.
	got, err = getManyVersioned(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if vv := got["k"]; vv.Value != nil || vv.Version <= staleVer {
		t.Fatalf("tombstone read = {%s, v%d}, want nil value and version > %d", vv.Value, vv.Version, staleVer)
	}
	// Committing against the tombstone version recreates the key.
	if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"k": {Expect: got["k"].Version, Value: json.RawMessage(`5`), Write: true},
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Get(ctx, "k"); string(v) != "5" {
		t.Fatalf("recreated k = %s, want 5", v)
	}
}

func TestPutManyIfVersionWriteThroughBatches(t *testing.T) {
	tbl, db := newVersionedTable(t, ModeWriteThrough)
	ctx := context.Background()
	before := db.Stats()
	if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"a": {Expect: 0, Value: json.RawMessage(`1`), Write: true},
		"b": {Expect: 0, Value: json.RawMessage(`2`), Write: true},
		"c": {Expect: 0, Value: json.RawMessage(`3`), Write: true},
	}); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if ops := after.WriteOps - before.WriteOps; ops != 1 {
		t.Fatalf("write-through CAS commit cost %d write ops, want 1 consolidated batch", ops)
	}
	if docs := after.DocsWritten - before.DocsWritten; docs != 3 {
		t.Fatalf("docs written = %d, want 3", docs)
	}
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		doc, err := db.Get(ctx, k)
		if err != nil || string(doc.Value) != want {
			t.Fatalf("backing %s = %s (%v), want %s", k, doc.Value, err, want)
		}
	}
}

func TestPutManyIfVersionWriteThroughFailureCommitsNothing(t *testing.T) {
	tbl, db := newVersionedTable(t, ModeWriteThrough)
	ctx := context.Background()
	boom := errors.New("backing down")
	db.InjectWriteFailures(1, boom)
	err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"a": {Expect: 0, Value: json.RawMessage(`1`), Write: true},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if _, err := tbl.Get(ctx, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("failed write-through commit mutated the table")
	}
	// The expectation is still 0: the commit can simply be retried.
	if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"a": {Expect: 0, Value: json.RawMessage(`1`), Write: true},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPutManyIfVersionConcurrentExactness is the table-level CAS
// contention test: concurrent read-modify-write loops over one key
// land exactly once each, across every persistence mode.
func TestPutManyIfVersionConcurrentExactness(t *testing.T) {
	for _, mode := range []Mode{ModeWriteBehind, ModeWriteThrough, ModeMemoryOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			tbl, _ := newVersionedTable(t, mode)
			ctx := context.Background()
			const workers, perEach = 8, 50
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perEach; i++ {
						for {
							got, err := getManyVersioned(tbl, ctx, []string{"n"})
							if err != nil {
								t.Error(err)
								return
							}
							var n int
							if got["n"].Value != nil {
								if err := json.Unmarshal(got["n"].Value, &n); err != nil {
									t.Error(err)
									return
								}
							}
							raw, _ := json.Marshal(n + 1)
							err = tbl.PutManyIfVersion(ctx, map[string]CASOp{
								"n": {Expect: got["n"].Version, Value: raw, Write: true},
							})
							if err == nil {
								break
							}
							if !errors.Is(err, ErrVersionMismatch) {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			v, err := tbl.Get(ctx, "n")
			if err != nil {
				t.Fatal(err)
			}
			if string(v) != fmt.Sprintf("%d", workers*perEach) {
				t.Fatalf("n = %s, want %d (lost updates)", v, workers*perEach)
			}
		})
	}
}

// TestPutManyIfVersionMultiShardNoDeadlock hammers overlapping
// multi-key commits whose keys span shards in different orders; the
// ascending-shard-index lock order must keep them deadlock-free.
func TestPutManyIfVersionMultiShardNoDeadlock(t *testing.T) {
	tbl, _ := newVersionedTable(t, ModeMemoryOnly)
	ctx := context.Background()
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	const workers = 8
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					ops := make(map[string]CASOp, 3)
					for j := 0; j < 3; j++ {
						k := keys[(w*7+i*3+j*5)%len(keys)]
						ops[k] = CASOp{Expect: AnyVersion, Value: json.RawMessage(`1`), Write: true}
					}
					if err := tbl.PutManyIfVersion(ctx, ops); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("multi-shard CAS commits deadlocked")
	}
}

// TestReadThroughHonorsTombstones verifies the plain read paths treat
// a deletion tombstone as authoritative: even if the backing store
// still holds (or regains) a copy, Get/GetMany must not resurrect the
// key or re-arm its version.
func TestReadThroughHonorsTombstones(t *testing.T) {
	tbl, db := newVersionedTable(t, ModeWriteBehind)
	ctx := context.Background()
	if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	tbl.Flush(ctx)
	if err := tbl.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	// Simulate a stale backing copy surviving the delete (a raced
	// flush batch or failed backing delete).
	if _, err := db.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound (no resurrection)", err)
	}
	got, err := getMany(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["k"]; ok {
		t.Fatal("GetMany resurrected a tombstoned key from backing")
	}
	vv, err := getManyVersioned(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if vv["k"].Value != nil {
		t.Fatal("GetManyVersioned resurrected a tombstoned key")
	}
}

// TestCASDeleteOrderedWithRecreate interleaves a CAS delete with an
// immediate recreate: because backing deletes run inside the commit's
// lock window, the recreate's persisted value must survive.
func TestCASDeleteOrderedWithRecreate(t *testing.T) {
	tbl, db := newVersionedTable(t, ModeWriteThrough)
	ctx := context.Background()
	if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"k": {Expect: 0, Value: json.RawMessage(`1`), Write: true},
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := getManyVersioned(tbl, ctx, []string{"k"})
	if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"k": {Expect: got["k"].Version, Write: true}, // delete
	}); err != nil {
		t.Fatal(err)
	}
	got, _ = getManyVersioned(tbl, ctx, []string{"k"})
	if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"k": {Expect: got["k"].Version, Value: json.RawMessage(`2`), Write: true}, // recreate
	}); err != nil {
		t.Fatal(err)
	}
	doc, err := db.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(doc.Value) != "2" {
		t.Fatalf("backing k = %s, want 2 (delete must not erase the recreate)", doc.Value)
	}
}

// TestEntryStatesStayDistinct: one map slot now says whether a key is
// live, deleted or unknown, and a live key can hold a nil value (the
// clone of an empty one) — the three must read and validate
// differently.
func TestEntryStatesStayDistinct(t *testing.T) {
	ctx := context.Background()
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	clock := vclock.NewManual(time.Unix(0, 0))
	tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	if err := tbl.Put(ctx, "empty", json.RawMessage{}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{"cas-empty": {Value: json.RawMessage{}, Write: true}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put(ctx, "gone", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put(ctx, "cas-gone", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.PutManyIfVersion(ctx, map[string]CASOp{"cas-gone": {Expect: 1, Write: true}}); err != nil {
		t.Fatal(err)
	}
	// A stale copy in the store is what a tombstone must keep hidden.
	for _, k := range []string{"gone", "cas-gone"} {
		if _, err := db.Put(ctx, k, json.RawMessage(`"stale"`)); err != nil {
			t.Fatal(err)
		}
	}
	keys := []string{"empty", "cas-empty", "gone", "cas-gone", "never"}
	states := func() map[string]VersionedValue {
		t.Helper()
		got := make(map[string]VersionedValue, len(keys))
		if err := tbl.GetManyVersionedInto(ctx, keys, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := map[string]VersionedValue{
		"empty": {Version: 1}, "cas-empty": {Version: 1}, // live, nil value
		"gone": {Version: 2}, "cas-gone": {Version: 2}, // tombstones
		"never": {},
	}
	if got := states(); !reflect.DeepEqual(got, want) {
		t.Fatalf("versioned read = %+v, want %+v", got, want)
	}
	// Only the live keys are in the table, and only they are returned by
	// the unversioned reads (present, with a nil value).
	if got := tbl.Len(); got != 2 {
		t.Errorf("Len = %d, want 2 (tombstones are not entries)", got)
	}
	plain, err := getMany(tbl, ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["empty"]; !ok || len(plain) != 2 {
		t.Errorf("GetMany = %v, want exactly the two live keys", plain)
	}
	for _, k := range keys {
		_, err := tbl.Get(ctx, k)
		if live := k == "empty" || k == "cas-empty"; live != (err == nil) || (!live && !errors.Is(err, ErrNotFound)) {
			t.Errorf("Get(%s) error = %v", k, err)
		}
	}
	// The flusher persists a live nil value; it never writes a tombstone.
	tbl.Flush(ctx)
	if _, err := db.Get(ctx, "empty"); err != nil {
		t.Errorf("live empty value was not flushed: %v", err)
	}
	// Validation tells the three apart: a creating CAS (Expect 0) is
	// right only for the never-written key.
	for _, k := range keys {
		err := tbl.PutManyIfVersion(ctx, map[string]CASOp{k: {Expect: 0, Value: json.RawMessage(`2`), Write: true}})
		if k == "never" {
			if err != nil {
				t.Errorf("creating CAS on a never-written key: %v", err)
			}
		} else if !errors.Is(err, ErrVersionMismatch) {
			t.Errorf("creating CAS on %s: err = %v, want ErrVersionMismatch", k, err)
		}
	}
}
