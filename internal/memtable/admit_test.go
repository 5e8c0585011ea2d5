package memtable

// Tests for a cache's admission rule: a write stays in memory after its
// flush lands only if some read has asked for the key, and whatever
// version a reader holds keeps its entry.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/heaptest"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// TestCreateCASAfterUnreadWrite: a versioned read that finds a key
// nowhere hands out version 0, what a creating CAS expects. A blind Put
// of the key that lands before the CAS must fail it, exactly as while
// the Put's entry is in memory; if the Put left memory with its flush,
// the key would read version 0 again and the CAS would overwrite it.
func TestCreateCASAfterUnreadWrite(t *testing.T) {
	tbl, db := newVersionedTable(t, ModeWriteBehind)
	ctx := context.Background()
	got, err := getManyVersioned(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if vv := got["k"]; vv.Value != nil || vv.Version != 0 {
		t.Fatalf("absent key read as %+v, want {nil 0}", vv)
	}
	if err := tbl.Put(ctx, "k", json.RawMessage(`"blind"`)); err != nil {
		t.Fatal(err)
	}
	tbl.Flush(ctx)
	err = tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"k": {Expect: got["k"].Version, Value: json.RawMessage(`"create"`), Write: true},
	})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("creating CAS after a landed blind Put: err = %v, want ErrVersionMismatch", err)
	}
	tbl.Flush(ctx)
	if doc, err := db.Get(ctx, "k"); err != nil || string(doc.Value) != `"blind"` {
		t.Fatalf("store holds %s (%v), want the blind Put's value", doc.Value, err)
	}
}

// TestHeldVersionPinsItsEntry: once a versioned read has handed out a
// key's version, no flush pass lets the key go, whatever is written to
// it after: blind writes, a delete and a re-create. A key that left
// memory would count its versions from 0 again and could come back to
// the held one with another value.
func TestHeldVersionPinsItsEntry(t *testing.T) {
	tbl, _ := newVersionedTable(t, ModeWriteBehind)
	ctx := context.Background()
	if err := tbl.Put(ctx, "k", json.RawMessage(`0`)); err != nil {
		t.Fatal(err)
	}
	tbl.Flush(ctx) // unread: it leaves memory, and the read below reads through
	if n := tbl.Len(); n != 0 {
		t.Fatalf("unread key still resident after its flush (%d entries)", n)
	}
	got, err := getManyVersioned(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	held := got["k"].Version
	for i := 1; i <= 5; i++ {
		if err := tbl.Put(ctx, "k", json.RawMessage(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		tbl.Flush(ctx)
		if err := tbl.Delete(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Put(ctx, "k", json.RawMessage(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		tbl.Flush(ctx)
		if n := tbl.Len(); n != 1 {
			t.Fatalf("round %d: a held key left memory (%d entries)", i, n)
		}
	}
	err = tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"k": {Expect: held, Value: json.RawMessage(`"stale"`), Write: true},
	})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("CAS at the held version %d after 15 writes: err = %v, want ErrVersionMismatch", held, err)
	}
}

// TestReadThroughRacingADropReadsAgain: a read that misses memory and
// reads the store while a blind write lands and leaves memory must not
// cache what it read, which is older than that write; it reads again.
// Each read path is held between its store read and its caching while
// the write lands.
func TestReadThroughRacingADropReadsAgain(t *testing.T) {
	reads := []struct {
		name string
		read func(tbl *Table, ctx context.Context) (string, error)
	}{
		{"Get", func(tbl *Table, ctx context.Context) (string, error) {
			v, err := tbl.Get(ctx, "k")
			return string(v), err
		}},
		{"GetManyInto", func(tbl *Table, ctx context.Context) (string, error) {
			out, err := getMany(tbl, ctx, []string{"k"})
			return string(out["k"]), err
		}},
		{"GetManyVersionedInto", func(tbl *Table, ctx context.Context) (string, error) {
			out, err := getManyVersioned(tbl, ctx, []string{"k"})
			return string(out["k"].Value), err
		}},
	}
	for _, r := range reads {
		t.Run(r.name, func(t *testing.T) {
			tbl, db := newVersionedTable(t, ModeWriteBehind)
			ctx := context.Background()
			if _, err := db.Put(ctx, "k", json.RawMessage(`"old"`)); err != nil {
				t.Fatal(err)
			}
			held := false
			tbl.readHook = func() {
				if held {
					return
				}
				held = true
				if err := tbl.Put(ctx, "k", json.RawMessage(`"new"`)); err != nil {
					t.Error(err)
				}
				tbl.Flush(ctx) // lands "new" and drops it: nobody has read it
			}
			if got, err := r.read(tbl, ctx); err != nil || got != `"new"` {
				t.Fatalf("racing read = %s (%v), want the landed write \"new\"", got, err)
			}
			tbl.readHook = nil
			if v, err := tbl.Get(ctx, "k"); err != nil || string(v) != `"new"` {
				t.Fatalf("after the race the table reads %s (%v), want the landed write \"new\"", v, err)
			}
		})
	}
}

// TestUnreadWriteLeavesTheTable: keys that are written and flushed but
// never read leave a cache once the flush lands, and the shard maps give
// back the capacity the burst grew them to, so what such a key costs is
// its store document.
func TestUnreadWriteLeavesTheTable(t *testing.T) {
	const n = 100_000
	value := json.RawMessage(`"0123456789abcd"`) // 16 bytes: a size class of its own
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("state/C/obj-%06d/k", i)
	}
	ctx := context.Background()
	var db *kvstore.Store
	var tbl *Table
	per := heaptest.PerEntry(t, n, func() {
		db = kvstore.Open(kvstore.Config{})
		var err error
		// No early flush: the whole burst is in the table when Flush runs.
		if tbl, err = New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour, FlushBatchSize: n}); err != nil {
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
	t.Logf("%.1f B per flushed, unread key beyond the key and its value, store included", per)
	if tbl.Len() != 0 || tbl.TombstoneCount() != 0 || db.Len() != n {
		t.Fatalf("table holds %d keys and %d tombstones, the store %d; want 0, 0 and %d",
			tbl.Len(), tbl.TombstoneCount(), db.Len(), n)
	}
	// The buffer's budget (TestBufferGivesBackABurst): the store's
	// document is what is left. Measured 84.6 B; a cache that kept every
	// written key read 196.1 B here.
	if per > 110 {
		t.Errorf("an unread key leaves %.1f B, budget 110", per)
	}
}
