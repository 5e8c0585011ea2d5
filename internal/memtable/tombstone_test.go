package memtable

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// TestTombstoneStaleCASCannotResurrect: a deleted key keeps its
// tombstone, so a CAS anchored at the pre-delete version fails however
// long after the delete it lands, once the delete has reached the store.
func TestTombstoneStaleCASCannotResurrect(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	ctx := context.Background()
	if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	pre, err := getManyVersioned(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Flush(ctx)
	if err := tbl.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	tbl.Flush(ctx)
	if _, err := db.Get(ctx, "k"); err == nil {
		t.Fatal("the delete never reached the store")
	}
	if got := tbl.TombstoneCount(); got != 1 {
		t.Fatalf("tombstones = %d, want 1", got)
	}
	err = tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"k": {Expect: pre["k"].Version, Value: json.RawMessage(`99`), Write: true},
	})
	if err == nil {
		t.Fatal("stale CAS resurrected a deleted key")
	}
	if _, err := tbl.Get(ctx, "k"); err == nil {
		t.Fatal("deleted key reads back after a stale CAS")
	}
}
