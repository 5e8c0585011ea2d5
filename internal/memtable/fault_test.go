package memtable

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// TestReadsServeFromMemoryDuringOutage verifies that in-memory state
// remains readable while the backing store rejects writes.
func TestReadsServeFromMemoryDuringOutage(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
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
	db.InjectWriteFailures(1000, errors.New("outage"))
	tbl.Flush(ctx) // fails, keys stay dirty
	v, err := tbl.Get(ctx, "k")
	if err != nil || string(v) != `1` {
		t.Fatalf("Get during outage = %s, %v", v, err)
	}
	// New writes are still accepted (buffered).
	if err := tbl.Put(ctx, "k2", json.RawMessage(`2`)); err != nil {
		t.Fatalf("Put during outage = %v", err)
	}
}

// TestWriteThroughSurfacesBackingErrors verifies the baseline mode
// (each op writes synchronously) propagates store failures to callers
// — the behaviour that makes the Knative baseline DB-bound.
func TestWriteThroughSurfacesBackingErrors(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	defer db.Close()
	tbl, err := New(Config{Mode: ModeWriteThrough, Backing: db})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	ctx := context.Background()
	sentinel := errors.New("db down")
	db.InjectWriteFailures(1, sentinel)
	if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); !errors.Is(err, sentinel) {
		t.Fatalf("write-through err = %v, want sentinel", err)
	}
}

// TestPutManyWriteThroughSurfacesBackingErrors verifies the batched
// write-through path propagates injected store failures and leaves the
// in-memory view untouched (the backing write is first).
func TestPutManyWriteThroughSurfacesBackingErrors(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	defer db.Close()
	tbl, err := New(Config{Mode: ModeWriteThrough, Backing: db})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	ctx := context.Background()
	sentinel := errors.New("db down")
	db.InjectWriteFailures(1, sentinel)
	entries := map[string]json.RawMessage{
		"a": json.RawMessage(`1`),
		"b": json.RawMessage(`2`),
	}
	if err := tbl.PutMany(ctx, kvs(entries)); !errors.Is(err, sentinel) {
		t.Fatalf("PutMany err = %v, want sentinel", err)
	}
	// The failed batch must not be visible in memory: the write-through
	// contract is durable-then-cached.
	if _, err := tbl.Get(ctx, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed batch leaked into memory: %v", err)
	}
	if db.FaultsServed() != 1 {
		t.Fatalf("faults served = %d", db.FaultsServed())
	}
}

// TestPutManyWriteBehindSurvivesOutage verifies batched write-behind
// entries stay dirty through an outage and flush once it clears.
func TestPutManyWriteBehindSurvivesOutage(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	defer db.Close()
	tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	ctx := context.Background()
	db.InjectWriteFailures(1, errors.New("outage"))
	entries := map[string]json.RawMessage{
		"x": json.RawMessage(`1`),
		"y": json.RawMessage(`2`),
	}
	if err := tbl.PutMany(ctx, kvs(entries)); err != nil {
		t.Fatal(err)
	}
	tbl.Flush(ctx) // hits the injected failure; keys stay dirty
	if n := tbl.DirtyCount(); n != 2 {
		t.Fatalf("dirty after failed flush = %d, want 2", n)
	}
	tbl.Flush(ctx) // outage over
	for k := range entries {
		if _, err := db.Get(ctx, k); err != nil {
			t.Fatalf("key %s not durable after recovery: %v", k, err)
		}
	}
}
