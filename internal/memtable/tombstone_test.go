package memtable

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// newTombTable builds a table with tombstone compaction enabled.
func newTombTable(t *testing.T, mode Mode, ttl, interval time.Duration) (*Table, *kvstore.Store) {
	t.Helper()
	db := kvstore.Open(kvstore.Config{})
	t.Cleanup(db.Close)
	tbl, err := New(Config{
		Mode: mode, Backing: db,
		FlushInterval:       5 * time.Millisecond,
		TombstoneTTL:        ttl,
		TombstoneGCInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	return tbl, db
}

// TestTombstoneChurnCompaction is the churn test of the compaction
// satellite: an object-churning workload (create, write, delete, over
// and over) must not grow the shards unboundedly — expired tombstones
// are swept and counted.
func TestTombstoneChurnCompaction(t *testing.T) {
	for _, mode := range []Mode{ModeWriteBehind, ModeWriteThrough} {
		t.Run(mode.String(), func(t *testing.T) {
			tbl, _ := newTombTable(t, mode, 20*time.Millisecond, time.Hour) // sweep manually
			ctx := context.Background()
			const churn = 500
			for i := 0; i < churn; i++ {
				key := fmt.Sprintf("state/C/obj-%04d/k", i)
				if err := tbl.Put(ctx, key, json.RawMessage(`1`)); err != nil {
					t.Fatal(err)
				}
				if err := tbl.Delete(ctx, key); err != nil {
					t.Fatal(err)
				}
			}
			tbl.Flush(ctx)
			if got := tbl.TombstoneCount(); got != churn {
				t.Fatalf("tombstones before sweep = %d, want %d", got, churn)
			}
			// Not yet expired: a sweep evicts nothing.
			tbl.CompactTombstones()
			if got := tbl.TombstoneCount(); got != churn {
				t.Fatalf("fresh tombstones evicted early: %d left of %d", got, churn)
			}
			time.Sleep(25 * time.Millisecond)
			tbl.CompactTombstones()
			if got := tbl.TombstoneCount(); got != 0 {
				t.Fatalf("tombstones after sweep = %d, want 0", got)
			}
			if s := tbl.Stats(); s.TombstonesEvicted != churn {
				t.Fatalf("TombstonesEvicted = %d, want %d", s.TombstonesEvicted, churn)
			}
			// The versions are gone too: a fresh write starts a new
			// version history and the key reads back normally.
			key := "state/C/obj-0000/k"
			if err := tbl.Put(ctx, key, json.RawMessage(`2`)); err != nil {
				t.Fatal(err)
			}
			if v, err := tbl.Get(ctx, key); err != nil || string(v) != "2" {
				t.Fatalf("reborn key = %s, %v", v, err)
			}
		})
	}
}

// TestTombstoneBackgroundSweep verifies the piggybacked background
// sweeper evicts without manual calls.
func TestTombstoneBackgroundSweep(t *testing.T) {
	tbl, _ := newTombTable(t, ModeWriteThrough, 10*time.Millisecond, 5*time.Millisecond)
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("k-%02d", i)
		if err := tbl.Put(ctx, key, json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Delete(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for tbl.TombstoneCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background sweep never ran: %d tombstones left", tbl.TombstoneCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTombstoneRecreationSurvivesSweep: a key recreated after deletion
// must keep its live value and version guard through sweeps.
func TestTombstoneRecreationSurvivesSweep(t *testing.T) {
	tbl, _ := newTombTable(t, ModeWriteThrough, time.Millisecond, time.Hour)
	ctx := context.Background()
	if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put(ctx, "k", json.RawMessage(`2`)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Millisecond)
	tbl.CompactTombstones()
	got, err := getManyVersioned(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["k"].Value) != "2" || got["k"].Version == 0 {
		t.Fatalf("recreated key = %+v", got["k"])
	}
	if s := tbl.Stats(); s.TombstonesEvicted != 0 {
		t.Fatalf("live key compacted: %+v", s)
	}
}

// TestTombstoneStaleCASCannotResurrectAfterCompaction: after a
// tombstone is compacted, a CAS anchored at the pre-delete version
// must still fail (the version restarted at 0, not at the old count).
func TestTombstoneStaleCASCannotResurrect(t *testing.T) {
	tbl, _ := newTombTable(t, ModeWriteThrough, time.Millisecond, time.Hour)
	ctx := context.Background()
	if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	pre, err := getManyVersioned(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Millisecond)
	tbl.CompactTombstones()
	if got := tbl.TombstoneCount(); got != 0 {
		t.Fatalf("tombstones = %d", got)
	}
	// A commit holding the pre-delete version is stale: the key's
	// version history restarted, so the expectation cannot match.
	err = tbl.PutManyIfVersion(ctx, map[string]CASOp{
		"k": {Expect: pre["k"].Version, Value: json.RawMessage(`99`), Write: true},
	})
	if err == nil {
		t.Fatal("stale CAS resurrected a compacted key")
	}
}
