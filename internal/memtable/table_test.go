package memtable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// TestBubbles runs this package's bubble tests; see internal/simtest.
func TestBubbles(t *testing.T) { simtest.Bubbles(t) }

func newBacked(t *testing.T, mode Mode) (*Table, *kvstore.Store) {
	t.Helper()
	db := kvstore.Open(kvstore.Config{})
	tbl, err := New(Config{Mode: mode, Backing: db, FlushInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tbl.Close()
		db.Close()
	})
	return tbl, db
}

func TestNewRequiresBackingForPersistentModes(t *testing.T) {
	if _, err := New(Config{Mode: ModeWriteBehind}); err == nil {
		t.Fatal("write-behind without backing succeeded")
	}
	if _, err := New(Config{Mode: ModeWriteThrough}); err == nil {
		t.Fatal("write-through without backing succeeded")
	}
	tbl, err := New(Config{Mode: ModeMemoryOnly})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Close()
}

func TestPutGetMemoryOnly(t *testing.T) {
	tbl, err := New(Config{Mode: ModeMemoryOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	ctx := context.Background()
	if err := tbl.Put(ctx, "k", json.RawMessage(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	v, err := tbl.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != `{"a":1}` {
		t.Fatalf("Get = %s", v)
	}
	if _, err := tbl.Get(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestWriteThroughPersistsImmediately(t *testing.T) {
	tbl, db := newBacked(t, ModeWriteThrough)
	ctx := context.Background()
	if err := tbl.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	doc, err := db.Get(ctx, "k")
	if err != nil {
		t.Fatalf("backing store missing key after write-through: %v", err)
	}
	if string(doc.Value) != `1` {
		t.Fatalf("backing value = %s", doc.Value)
	}
}

func TestWriteBehindConsolidatesBatches(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	defer db.Close()
	// Long interval so only our manual Flush writes.
	tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := tbl.Put(ctx, fmt.Sprintf("k%03d", i), json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Flush(ctx)
	st := db.Stats()
	if st.DocsWritten != 100 {
		t.Fatalf("docs written = %d, want 100", st.DocsWritten)
	}
	// 100 docs over 2 shards => at most 2 write operations.
	if st.WriteOps > 2 {
		t.Fatalf("write ops = %d; batching failed to consolidate", st.WriteOps)
	}
	tbl.Close()
}

func TestCloseFlushesDirtyEntries(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	defer db.Close()
	tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := tbl.Put(ctx, "durable", json.RawMessage(`42`)); err != nil {
		t.Fatal(err)
	}
	tbl.Close()
	if _, err := db.Get(ctx, "durable"); err != nil {
		t.Fatalf("Close lost a dirty entry: %v", err)
	}
}

func TestReadThroughPopulatesCache(t *testing.T) {
	tbl, db := newBacked(t, ModeWriteBehind)
	ctx := context.Background()
	if _, err := db.Put(ctx, "cold", json.RawMessage(`"disk"`)); err != nil {
		t.Fatal(err)
	}
	v, err := tbl.Get(ctx, "cold")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != `"disk"` {
		t.Fatalf("read-through value = %s", v)
	}
	st := tbl.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if _, err := tbl.Get(ctx, "cold"); err != nil {
		t.Fatal(err)
	}
	st = tbl.Stats()
	if st.Hits != 1 {
		t.Fatalf("hits = %d after cached read, want 1", st.Hits)
	}
}

func TestDeleteRemovesEverywhere(t *testing.T) {
	tbl, db := newBacked(t, ModeWriteThrough)
	ctx := context.Background()
	tbl.Put(ctx, "k", json.RawMessage(`1`))
	if err := tbl.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	if _, err := db.Get(ctx, "k"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("backing Get after delete = %v", err)
	}
}

func TestClosedTableErrors(t *testing.T) {
	tbl, _ := New(Config{Mode: ModeMemoryOnly})
	tbl.Close()
	ctx := context.Background()
	if err := tbl.Put(ctx, "k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v", err)
	}
	if _, err := tbl.Get(ctx, "k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v", err)
	}
	if err := tbl.Delete(ctx, "k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after close = %v", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	tbl, _ := New(Config{Mode: ModeMemoryOnly})
	tbl.Close()
	tbl.Close() // must not panic or deadlock
}

func TestPutCopiesValue(t *testing.T) {
	tbl, _ := New(Config{Mode: ModeMemoryOnly})
	defer tbl.Close()
	ctx := context.Background()
	buf := []byte(`{"a":1}`)
	tbl.Put(ctx, "k", buf)
	buf[2] = 'z'
	v, _ := tbl.Get(ctx, "k")
	if string(v) != `{"a":1}` {
		t.Fatalf("table aliased caller buffer: %s", v)
	}
}

func TestDirtyCountAndLen(t *testing.T) {
	db := kvstore.Open(kvstore.Config{})
	defer db.Close()
	tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		tbl.Put(ctx, fmt.Sprintf("k%d", i), json.RawMessage(`1`))
	}
	if got := tbl.DirtyCount(); got != 10 {
		t.Fatalf("DirtyCount = %d, want 10", got)
	}
	if got := tbl.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	tbl.Flush(ctx)
	if got := tbl.DirtyCount(); got != 0 {
		t.Fatalf("DirtyCount after flush = %d", got)
	}
	tbl.Close()
}

func TestFlushRetryOnBackingFailure(t *testing.T) {
	// A closed backing store makes BatchPut fail; the dirty keys must
	// be retained for retry rather than dropped.
	db := kvstore.Open(kvstore.Config{})
	tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tbl.Put(ctx, "k", json.RawMessage(`1`))
	db.Close()
	tbl.Flush(ctx)
	if got := tbl.DirtyCount(); got != 1 {
		t.Fatalf("DirtyCount after failed flush = %d, want 1 (keys must not be lost)", got)
	}
	// Value still readable from memory.
	if _, err := tbl.Get(ctx, "k"); err != nil {
		t.Fatalf("Get after failed flush = %v", err)
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		ModeWriteBehind:  "write-behind",
		ModeWriteThrough: "write-through",
		ModeMemoryOnly:   "memory-only",
		Mode(99):         "Mode(99)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

// Property: last write wins — after an arbitrary sequence of puts on a
// fixed key set, Get returns the latest value per key.
func TestLastWriteWinsProperty(t *testing.T) {
	type op struct {
		Key byte
		Val uint16
	}
	prop := func(ops []op) bool {
		tbl, err := New(Config{Mode: ModeMemoryOnly})
		if err != nil {
			return false
		}
		defer tbl.Close()
		ctx := context.Background()
		want := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key-%d", o.Key%8)
			raw, _ := json.Marshal(o.Val)
			if err := tbl.Put(ctx, k, raw); err != nil {
				return false
			}
			want[k] = string(raw)
		}
		for k, w := range want {
			v, err := tbl.Get(ctx, k)
			if err != nil || string(v) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: write-behind never loses an acknowledged write once
// flushed: backing holds the latest value for every key.
func TestWriteBehindDurabilityProperty(t *testing.T) {
	prop := func(keys []byte) bool {
		db := kvstore.Open(kvstore.Config{})
		defer db.Close()
		tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
		if err != nil {
			return false
		}
		ctx := context.Background()
		want := map[string]string{}
		for i, k := range keys {
			key := fmt.Sprintf("k%d", k%16)
			raw, _ := json.Marshal(i)
			if err := tbl.Put(ctx, key, raw); err != nil {
				return false
			}
			want[key] = string(raw)
		}
		tbl.Close() // final flush
		for k, w := range want {
			doc, err := db.Get(ctx, k)
			if err != nil || string(doc.Value) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Batch API tests --------------------------------------------------

func TestGetManyReadsThroughInOneBatch(t *testing.T) {
	tbl, db := newBacked(t, ModeWriteBehind)
	ctx := context.Background()
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("state/C/obj-%03d/k", i)
		if _, err := db.Put(ctx, keys[i], json.RawMessage(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Stats()
	got, err := getMany(tbl, ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("GetMany returned %d values, want %d", len(got), len(keys))
	}
	if string(got[keys[7]]) != "7" {
		t.Fatalf("value = %s", got[keys[7]])
	}
	after := db.Stats()
	if after.ReadOps != before.ReadOps+1 {
		t.Fatalf("32-key miss batch cost %d read ops, want 1", after.ReadOps-before.ReadOps)
	}
	// Second call is all memory hits: no further backing reads.
	if _, err := getMany(tbl, ctx, keys); err != nil {
		t.Fatal(err)
	}
	if db.Stats().ReadOps != after.ReadOps {
		t.Fatal("warm GetMany touched the backing store")
	}
	st := tbl.Stats()
	if st.Misses != int64(len(keys)) || st.Hits != int64(len(keys)) {
		t.Fatalf("stats = %+v, want %d misses then %d hits", st, len(keys), len(keys))
	}
}

func TestGetManyOmitsAbsentKeys(t *testing.T) {
	tbl, db := newBacked(t, ModeWriteBehind)
	ctx := context.Background()
	if _, err := db.Put(ctx, "present", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	got, err := getMany(tbl, ctx, []string{"present", "absent"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got = %v", got)
	}
	if _, ok := got["absent"]; ok {
		t.Fatal("absent key materialized")
	}
}

func TestGetManyMemoryOnlySkipsBacking(t *testing.T) {
	tbl, err := New(Config{Mode: ModeMemoryOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	ctx := context.Background()
	if err := tbl.Put(ctx, "a", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	got, err := getMany(tbl, ctx, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got["a"]) != "1" {
		t.Fatalf("got = %v", got)
	}
}

func TestGetManyDoesNotClobberRacingWrite(t *testing.T) {
	tbl, db := newBacked(t, ModeWriteBehind)
	ctx := context.Background()
	if _, err := db.Put(ctx, "k", json.RawMessage(`"stale"`)); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer racing the read-through: the in-memory entry
	// exists by the time the batch result is cached.
	if err := tbl.Put(ctx, "k", json.RawMessage(`"fresh"`)); err != nil {
		t.Fatal(err)
	}
	got, err := getMany(tbl, ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["k"]) != `"fresh"` {
		t.Fatalf("got = %s, want the in-memory write to win", got["k"])
	}
}

func TestPutManyWriteThroughOneBatchWrite(t *testing.T) {
	tbl, db := newBacked(t, ModeWriteThrough)
	ctx := context.Background()
	entries := make(map[string]json.RawMessage, 16)
	for i := 0; i < 16; i++ {
		entries[fmt.Sprintf("wt-%02d", i)] = json.RawMessage(`1`)
	}
	before := db.Stats()
	if err := tbl.PutMany(ctx, kvs(entries)); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.WriteOps != before.WriteOps+1 {
		t.Fatalf("16-entry PutMany cost %d write ops, want 1", after.WriteOps-before.WriteOps)
	}
	if after.DocsWritten != before.DocsWritten+16 {
		t.Fatalf("docs written delta = %d, want 16", after.DocsWritten-before.DocsWritten)
	}
	for k := range entries {
		if _, err := db.Get(ctx, k); err != nil {
			t.Fatalf("backing missing %q: %v", k, err)
		}
	}
}

func TestPutManyWriteBehindFlushes(t *testing.T) {
	tbl, db := newBacked(t, ModeWriteBehind)
	ctx := context.Background()
	entries := map[string]json.RawMessage{
		"a": json.RawMessage(`1`),
		"b": json.RawMessage(`2`),
		"c": json.RawMessage(`3`),
	}
	if err := tbl.PutMany(ctx, kvs(entries)); err != nil {
		t.Fatal(err)
	}
	if n := tbl.DirtyCount(); n != 3 {
		t.Fatalf("dirty = %d, want 3", n)
	}
	tbl.Flush(ctx)
	for k := range entries {
		if _, err := db.Get(ctx, k); err != nil {
			t.Fatalf("backing missing %q after flush: %v", k, err)
		}
	}
}

// TestPutManyKeepsTheValuesItIsHanded: PutMany owns what it is handed,
// so the table reads back, flushes and stores the caller's slice itself,
// with no copy on the way.
func TestPutManyKeepsTheValuesItIsHanded(t *testing.T) {
	for _, mode := range []Mode{ModeWriteBehind, ModeWriteThrough, ModeMemoryOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx := context.Background()
			db := kvstore.Open(kvstore.Config{})
			defer db.Close()
			tbl, err := New(Config{Mode: mode, Backing: db, FlushInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer tbl.Close()
			val := json.RawMessage(`"handed over"`)
			if err := tbl.PutMany(ctx, []KV{{"k", val}}); err != nil {
				t.Fatal(err)
			}
			got, err := tbl.Get(ctx, "k")
			if err != nil || &got[0] != &val[0] {
				t.Fatalf("Get = %s, %v; the caller's slice: %v", got, err, err == nil && &got[0] == &val[0])
			}
			if mode == ModeMemoryOnly {
				return
			}
			tbl.Flush(ctx)
			if doc, err := db.Get(ctx, "k"); err != nil || &doc.Value[0] != &val[0] {
				t.Fatalf("the store holds %s, %v, want the caller's slice", doc.Value, err)
			}
		})
	}
}

func TestBatchOpsOnClosedTable(t *testing.T) {
	tbl, _ := newBacked(t, ModeWriteBehind)
	tbl.Close()
	ctx := context.Background()
	if _, err := getMany(tbl, ctx, []string{"k"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("GetMany after close = %v", err)
	}
	if err := tbl.PutMany(ctx, []KV{{Key: "k"}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("PutMany after close = %v", err)
	}
}

func TestGetManyContextCancelledMidBatch(t *testing.T) {
	db := kvstore.Open(kvstore.Config{Settings: kvstore.Settings{ReadLatency: time.Hour}})
	tbl, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tbl.Close()
		db.Close()
	})
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := getMany(tbl, cctx, []string{"a", "b"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBatchOpsWidePath exercises batches wider than eachKey's
// allocation-free path.
func TestBatchOpsWidePath(t *testing.T) {
	tbl, db := newBacked(t, ModeWriteBehind)
	ctx := context.Background()
	const width = smallBatch*3 + 7
	entries := make(map[string]json.RawMessage, width)
	keys := make([]string, 0, width)
	for i := 0; i < width; i++ {
		k := fmt.Sprintf("wide/obj-%04d/k", i)
		entries[k] = json.RawMessage(fmt.Sprintf("%d", i))
		keys = append(keys, k)
	}
	if err := tbl.PutMany(ctx, kvs(entries)); err != nil {
		t.Fatal(err)
	}
	got, err := getMany(tbl, ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != width {
		t.Fatalf("GetMany returned %d, want %d", len(got), width)
	}
	for k, v := range entries {
		if string(got[k]) != string(v) {
			t.Fatalf("key %s = %s, want %s", k, got[k], v)
		}
	}
	tbl.Flush(ctx)
	if db.Len() != width {
		t.Fatalf("backing has %d docs after flush, want %d", db.Len(), width)
	}
	// A wide cold read-through must also be a single batch: drop the
	// in-memory copies by recreating the table over the same backing.
	tbl2, err := New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	before := db.Stats()
	got2, err := getMany(tbl2, ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != width {
		t.Fatalf("cold wide GetMany returned %d, want %d", len(got2), width)
	}
	if delta := db.Stats().ReadOps - before.ReadOps; delta != 1 {
		t.Fatalf("wide cold batch cost %d read ops, want 1", delta)
	}
}

// TestGetManyIntoReusesCallerMap: the Into variant must write found
// keys into the supplied map without allocating a fresh one, leave
// unrelated entries the caller put there alone, and omit absent keys
// — the contract the runtime's pooled scratch maps rely on.
func TestGetManyIntoReusesCallerMap(t *testing.T) {
	tbl, db := newBacked(t, ModeWriteBehind)
	ctx := context.Background()
	if _, err := db.Put(ctx, "k1", json.RawMessage(`"one"`)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put(ctx, "k2", json.RawMessage(`"two"`)); err != nil {
		t.Fatal(err)
	}
	out := map[string]json.RawMessage{"stale": json.RawMessage(`"untouched"`)}
	if err := tbl.GetManyInto(ctx, []string{"k1", "k2", "absent"}, out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("out = %v, want stale + k1 + k2", out)
	}
	if string(out["k1"]) != `"one"` || string(out["k2"]) != `"two"` {
		t.Fatalf("out = %v", out)
	}
	if string(out["stale"]) != `"untouched"` {
		t.Fatalf("caller's unrelated entry clobbered: %v", out)
	}
	if _, ok := out["absent"]; ok {
		t.Fatal("absent key materialized")
	}
	// GetMany delegates to GetManyInto: both see the same values.
	got, err := getMany(tbl, ctx, []string{"k1", "k2"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["k1"]) != `"one"` || len(got) != 2 {
		t.Fatalf("GetMany = %v", got)
	}
}

// TestShardCountCapped: the bitmask shard-locking scheme in
// PutManyIfVersion indexes shards by a uint64 mask, so configured
// shard counts clamp to 64 instead of overflowing it.
func TestShardCountCapped(t *testing.T) {
	tbl, err := New(Config{Mode: ModeMemoryOnly, Shards: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	if n := len(tbl.shards); n != 64 {
		t.Fatalf("shards = %d, want capped at 64", n)
	}
	// A cross-shard versioned batch still commits atomically.
	ctx := context.Background()
	ops := make(map[string]CASOp, 100)
	for i := 0; i < 100; i++ {
		ops[fmt.Sprintf("key-%03d", i)] = CASOp{Expect: AnyVersion, Value: json.RawMessage(`1`), Write: true}
	}
	if err := tbl.PutManyIfVersion(ctx, ops); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Get(ctx, "key-042")
	if err != nil || string(got) != "1" {
		t.Fatalf("key-042 = %s (%v)", got, err)
	}
}
