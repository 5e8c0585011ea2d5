package memtable

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/heaptest"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// writePaths are the table's three ways to store a value, each writing
// one key unconditionally.
var writePaths = map[string]func(ctx context.Context, t *Table, k string, v json.RawMessage) error{
	"Put": func(ctx context.Context, t *Table, k string, v json.RawMessage) error {
		return t.Put(ctx, k, v)
	},
	// PutMany keeps what it is handed, so a caller that goes on to reuse
	// its buffer hands over a copy.
	"PutMany": func(ctx context.Context, t *Table, k string, v json.RawMessage) error {
		return t.PutMany(ctx, []KV{{k, slices.Clone(v)}})
	},
	"PutManyIfVersion": func(ctx context.Context, t *Table, k string, v json.RawMessage) error {
		return t.PutManyIfVersion(ctx, map[string]CASOp{k: {Expect: AnyVersion, Value: v, Write: true}})
	},
}

// TestOverwriteNeverTouchesAHeldValue is the table's half of the
// ownership rule the store relies on (the store keeps the slice it is
// handed): a flushed value is one slice shared by table and store, and
// an overwrite replaces the table's slice with a fresh clone instead of
// writing into it — so the store's document keeps the old bytes until
// the next flush, a reader of either copy never sees them change, and
// the caller's buffer is free to be reused. A goroutine reads the old
// slice and the store throughout, so under -race an in-place write on
// any path is a reported race, not only a wrong byte.
func TestOverwriteNeverTouchesAHeldValue(t *testing.T) {
	const v1, v2 = `{"n":1,"pad":"aaaaaaaa"}`, `{"n":2,"pad":"bbbbbbbb"}`
	for _, mode := range []Mode{ModeWriteBehind, ModeWriteThrough} {
		for name, write := range writePaths {
			t.Run(mode.String()+"/"+name, func(t *testing.T) {
				ctx := context.Background()
				db := kvstore.Open(kvstore.Config{})
				defer db.Close()
				tbl, err := New(Config{Mode: mode, Backing: db, FlushInterval: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				defer tbl.Close()

				buf := []byte(v1)
				if err := write(ctx, tbl, "k", buf); err != nil {
					t.Fatal(err)
				}
				tbl.Flush(ctx)
				held, err := tbl.Get(ctx, "k")
				if err != nil {
					t.Fatal(err)
				}
				stored, err := db.Get(ctx, "k")
				if err != nil {
					t.Fatal(err)
				}
				if &stored.Value[0] != &held[0] {
					t.Fatal("the store holds a second copy of a value the table handed it")
				}
				if &held[0] == &buf[0] {
					t.Fatal("the table kept the caller's buffer")
				}

				stop := make(chan struct{})
				var readers sync.WaitGroup
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if string(held) != v1 {
							t.Errorf("a held value changed under its reader: %s", held)
							return
						}
						if doc, err := db.Get(ctx, "k"); err != nil || (string(doc.Value) != v1 && string(doc.Value) != v2) {
							t.Errorf("store read %s, %v", doc.Value, err)
							return
						}
					}
				}()

				copy(buf, v2) // the caller reuses its buffer for the next write
				if err := write(ctx, tbl, "k", buf); err != nil {
					t.Fatal(err)
				}
				copy(buf, `{"n":3,"pad":"cccccccc"}`) // and again, after handing it over
				now, err := tbl.Get(ctx, "k")
				if err != nil {
					t.Fatal(err)
				}
				if string(now) != v2 || &now[0] == &held[0] || &now[0] == &buf[0] {
					t.Fatalf("after the overwrite the table holds %s (old array: %v, caller's array: %v), want a fresh clone of v2",
						now, &now[0] == &held[0], &now[0] == &buf[0])
				}
				doc, err := db.Get(ctx, "k")
				if err != nil {
					t.Fatal(err)
				}
				if mode == ModeWriteBehind {
					// Not flushed yet: the store still holds the old slice.
					if string(doc.Value) != v1 || &doc.Value[0] != &held[0] || doc.Version != 1 {
						t.Fatalf("before the next flush the store holds %s v%d, want the old slice", doc.Value, doc.Version)
					}
					tbl.Flush(ctx)
					if doc, err = db.Get(ctx, "k"); err != nil {
						t.Fatal(err)
					}
				}
				if string(doc.Value) != v2 || &doc.Value[0] != &now[0] {
					t.Fatalf("the store holds %s, want the table's v2 slice", doc.Value)
				}
				close(stop)
				readers.Wait()
				if string(held) != v1 {
					t.Fatalf("the old value reads %s after being replaced", held)
				}
			})
		}
	}
}

// TestFlushedValueIsHeldOnce: a table over a store keeps, per flushed
// key, the two map slots (budgeted on their own in
// TestPerKeyResidentBudget and kvstore.TestPerDocumentResidentBudget)
// and one value. With the store cloning what the flusher hands it the
// same fill reads a whole value more per key.
func TestFlushedValueIsHeldOnce(t *testing.T) {
	const n = 100_000
	value := json.RawMessage(`"` + strings.Repeat("0123456789abcdef", 4)[:62] + `"`) // 64 bytes: a size class of its own
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
		if tbl, err = New(Config{Mode: ModeWriteBehind, Backing: db, FlushInterval: time.Hour}); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := tbl.Put(ctx, k, value); err != nil {
				t.Fatal(err)
			}
			// A read admits the key, so the table keeps it after its flush.
			if _, err := tbl.Get(ctx, k); err != nil {
				t.Fatal(err)
			}
		}
		tbl.Flush(ctx)
	}) - float64(len(value))
	defer db.Close()
	defer tbl.Close()
	runtime.KeepAlive(keys)
	if tbl.Len() != n || db.Len() != n || tbl.DirtyCount() != 0 {
		t.Fatalf("table holds %d keys (%d dirty), store %d, want %d flushed", tbl.Len(), tbl.DirtyCount(), db.Len(), n)
	}
	t.Logf("%.1f B per flushed key beyond the key and one value", per)
	// Measured 200–212 B run to run (the table's slot, the store's, and
	// what the flush's bookkeeping maps grew to); 268 B when the store
	// cloned each document, a second 64-byte value. The ceiling is the
	// middle of the measured range plus 10 %.
	if per > 228 {
		t.Errorf("a flushed key costs %.1f B beyond its key and one value, budget 228", per)
	}
}
