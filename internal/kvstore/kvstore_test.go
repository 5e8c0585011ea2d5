package kvstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpcclab/oparaca-go/internal/heaptest"
	"github.com/hpcclab/oparaca-go/internal/simtest"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

func openFast() *Store { return Open(Config{}) }

// TestBubbles runs this package's bubble tests; see internal/simtest.
func TestBubbles(t *testing.T) { simtest.Bubbles(t) }

func TestPutGetRoundTrip(t *testing.T) {
	s := openFast()
	defer s.Close()
	ctx := context.Background()
	doc, err := s.Put(ctx, "a", json.RawMessage(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != 1 {
		t.Fatalf("first Put version = %d, want 1", doc.Version)
	}
	got, err := s.Get(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Value) != `{"x":1}` {
		t.Fatalf("Get value = %s", got.Value)
	}
}

func TestGetMissing(t *testing.T) {
	s := openFast()
	defer s.Close()
	_, err := s.Get(context.Background(), "nope")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestPutIncrementsVersion(t *testing.T) {
	s := openFast()
	defer s.Close()
	ctx := context.Background()
	for i := 1; i <= 5; i++ {
		doc, err := s.Put(ctx, "k", json.RawMessage(`1`))
		if err != nil {
			t.Fatal(err)
		}
		if doc.Version != int64(i) {
			t.Fatalf("version = %d, want %d", doc.Version, i)
		}
	}
}

// TestStoreKeepsTheValueItIsHanded states the package's ownership rule:
// every write path stores the slice it was given, every read returns
// that slice, and an overwrite replaces it without touching the bytes a
// reader may still hold. A defensive copy on either side would make a
// value resident twice (ROADMAP item 10).
func TestStoreKeepsTheValueItIsHanded(t *testing.T) {
	ctx := context.Background()
	writes := map[string]func(s *Store, v json.RawMessage) error{
		"Put": func(s *Store, v json.RawMessage) error { _, err := s.Put(ctx, "k", v); return err },
		"CompareAndPut": func(s *Store, v json.RawMessage) error {
			cur, _ := s.Get(ctx, "k")
			_, err := s.CompareAndPut(ctx, "k", v, cur.Version)
			return err
		},
		"BatchPut": func(s *Store, v json.RawMessage) error {
			return s.BatchPut(ctx, map[string]json.RawMessage{"k": v, "other": json.RawMessage(`0`)})
		},
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			s := openFast()
			defer s.Close()
			first := json.RawMessage(`{"x":1}`)
			if err := write(s, first); err != nil {
				t.Fatal(err)
			}
			held, err := s.Get(ctx, "k")
			if err != nil {
				t.Fatal(err)
			}
			batch, err := s.BatchGet(ctx, []string{"k"})
			if err != nil {
				t.Fatal(err)
			}
			if &held.Value[0] != &first[0] || &batch["k"].Value[0] != &first[0] {
				t.Fatal("the store copied a value it was handed, or a read copied a stored one")
			}
			second := json.RawMessage(`{"x":2}`)
			if err := write(s, second); err != nil {
				t.Fatal(err)
			}
			if string(held.Value) != `{"x":1}` || string(first) != `{"x":1}` {
				t.Fatalf("an overwrite changed bytes a reader holds: %s / %s", held.Value, first)
			}
			if now, _ := s.Get(ctx, "k"); &now.Value[0] != &second[0] || now.Version != 2 {
				t.Fatalf("after the overwrite Get = %s v%d, want the second slice at version 2", now.Value, now.Version)
			}
		})
	}
}

func TestCompareAndPut(t *testing.T) {
	s := openFast()
	defer s.Close()
	ctx := context.Background()

	// expect 0 = create-if-absent
	doc, err := s.CompareAndPut(ctx, "k", json.RawMessage(`1`), 0)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != 1 {
		t.Fatalf("version = %d", doc.Version)
	}
	// stale expect fails
	if _, err := s.CompareAndPut(ctx, "k", json.RawMessage(`2`), 0); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	// correct expect succeeds
	if _, err := s.CompareAndPut(ctx, "k", json.RawMessage(`2`), 1); err != nil {
		t.Fatal(err)
	}
}

func TestCompareAndPutSerializesConcurrentWriters(t *testing.T) {
	s := openFast()
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Put(ctx, "ctr", json.RawMessage(`0`)); err != nil {
		t.Fatal(err)
	}
	var wins Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				cur, err := s.Get(ctx, "ctr")
				if err != nil {
					t.Error(err)
					return
				}
				var n int
				_ = json.Unmarshal(cur.Value, &n)
				raw, _ := json.Marshal(n + 1)
				if _, err := s.CompareAndPut(ctx, "ctr", raw, cur.Version); err == nil {
					wins.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	final, _ := s.Get(ctx, "ctr")
	var n int
	_ = json.Unmarshal(final.Value, &n)
	if int64(n) != wins.Load() {
		t.Fatalf("final counter %d != successful CAS count %d (lost update)", n, wins.Load())
	}
}

// Counter is a tiny atomic counter for tests.
type Counter struct {
	mu sync.Mutex
	n  int64
}

func (c *Counter) Add(d int64) { c.mu.Lock(); c.n += d; c.mu.Unlock() }
func (c *Counter) Load() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.n }

func TestDelete(t *testing.T) {
	s := openFast()
	defer s.Close()
	ctx := context.Background()
	s.Put(ctx, "k", json.RawMessage(`1`))
	if err := s.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete err = %v", err)
	}
	// deleting absent key is fine
	if err := s.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
}

func TestListPrefix(t *testing.T) {
	s := openFast()
	defer s.Close()
	ctx := context.Background()
	for _, k := range []string{"obj/b", "obj/a", "cls/x"} {
		s.Put(ctx, k, json.RawMessage(`1`))
	}
	keys, err := s.List(ctx, "obj/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "obj/a" || keys[1] != "obj/b" {
		t.Fatalf("List = %v", keys)
	}
}

func TestBatchPut(t *testing.T) {
	s := openFast()
	defer s.Close()
	ctx := context.Background()
	entries := map[string]json.RawMessage{
		"a": json.RawMessage(`1`),
		"b": json.RawMessage(`2`),
	}
	if err := s.BatchPut(ctx, entries); err != nil {
		t.Fatal(err)
	}
	for k := range entries {
		if _, err := s.Get(ctx, k); err != nil {
			t.Fatalf("Get(%q) after batch: %v", k, err)
		}
	}
	st := s.Stats()
	if st.WriteOps != 1 {
		t.Fatalf("batch counted as %d write ops, want 1", st.WriteOps)
	}
	if st.DocsWritten != 2 {
		t.Fatalf("docs written = %d, want 2", st.DocsWritten)
	}
}

func TestBatchPutEmptyIsNoop(t *testing.T) {
	s := openFast()
	defer s.Close()
	if err := s.BatchPut(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if s.Stats().WriteOps != 0 {
		t.Fatal("empty batch consumed a write op")
	}
}

func TestBatchGet(t *testing.T) {
	s := openFast()
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := s.Put(ctx, fmt.Sprintf("k%d", i), json.RawMessage(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	got, err := s.BatchGet(ctx, []string{"k0", "k2", "missing", "k3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("BatchGet returned %d docs, want 3: %v", len(got), got)
	}
	if _, ok := got["missing"]; ok {
		t.Fatal("absent key present in batch result")
	}
	if string(got["k2"].Value) != "2" {
		t.Fatalf("k2 = %s", got["k2"].Value)
	}
	st := s.Stats()
	if st.ReadOps != before.ReadOps+1 {
		t.Fatalf("batch counted as %d read ops, want 1", st.ReadOps-before.ReadOps)
	}
	if st.DocsRead != before.DocsRead+3 {
		t.Fatalf("docs read delta = %d, want 3", st.DocsRead-before.DocsRead)
	}
}

func TestBatchGetEmptyIsNoop(t *testing.T) {
	s := openFast()
	defer s.Close()
	got, err := s.BatchGet(context.Background(), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("BatchGet(nil) = %v, %v", got, err)
	}
	if s.Stats().ReadOps != 0 {
		t.Fatal("empty batch consumed a read op")
	}
}

func TestBatchGetClosed(t *testing.T) {
	s := openFast()
	s.Close()
	if _, err := s.BatchGet(context.Background(), []string{"k"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("BatchGet after close = %v", err)
	}
}

func TestBatchCheaperThanSingles(t *testing.T) {
	// With a real clock and a tight write cap, 64 docs via batch must
	// complete far faster than 64 single puts would be admitted.
	s := Open(Config{Settings: Settings{WriteOpsPerSec: 20}}) // a burst of 2
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	entries := make(map[string]json.RawMessage, 64)
	for i := 0; i < 64; i++ {
		entries[fmt.Sprintf("k%02d", i)] = json.RawMessage(`1`)
	}
	start := time.Now()
	if err := s.BatchPut(ctx, entries); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Cost = 1 + 63*0.02 ≈ 2.26 tokens; burst 2 → waits ~13ms.
	// 64 singles would need ~3.1s. Assert well under that.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("batch took %v; batching not amortizing capacity", elapsed)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := openFast()
	s.Close()
	ctx := context.Background()
	if _, err := s.Get(ctx, "k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v", err)
	}
	if _, err := s.Put(ctx, "k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v", err)
	}
	if err := s.BatchPut(ctx, map[string]json.RawMessage{"k": nil}); !errors.Is(err, ErrClosed) {
		t.Fatalf("BatchPut after close = %v", err)
	}
	if _, err := s.List(ctx, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("List after close = %v", err)
	}
}

func TestStatsCounts(t *testing.T) {
	s := openFast()
	defer s.Close()
	ctx := context.Background()
	s.Put(ctx, "a", nil)
	s.Get(ctx, "a")
	s.Delete(ctx, "a")
	st := s.Stats()
	if st.WriteOps != 1 || st.ReadOps != 1 || st.DeleteOps != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Property: any sequence of puts leaves version == number of puts for
// that key and the last value stored.
func TestVersionMonotonicProperty(t *testing.T) {
	prop := func(values []uint32) bool {
		if len(values) == 0 {
			return true
		}
		s := openFast()
		defer s.Close()
		ctx := context.Background()
		var last json.RawMessage
		for _, v := range values {
			raw, _ := json.Marshal(v)
			last = raw
			if _, err := s.Put(ctx, "k", raw); err != nil {
				return false
			}
		}
		doc, err := s.Get(ctx, "k")
		if err != nil {
			return false
		}
		return doc.Version == int64(len(values)) && string(doc.Value) == string(last)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPerDocumentResidentBudget pins what the store keeps per document
// beyond the key's and the value's own bytes: the map slot. Every
// object's state keys and directory entry are documents here, so this
// is paid several times per idle object.
func TestPerDocumentResidentBudget(t *testing.T) {
	const n = 100_000
	value := json.RawMessage(`"0123456789abcd"`) // 16 bytes: a size class of its own
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("state/C/obj-%06d/k", i)
	}
	var s *Store
	per := heaptest.PerEntry(t, n, func() {
		s = Open(Config{})
		for _, k := range keys {
			// The store keeps the slice it is handed, so each document
			// brings its own value, as a flushed table entry does.
			if _, err := s.Put(context.Background(), k, append(json.RawMessage(nil), value...)); err != nil {
				t.Fatal(err)
			}
		}
	}) - float64(len(value))
	defer s.Close()
	runtime.KeepAlive(keys)
	if s.Len() != n {
		t.Fatalf("store holds %d documents, want %d", s.Len(), n)
	}
	t.Logf("%.1f B per document beyond key and value", per)
	// Measured 84.0 B (a 56-byte slot at the map's fill after 100 000
	// inserts; 125.9 B with the 88-byte slot that carried a Document);
	// the ceiling is that plus 10 %.
	if per > 92.4 {
		t.Errorf("a document costs %.1f B beyond its key and value, budget 92.4", per)
	}
}

// TestDocumentSurvivesSlimStorage: the store keeps a record without the
// key and with the update instant as nanoseconds; every way a Document
// comes back out — Put's return, Get, BatchGet — carries the key, the
// version and an Updated equal to the clock's reading at the write, on
// the real clock and on a manual one.
func TestDocumentSurvivesSlimStorage(t *testing.T) {
	manual := vclock.NewManual(time.Unix(1_700_000_000, 123_456_789))
	for name, clock := range map[string]vclock.Clock{"real": vclock.NewReal(), "manual": manual} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			s := Open(Config{Clock: clock})
			defer s.Close()
			lo := clock.Now()
			if _, err := s.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
				t.Fatal(err)
			}
			manual.Advance(time.Second)
			put, err := s.Put(ctx, "k", json.RawMessage(`2`))
			if err != nil {
				t.Fatal(err)
			}
			hi := clock.Now()
			if put.Updated.Before(lo) || put.Updated.After(hi) {
				t.Fatalf("Put's Updated = %v, outside the write's [%v, %v]", put.Updated, lo, hi)
			}
			if clock == manual && !put.Updated.Equal(hi) {
				t.Fatalf("Put's Updated = %v, want the manual clock's %v", put.Updated, hi)
			}
			got, err := s.Get(ctx, "k")
			if err != nil {
				t.Fatal(err)
			}
			batch, err := s.BatchGet(ctx, []string{"k"})
			if err != nil {
				t.Fatal(err)
			}
			for from, d := range map[string]Document{"Get": got, "BatchGet": batch["k"]} {
				if d.Key != "k" || string(d.Value) != `2` || d.Version != 2 || !d.Updated.Equal(put.Updated) {
					t.Errorf("%s returned %+v, want what Put returned: %+v", from, d, put)
				}
			}
		})
	}
}
