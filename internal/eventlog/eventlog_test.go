package eventlog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/heaptest"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

func testStore(t *testing.T) *kvstore.Store {
	t.Helper()
	st := kvstore.Open(kvstore.Config{})
	t.Cleanup(func() { st.Close() })
	return st
}

func testLog(t *testing.T, cfg Config) *Log {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatalf("new log: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

func appendN(t *testing.T, l *Log, object string, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		_, err := l.Append(ctx, object, func(off int64) (json.RawMessage, error) {
			return json.RawMessage(fmt.Sprintf(`{"offset":%d}`, off)), nil
		})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestAppendAssignsMonotoneOffsets(t *testing.T) {
	l := testLog(t, Config{})
	ctx := context.Background()
	for want := int64(1); want <= 5; want++ {
		var stamped int64
		got, err := l.Append(ctx, "obj", func(off int64) (json.RawMessage, error) {
			stamped = off
			return json.RawMessage(`{}`), nil
		})
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if got != want || stamped != want {
			t.Fatalf("offset = %d (stamped %d), want %d", got, stamped, want)
		}
	}
	entries, err := l.Read(ctx, "obj", 0, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(entries) != 5 {
		t.Fatalf("read %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		if e.Offset != int64(i+1) {
			t.Fatalf("entry %d offset = %d", i, e.Offset)
		}
	}
}

func TestReadFromOffsetAndBounds(t *testing.T) {
	l := testLog(t, Config{})
	ctx := context.Background()
	appendN(t, l, "obj", 10)
	entries, err := l.Read(ctx, "obj", 7, 2)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(entries) != 2 || entries[0].Offset != 7 || entries[1].Offset != 8 {
		t.Fatalf("read from 7 = %+v", entries)
	}
	if entries, err = l.Read(ctx, "obj", 11, 0); err != nil || len(entries) != 0 {
		t.Fatalf("read past end = %v, %v", entries, err)
	}
	first, next, err := l.Bounds(ctx, "obj")
	if err != nil || first != 1 || next != 11 {
		t.Fatalf("bounds = %d, %d, %v", first, next, err)
	}
}

func TestSizeCapEvictsOldestAndCompactsReads(t *testing.T) {
	st := testStore(t)
	l := testLog(t, Config{Backing: st, MaxPerObject: 4})
	ctx := context.Background()
	appendN(t, l, "obj", 10)
	first, next, err := l.Bounds(ctx, "obj")
	if err != nil || first != 7 || next != 11 {
		t.Fatalf("bounds = %d, %d, %v", first, next, err)
	}
	if _, err := l.Read(ctx, "obj", 3, 0); !errors.Is(err, ErrOffsetCompacted) {
		t.Fatalf("read below floor err = %v, want ErrOffsetCompacted", err)
	}
	entries, err := l.Read(ctx, "obj", 7, 0)
	if err != nil || len(entries) != 4 {
		t.Fatalf("read retained = %d entries, %v", len(entries), err)
	}
	// The sweep deletes the evicted backing keys.
	l.Compact(ctx)
	keys, err := st.List(ctx, "evlog/obj/")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(keys) != 4 {
		t.Fatalf("backing holds %d entry keys after sweep, want 4", len(keys))
	}
}

func TestAppendBatchIsOneBackingWrite(t *testing.T) {
	st := testStore(t)
	l := testLog(t, Config{Backing: st})
	ctx := context.Background()
	before := st.Stats().WriteOps
	first, err := l.AppendBatch(ctx, "obj", 16, func(i int, off int64) (json.RawMessage, error) {
		return json.RawMessage(fmt.Sprintf(`{"i":%d,"offset":%d}`, i, off)), nil
	})
	if err != nil || first != 1 {
		t.Fatalf("append batch = %d, %v", first, err)
	}
	if ops := st.Stats().WriteOps - before; ops != 1 {
		t.Fatalf("batch append cost %d write ops, want 1", ops)
	}
	entries, err := l.Read(ctx, "obj", 0, 0)
	if err != nil || len(entries) != 16 {
		t.Fatalf("read back %d entries, %v", len(entries), err)
	}
}

func TestLogSurvivesRestart(t *testing.T) {
	st := testStore(t)
	l1 := testLog(t, Config{Backing: st})
	ctx := context.Background()
	appendN(t, l1, "obj", 5)
	if err := l1.SetCursor(ctx, "named/hook", "obj", 3); err != nil {
		t.Fatalf("set cursor: %v", err)
	}
	l1.Close()

	l2 := testLog(t, Config{Backing: st})
	if err := l2.LoadCursors(ctx); err != nil {
		t.Fatalf("load cursors: %v", err)
	}
	entries, err := l2.Read(ctx, "obj", 1, 0)
	if err != nil || len(entries) != 5 {
		t.Fatalf("read after restart = %d entries, %v", len(entries), err)
	}
	for i, e := range entries {
		if e.Offset != int64(i+1) {
			t.Fatalf("entry %d offset = %d after restart", i, e.Offset)
		}
	}
	if next, ok := l2.Cursor("named/hook", "obj"); !ok || next != 3 {
		t.Fatalf("cursor after restart = %d, %v", next, ok)
	}
	// New appends continue the sequence, no offset reuse.
	off, err := l2.Append(ctx, "obj", func(off int64) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	if err != nil || off != 6 {
		t.Fatalf("append after restart = %d, %v", off, err)
	}
}

// TestReloadedEntriesKeepTheirAppendTime: a reloaded entry's Time is the
// store document's Updated, which the store keeps as nanoseconds; it
// must still equal the append instant.
func TestReloadedEntriesKeepTheirAppendTime(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_700_000_000, 987_654_321))
	st := kvstore.Open(kvstore.Config{Clock: clk})
	t.Cleanup(st.Close)
	cfg := Config{Backing: st, Clock: clk}
	ctx := context.Background()
	l1 := testLog(t, cfg)
	appendN(t, l1, "obj", 1)
	clk.Advance(40 * time.Second)
	appendN(t, l1, "obj", 1)
	want, err := l1.Read(ctx, "obj", 1, 0)
	if err != nil || len(want) != 2 {
		t.Fatalf("read = %v, %v", want, err)
	}
	l1.Kill()

	l2 := testLog(t, cfg)
	got, err := l2.Read(ctx, "obj", 1, 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("read after restart = %v, %v", got, err)
	}
	for i := range got {
		if !got[i].Time.Equal(want[i].Time) {
			t.Errorf("entry %d reloaded with time %v, appended at %v", i+1, got[i].Time, want[i].Time)
		}
	}
}

func TestKillLosesOnlyWriteBehindCursorAdvances(t *testing.T) {
	st := testStore(t)
	// The cursor table's flush timer never fires on a clock that does
	// not move.
	clk := vclock.NewManual(time.Unix(1700000000, 0))
	l1 := testLog(t, Config{Backing: st, Clock: clk})
	ctx := context.Background()
	appendN(t, l1, "obj", 5)
	// First write per cursor is write-through, later advances are not.
	if err := l1.SetCursor(ctx, "named/hook", "obj", 1); err != nil {
		t.Fatalf("set cursor: %v", err)
	}
	if err := l1.SetCursor(ctx, "named/hook", "obj", 5); err != nil {
		t.Fatalf("advance cursor: %v", err)
	}
	l1.Kill()

	l2 := testLog(t, Config{Backing: st})
	if err := l2.LoadCursors(ctx); err != nil {
		t.Fatalf("load cursors: %v", err)
	}
	next, ok := l2.Cursor("named/hook", "obj")
	if !ok {
		t.Fatal("cursor registration lost by kill; first write must be durable")
	}
	if next != 1 {
		t.Fatalf("cursor after kill = %d, want the write-through value 1", next)
	}
}

func TestCursorLag(t *testing.T) {
	l := testLog(t, Config{})
	ctx := context.Background()
	appendN(t, l, "a", 6)
	appendN(t, l, "b", 3)
	if err := l.SetCursor(ctx, "s", "a", 4); err != nil {
		t.Fatalf("set cursor: %v", err)
	}
	if err := l.SetCursor(ctx, "s", "b", 4); err != nil {
		t.Fatalf("set cursor: %v", err)
	}
	// a: next=7, cursor=4 -> 3 behind. b: next=4, cursor=4 -> caught up.
	if lag := l.CursorLag("s"); lag != 3 {
		t.Fatalf("lag = %d, want 3", lag)
	}
}

// TestIdleObjectHoldsNoLog: asking after an object whose log never
// began — what every unobserved commit does through NeedsEvents —
// leaves nothing behind: no entry, no resident bytes, no store read.
func TestIdleObjectHoldsNoLog(t *testing.T) {
	const n = 100_000
	st := testStore(t)
	l := testLog(t, Config{Backing: st})
	ctx := context.Background()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj-%06d", i)
	}
	// Every read of the store would fail, so none may be tried (a Get
	// that finds nothing is in no Stats counter; a served fault is).
	st.SetFaultPlan(kvstore.FaultPlan{Seed: 1, ReadErrorRate: 1})
	per := heaptest.PerEntry(t, n, func() {
		for _, id := range ids {
			if begun, err := l.Begun(ctx, id); err != nil || begun {
				t.Fatalf("Begun(%s) = %v, %v on a log never appended to", id, begun, err)
			}
			if first, next, err := l.Bounds(ctx, id); err != nil || first != 1 || next != 1 {
				t.Fatalf("Bounds(%s) = [%d,%d), %v, want [1,1)", id, first, next, err)
			}
			if entries, err := l.Read(ctx, id, 1, 0); err != nil || len(entries) != 0 {
				t.Fatalf("Read(%s) = %v, %v, want nothing", id, entries, err)
			}
		}
	})
	st.SetFaultPlan(kvstore.FaultPlan{})
	if got := l.Stats().Objects; got != 0 {
		t.Errorf("%d idle objects hold %d logs, want 0", n, got)
	}
	if got := st.FaultsServed(); got != 0 {
		t.Errorf("asking after %d idle objects tried %d store reads, want 0", n, got)
	}
	// Measured 0 B/object (115.0 B before, one objectLog each); the
	// ceiling leaves room for the heap's own noise over 100 000 objects.
	if per > 1 {
		t.Errorf("an idle object holds %.1f B of event log, want none", per)
	}
	runtime.KeepAlive(ids)
	// The first append is what begins a log, at offset 1.
	appendN(t, l, ids[0], 1)
	if first, next, err := l.Bounds(ctx, ids[0]); err != nil || first != 1 || next != 2 {
		t.Fatalf("bounds after the first append = [%d,%d), %v, want [1,2)", first, next, err)
	}
	if got := l.Stats().Objects; got != 1 {
		t.Errorf("logs held after one object's first append = %d, want 1", got)
	}
}

// TestBegunLogsAreKnownAtOpen: New registers every object with
// persisted bounds, so a successor answers for a begun log from the
// store and for any other object without touching it.
func TestBegunLogsAreKnownAtOpen(t *testing.T) {
	st := testStore(t)
	ctx := context.Background()
	l1 := testLog(t, Config{Backing: st})
	appendN(t, l1, "seen", 3)
	l1.Kill()

	l2 := testLog(t, Config{Backing: st})
	if got := l2.Stats().Objects; got != 1 {
		t.Fatalf("successor registered %d logs at open, want 1", got)
	}
	st.SetFaultPlan(kvstore.FaultPlan{Seed: 1, ReadErrorRate: 1}) // any read attempt fails
	if begun, err := l2.Begun(ctx, "unseen"); err != nil || begun {
		t.Fatalf("Begun(unseen) = %v, %v: an object with no persisted bounds needs no store read", begun, err)
	}
	// The registration is the proof: only an append persists bounds, so
	// the answer needs neither the bounds document nor the entries.
	if begun, err := l2.Begun(ctx, "seen"); err != nil || !begun {
		t.Fatalf("Begun(seen) = %v, %v after restart, with the log not loaded yet", begun, err)
	}
	if got := st.FaultsServed(); got != 0 {
		t.Fatalf("Begun tried %d store reads, want 0", got)
	}
	st.SetFaultPlan(kvstore.FaultPlan{})
	if first, next, err := l2.Bounds(ctx, "seen"); err != nil || first != 1 || next != 4 {
		t.Fatalf("bounds after restart = [%d,%d), %v, want [1,4)", first, next, err)
	}
}

// TestDropOfIdleObjectTouchesNothing: an object that never logged has
// nothing to drop, in memory or in the store.
func TestDropOfIdleObjectTouchesNothing(t *testing.T) {
	st := testStore(t)
	l := testLog(t, Config{Backing: st})
	before := st.Stats()
	if err := l.Drop(context.Background(), "idle"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if after := st.Stats(); after != before {
		t.Fatalf("dropping an idle object moved the store counters: %+v -> %+v", before, after)
	}
}

// TestAppendRacingDropLandsInOneLog: an append that was waiting on a
// log while Drop emptied it must not write into the unlinked log. The
// store's read latency keeps Drop inside its listing, holding the
// object's lock, long enough for the append to queue up behind it.
func TestAppendRacingDropLandsInOneLog(t *testing.T) {
	st := kvstore.Open(kvstore.Config{ReadLatency: 200 * time.Microsecond})
	t.Cleanup(st.Close)
	l := testLog(t, Config{Backing: st})
	ctx := context.Background()
	for round := 0; round < 50; round++ {
		appendN(t, l, "obj", 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := l.Drop(ctx, "obj"); err != nil {
				t.Errorf("drop: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := l.Append(ctx, "obj", func(int64) (json.RawMessage, error) {
				return json.RawMessage(`{}`), nil
			}); err != nil {
				t.Errorf("append: %v", err)
			}
		}()
		wg.Wait()
		// Either order leaves memory and store agreeing on the bounds.
		_, next, err := l.Bounds(ctx, "obj")
		if err != nil {
			t.Fatal(err)
		}
		_, metaErr := st.Get(ctx, metaKey("obj"))
		if stored := metaErr == nil; stored != (next > 1) {
			t.Fatalf("round %d: in-memory next = %d but bounds document stored = %v", round, next, stored)
		}
		if err := l.Drop(ctx, "obj"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDropRemovesLogFromBacking(t *testing.T) {
	st := testStore(t)
	ctx := context.Background()
	l := testLog(t, Config{Backing: st})
	appendN(t, l, "obj", 3)
	if err := l.Drop(ctx, "obj"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if keys, err := st.List(ctx, "evlog/obj/"); err != nil || len(keys) != 0 {
		t.Fatalf("entry keys after drop = %v (err %v), want none", keys, err)
	}
	if _, err := st.Get(ctx, metaKey("obj")); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("meta after drop: err = %v, want ErrNotFound", err)
	}
	// A reopened log sees a pristine object: bounds [1,1) and a fresh
	// first offset, not the dead incarnation's.
	l2 := testLog(t, Config{Backing: st})
	first, next, err := l2.Bounds(ctx, "obj")
	if err != nil {
		t.Fatalf("bounds: %v", err)
	}
	if first != 1 || next != 1 {
		t.Fatalf("bounds after drop = [%d,%d), want [1,1)", first, next)
	}
	appendN(t, l2, "obj", 1)
	entries, err := l2.Read(ctx, "obj", 0, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(entries) != 1 || entries[0].Offset != 1 {
		t.Fatalf("entries after drop+append = %+v, want one at offset 1", entries)
	}
}

// TestAppendedPayloadIsHeldOnce: the bytes build returns are the
// retained entry's payload and the stored document, one slice (the store
// keeps what it is handed), and nothing — later appends, the size cap
// evicting around them, a retention sweep — ever writes into them again.
// A goroutine reads the first batch's payloads from all three places
// throughout, so under -race a reused buffer is a reported race.
func TestAppendedPayloadIsHeldOnce(t *testing.T) {
	st := testStore(t)
	l := testLog(t, Config{Backing: st, MaxPerObject: 4})
	ctx := context.Background()
	built := make([]json.RawMessage, 3)
	first, err := l.AppendBatch(ctx, "obj", len(built), func(i int, off int64) (json.RawMessage, error) {
		built[i] = json.RawMessage(fmt.Sprintf(`{"offset":%d,"batch":"first"}`, off))
		return built[i], nil
	})
	if err != nil || first != 1 {
		t.Fatalf("AppendBatch = %d, %v", first, err)
	}
	want := make([]string, len(built))
	entries, err := l.Read(ctx, "obj", 1, 0)
	if err != nil || len(entries) != len(built) {
		t.Fatalf("Read = %v, %v", entries, err)
	}
	for i, e := range entries {
		want[i] = string(built[i])
		doc, err := st.Get(ctx, entryKey("obj", e.Offset))
		if err != nil {
			t.Fatal(err)
		}
		if &e.Payload[0] != &built[i][0] || &doc.Value[0] != &built[i][0] {
			t.Fatalf("offset %d is held more than once: entry shares build's bytes %v, store does %v",
				e.Offset, &e.Payload[0] == &built[i][0], &doc.Value[0] == &built[i][0])
		}
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
			for i := range built {
				if string(built[i]) != want[i] || string(entries[i].Payload) != want[i] {
					t.Errorf("payload %d changed after it was appended: %s", i, built[i])
					return
				}
			}
		}
	}()
	// Later appends push the first batch past the size cap; the sweep
	// then deletes its documents.
	appendN(t, l, "obj", 6)
	l.Compact(ctx)
	close(stop)
	readers.Wait()
	for i := range built {
		if string(built[i]) != want[i] {
			t.Fatalf("payload %d reads %s after eviction, want %s", i, built[i], want[i])
		}
	}
	if floor, next, err := l.Bounds(ctx, "obj"); err != nil || floor != 6 || next != 10 {
		t.Fatalf("bounds = [%d,%d), %v, want [6,10)", floor, next, err)
	}
}

// TestBoundsDocumentGolden holds metaDoc to json.Marshal(objMeta) byte
// for byte, at the edges of the offsets it can carry, and recovery to
// reading every one of them back.
func TestBoundsDocumentGolden(t *testing.T) {
	values := []int64{0, 1, 1 << 53, math.MaxInt64 - 1, math.MaxInt64, -1, math.MinInt64}
	for _, first := range values {
		for _, next := range values {
			want, err := json.Marshal(objMeta{First: first, Next: next})
			if err != nil {
				t.Fatal(err)
			}
			if got := metaDoc(first, next); string(got) != string(want) {
				t.Errorf("metaDoc(%d, %d) = %s, json.Marshal = %s", first, next, got, want)
			}
		}
	}
	// Recovery: New registers each object from its bounds document and
	// the first read loads it, with its retained entry if it has one.
	ctx := context.Background()
	st := testStore(t)
	cases := []struct {
		object      string
		first, next int64
	}{
		{"empty-0", 0, 0},
		{"empty-1", 1, 1},
		{"one", 1, 2},
		{"past-2^53", 1 << 53, 1<<53 + 1},
		{"at-max", math.MaxInt64 - 1, math.MaxInt64},
		{"empty-max", math.MaxInt64, math.MaxInt64},
	}
	for _, c := range cases {
		if _, err := st.Put(ctx, metaKey(c.object), metaDoc(c.first, c.next)); err != nil {
			t.Fatal(err)
		}
		if c.next > c.first {
			if _, err := st.Put(ctx, entryKey(c.object, c.first), json.RawMessage(`{"at":"`+c.object+`"}`)); err != nil {
				t.Fatal(err)
			}
		}
	}
	l := testLog(t, Config{Backing: st})
	for _, c := range cases {
		first, next, err := l.Bounds(ctx, c.object)
		if err != nil || first != c.first || next != c.next {
			t.Errorf("%s: recovered bounds [%d,%d), %v; want [%d,%d)", c.object, first, next, err, c.first, c.next)
			continue
		}
		if c.next == c.first {
			continue
		}
		entries, err := l.Read(ctx, c.object, c.first, 0)
		if err != nil || len(entries) != 1 || entries[0].Offset != c.first || string(entries[0].Payload) != `{"at":"`+c.object+`"}` {
			t.Errorf("%s: recovered entries %+v, %v", c.object, entries, err)
		}
	}
}

// TestAppendBatchFailureShowsNothing: a batch whose build fails part way,
// or whose backing write fails, leaves the log as it was — no entry
// visible, no bounds moved, nothing kept past the retained entries — and
// the next append takes the offsets the failed one would have.
func TestAppendBatchFailureShowsNothing(t *testing.T) {
	st := testStore(t)
	l := testLog(t, Config{Backing: st})
	ctx := context.Background()
	appendN(t, l, "obj", 2)
	unchanged := func(what string) {
		t.Helper()
		if first, next, err := l.Bounds(ctx, "obj"); err != nil || first != 1 || next != 3 {
			t.Fatalf("%s: bounds = [%d,%d), %v, want [1,3)", what, first, next, err)
		}
		if entries, err := l.Read(ctx, "obj", 1, 0); err != nil || len(entries) != 2 {
			t.Fatalf("%s: read %d entries, %v, want 2", what, len(entries), err)
		}
		ol := l.peek("obj")
		ol.mu.Lock()
		defer ol.mu.Unlock()
		for i, e := range ol.entries[len(ol.entries):cap(ol.entries)] {
			if e.Payload != nil {
				t.Fatalf("%s: spare slot %d still holds %s", what, i, e.Payload)
			}
		}
	}
	boom := errors.New("boom")
	if _, err := l.AppendBatch(ctx, "obj", 4, func(i int, off int64) (json.RawMessage, error) {
		if i == 2 {
			return nil, boom
		}
		return json.RawMessage(fmt.Sprintf(`{"doomed":%d}`, off)), nil
	}); !errors.Is(err, boom) {
		t.Fatalf("AppendBatch with a failing build = %v", err)
	}
	unchanged("after a failed build")
	st.SetFaultPlan(kvstore.FaultPlan{Seed: 1, WriteErrorRate: 1})
	if _, err := l.AppendBatch(ctx, "obj", 3, func(_ int, off int64) (json.RawMessage, error) {
		return json.RawMessage(fmt.Sprintf(`{"unwritten":%d}`, off)), nil
	}); err == nil {
		t.Fatal("AppendBatch succeeded with every store write failing")
	}
	st.SetFaultPlan(kvstore.FaultPlan{})
	unchanged("after a failed store write")
	if first, err := l.AppendBatch(ctx, "obj", 2, func(_ int, off int64) (json.RawMessage, error) {
		return json.RawMessage(fmt.Sprintf(`{"offset":%d}`, off)), nil
	}); err != nil || first != 3 {
		t.Fatalf("AppendBatch after the failures = %d, %v, want 3", first, err)
	}
	entries, err := l.Read(ctx, "obj", 1, 0)
	if err != nil || len(entries) != 4 {
		t.Fatalf("read %d entries, %v", len(entries), err)
	}
	for i, e := range entries {
		if want := fmt.Sprintf(`{"offset":%d}`, i+1); e.Offset != int64(i+1) || string(e.Payload) != want {
			t.Fatalf("entry %d = %d %s, want %s", i, e.Offset, e.Payload, want)
		}
	}
	if doc, err := st.Get(ctx, metaKey("obj")); err != nil || string(doc.Value) != `{"first":1,"next":5}` {
		t.Fatalf("stored bounds = %s, %v", doc.Value, err)
	}
}

// TestSweptLogSurvivesRestart: a log with no entry left in the store
// still has its bounds document, so a successor registers it — and
// loading it, with nothing to load, must read as [next,next) and keep
// the numbering, not fail.
func TestSweptLogSurvivesRestart(t *testing.T) {
	st := testStore(t)
	ctx := context.Background()
	l1 := testLog(t, Config{Backing: st})
	appendN(t, l1, "obj", 3)
	l1.Close()
	keys, err := st.List(ctx, "evlog/obj/")
	if err != nil || len(keys) != 3 {
		t.Fatalf("entry keys = %v, %v", keys, err)
	}
	for _, k := range keys {
		if err := st.Delete(ctx, k); err != nil {
			t.Fatal(err)
		}
	}

	l2 := testLog(t, Config{Backing: st})
	if first, next, err := l2.Bounds(ctx, "obj"); err != nil || first != 4 || next != 4 {
		t.Fatalf("bounds after restart = [%d,%d), %v, want [4,4)", first, next, err)
	}
	if _, err := l2.Read(ctx, "obj", 1, 0); !errors.Is(err, ErrOffsetCompacted) {
		t.Fatalf("read below the floor = %v, want ErrOffsetCompacted", err)
	}
	if off, err := l2.Append(ctx, "obj", func(int64) (json.RawMessage, error) { return json.RawMessage(`{}`), nil }); err != nil || off != 4 {
		t.Fatalf("append after restart = %d, %v, want 4", off, err)
	}
}
