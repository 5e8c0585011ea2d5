package runtime

// Tests for the warm-path pooling contract (pool.go): nothing that
// crosses the handler boundary — the Task.State map, its zero-copy
// value views, or the returned delta — may ever be recycled or
// mutated after the invocation that produced it releases its pooled
// scratch. Run under -race these tests catch the runtime touching
// handler-retained memory; the byte-for-byte comparisons catch silent
// reuse even without the detector. The occValidate scope tests live
// here too: per-key validation shares the pooled commit plumbing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/call"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/model"
)

// aliasRecord is what the retaining handler smuggles out of one call:
// the live maps it was handed plus deep copies taken inside the
// handler, for later byte-exact comparison.
type aliasRecord struct {
	state, stateCopy map[string]json.RawMessage
	delta, deltaCopy map[string]json.RawMessage
}

func deepCopyState(m map[string]json.RawMessage) map[string]json.RawMessage {
	out := make(map[string]json.RawMessage, len(m))
	for k, v := range m {
		out[k] = append(json.RawMessage(nil), v...)
	}
	return out
}

// retainYAML is a two-key class whose bump method retains everything
// it touches; the second key gives the snapshot a value the handler
// never writes (a pure zero-copy read view).
const retainYAML = `classes:
  - name: Retainer
    concurrencyMode: %s
    keySpecs:
      - name: value
        kind: number
        default: 0
      - name: note
        kind: string
        default: "constant"
    functions:
      - name: bump
        image: img/retain
`

func newRetainRuntime(t *testing.T, mode model.ConcurrencyMode, records *[]aliasRecord, mu *sync.Mutex) *ClassRuntime {
	t.Helper()
	infra := testInfra(t)
	reg := invoker.NewRegistry()
	reg.Register("img/retain", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		var n float64
		if raw, ok := task.State["value"]; ok {
			_ = json.Unmarshal(raw, &n)
		}
		out, _ := json.Marshal(n + 1)
		delta := map[string]json.RawMessage{"value": out}
		rec := aliasRecord{
			state: task.State, stateCopy: deepCopyState(task.State),
			delta: delta, deltaCopy: deepCopyState(delta),
		}
		mu.Lock()
		*records = append(*records, rec)
		mu.Unlock()
		return invoker.Result{Output: out, State: delta}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	rt, err := New(infra, resolvedClass(t, fmt.Sprintf(retainYAML, mode), "Retainer"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// checkAliasRecords fails if any retained map diverged from the copy
// taken inside the handler — i.e. if the runtime mutated or recycled
// memory it had handed to (or received from) a handler.
func checkAliasRecords(t *testing.T, records []aliasRecord) {
	t.Helper()
	for i, rec := range records {
		for name, pair := range map[string][2]map[string]json.RawMessage{
			"Task.State":   {rec.state, rec.stateCopy},
			"Result.State": {rec.delta, rec.deltaCopy},
		} {
			live, want := pair[0], pair[1]
			if len(live) != len(want) {
				t.Fatalf("call %d: retained %s has %d keys, had %d at handler time", i, name, len(live), len(want))
			}
			for k, v := range want {
				if !bytes.Equal(live[k], v) {
					t.Fatalf("call %d: retained %s[%q] = %s, was %s at handler time (mutated after pool release)", i, name, k, live[k], v)
				}
			}
		}
	}
}

// TestHandlerRetainedMapsNeverRecycled drives concurrent single
// invokes in every concurrency mode while a verifier goroutine
// continuously reads everything past handlers retained. Any runtime
// write into retained memory is a -race report and/or a byte diff.
func TestHandlerRetainedMapsNeverRecycled(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(string(mode), func(t *testing.T) {
			var mu sync.Mutex
			var records []aliasRecord
			rt := newRetainRuntime(t, mode, &records, &mu)
			ctx := context.Background()
			if err := rt.InitObjectState(ctx, "o"); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			var verifier sync.WaitGroup
			verifier.Add(1)
			go func() {
				// Concurrent reader: makes the race detector see any
				// post-release write the runtime performs.
				defer verifier.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					mu.Lock()
					snapshot := records
					mu.Unlock()
					for _, rec := range snapshot {
						for _, v := range rec.state {
							_ = len(v)
						}
						for _, v := range rec.delta {
							_ = len(v)
						}
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
			const clients, perEach = 4, 25
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perEach; i++ {
						if _, err := rt.Invoke(ctx, "o", "bump", nil, nil); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(done)
			verifier.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != fmt.Sprintf("%d", clients*perEach) {
				t.Fatalf("counter = %s (%v), want %d", v, err, clients*perEach)
			}
			mu.Lock()
			defer mu.Unlock()
			checkAliasRecords(t, records)
		})
	}
}

// TestBatchHandlerRetainedMapsNeverRecycled is the InvokeBatch twin:
// group-committed calls share one load and one merged commit, so the
// evolving in-window view must still never alias pooled memory into
// the tasks it hands out.
func TestBatchHandlerRetainedMapsNeverRecycled(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(string(mode), func(t *testing.T) {
			var mu sync.Mutex
			var records []aliasRecord
			rt := newRetainRuntime(t, mode, &records, &mu)
			ctx := context.Background()
			if err := rt.InitObjectState(ctx, "o"); err != nil {
				t.Fatal(err)
			}
			const batches, perBatch = 12, 8
			var wg sync.WaitGroup
			errs := make(chan error, batches)
			for g := 0; g < batches; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					calls := make([]call.Call, perBatch)
					for i := range calls {
						calls[i] = call.Call{Member: "bump"}
					}
					for _, res := range rt.InvokeBatch(ctx, "o", calls) {
						if res.Err != nil {
							errs <- res.Err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != fmt.Sprintf("%d", batches*perBatch) {
				t.Fatalf("counter = %s (%v), want %d", v, err, batches*perBatch)
			}
			mu.Lock()
			defer mu.Unlock()
			checkAliasRecords(t, records)
		})
	}
}

// occValidateYAML declares two independent counters on one object,
// each bumped by its own method, with the validation scope and
// concurrency mode filled per test.
const occValidateYAML = `classes:
  - name: Split
    concurrencyMode: %s
    occValidate: %s
    keySpecs:
      - name: a
        kind: number
        default: 0
      - name: b
        kind: number
        default: 0
    functions:
      - name: bumpA
        image: img/bump-a
      - name: bumpB
        image: img/bump-b
`

func newSplitRuntime(t *testing.T, mode model.ConcurrencyMode, scope model.OCCValidate) *ClassRuntime {
	t.Helper()
	infra := testInfra(t)
	reg := invoker.NewRegistry()
	bump := func(key string) invoker.Handler {
		return invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
			var n float64
			if raw, ok := task.State[key]; ok {
				_ = json.Unmarshal(raw, &n)
			}
			// A small window so concurrent invocations genuinely
			// overlap their load→commit spans.
			time.Sleep(200 * time.Microsecond)
			out, _ := json.Marshal(n + 1)
			return invoker.Result{Output: out, State: map[string]json.RawMessage{key: out}}, nil
		})
	}
	reg.Register("img/bump-a", bump("a"))
	reg.Register("img/bump-b", bump("b"))
	infra.Transport = invoker.NewLocal(reg)
	yaml := fmt.Sprintf(occValidateYAML, mode, scope)
	rt, err := New(infra, resolvedClass(t, yaml, "Split"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// runSplitWriters bumps key a and key b from one goroutine each,
// n times per key, concurrently on one object.
func runSplitWriters(t *testing.T, rt *ClassRuntime, fnA, fnB string, n int) {
	t.Helper()
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "o"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, fn := range []string{fnA, fnB} {
		wg.Add(1)
		go func(fn string) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := rt.Invoke(ctx, "o", fn, nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}(fn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestOCCValidateKeysDisjointWritersNeverAbort is the point of the
// narrowed scope: two writers touching disjoint keys of one object
// share no validated version, so neither can ever invalidate the
// other's commit — zero aborts, deterministically.
func TestOCCValidateKeysDisjointWritersNeverAbort(t *testing.T) {
	const n = 40
	rt := newSplitRuntime(t, model.ConcurrencyOCC, model.OCCValidateKeys)
	runSplitWriters(t, rt, "bumpA", "bumpB", n)
	ctx := context.Background()
	for _, key := range []string{"a", "b"} {
		if v, err := rt.GetState(ctx, "o", key); err != nil || string(v) != fmt.Sprintf("%d", n) {
			t.Fatalf("%s = %s (%v), want %d", key, v, err, n)
		}
	}
	cs := rt.ConcurrencyStats()
	if cs.Aborts != 0 {
		t.Fatalf("aborts = %d, want 0: disjoint-key writers must not conflict under occValidate: keys", cs.Aborts)
	}
	if cs.Commits != 2*n {
		t.Fatalf("commits = %d, want %d", cs.Commits, 2*n)
	}
}

// TestOCCValidateKeysOverlappingWritersStayExact narrows validation
// but not correctness: when both writers hit the SAME key, written-key
// validation still detects every conflict — no lost updates.
func TestOCCValidateKeysOverlappingWritersStayExact(t *testing.T) {
	const n = 40
	rt := newSplitRuntime(t, model.ConcurrencyOCC, model.OCCValidateKeys)
	// Both writers bump key a.
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "o"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := rt.Invoke(ctx, "o", "bumpA", nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v, err := rt.GetState(ctx, "o", "a"); err != nil || string(v) != fmt.Sprintf("%d", 2*n) {
		t.Fatalf("a = %s (%v), want %d (lost update under per-key validation)", v, err, 2*n)
	}
	if cs := rt.ConcurrencyStats(); cs.Commits != 2*n {
		t.Fatalf("commits = %d, want %d", cs.Commits, 2*n)
	}
}

// TestOCCValidateKeysAdaptiveEscalationUnchanged runs the same
// overlapping-writer contention under the adaptive mode with per-key
// validation: exactness must hold through whatever mix of optimistic
// commits and barrier fallbacks the abort EWMA chooses — the
// narrowed scope changes what a commit validates, never whether a
// hot object may escalate.
func TestOCCValidateKeysAdaptiveEscalationUnchanged(t *testing.T) {
	const clients, perEach = 4, 25
	rt := newSplitRuntime(t, model.ConcurrencyAdaptive, model.OCCValidateKeys)
	ctx := context.Background()
	if err := rt.InitObjectState(ctx, "o"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				if _, err := rt.Invoke(ctx, "o", "bumpA", nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v, err := rt.GetState(ctx, "o", "a"); err != nil || string(v) != fmt.Sprintf("%d", clients*perEach) {
		t.Fatalf("a = %s (%v), want %d", v, err, clients*perEach)
	}
	cs := rt.ConcurrencyStats()
	if cs.Mode != string(model.ConcurrencyAdaptive) {
		t.Fatalf("stats mode = %q, want adaptive", cs.Mode)
	}
	if cs.Commits != clients*perEach {
		t.Fatalf("commits = %d, want %d", cs.Commits, clients*perEach)
	}
}

// TestOCCValidateYAMLRejectsUnknownScope: a bogus occValidate value is
// a deploy-time validation error, not a silent readset fallback.
func TestOCCValidateYAMLRejectsUnknownScope(t *testing.T) {
	yaml := fmt.Sprintf(occValidateYAML, model.ConcurrencyOCC, "sometimes")
	pkg, err := model.ParseYAML([]byte(yaml))
	if err == nil {
		_, err = model.Resolve(pkg, nil)
	}
	if err == nil || !strings.Contains(err.Error(), "occValidate") {
		t.Fatalf("err = %v, want occValidate validation error", err)
	}
}

// TestKeysForMatchesStateKey: the table keys a window builds in its
// scratch equal stateKey(object, name) in stateSpecs order, and the
// class-level name index agrees with them — for classes with zero, one
// and many structured keys, with a file key beside them (file keys stay
// out of the index) and across objects served by one scratch, whose
// earlier keys must survive the buffer's reuse.
func TestKeysForMatchesStateKey(t *testing.T) {
	cases := []struct {
		name       string
		structured []string
		file       string
	}{
		{name: "zero"},
		{name: "one", structured: []string{"value"}},
		{name: "many", structured: []string{"a", "bb", "c_c", "dddd", "e"}},
		{name: "file-only", file: "blob"},
		{name: "file-beside", structured: []string{"value", "note"}, file: "blob"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var yaml strings.Builder
			yaml.WriteString("classes:\n  - name: K\n")
			if len(tc.structured) > 0 || tc.file != "" {
				yaml.WriteString("    keySpecs:\n")
			}
			if tc.file != "" {
				// class.Keys is sorted by name and "blob" sorts first, so an
				// index taken over class.Keys instead of stateSpecs is off
				// by one.
				fmt.Fprintf(&yaml, "      - name: %s\n        kind: file\n", tc.file)
			}
			for _, k := range tc.structured {
				fmt.Fprintf(&yaml, "      - name: %s\n", k)
			}
			yaml.WriteString("    functions:\n      - name: get\n        image: img/get\n")
			rt := newRuntime(t, yaml.String(), "K")

			sc := getScratch()
			defer sc.release()
			type built struct {
				object string
				keys   []string
			}
			var earlier []built
			for _, obj := range []string{"o", "a-much-longer-object-id", "", "o2"} {
				keys := rt.keysFor(obj, sc)
				if len(keys) != len(tc.structured) {
					t.Fatalf("keysFor(%q) built %d keys, want %d", obj, len(keys), len(tc.structured))
				}
				// The slice is the scratch's; the strings are not.
				earlier = append(earlier, built{obj, append([]string(nil), keys...)})
			}
			for _, b := range earlier {
				for i, spec := range rt.stateSpecs {
					if want := rt.stateKey(b.object, spec.Name); b.keys[i] != want {
						t.Fatalf("object %q key %d = %q, want %q", b.object, i, b.keys[i], want)
					}
				}
			}
			if len(rt.keyIndex) != len(tc.structured) {
				t.Fatalf("keyIndex = %v, want exactly the structured keys %v", rt.keyIndex, tc.structured)
			}
			for _, name := range tc.structured {
				if i, ok := rt.keyIndex[name]; !ok || rt.stateSpecs[i].Name != name {
					t.Fatalf("keyIndex[%q] = %d, %v; stateSpecs %v", name, i, ok, rt.stateSpecs)
				}
			}
		})
	}
}

// TestFileKeyWrittenAsStateCommitsUnconditionally: a file key is not in
// the versioned snapshot, so a handler that writes one as state takes
// commit's unconditional-write arm. The handler bumps that table key's
// version between load and commit; a commit that expected a version for
// it would abort and retry.
func TestFileKeyWrittenAsStateCommitsUnconditionally(t *testing.T) {
	const mixedYAML = `classes:
  - name: Mixed
    concurrencyMode: occ
    keySpecs:
      - name: value
        kind: number
        default: 0
      - name: blob
        kind: file
    functions:
      - name: stamp
        image: img/stamp
`
	infra := testInfra(t)
	infra.Objects = newObjectStore(t).store
	var rt *ClassRuntime
	reg := invoker.NewRegistry()
	reg.Register("img/stamp", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		if err := rt.table.Put(ctx, rt.stateKey(task.Object, "blob"), json.RawMessage(`"raced"`)); err != nil {
			return invoker.Result{}, err
		}
		return invoker.Result{State: map[string]json.RawMessage{
			"value": json.RawMessage(`1`), "blob": json.RawMessage(`"meta"`),
		}}, nil
	}))
	infra.Transport = invoker.NewLocal(reg)
	rt, err := New(infra, resolvedClass(t, mixedYAML, "Mixed"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx := context.Background()
	if _, err := rt.Invoke(ctx, "o", "stamp", nil, nil); err != nil {
		t.Fatal(err)
	}
	if cs := rt.ConcurrencyStats(); cs.Commits != 1 || cs.Aborts != 0 {
		t.Fatalf("commits/aborts = %d/%d, want 1/0 (the file key was validated)", cs.Commits, cs.Aborts)
	}
	if v, err := rt.table.Get(ctx, rt.stateKey("o", "blob")); err != nil || string(v) != `"meta"` {
		t.Fatalf("blob state = %s, %v; want \"meta\"", v, err)
	}
	if v, err := rt.GetState(ctx, "o", "value"); err != nil || string(v) != "1" {
		t.Fatalf("value = %s, %v; want 1", v, err)
	}
}

// TestTableRetainedKeysSurviveScratchReuse: the state table keeps the
// key strings it is first handed — the first put of a fresh object's
// key (data, versions, the write-behind dirty set) and a read-through
// fill — long after the window that built them. Window A and window B
// here run on one scratch, as two windows served by the same pooled
// scratch do, so B's keys overwrite A's in the key buffer; every key
// the table retained from A must still read, version and flush as A's.
func TestTableRetainedKeysSurviveScratchReuse(t *testing.T) {
	infra := testInfra(t)
	rt, err := New(infra, resolvedClass(t, counterYAML, "Counter"), stdTemplate())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx := context.Background()
	incr, _ := rt.class.Function("incr")
	// "cold" lives only in the backing store: loading it is a
	// read-through fill under window A's key.
	if err := infra.Backing.BatchPut(ctx, map[string]json.RawMessage{
		"state/Counter/cold/value": json.RawMessage(`41`),
	}); err != nil {
		t.Fatal(err)
	}
	sc := getScratch()
	defer sc.release()
	window := func(objectID string, write json.RawMessage) {
		t.Helper()
		snap, err := rt.loadStateVersioned(ctx, objectID, sc)
		if err != nil {
			t.Fatal(err)
		}
		if write != nil {
			w := writeWindow{objectID: objectID, fn: incr}
			if err := rt.commit(ctx, &w, snap, map[string]json.RawMessage{"value": write}, true); err != nil {
				t.Fatal(err)
			}
		}
		// What release clears between two windows; the scratch itself
		// stays out of the pool so no parallel test can take it.
		clear(sc.got)
		clear(sc.ops)
	}
	window("fresh", json.RawMessage(`7`)) // A: first put of a fresh object
	window("cold", nil)                   // A': read-through fill
	window("zz-another-object-with-a-longer-id", json.RawMessage(`9`))

	for objectID, want := range map[string]string{"fresh": "7", "cold": "41"} {
		if v, err := rt.GetState(ctx, objectID, "value"); err != nil || string(v) != want {
			t.Fatalf("%s after scratch reuse = %s, %v; want %s", objectID, v, err, want)
		}
	}
	got := map[string]memtable.VersionedValue{}
	if err := rt.table.GetManyVersionedInto(ctx, []string{rt.stateKey("fresh", "value"), rt.stateKey("cold", "value")}, got); err != nil {
		t.Fatal(err)
	}
	for k, vv := range got {
		if vv.Version == 0 {
			t.Fatalf("table lost the version of retained key %q", k)
		}
	}
	rt.Flush(ctx)
	if doc, err := infra.Backing.Get(ctx, "state/Counter/fresh/value"); err != nil || string(doc.Value) != "7" {
		t.Fatalf("flushed fresh = %s, %v; want 7 (dirty-set key corrupted)", doc.Value, err)
	}
}
