package oaas

// Contention regression tests for the invocation hot path: the class
// runtime serializes the load→invoke→merge window per object, so
// concurrent read-modify-write invocations must never lose updates —
// on the synchronous path, and on the asynchronous path whose worker
// pool maximizes overlap on hot objects. Run under -race in CI.

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/memtable"
)

// counterPackage declares one numeric key bumped by img/bump.
const counterPackage = `classes:
  - name: Counter
    keySpecs:
      - name: n
        kind: number
        default: 0
    functions:
      - name: bump
        image: img/bump
`

func newCounterPlatform(t *testing.T, mode memtable.Mode, conc ConcurrencyMode) (*Platform, string) {
	t.Helper()
	noServe := false
	tmpl := Template{
		Name:       "contention",
		EngineMode: EngineDeployment, TableMode: mode,
		DefaultConcurrency: 64, InitialScale: 4, MaxScale: 64,
	}
	plat, err := New(Config{
		Workers: 2, OpsPerMilliCPU: 1000,
		Templates:        []Template{tmpl},
		ServeObjectStore: &noServe,
		Async:            AsyncSettings{Workers: 8},
		Runtime:          RuntimeSettings{ConcurrencyMode: conc},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plat.Close)
	plat.Images().Register("img/bump", HandlerFunc(func(ctx context.Context, task Task) (Result, error) {
		var n float64
		if raw, ok := task.State["n"]; ok {
			if err := json.Unmarshal(raw, &n); err != nil {
				return Result{}, err
			}
		}
		// Yield between state load and merge, like any real function
		// with nonzero service time: this reliably opens the
		// read-modify-write window, so lost updates reproduce even on
		// a single-CPU runner if serialization regresses.
		select {
		case <-time.After(100 * time.Microsecond):
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
		out, _ := json.Marshal(n + 1)
		return Result{Output: out, State: map[string]json.RawMessage{"n": out}}, nil
	}))
	ctx := context.Background()
	if _, err := plat.DeployYAML(ctx, []byte(counterPackage)); err != nil {
		t.Fatal(err)
	}
	id, err := plat.CreateObject(ctx, "Counter", "hot")
	if err != nil {
		t.Fatal(err)
	}
	return plat, id
}

// TestHotObjectCounterIsExact bumps one counter object 100 times from
// 4 concurrent clients and requires the final value to be exactly 100
// — the lost-update regression per-object concurrency control fixes
// (with no control at all, this run lands around 29/100). It sweeps
// all three concurrency modes: locked serializes the window, occ
// preserves exactness through version-validated commit retries, and
// adaptive mixes the two regimes on the fly.
func TestHotObjectCounterIsExact(t *testing.T) {
	const (
		clients = 4
		perEach = 25
		total   = clients * perEach
	)
	cases := []struct {
		name  string
		mode  memtable.Mode
		conc  ConcurrencyMode
		async bool
	}{
		{"sync/write-behind/locked", TableWriteBehind, ConcurrencyLocked, false},
		{"sync/write-behind/occ", TableWriteBehind, ConcurrencyOCC, false},
		{"sync/write-behind/adaptive", TableWriteBehind, ConcurrencyAdaptive, false},
		{"sync/memory-only/locked", TableMemoryOnly, ConcurrencyLocked, false},
		{"sync/memory-only/occ", TableMemoryOnly, ConcurrencyOCC, false},
		{"sync/memory-only/adaptive", TableMemoryOnly, ConcurrencyAdaptive, false},
		{"sync/write-through/occ", TableWriteThrough, ConcurrencyOCC, false},
		{"async/write-behind/locked", TableWriteBehind, ConcurrencyLocked, true},
		{"async/write-behind/occ", TableWriteBehind, ConcurrencyOCC, true},
		{"async/write-behind/adaptive", TableWriteBehind, ConcurrencyAdaptive, true},
		{"async/memory-only/locked", TableMemoryOnly, ConcurrencyLocked, true},
		{"async/memory-only/occ", TableMemoryOnly, ConcurrencyOCC, true},
		{"async/memory-only/adaptive", TableMemoryOnly, ConcurrencyAdaptive, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plat, id := newCounterPlatform(t, c.mode, c.conc)
			ctx := context.Background()
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perEach; i++ {
						if c.async {
							invID, err := plat.InvokeAsync(ctx, id, "bump", nil, nil)
							if err != nil {
								errs <- err
								return
							}
							rec, err := plat.WaitInvocation(ctx, invID)
							if err != nil {
								errs <- err
								return
							}
							if rec.Status != InvocationCompleted {
								errs <- fmt.Errorf("invocation %s: %s (%s)", invID, rec.Status, rec.Error)
								return
							}
						} else if _, err := plat.Invoke(ctx, id, "bump", nil, nil); err != nil {
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
			v, err := plat.GetState(ctx, id, "n")
			if err != nil {
				t.Fatal(err)
			}
			if string(v) != fmt.Sprintf("%d", total) {
				t.Fatalf("counter = %s, want exactly %d (lost updates)", v, total)
			}
			cs, ok := plat.Stats().Concurrency["Counter"]
			if !ok {
				t.Fatal("Stats().Concurrency has no entry for Counter")
			}
			if cs.Mode != string(c.conc) {
				t.Fatalf("Stats().Concurrency mode = %q, want %q", cs.Mode, c.conc)
			}
			if c.conc == ConcurrencyLocked {
				if cs.Commits != 0 {
					t.Fatalf("locked mode recorded %d CAS commits, want 0", cs.Commits)
				}
			} else if cs.Commits != total {
				// Every bump writes state, so every invocation must land
				// as exactly one validated commit no matter how many
				// aborts and retries it took.
				t.Fatalf("CAS commits = %d, want %d", cs.Commits, total)
			}
		})
	}
}

// faultyCounterPackage extends the counter with failing and panicking
// members for mid-batch fault-isolation sweeps.
const faultyCounterPackage = `classes:
  - name: Counter
    keySpecs:
      - name: n
        kind: number
        default: 0
    functions:
      - name: bump
        image: img/bump
      - name: boom
        image: img/boom
      - name: kaboom
        image: img/kaboom
`

// TestBatchedDrainCounterIsExact floods the async queue with bumps on
// one hot object — plus interleaved failing and panicking calls — and
// requires (a) the counter to land exactly on the bump count in every
// concurrency mode, and (b) each failing/panicking call to poison only
// its own record, all through the DrainBatch=16 group-commit path
// under -race.
func TestBatchedDrainCounterIsExact(t *testing.T) {
	const (
		bumps   = 100
		booms   = 10
		kabooms = 5
	)
	for _, conc := range []ConcurrencyMode{ConcurrencyLocked, ConcurrencyOCC, ConcurrencyAdaptive} {
		t.Run(string(conc), func(t *testing.T) {
			noServe := false
			tmpl := Template{
				Name:       "batchdrain",
				EngineMode: EngineDeployment, TableMode: TableWriteBehind,
				DefaultConcurrency: 64, InitialScale: 4, MaxScale: 64,
			}
			plat, err := New(Config{
				Workers: 2, OpsPerMilliCPU: 1000,
				Templates:        []Template{tmpl},
				ServeObjectStore: &noServe,
				Async:            AsyncSettings{Workers: 8, DrainBatch: 16, Capacity: 4096},
				Runtime:          RuntimeSettings{ConcurrencyMode: conc},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(plat.Close)
			plat.Images().Register("img/bump", HandlerFunc(func(ctx context.Context, task Task) (Result, error) {
				var n float64
				if raw, ok := task.State["n"]; ok {
					if err := json.Unmarshal(raw, &n); err != nil {
						return Result{}, err
					}
				}
				select {
				case <-time.After(100 * time.Microsecond):
				case <-ctx.Done():
					return Result{}, ctx.Err()
				}
				out, _ := json.Marshal(n + 1)
				return Result{Output: out, State: map[string]json.RawMessage{"n": out}}, nil
			}))
			plat.Images().Register("img/boom", HandlerFunc(func(context.Context, Task) (Result, error) {
				return Result{}, fmt.Errorf("deliberate failure")
			}))
			plat.Images().Register("img/kaboom", HandlerFunc(func(context.Context, Task) (Result, error) {
				panic("mid-batch panic")
			}))
			ctx := context.Background()
			if _, err := plat.DeployYAML(ctx, []byte(faultyCounterPackage)); err != nil {
				t.Fatal(err)
			}
			id, err := plat.CreateObject(ctx, "Counter", "hot")
			if err != nil {
				t.Fatal(err)
			}
			// Interleave the fault calls through the bump stream so they
			// ride mid-batch, then submit everything in one burst to
			// build the backlog batched drains coalesce from.
			reqs := make([]AsyncRequest, 0, bumps+booms+kabooms)
			for i := 0; i < bumps; i++ {
				reqs = append(reqs, AsyncRequest{Object: id, Member: "bump"})
				if i%10 == 5 {
					reqs = append(reqs, AsyncRequest{Object: id, Member: "boom"})
				}
				if i%20 == 10 {
					reqs = append(reqs, AsyncRequest{Object: id, Member: "kaboom"})
				}
			}
			results := plat.InvokeAsyncBatch(ctx, reqs)
			var gotBoom, gotKaboom int
			for i, res := range results {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				rec, err := plat.WaitInvocation(ctx, res.ID)
				if err != nil {
					t.Fatal(err)
				}
				switch reqs[i].Member {
				case "bump":
					if rec.Status != InvocationCompleted {
						t.Fatalf("bump %s: %s (%s)", res.ID, rec.Status, rec.Error)
					}
				case "boom":
					gotBoom++
					if rec.Status != InvocationFailed || !strings.Contains(rec.Error, "deliberate failure") {
						t.Fatalf("boom record = %+v", rec)
					}
				case "kaboom":
					gotKaboom++
					if rec.Status != InvocationFailed || !strings.Contains(rec.Error, "panic") {
						t.Fatalf("kaboom record = %+v", rec)
					}
				}
			}
			if gotBoom != booms || gotKaboom != kabooms {
				t.Fatalf("fault calls seen = %d/%d, want %d/%d", gotBoom, gotKaboom, booms, kabooms)
			}
			v, err := plat.GetState(ctx, id, "n")
			if err != nil {
				t.Fatal(err)
			}
			if string(v) != fmt.Sprintf("%d", bumps) {
				t.Fatalf("counter = %s, want exactly %d (lost or phantom updates through batched drain)", v, bumps)
			}
			if s := plat.Stats().Async; s.Coalesced == 0 || s.BatchedDrains == 0 {
				t.Fatalf("batched drain never coalesced (stats %+v) — the group-commit path went untested", s)
			}
		})
	}
}
