// Package experiment implements the harness that regenerates the
// paper's evaluation (§V, Figure 3) and the design-choice ablations
// A1–A6 listed in cmd/oprc-bench's command doc.
//
// The scalability experiment scales worker VMs from 3 to 12 and
// measures the throughput of a JSON-randomization application under
// four system configurations:
//
//   - knative:                stateless-FaaS baseline — Knative-style
//     engine, every invocation writes state synchronously to the
//     document store (write-through).
//   - oprc:                   Oparaca — Knative-style engine + the
//     distributed in-memory table with write-behind batch flushes.
//   - oprc-bypass:            Oparaca with a plain-deployment engine
//     instead of Knative (no activator data path).
//   - oprc-bypass-nonpersist: as above, state kept in memory only.
//
// The absolute ops/sec depend on the simulation's scaling constants;
// the *shape* — Knative plateauing at the DB write ceiling around 6
// VMs while the Oparaca variants keep scaling, ordered
// oprc < oprc-bypass < oprc-bypass-nonpersist — reproduces Figure 3.
//
// Every modelled cost is a wait on the platform's clock. The package's
// tests run Figure 3 and each ablation in synctest bubbles, where that
// clock is virtual, and gate the figure's shape and each ablation's
// effect exactly; cmd/oprc-bench runs the same code in real time, so
// its numbers also depend on how busy the host is.
package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/loadgen"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/runtime"
)

// System identifies one of the four evaluated configurations.
type System int

// The four systems of Figure 3, in the paper's legend order.
const (
	SystemKnative System = iota + 1
	SystemOprc
	SystemOprcBypass
	SystemOprcBypassNonpersist
)

// String returns the paper's legend label.
func (s System) String() string {
	switch s {
	case SystemKnative:
		return "knative"
	case SystemOprc:
		return "oprc"
	case SystemOprcBypass:
		return "oprc-bypass"
	case SystemOprcBypassNonpersist:
		return "oprc-bypass-nonpersist"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// allSystems returns the systems in legend order.
func allSystems() []System {
	return []System{SystemKnative, SystemOprc, SystemOprcBypass, SystemOprcBypassNonpersist}
}

// Params sizes the Figure 3 experiment.
type Params struct {
	// Workers are the VM counts to sweep (paper: 3, 6, 9, 12).
	Workers []int
	// Duration / Warmup per measured point.
	Duration time.Duration
	Warmup   time.Duration
	// Concurrency is the closed-loop client count.
	Concurrency int
	// Objects is the number of distinct cloud objects targeted.
	Objects int
	// DBWriteOpsPerSec is the document store's write ceiling — the
	// bottleneck the paper attributes Knative's plateau to.
	DBWriteOpsPerSec float64
	// OpsPerMilliCPU converts VM size into compute tokens/sec.
	OpsPerMilliCPU float64
	// KnativeCost / BypassCost are the extra per-request compute
	// costs of the two data paths (activator+queue-proxy vs direct).
	KnativeCost float64
	BypassCost  float64
	// PersistCost is the extra per-request compute cost of tracking
	// state for persistence (write-through and write-behind modes).
	PersistCost float64
}

// DefaultParams returns the calibration used for EXPERIMENTS.md:
// 2000 compute tokens/sec per 4-vCPU VM and a 6500 writes/sec DB
// ceiling, which puts the Knative baseline's plateau right after 6
// VMs, as in the paper.
func DefaultParams() Params {
	return Params{
		Workers:          []int{3, 6, 9, 12},
		Duration:         1500 * time.Millisecond,
		Warmup:           500 * time.Millisecond,
		Concurrency:      256,
		Objects:          128,
		DBWriteOpsPerSec: 6500,
		OpsPerMilliCPU:   0.5,
		KnativeCost:      0.60,
		BypassCost:       0.08,
		PersistCost:      0.25,
	}
}

// Row is one measured point of the Figure 3 reproduction.
type Row struct {
	System        string        `json:"system"`
	Workers       int           `json:"workers"`
	ThroughputOPS float64       `json:"throughput_ops"`
	P95           time.Duration `json:"p95"`
	Errors        int64         `json:"errors"`
	DBWriteOps    int64         `json:"db_write_ops"`
}

// template builds the single class-runtime template for a system at a
// given worker count.
func (p Params) template(system System, workers int) runtime.Template {
	base := runtime.Template{
		Name:               system.String(),
		DefaultConcurrency: 16,
		MaxScale:           400,
		FlushInterval:      20 * time.Millisecond,
		FlushBatchSize:     512,
		Shards:             16,
	}
	switch system {
	case SystemKnative:
		base.EngineMode = faas.ModeKnative
		base.TableMode = memtable.ModeWriteThrough
		base.InvokeCost = 1 + p.KnativeCost + p.PersistCost
		base.MinScale = 1
		base.InitialScale = 2 * workers
	case SystemOprc:
		base.EngineMode = faas.ModeKnative
		base.TableMode = memtable.ModeWriteBehind
		base.InvokeCost = 1 + p.KnativeCost + p.PersistCost
		base.MinScale = 1
		base.InitialScale = 2 * workers
	case SystemOprcBypass:
		base.EngineMode = faas.ModeDeployment
		base.TableMode = memtable.ModeWriteBehind
		base.InvokeCost = 1 + p.BypassCost + p.PersistCost
		base.InitialScale = 2 * workers
	case SystemOprcBypassNonpersist:
		base.EngineMode = faas.ModeDeployment
		base.TableMode = memtable.ModeMemoryOnly
		base.InvokeCost = 1 + p.BypassCost
		base.InitialScale = 2 * workers
	}
	return base
}

// jsonRandomPackage is the evaluation workload's class definition: a
// single class holding one JSON document that each invocation
// re-randomizes (the paper's "JSON randomization application").
const jsonRandomPackage = `classes:
  - name: JsonStore
    keySpecs:
      - name: doc
        default: {}
    functions:
      - name: randomize
        image: img/json-random
`

// xorshift is a tiny deterministic PRNG so the handler needs no global
// randomness (which would make benchmark runs non-reproducible).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// randomizeHandler implements the JSON-randomization function: it
// replaces the object's "doc" state with a freshly randomized JSON
// document derived from the task identity.
func randomizeHandler() invoker.Handler {
	return invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		h := fnv.New64a()
		_, _ = h.Write([]byte(task.ID))
		_, _ = h.Write([]byte(task.Object))
		seed := xorshift(h.Sum64() | 1)
		doc := map[string]any{
			"id":     task.Object,
			"seq":    seed.next() % 1_000_000,
			"score":  float64(seed.next()%10_000) / 100,
			"flag":   seed.next()%2 == 0,
			"label":  fmt.Sprintf("item-%04d", seed.next()%10_000),
			"nested": map[string]any{"a": seed.next() % 256, "b": seed.next() % 256},
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			return invoker.Result{}, err
		}
		return invoker.Result{
			Output: raw,
			State:  map[string]json.RawMessage{"doc": raw},
		}, nil
	})
}

// setupPlatform builds a platform running tmpl on the given number of
// worker VMs, with the JSON-randomization application deployed and
// p.Objects objects created. The caller must Close the platform.
func setupPlatform(ctx context.Context, tmpl runtime.Template, workers int, p Params) (*core.Platform, []string, error) {
	noServe := false
	plat, err := core.New(core.Config{
		Workers:          workers,
		OpsPerMilliCPU:   p.OpsPerMilliCPU,
		DB:               kvstore.Settings{WriteOpsPerSec: p.DBWriteOpsPerSec},
		FaaS:             faas.Settings{ScaleInterval: 25 * time.Millisecond, IdleTimeout: time.Minute, ColdStart: 10 * time.Millisecond},
		Templates:        []runtime.Template{tmpl},
		ServeObjectStore: &noServe,
	})
	if err != nil {
		return nil, nil, err
	}
	plat.Images().Register("img/json-random", randomizeHandler())
	if _, err := plat.DeployYAML(ctx, []byte(jsonRandomPackage)); err != nil {
		plat.Close()
		return nil, nil, err
	}
	ids := make([]string, p.Objects)
	for i := range ids {
		id, err := plat.CreateObject(ctx, "JsonStore", fmt.Sprintf("js-%04d", i))
		if err != nil {
			plat.Close()
			return nil, nil, err
		}
		ids[i] = id
	}
	return plat, ids, nil
}

// measure runs the workload for p.Warmup, unmeasured, on a platform
// running tmpl, then for p.Duration. It returns the second run's report
// and the DB writes made from its start until its last op returned,
// including those of ops the window's end cut off, which the report
// does not count.
func measure(ctx context.Context, tmpl runtime.Template, workers int, p Params) (loadgen.Report, int64, error) {
	plat, ids, err := setupPlatform(ctx, tmpl, workers, p)
	if err != nil {
		return loadgen.Report{}, 0, err
	}
	defer plat.Close()
	run := func(d time.Duration) loadgen.Report {
		return loadgen.Run(ctx, loadgen.Config{Concurrency: p.Concurrency, Duration: d},
			func(ctx context.Context, worker int) error {
				_, err := plat.Invoke(ctx, ids[worker%len(ids)], "randomize", nil, nil)
				return err
			})
	}
	if p.Warmup > 0 {
		run(p.Warmup)
	}
	before := plat.Backing().Stats().WriteOps
	rep := run(p.Duration)
	return rep, plat.Backing().Stats().WriteOps - before, nil
}

// MeasurePoint measures one system at one worker count.
func MeasurePoint(ctx context.Context, system System, workers int, p Params) (Row, error) {
	rep, writes, err := measure(ctx, p.template(system, workers), workers, p)
	if err != nil {
		return Row{}, err
	}
	return Row{
		System:        system.String(),
		Workers:       workers,
		ThroughputOPS: rep.ThroughputOPS,
		P95:           rep.Latency.P95,
		Errors:        rep.Errors,
		DBWriteOps:    writes,
	}, nil
}

// RunFigure3 sweeps all systems over all worker counts, in the
// paper's legend order, and returns one row per point.
func RunFigure3(ctx context.Context, p Params) ([]Row, error) {
	var rows []Row
	for _, system := range allSystems() {
		for _, workers := range p.Workers {
			row, err := MeasurePoint(ctx, system, workers, p)
			if err != nil {
				return rows, fmt.Errorf("experiment: %s @ %d workers: %w", system, workers, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
