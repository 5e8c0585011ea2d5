package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// euPackage declares a class pinned to the "eu" region and an
// unpinned sibling.
const euPackage = `classes:
  - name: EuRecords
    constraint:
      jurisdiction: eu
    keySpecs:
      - name: doc
        default: {}
    functions:
      - name: touch
        image: img/touch
  - name: Anywhere
    keySpecs:
      - name: doc
        default: {}
    functions:
      - name: touch
        image: img/touch
`

func newRegionPlatform(t *testing.T, interRegion time.Duration, clock vclock.Clock) *Platform {
	t.Helper()
	p, err := New(Config{
		Clock:              clock,
		Workers:            2, // default region
		Regions:            []RegionSpec{{Name: "eu", Workers: 2}},
		InterRegionLatency: interRegion,
		FaaS:               faas.Settings{ColdStart: time.Millisecond, IdleTimeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Images().Register("img/touch", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		return invoker.Result{Output: json.RawMessage(`"touched"`)}, nil
	}))
	if _, err := p.DeployYAML(context.Background(), []byte(euPackage)); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestJurisdictionPinsPodsToRegion(t *testing.T) {
	p := newRegionPlatform(t, 0, nil)
	ctx := context.Background()
	id, err := p.CreateObject(ctx, "EuRecords", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(ctx, id, "touch", nil, nil); err != nil {
		t.Fatal(err)
	}
	rt, err := p.Runtime("EuRecords")
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.Engine().Stats()
	if len(stats) != 1 || stats[0].Replicas < 1 {
		t.Fatalf("engine stats = %+v", stats)
	}
	// Every pod of the jurisdiction-pinned class must sit on an eu
	// node; the unpinned class was never invoked, so no other pod runs.
	for _, node := range p.Cluster().Nodes() {
		if node.Region() != "eu" && node.PodCount() > 0 {
			t.Fatalf("%d pods placed on %s (region %s)", node.PodCount(), node.Name(), node.Region())
		}
	}
}

func TestJurisdictionWithoutRegionFails(t *testing.T) {
	p, err := New(Config{Workers: 1, FaaS: faas.Settings{ColdStart: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Images().Register("img/touch", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{}, nil
	}))
	pkg := `classes:
  - name: Mars
    constraint:
      jurisdiction: mars
    functions:
      - name: f
        image: img/touch
`
	// Deployment-mode templates need initial replicas which cannot be
	// placed: the deploy must fail rather than silently place pods
	// outside the jurisdiction.
	yes := false
	_ = yes
	if _, err := p.DeployYAML(context.Background(), []byte(pkg)); err == nil {
		// Knative-mode standard template starts at 0 replicas, so the
		// deploy may succeed; the invocation must then fail.
		id, err := p.CreateObject(context.Background(), "Mars", "")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if _, err := p.Invoke(ctx, id, "f", nil, nil); err == nil {
			t.Fatal("invocation succeeded with no nodes in the jurisdiction")
		}
	}
}

func TestHomeRegion(t *testing.T) {
	p := newRegionPlatform(t, 0, nil)
	ctx := context.Background()
	eu, _ := p.CreateObject(ctx, "EuRecords", "")
	anywhere, _ := p.CreateObject(ctx, "Anywhere", "")
	if r, err := p.HomeRegion(eu); err != nil || r != "eu" {
		t.Fatalf("HomeRegion(eu obj) = %q, %v", r, err)
	}
	if r, err := p.HomeRegion(anywhere); err != nil || r != cluster.DefaultRegion {
		t.Fatalf("HomeRegion(default obj) = %q, %v", r, err)
	}
	if _, err := p.HomeRegion("ghost"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// The region tests run on a hopClock (invoke_test.go): a hop's Sleep is
// recorded and returns at once, so they assert the charge itself — how
// many round trips of 2×InterRegionLatency — not how long a loaded
// host took to serve them.

func TestInvokeFromChargesCrossRegionLatency(t *testing.T) {
	const rtt = 25 * time.Millisecond
	clock := newHopClock(2 * rtt)
	p := newRegionPlatform(t, rtt, clock)
	ctx := context.Background()
	id, err := p.CreateObject(ctx, "EuRecords", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.InvokeRoutedFrom(ctx, "eu", "", id, "touch", nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := clock.charged(2 * rtt); n != 0 {
		t.Fatalf("same-region invoke charged %d inter-region round trips, want 0", n)
	}
	if _, _, err := p.InvokeRoutedFrom(ctx, "", "", id, "touch", nil, nil); err != nil { // default region client
		t.Fatal(err)
	}
	if n := clock.charged(2 * rtt); n != 1 {
		t.Fatalf("cross-region invoke charged %d inter-region round trips, want 1", n)
	}
}

func TestInvokeAsyncFromChargesCrossRegionLatency(t *testing.T) {
	const rtt = 25 * time.Millisecond
	clock := newHopClock(2 * rtt)
	p := newRegionPlatform(t, rtt, clock)
	ctx := context.Background()
	id, err := p.CreateObject(ctx, "EuRecords", "")
	if err != nil {
		t.Fatal(err)
	}
	submit := func(region, object string) (string, error) {
		res := p.InvokeAsyncBatchFrom(ctx, region, []asyncq.Request{{Object: object, Member: "touch"}})[0]
		return res.ID, res.Err
	}
	// Same-region submission: no penalty on the submit path.
	invID, err := submit("eu", id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.WaitInvocation(ctx, invID); err != nil {
		t.Fatal(err)
	}
	if n := clock.charged(2 * rtt); n != 0 {
		t.Fatalf("same-region async submission charged %d round trips, want 0", n)
	}
	// Cross-region submission: the inter-region round trip is charged
	// on submission itself, mirroring the synchronous route.
	invID, err = submit("", id)
	if err != nil {
		t.Fatal(err)
	}
	if n := clock.charged(2 * rtt); n != 1 {
		t.Fatalf("cross-region async submission charged %d round trips, want 1", n)
	}
	if rec, err := p.WaitInvocation(ctx, invID); err != nil || rec.Status != "completed" {
		t.Fatalf("record = %+v, %v", rec, err)
	}
	if _, err := submit("eu", "ghost"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("err = %v, want ErrObjectNotFound", err)
	}
}

// TestInvokeBatchChargesCrossRegionOncePerRequest: a batch is one
// message on the wire. It pays one inter-region round trip when at
// least one resolvable entry is homed outside the client's region —
// not one per entry — and none when every entry is local or no latency
// is configured; an unknown target still fails only its own entry.
func TestInvokeBatchChargesCrossRegionOncePerRequest(t *testing.T) {
	const rtt = 25 * time.Millisecond
	clock := newHopClock(2 * rtt)
	p := newRegionPlatform(t, rtt, clock)
	ctx := context.Background()
	eu, _ := p.CreateObject(ctx, "EuRecords", "")
	anywhere, _ := p.CreateObject(ctx, "Anywhere", "")
	batch := func(objects ...string) []asyncq.Request {
		reqs := make([]asyncq.Request, len(objects))
		for i, o := range objects {
			reqs[i] = asyncq.Request{Object: o, Member: "touch"}
		}
		return reqs
	}
	wait := func(results []asyncq.BatchResult, wantErr map[int]error) {
		t.Helper()
		for i, res := range results {
			if want := wantErr[i]; want != nil {
				if !errors.Is(res.Err, want) {
					t.Fatalf("entry %d err = %v, want %v", i, res.Err, want)
				}
				continue
			}
			if res.Err != nil {
				t.Fatalf("entry %d rejected: %v", i, res.Err)
			}
			if rec, err := p.WaitInvocation(ctx, res.ID); err != nil || rec.Status != "completed" {
				t.Fatalf("entry %d record = %+v, %v", i, rec, err)
			}
		}
	}
	// Default-region client: the local entry and the ghost cost nothing,
	// the three eu entries cost one round trip between them.
	wait(p.InvokeAsyncBatchFrom(ctx, "", batch(anywhere, "ghost", eu, eu, eu)), map[int]error{1: ErrObjectNotFound})
	if n := clock.charged(2 * rtt); n != 1 {
		t.Fatalf("mixed batch charged %d round trips, want 1", n)
	}
	// Every resolvable entry local to the client: nothing.
	wait(p.InvokeAsyncBatchFrom(ctx, "eu", batch(eu, "ghost", eu)), map[int]error{1: ErrObjectNotFound})
	wait(p.InvokeAsyncBatchFrom(ctx, "", batch(anywhere, anywhere)), nil)
	// An in-process batch has no client region to be far from.
	wait(p.InvokeAsyncBatch(ctx, batch(eu, eu)), nil)
	if n := clock.charged(2 * rtt); n != 1 {
		t.Fatalf("local and in-process batches charged %d more round trips, want 0", n-1)
	}
	// No inter-region latency configured: nothing to charge.
	flat := newRegionPlatform(t, 0, clock)
	id, _ := flat.CreateObject(ctx, "EuRecords", "")
	for _, res := range flat.InvokeAsyncBatchFrom(ctx, "", batch(id, id)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if n := clock.charged(2 * rtt); n != 1 {
		t.Fatalf("zero-latency platform charged %d round trips, want 0", n-1)
	}
}

func TestInvokeFromSameRegionNoPenalty(t *testing.T) {
	const rtt = 100 * time.Millisecond
	clock := newHopClock(2 * rtt)
	p := newRegionPlatform(t, rtt, clock)
	ctx := context.Background()
	id, _ := p.CreateObject(ctx, "Anywhere", "")
	for i := 0; i < 2; i++ {
		if _, _, err := p.InvokeRoutedFrom(ctx, "", "", id, "touch", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := clock.charged(2 * rtt); n != 0 {
		t.Fatalf("same-region invokes charged %d inter-region round trips, want 0", n)
	}
}

func TestRegionSpecValidation(t *testing.T) {
	if _, err := New(Config{Regions: []RegionSpec{{Name: "", Workers: 1}}}); err == nil {
		t.Fatal("empty region name accepted")
	}
	if _, err := New(Config{Regions: []RegionSpec{{Name: "x", Workers: 0}}}); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestClusterRegionsListed(t *testing.T) {
	p := newRegionPlatform(t, 0, nil)
	regions := p.Cluster().Regions()
	if strings.Join(regions, ",") != "default,eu" {
		t.Fatalf("regions = %v", regions)
	}
}
