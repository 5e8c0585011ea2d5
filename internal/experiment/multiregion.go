package experiment

import (
	"context"
	"fmt"
	"time"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/metrics"
)

// --- Ablation A6: multi-datacenter deployment (paper §VI future work)

// MultiRegionRow summarizes the multi-datacenter experiment: latency
// of invoking a jurisdiction-pinned object from its home region vs a
// remote region, plus verification that placement honored the
// constraint.
type MultiRegionRow struct {
	HomeRegion string `json:"home_region"`
	// LocalMean / RemoteMean are exact mean invocation latencies from
	// the home region and from the other data center.
	LocalMean          time.Duration `json:"local_mean"`
	RemoteMean         time.Duration `json:"remote_mean"`
	InterRegionRTT     time.Duration `json:"inter_region_rtt"`
	PlacementCompliant bool          `json:"placement_compliant"`
}

// multiRegionPackage pins a records class to the "eu" data center.
const multiRegionPackage = `classes:
  - name: EuRecords
    constraint:
      jurisdiction: eu
    keySpecs:
      - name: doc
        default: {}
    functions:
      - name: randomize
        image: img/json-random
`

// RunMultiRegionAblation deploys a jurisdiction-pinned class across a
// two-datacenter platform and measures the cross-region access
// penalty that motivates latency-aware placement.
func RunMultiRegionAblation(ctx context.Context, interRegion time.Duration, samples int) (MultiRegionRow, error) {
	if samples <= 0 {
		samples = 50
	}
	noServe := false
	plat, err := core.New(core.Config{
		Workers:            2, // default region ("us" stand-in)
		Regions:            []core.RegionSpec{{Name: "eu", Workers: 2}},
		InterRegionLatency: interRegion,
		FaaS:               faas.Settings{ColdStart: time.Millisecond, IdleTimeout: time.Minute},
		ServeObjectStore:   &noServe,
	})
	if err != nil {
		return MultiRegionRow{}, err
	}
	defer plat.Close()
	plat.Images().Register("img/json-random", randomizeHandler())
	if _, err := plat.DeployYAML(ctx, []byte(multiRegionPackage)); err != nil {
		return MultiRegionRow{}, err
	}
	id, err := plat.CreateObject(ctx, "EuRecords", "records-0")
	if err != nil {
		return MultiRegionRow{}, err
	}
	// Verify placement compliance: every pod of the class sits on an
	// eu node.
	compliant := true
	for _, node := range plat.Cluster().Nodes() {
		if node.Region() != "eu" && node.PodCount() > 0 {
			compliant = false
		}
	}
	// Warm up.
	if _, _, err := plat.InvokeRoutedFrom(ctx, "eu", "", id, "randomize", nil, nil); err != nil {
		return MultiRegionRow{}, err
	}
	clock := plat.Clock()
	var local, remote metrics.Histogram
	for i := 0; i < samples; i++ {
		start := clock.Now()
		if _, _, err := plat.InvokeRoutedFrom(ctx, "eu", "", id, "randomize", nil, nil); err != nil {
			return MultiRegionRow{}, fmt.Errorf("local invoke: %w", err)
		}
		local.Observe(clock.Since(start))
		start = clock.Now()
		if _, _, err := plat.InvokeRoutedFrom(ctx, "default", "", id, "randomize", nil, nil); err != nil {
			return MultiRegionRow{}, fmt.Errorf("remote invoke: %w", err)
		}
		remote.Observe(clock.Since(start))
	}
	home, err := plat.HomeRegion(id)
	if err != nil {
		return MultiRegionRow{}, err
	}
	return MultiRegionRow{
		HomeRegion:         home,
		LocalMean:          local.Mean(),
		RemoteMean:         remote.Mean(),
		InterRegionRTT:     2 * interRegion,
		PlacementCompliant: compliant,
	}, nil
}
