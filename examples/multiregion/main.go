// Multiregion demonstrates the paper's §VI future work implemented in
// this reproduction: deploying OaaS applications across multiple data
// centers. A jurisdiction constraint pins a class's function pods to
// one region, and clients in other regions pay the inter-region
// latency — exactly the "latency and jurisdiction" non-functional
// requirements the paper says multi-datacenter support unlocks.
//
// Run with: go run ./examples/multiregion
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"time"

	oaas "github.com/hpcclab/oparaca-go"
)

const packageYAML = `classes:
  - name: PatientRecords     # GDPR-style data residency
    constraint:
      jurisdiction: eu-west
      persistent: true
    keySpecs:
      - name: record
        default: {}
    functions:
      - name: update
        image: img/update
      - name: read
        image: img/read
  - name: PublicCatalog      # unconstrained, lives in the default DC
    keySpecs:
      - name: items
        default: []
    functions:
      - name: read
        image: img/read
`

func main() {
	ctx := context.Background()
	platform, err := oaas.New(oaas.Config{
		Workers: 2, // the default data center
		Regions: []oaas.RegionSpec{
			{Name: "eu-west", Workers: 2},
			{Name: "ap-south", Workers: 1},
		},
		InterRegionLatency: 40 * time.Millisecond, // one-way
	})
	if err != nil {
		log.Fatal(err)
	}
	defer platform.Close()

	platform.Images().Register("img/update", oaas.HandlerFunc(
		func(_ context.Context, task oaas.Task) (oaas.Result, error) {
			return oaas.Result{
				Output: task.Payload,
				State:  map[string]json.RawMessage{"record": task.Payload},
			}, nil
		}))
	platform.Images().Register("img/read", oaas.HandlerFunc(
		func(_ context.Context, task oaas.Task) (oaas.Result, error) {
			for _, key := range []string{"record", "items"} {
				if v, ok := task.State[key]; ok {
					return oaas.Result{Output: v}, nil
				}
			}
			return oaas.Result{Output: json.RawMessage("null")}, nil
		}))

	if _, err := platform.DeployYAML(ctx, []byte(packageYAML)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cluster regions:", platform.Cluster().Regions())

	record, err := oaas.NewObject(ctx, platform, "PatientRecords", "patient-42")
	if err != nil {
		log.Fatal(err)
	}
	home, _ := platform.HomeRegion(record.ID)
	fmt.Printf("object %s lives in region %q (jurisdiction constraint)\n", record.ID, home)

	if _, _, err := platform.InvokeRoutedFrom(ctx, "eu-west", "", record.ID, "update",
		json.RawMessage(`{"name":"A. Patient","bp":"120/80"}`), nil); err != nil {
		log.Fatal(err)
	}

	// Warm the read function once (scale-from-zero cold start) so the
	// comparison below isolates the network penalty.
	if _, _, err := platform.InvokeRoutedFrom(ctx, "eu-west", "", record.ID, "read", nil, nil); err != nil {
		log.Fatal(err)
	}

	// Same-region access is fast; cross-region pays the configured
	// round trip.
	measure := func(clientRegion string) time.Duration {
		start := time.Now()
		if _, _, err := platform.InvokeRoutedFrom(ctx, clientRegion, "", record.ID, "read", nil, nil); err != nil {
			log.Fatal(err)
		}
		return time.Since(start)
	}
	fmt.Printf("read from eu-west client:  %v\n", measure("eu-west").Round(time.Microsecond))
	fmt.Printf("read from default client:  %v\n", measure("").Round(time.Millisecond))
	fmt.Printf("read from ap-south client: %v\n", measure("ap-south").Round(time.Millisecond))

	// Placement compliance: no PatientRecords pod outside eu-west.
	for _, node := range platform.Cluster().Nodes() {
		if node.PodCount() > 0 {
			fmt.Printf("node %-16s region %-10s pods %d\n", node.Name(), node.Region(), node.PodCount())
		}
	}
}
