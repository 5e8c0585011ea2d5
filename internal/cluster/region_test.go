package cluster

import (
	"errors"
	"strings"
	"testing"
)

func TestAddRegionNode(t *testing.T) {
	c := New(Config{})
	n, err := c.AddRegionNode("eu-0", "eu", std())
	if err != nil {
		t.Fatal(err)
	}
	if n.Region() != "eu" {
		t.Fatalf("region = %q", n.Region())
	}
	// Default region for plain AddNode.
	n2, err := c.AddNode("plain-0", std())
	if err != nil {
		t.Fatal(err)
	}
	if n2.Region() != DefaultRegion {
		t.Fatalf("default region = %q", n2.Region())
	}
	// Empty region coerces to default.
	n3, err := c.AddRegionNode("coerced", "", std())
	if err != nil {
		t.Fatal(err)
	}
	if n3.Region() != DefaultRegion {
		t.Fatalf("coerced region = %q", n3.Region())
	}
}

func TestRegionsSorted(t *testing.T) {
	c := New(Config{})
	c.AddRegionNode("z-0", "zone-z", std())
	c.AddRegionNode("a-0", "zone-a", std())
	c.AddNode("d-0", std())
	if got := strings.Join(c.Regions(), ","); got != "default,zone-a,zone-z" {
		t.Fatalf("Regions = %q", got)
	}
}

func TestRegionDeploymentOnlyUsesMatchingNodes(t *testing.T) {
	c := New(Config{})
	c.AddRegionNode("eu-0", "eu", Resources{MilliCPU: 4000, MemoryMB: 8192})
	c.AddRegionNode("us-0", "us", Resources{MilliCPU: 4000, MemoryMB: 8192})
	d, err := c.CreateRegionDeployment("fn", std(), 3, "eu")
	if err != nil {
		t.Fatal(err)
	}
	if d.region != "eu" {
		t.Fatalf("deployment region = %q", d.region)
	}
	for _, p := range d.Pods() {
		if p.Node != "eu-0" {
			t.Fatalf("pod %s placed on %s outside region", p.ID, p.Node)
		}
	}
	us, _ := c.Node("us-0")
	if us.PodCount() != 0 {
		t.Fatalf("us node has %d pods", us.PodCount())
	}
}

func TestRegionDeploymentCapacityBoundedByRegion(t *testing.T) {
	c := New(Config{})
	c.AddRegionNode("eu-0", "eu", Resources{MilliCPU: 2000, MemoryMB: 8192})
	c.AddRegionNode("us-0", "us", Resources{MilliCPU: 8000, MemoryMB: 8192})
	// 3 pods of 1000 mCPU don't fit in eu even though us has room.
	_, err := c.CreateRegionDeployment("fn", std(), 3, "eu")
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	if err != nil && !strings.Contains(err.Error(), "eu") {
		t.Fatalf("error does not name the region: %v", err)
	}
}

func TestRegionDeploymentUnknownRegion(t *testing.T) {
	c := New(Config{})
	c.AddNode("d-0", Resources{MilliCPU: 8000, MemoryMB: 8192})
	if _, err := c.CreateRegionDeployment("fn", std(), 1, "mars"); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
}
