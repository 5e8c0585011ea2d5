package cluster

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func std() Resources { return Resources{MilliCPU: 1000, MemoryMB: 1024} }

// deploy creates a deployment placeable in any region.
func deploy(c *Cluster, name string, req Resources, replicas int) (*Deployment, error) {
	return c.CreateRegionDeployment(name, req, replicas, "")
}

// registered reports whether c still tracks the named deployment.
func registered(c *Cluster, name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.deployments[name]
	return ok
}

// allocated returns the mCPU a node has handed out to pods.
func allocated(n *Node) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alloc.MilliCPU
}

func newCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c := New(Config{})
	for i := 0; i < nodes; i++ {
		if _, err := c.AddNode(fmt.Sprintf("vm-%02d", i), Resources{MilliCPU: 4000, MemoryMB: 8192}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestAddNodeValidation(t *testing.T) {
	c := New(Config{})
	if _, err := c.AddNode("", std()); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.AddNode("n", Resources{}); err == nil {
		t.Fatal("zero CPU accepted")
	}
	if _, err := c.AddNode("n", std()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode("n", std()); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate add = %v", err)
	}
}

func TestNodeLookup(t *testing.T) {
	c := newCluster(t, 2)
	n, err := c.Node("vm-00")
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "vm-00" {
		t.Fatalf("Name = %q", n.Name())
	}
	if _, err := c.Node("absent"); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("lookup absent = %v", err)
	}
}

func TestNodesSorted(t *testing.T) {
	c := newCluster(t, 3)
	nodes := c.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("len = %d", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].Name() > nodes[i].Name() {
			t.Fatal("nodes not sorted")
		}
	}
}

func TestComputeRateProportionalToCPU(t *testing.T) {
	c := New(Config{OpsPerMilliCPU: 2})
	n, err := c.AddNode("big", Resources{MilliCPU: 4000, MemoryMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Compute().Rate(); got != 8000 {
		t.Fatalf("compute rate = %v, want 8000", got)
	}
}

func TestTotalComputeRateScalesWithNodes(t *testing.T) {
	c := New(Config{OpsPerMilliCPU: 1})
	for i := 0; i < 3; i++ {
		if _, err := c.AddNode(fmt.Sprintf("n%d", i), Resources{MilliCPU: 1000, MemoryMB: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var total float64
	for _, n := range c.Nodes() {
		total += n.Compute().Rate()
	}
	if total != 3000 {
		t.Fatalf("aggregate compute rate = %v, want 3000", total)
	}
}

func TestCreateDeploymentPlacesReplicas(t *testing.T) {
	c := newCluster(t, 3)
	d, err := deploy(c, "fn", std(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Replicas(); got != 6 {
		t.Fatalf("Replicas = %d, want 6", got)
	}
	var total int
	for _, n := range c.Nodes() {
		total += n.PodCount()
	}
	if total != 6 {
		t.Fatalf("cluster pod count = %d, want 6", total)
	}
}

func TestSpreadBalances(t *testing.T) {
	c := newCluster(t, 3)
	if _, err := deploy(c, "fn", std(), 6); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if got := n.PodCount(); got != 2 {
			t.Fatalf("node %s has %d pods, want 2 (spread)", n.Name(), got)
		}
	}
}

func TestScaleUpAndDown(t *testing.T) {
	c := newCluster(t, 2)
	d, err := deploy(c, "fn", std(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Scale(5); err != nil {
		t.Fatal(err)
	}
	if d.Replicas() != 5 {
		t.Fatalf("Replicas = %d after scale up", d.Replicas())
	}
	if err := d.Scale(1); err != nil {
		t.Fatal(err)
	}
	if d.Replicas() != 1 {
		t.Fatalf("Replicas = %d after scale down", d.Replicas())
	}
	// Resources released.
	var alloc int64
	for _, n := range c.Nodes() {
		alloc += allocated(n)
	}
	if alloc != 1000 {
		t.Fatalf("allocated mCPU = %d, want 1000", alloc)
	}
}

func TestScaleToZero(t *testing.T) {
	c := newCluster(t, 1)
	d, _ := deploy(c, "fn", std(), 2)
	if err := d.Scale(0); err != nil {
		t.Fatal(err)
	}
	if d.Replicas() != 0 {
		t.Fatalf("Replicas = %d", d.Replicas())
	}
	if got := allocated(c.Nodes()[0]); got != 0 {
		t.Fatalf("allocation leak: %d mCPU", got)
	}
}

func TestScaleNegativeRejected(t *testing.T) {
	c := newCluster(t, 1)
	d, _ := deploy(c, "fn", std(), 0)
	if err := d.Scale(-1); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestCapacityExhaustion(t *testing.T) {
	c := newCluster(t, 1) // 4000 mCPU
	d, err := deploy(c, "fn", std(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Scale(5); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("over-scale = %v, want ErrNoCapacity", err)
	}
	// Partial state preserved.
	if d.Replicas() != 4 {
		t.Fatalf("Replicas = %d after failed scale", d.Replicas())
	}
}

func TestCreateDeploymentOverCapacityCleansUp(t *testing.T) {
	c := newCluster(t, 1)
	if _, err := deploy(c, "huge", std(), 100); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
	// The failed deployment must not linger.
	if registered(c, "huge") {
		t.Fatal("failed deployment still registered")
	}
}

func TestDuplicateDeployment(t *testing.T) {
	c := newCluster(t, 1)
	if _, err := deploy(c, "fn", std(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := deploy(c, "fn", std(), 1); !errors.Is(err, ErrDeploymentExists) {
		t.Fatalf("duplicate = %v", err)
	}
}

func TestDeleteDeployment(t *testing.T) {
	c := newCluster(t, 1)
	deploy(c, "fn", std(), 2)
	if err := c.DeleteDeployment("fn"); err != nil {
		t.Fatal(err)
	}
	if registered(c, "fn") {
		t.Fatal("deployment still registered after delete")
	}
	if got := allocated(c.Nodes()[0]); got != 0 {
		t.Fatalf("allocation leak after delete: %d", got)
	}
	if err := c.DeleteDeployment("fn"); !errors.Is(err, ErrDeploymentNotFound) {
		t.Fatalf("double delete = %v", err)
	}
}

func TestRemoveNodeDropsItsPods(t *testing.T) {
	c := newCluster(t, 2)
	d, _ := deploy(c, "fn", std(), 4)
	if err := c.RemoveNode("vm-00"); err != nil {
		t.Fatal(err)
	}
	if c.NodeCount() != 1 {
		t.Fatalf("NodeCount = %d", c.NodeCount())
	}
	// The deployment lost the pods on vm-00.
	if got := d.Replicas(); got != 2 {
		t.Fatalf("Replicas after node removal = %d, want 2", got)
	}
	// Scale heals back using the remaining node.
	if err := d.Scale(4); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Pods() {
		if p.Node != "vm-01" {
			t.Fatalf("pod %s on removed node %s", p.ID, p.Node)
		}
	}
}

func TestRemoveAbsentNode(t *testing.T) {
	c := newCluster(t, 1)
	if err := c.RemoveNode("ghost"); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPodsSnapshotSorted(t *testing.T) {
	c := newCluster(t, 2)
	d, _ := deploy(c, "fn", std(), 3)
	pods := d.Pods()
	if len(pods) != 3 {
		t.Fatalf("len = %d", len(pods))
	}
	for i := 1; i < len(pods); i++ {
		if pods[i-1].ID > pods[i].ID {
			t.Fatal("pods not sorted")
		}
	}
}

// Property: for any sequence of scale operations, total allocated
// resources equal the sum of live pod requests (no leaks, no double
// frees).
func TestAllocationConservationProperty(t *testing.T) {
	prop := func(scales []uint8) bool {
		c := New(Config{})
		for i := 0; i < 4; i++ {
			if _, err := c.AddNode(fmt.Sprintf("n%d", i), Resources{MilliCPU: 8000, MemoryMB: 1 << 20}); err != nil {
				return false
			}
		}
		d, err := deploy(c, "fn", Resources{MilliCPU: 500, MemoryMB: 64}, 0)
		if err != nil {
			return false
		}
		for _, s := range scales {
			_ = d.Scale(int(s % 40))
		}
		var alloc int64
		for _, n := range c.Nodes() {
			alloc += allocated(n)
		}
		return alloc == int64(d.Replicas())*500
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPickNodeDeterministicTieBreak places pods repeatedly on
// equal-fit nodes and asserts the choice is stable (lowest name wins),
// regardless of node insertion order.
func TestPickNodeDeterministicTieBreak(t *testing.T) {
	orders := [][]string{
		{"vm-00", "vm-01", "vm-02", "vm-03"},
		{"vm-03", "vm-01", "vm-00", "vm-02"},
		{"vm-02", "vm-03", "vm-01", "vm-00"},
	}
	var want []string
	for trial, order := range orders {
		c := New(Config{})
		for _, name := range order {
			if _, err := c.AddNode(name, Resources{MilliCPU: 4000, MemoryMB: 8192}); err != nil {
				t.Fatal(err)
			}
		}
		d, err := deploy(c, "tie", Resources{MilliCPU: 500, MemoryMB: 256}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i := 1; i <= 8; i++ {
			if err := d.Scale(i); err != nil {
				t.Fatal(err)
			}
			pods := d.Pods()
			got = append(got, pods[len(pods)-1].Node)
		}
		if trial == 0 {
			want = got
			// All nodes start equal, so the very first tie must resolve
			// to the lexicographically smallest name.
			if got[0] != "vm-00" {
				t.Fatalf("first placement on %q, want vm-00", got[0])
			}
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("placement sequence differs across insertion orders:\n  %v\n  %v", want, got)
			}
		}
	}
}
