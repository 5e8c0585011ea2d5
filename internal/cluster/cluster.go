// Package cluster implements the container-orchestrator substrate
// standing in for Kubernetes (paper §IV step 1: "we use the local
// Kubernetes as the container orchestrator and then install Oparaca on
// top of it").
//
// It models worker VMs (nodes) with CPU/memory capacity, pods placed
// on nodes by a scheduler that spreads them, and deployments with a
// desired replica count. Each node exposes a compute token bucket
// whose rate is proportional to its CPU allocation; executor pods draw
// from it, which is how the scalability experiment (paper Figure 3)
// gets "more VMs → more aggregate throughput" without real hardware.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Sentinel errors.
var (
	// ErrNoCapacity is returned when no node can host a pod.
	ErrNoCapacity = errors.New("cluster: insufficient capacity on all nodes")
	// ErrNodeExists is returned when adding a duplicate node name.
	ErrNodeExists = errors.New("cluster: node already exists")
	// ErrNodeNotFound is returned for operations on unknown nodes.
	ErrNodeNotFound = errors.New("cluster: node not found")
	// ErrDeploymentExists is returned for duplicate deployment names.
	ErrDeploymentExists = errors.New("cluster: deployment already exists")
	// ErrDeploymentNotFound is returned for unknown deployments.
	ErrDeploymentNotFound = errors.New("cluster: deployment not found")
)

// Resources is a pod resource request or node capacity.
type Resources struct {
	MilliCPU int64 `json:"milli_cpu"`
	MemoryMB int64 `json:"memory_mb"`
}

// fits reports whether r fits inside free.
func (r Resources) fits(free Resources) bool {
	return r.MilliCPU <= free.MilliCPU && r.MemoryMB <= free.MemoryMB
}

func (r Resources) add(o Resources) Resources {
	return Resources{MilliCPU: r.MilliCPU + o.MilliCPU, MemoryMB: r.MemoryMB + o.MemoryMB}
}

func (r Resources) sub(o Resources) Resources {
	return Resources{MilliCPU: r.MilliCPU - o.MilliCPU, MemoryMB: r.MemoryMB - o.MemoryMB}
}

// DefaultRegion is the region nodes join when none is specified.
const DefaultRegion = "default"

// Node is one worker VM.
type Node struct {
	name    string
	region  string
	cap     Resources
	compute *vclock.TokenBucket

	mu    sync.Mutex
	alloc Resources
	pods  map[string]bool
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Region returns the data center the node belongs to.
func (n *Node) Region() string { return n.region }

// Compute returns the node's compute token bucket. Executors Take one
// token per simulated unit of work; the refill rate embodies the VM's
// processing capacity.
func (n *Node) Compute() *vclock.TokenBucket { return n.compute }

// PodCount returns the number of pods bound to this node.
func (n *Node) PodCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pods)
}

// Pod is a placed unit of work.
type Pod struct {
	ID         string    `json:"id"`
	Deployment string    `json:"deployment"`
	Node       string    `json:"node"`
	Req        Resources `json:"req"`
}

// Config configures a Cluster.
type Config struct {
	// OpsPerMilliCPU is the compute-bucket refill rate contributed by
	// each milliCPU of node capacity, in operations/second. A node
	// with 4000 mCPU and OpsPerMilliCPU=2 executes up to 8000 unit
	// operations per second. Defaults to 1.
	OpsPerMilliCPU float64
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.OpsPerMilliCPU <= 0 {
		c.OpsPerMilliCPU = 1
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	return c
}

// Cluster tracks nodes, pods and deployments. It is safe for
// concurrent use.
type Cluster struct {
	cfg Config

	mu          sync.Mutex
	nodes       map[string]*Node
	pods        map[string]*Pod
	deployments map[string]*Deployment
	nextPodID   int64
}

// New creates an empty cluster.
func New(cfg Config) *Cluster {
	return &Cluster{
		cfg:         cfg.withDefaults(),
		nodes:       make(map[string]*Node),
		pods:        make(map[string]*Pod),
		deployments: make(map[string]*Deployment),
	}
}

// AddNode registers a worker VM in the default region.
func (c *Cluster) AddNode(name string, capacity Resources) (*Node, error) {
	return c.AddRegionNode(name, DefaultRegion, capacity)
}

// AddRegionNode registers a worker VM in the named region (data
// center). Region-constrained deployments only place pods on matching
// nodes.
func (c *Cluster) AddRegionNode(name, region string, capacity Resources) (*Node, error) {
	if name == "" {
		return nil, errors.New("cluster: empty node name")
	}
	if region == "" {
		region = DefaultRegion
	}
	if capacity.MilliCPU <= 0 {
		return nil, fmt.Errorf("cluster: node %q needs positive CPU", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrNodeExists, name)
	}
	rate := float64(capacity.MilliCPU) * c.cfg.OpsPerMilliCPU
	n := &Node{
		name:    name,
		region:  region,
		cap:     capacity,
		compute: vclock.NewTokenBucket(c.cfg.Clock, rate, rate/10+1),
		pods:    make(map[string]bool),
	}
	c.nodes[name] = n
	return n, nil
}

// Regions returns the distinct regions with at least one node, sorted.
func (c *Cluster) Regions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[string]bool)
	for _, n := range c.nodes {
		seen[n.region] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// RemoveNode drains and removes a node. Its pods are deleted; callers
// that need them rescheduled should scale their deployments.
func (c *Cluster) RemoveNode(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNodeNotFound, name)
	}
	for id := range n.pods {
		if p, ok := c.pods[id]; ok {
			if d, ok := c.deployments[p.Deployment]; ok {
				d.dropPod(id)
			}
			delete(c.pods, id)
		}
	}
	n.compute.Close()
	delete(c.nodes, name)
	return nil
}

// Node returns the named node.
func (c *Cluster) Node(name string) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNodeNotFound, name)
	}
	return n, nil
}

// Nodes returns all nodes sorted by name.
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// NodeCount returns the number of registered nodes.
func (c *Cluster) NodeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// placePod schedules one pod for deployment d. Caller holds c.mu.
func (c *Cluster) placePodLocked(d *Deployment) (*Pod, error) {
	node := c.pickNodeLocked(d.req, d.region)
	if node == nil {
		if d.region != "" {
			return nil, fmt.Errorf("%w in region %q (deployment %q, request %+v)",
				ErrNoCapacity, d.region, d.name, d.req)
		}
		return nil, fmt.Errorf("%w (deployment %q, request %+v)", ErrNoCapacity, d.name, d.req)
	}
	c.nextPodID++
	pod := &Pod{
		ID:         fmt.Sprintf("%s-%06d", d.name, c.nextPodID),
		Deployment: d.name,
		Node:       node.name,
		Req:        d.req,
	}
	node.mu.Lock()
	node.alloc = node.alloc.add(d.req)
	node.pods[pod.ID] = true
	node.mu.Unlock()
	c.pods[pod.ID] = pod
	return pod, nil
}

// pickNodeLocked selects a node for req, restricted to region when
// non-empty: the one with the most free milliCPU that fits it, so pods
// spread and each keeps the most burst capacity. Equal-fit ties break by
// node name so repeated placements are deterministic regardless of
// iteration order. Caller holds c.mu.
func (c *Cluster) pickNodeLocked(req Resources, region string) *Node {
	var best *Node
	var bestFree int64
	for _, n := range sortedNodesLocked(c.nodes) {
		if region != "" && n.region != region {
			continue
		}
		n.mu.Lock()
		free := n.cap.sub(n.alloc)
		n.mu.Unlock()
		if !req.fits(free) {
			continue
		}
		if best == nil || free.MilliCPU > bestFree ||
			(free.MilliCPU == bestFree && n.name < best.name) {
			best, bestFree = n, free.MilliCPU
		}
	}
	return best
}

func sortedNodesLocked(m map[string]*Node) []*Node {
	out := make([]*Node, 0, len(m))
	for _, n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// deletePodLocked releases a pod's resources. Caller holds c.mu.
func (c *Cluster) deletePodLocked(id string) {
	pod, ok := c.pods[id]
	if !ok {
		return
	}
	if n, ok := c.nodes[pod.Node]; ok {
		n.mu.Lock()
		n.alloc = n.alloc.sub(pod.Req)
		delete(n.pods, id)
		n.mu.Unlock()
	}
	delete(c.pods, id)
}

// Deployment is a replicated pod set, analogous to a Kubernetes
// Deployment.
type Deployment struct {
	name    string
	req     Resources
	region  string // "" = any region
	cluster *Cluster

	mu   sync.Mutex
	pods map[string]*Pod
}

// CreateRegionDeployment registers a deployment, scaled to replicas,
// whose pods may only be placed in the named region ("" = any). This
// realizes jurisdiction constraints (paper §II-C / §VI future work).
func (c *Cluster) CreateRegionDeployment(name string, req Resources, replicas int, region string) (*Deployment, error) {
	if name == "" {
		return nil, errors.New("cluster: empty deployment name")
	}
	c.mu.Lock()
	if _, ok := c.deployments[name]; ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDeploymentExists, name)
	}
	d := &Deployment{
		name:    name,
		req:     req,
		region:  region,
		cluster: c,
		pods:    make(map[string]*Pod),
	}
	c.deployments[name] = d
	c.mu.Unlock()
	if err := d.Scale(replicas); err != nil {
		_ = c.DeleteDeployment(name)
		return nil, err
	}
	return d, nil
}

// DeleteDeployment scales a deployment to zero and removes it.
func (c *Cluster) DeleteDeployment(name string) error {
	c.mu.Lock()
	d, ok := c.deployments[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrDeploymentNotFound, name)
	}
	if err := d.Scale(0); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.deployments, name)
	c.mu.Unlock()
	return nil
}

// Name returns the deployment name.
func (d *Deployment) Name() string { return d.name }

// Replicas returns the current pod count.
func (d *Deployment) Replicas() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pods)
}

// Pods returns a snapshot of the deployment's pods sorted by ID.
func (d *Deployment) Pods() []*Pod {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Pod, 0, len(d.pods))
	for _, p := range d.pods {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// dropPod removes pod bookkeeping when a node is removed. The
// cluster's lock is already held by the caller.
func (d *Deployment) dropPod(id string) {
	d.mu.Lock()
	delete(d.pods, id)
	d.mu.Unlock()
}

// Scale adjusts the deployment to n replicas, adding or evicting pods
// as needed. On ErrNoCapacity it keeps the pods it managed to place
// and returns the error.
func (d *Deployment) Scale(n int) error {
	if n < 0 {
		return fmt.Errorf("cluster: negative replica count %d", n)
	}
	c := d.cluster
	for {
		d.mu.Lock()
		cur := len(d.pods)
		if cur == n {
			d.mu.Unlock()
			return nil
		}
		if cur < n {
			d.mu.Unlock()
			c.mu.Lock()
			pod, err := c.placePodLocked(d)
			c.mu.Unlock()
			if err != nil {
				return err
			}
			d.mu.Lock()
			d.pods[pod.ID] = pod
			d.mu.Unlock()
			continue
		}
		// Evict the newest pod.
		var victim string
		for id := range d.pods {
			if victim == "" || id > victim {
				victim = id
			}
		}
		delete(d.pods, victim)
		d.mu.Unlock()
		c.mu.Lock()
		c.deletePodLocked(victim)
		c.mu.Unlock()
	}
}
