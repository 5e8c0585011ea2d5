// Package memtable implements Oparaca's distributed in-memory hash
// table (paper §V: "its reliance on the distributed in-memory hash
// table to consolidate data for batch write operations").
//
// The table shards object state across the worker VMs with a
// consistent-hash ring, serves reads through a read-through cache over
// the backing document store, and persists dirty entries with a
// write-behind flusher that consolidates them into batch writes —
// amortizing the database's write-capacity ceiling.
//
// Batch access is first-class: GetManyInto and PutMany group their keys by
// owning shard, take each shard lock exactly once, and consolidate the
// backing-store traffic — read-through misses into one
// kvstore.BatchGet, write-through updates into one kvstore.BatchPut.
// The invocation hot path loads and merges whole per-object state
// bundles through these, so an invocation costs one simulated DB round
// trip instead of one per state key.
//
// Ownership: the table never changes a held value in place. Each write
// path (Put, PutMany, PutManyIfVersion) clones the caller's bytes once
// and replaces the entry's slice; that one clone is what reads return,
// what write-through and the flusher hand to the backing store, and —
// since kvstore keeps the slice it is given — what the store holds, so a
// flushed value is resident once. Values returned by reads (read-through
// ones included) alias that shared memory and are read-only.
package memtable

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring mapping keys to named nodes. Each
// node is inserted with a number of virtual points for balance. It is
// safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []uint32          // sorted hash points
	owners   map[uint32]string // point -> node
	nodes    map[string]bool
}

// NewRing returns a ring with the given number of virtual points per
// node. replicas must be positive; 64 is a reasonable default.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		panic("memtable: NewRing requires positive replicas")
	}
	return &Ring{
		replicas: replicas,
		owners:   make(map[uint32]string),
		nodes:    make(map[string]bool),
	}
}

func hashKey(s string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return h.Sum32()
}

// Add inserts a node. Adding an existing node is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		p := hashKey(fmt.Sprintf("%s#%d", node, i))
		// On the (unlikely) point collision the earlier node keeps
		// the point; balance is preserved by the other points.
		if _, taken := r.owners[p]; taken {
			continue
		}
		r.owners[p] = node
		r.points = append(r.points, p)
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i] < r.points[j] })
}

// Remove deletes a node and its points. Removing an absent node is a
// no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if r.owners[p] == node {
			delete(r.owners, p)
			continue
		}
		kept = append(kept, p)
	}
	r.points = kept
}

// Owner returns the node owning key, or "" when the ring is empty.
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.owners[r.points[i]]
}

// Nodes returns the current node names, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}
