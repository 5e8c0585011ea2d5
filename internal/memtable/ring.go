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
)

// Ring is a consistent-hash ring mapping keys to named nodes. Each
// node is inserted with a number of virtual points for balance. A ring
// never changes after NewRing, so it is safe for concurrent use.
type Ring struct {
	points []uint32          // sorted hash points
	owners map[uint32]string // point -> node
	nodes  int
}

// NewRing returns a ring of nodes (a repeated name counts once), each
// with replicas virtual points. replicas must be positive; 64 is a
// reasonable default.
func NewRing(replicas int, nodes ...string) *Ring {
	if replicas <= 0 {
		panic("memtable: NewRing requires positive replicas")
	}
	r := &Ring{owners: make(map[uint32]string)}
	seen := make(map[string]bool, len(nodes))
	for _, node := range nodes {
		if seen[node] {
			continue
		}
		seen[node] = true
		r.nodes++
		for i := 0; i < replicas; i++ {
			p := hashKey(fmt.Sprintf("%s#%d", node, i))
			// On the (unlikely) point collision the earlier node keeps
			// the point; balance is preserved by the other points.
			if _, taken := r.owners[p]; taken {
				continue
			}
			r.owners[p] = node
			r.points = append(r.points, p)
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i] < r.points[j] })
	return r
}

func hashKey(s string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return h.Sum32()
}

// Owner returns the node owning key, or "" when the ring is empty.
func (r *Ring) Owner(key string) string {
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

// Len returns the number of nodes.
func (r *Ring) Len() int { return r.nodes }
