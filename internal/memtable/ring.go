// Package memtable implements Oparaca's distributed in-memory hash
// table (paper §V: "its reliance on the distributed in-memory hash
// table to consolidate data for batch write operations").
//
// The table shards object state across the worker VMs with a
// consistent-hash ring and persists dirty entries with a write-behind
// flusher that consolidates them into batch writes — amortizing the
// database's write-capacity ceiling. A write-behind table is one of two
// kinds:
//
//   - A cache, the default, serves reads too, and admits on read. It
//     keeps every entry some read has asked for, flushed or not, and
//     every tombstone; a read that misses memory reads through to the
//     backing document store and caches what it found (a versioned read
//     that finds a key nowhere, a version-0 tombstone). A write nobody
//     has read leaves memory once its flush lands, as in a buffer, and
//     so does the shard-map capacity it took, by the buffer's rule
//     below. Object state lives in caches, so an object created and
//     never invoked costs its store documents and nothing here.
//     Versioned reads (GetManyVersionedInto) and optimistic commits
//     (PutManyIfVersion) are cache operations: they validate versions
//     only a table that remembers its keys can hold. A key that left
//     memory counts its versions from 0 again, which is why a read,
//     which may have handed a version out, keeps its key for good.
//   - A buffer (Config.Buffer) is the write half alone. An entry leaves
//     memory once its flush has landed and no newer write is dirty; a
//     tombstone, once its backing delete has landed and no batch holding
//     its key is in flight; and a read that misses memory is answered
//     from the backing store without caching. Its memory follows the
//     writes in flight, not every key ever written, nor the largest
//     burst of them: a shard map a flush drains to a quarter of the most
//     it held is copied into one its size. The async queue's
//     invocation records and the event log's cursors, written far more
//     than they are read, live in buffers.
//
// A table runs one flush pass at a time. A Flush that finds a pass in
// flight waits for it, for as long as its context allows, then runs its
// own, so batches land in the order they were taken. Overlapping passes
// could land an older batch after a newer one and leave the store behind
// a memory that holds the key clean, never to flush it again: a cache
// would lose the write on restart, a buffer would read the older value
// back at once.
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
