package memtable

import (
	"fmt"
	"testing"
	"testing/quick"
)

// names returns n node names with the given prefix.
func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

func TestRingEmptyOwner(t *testing.T) {
	r := NewRing(16)
	if got := r.Owner("k"); got != "" {
		t.Fatalf("Owner on empty ring = %q", got)
	}
}

func TestRingSingleNodeOwnsAll(t *testing.T) {
	r := NewRing(16, "n1")
	for i := 0; i < 100; i++ {
		if got := r.Owner(fmt.Sprintf("key-%d", i)); got != "n1" {
			t.Fatalf("Owner = %q, want n1", got)
		}
	}
}

func TestRingAddIdempotent(t *testing.T) {
	r := NewRing(16, "n1", "n1")
	if r.Len() != 1 {
		t.Fatalf("Len = %d after duplicate add", r.Len())
	}
	if len(r.points) != 16 {
		t.Fatalf("%d points for one node of 16 replicas", len(r.points))
	}
}

func TestRingDeterministic(t *testing.T) {
	r := NewRing(32, names("n", 4)...)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		a, b := r.Owner(k), r.Owner(k)
		if a != b {
			t.Fatalf("Owner(%q) flapped: %q vs %q", k, a, b)
		}
	}
}

func TestRingBalance(t *testing.T) {
	const nodes = 8
	r := NewRing(128, names("n", nodes)...)
	counts := make(map[string]int)
	const keys = 8000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("object-%d", i))]++
	}
	mean := keys / nodes
	for n, c := range counts {
		if c < mean/3 || c > mean*3 {
			t.Errorf("node %s owns %d keys (mean %d): ring badly imbalanced", n, c, mean)
		}
	}
	if len(counts) != nodes {
		t.Fatalf("only %d of %d nodes own keys", len(counts), nodes)
	}
}

// TestRingMinimalDisruption checks the consistent-hashing property: a
// ring built without one node must not remap keys owned by the others.
func TestRingMinimalDisruption(t *testing.T) {
	all := names("n", 6)
	r := NewRing(64, all...)
	without := NewRing(64, append(all[:3:3], all[4:]...)...)
	moved := 0
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%d", i)
		prev, now := r.Owner(k), without.Owner(k)
		if prev == "n3" {
			if now == "n3" {
				t.Fatalf("key %q still owned by removed node", k)
			}
			continue
		}
		if now != prev {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed node were remapped", moved)
	}
}

func TestRingPanicsOnBadReplicas(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

// Property: every key has an owner in the node set.
func TestRingOwnerMembershipProperty(t *testing.T) {
	nodes := map[string]bool{"a": true, "b": true, "c": true}
	r := NewRing(32, "a", "b", "c")
	prop := func(key string) bool {
		return nodes[r.Owner(key)]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
