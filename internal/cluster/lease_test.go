package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/simtest"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// TestBubbles runs this package's bubble tests; see internal/simtest.
func TestBubbles(t *testing.T) { simtest.Bubbles(t) }

func newMembership(t *testing.T, clock vclock.Clock, onReb func([]string, uint64)) (*Membership, *kvstore.Store) {
	t.Helper()
	store := kvstore.Open(kvstore.Config{Clock: clock})
	m, err := NewMembership(MembershipConfig{
		Backing:          store,
		Clock:            clock,
		LeaseTTL:         200 * time.Millisecond,
		Heartbeat:        50 * time.Millisecond,
		TransitionWindow: 100 * time.Millisecond,
		JitterSeed:       42,
		OnRebalance:      onReb,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close(); store.Close() })
	return m, store
}

func TestMembershipJoinAndOwner(t *testing.T) {
	m, _ := newMembership(t, vclock.NewReal(), nil)
	for i := 0; i < 3; i++ {
		if err := m.Join(fmt.Sprintf("vm-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Join("vm-00"); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate join = %v", err)
	}
	if got := len(m.Members()); got != 3 {
		t.Fatalf("live members = %d", got)
	}
	owner, ok := m.Owner("obj-a")
	if !ok || owner == "" {
		t.Fatal("no owner for obj-a")
	}
	// Ownership is a pure function of the live set.
	for i := 0; i < 100; i++ {
		if o, _ := m.Owner("obj-a"); o != owner {
			t.Fatalf("owner flapped: %q then %q", owner, o)
		}
	}
}

func TestRendezvousSpreadsObjects(t *testing.T) {
	m, _ := newMembership(t, vclock.NewReal(), nil)
	for i := 0; i < 4; i++ {
		if err := m.Join(fmt.Sprintf("vm-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[string]int)
	for i := 0; i < 400; i++ {
		o, ok := m.Owner(fmt.Sprintf("obj-%04d", i))
		if !ok {
			t.Fatal("no owner")
		}
		counts[o]++
	}
	if len(counts) != 4 {
		t.Fatalf("objects landed on %d of 4 nodes: %v", len(counts), counts)
	}
	for node, n := range counts {
		if n < 40 {
			t.Fatalf("node %s owns only %d/400 objects (poor spread): %v", node, n, counts)
		}
	}
}

func TestRendezvousMinimalReshuffle(t *testing.T) {
	m, _ := newMembership(t, vclock.NewReal(), nil)
	for i := 0; i < 4; i++ {
		if err := m.Join(fmt.Sprintf("vm-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := make(map[string]string)
	var victim string
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("obj-%04d", i)
		before[id], _ = m.Owner(id)
		if victim == "" {
			victim = before[id]
		}
	}
	if err := m.Leave(victim); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for id, old := range before {
		now, ok := m.Owner(id)
		if !ok {
			t.Fatal("no owner after leave")
		}
		if old == victim {
			if now == victim {
				t.Fatalf("object %s still owned by departed node", id)
			}
			continue
		}
		if now != old {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d objects not owned by the dead node moved anyway (rendezvous should be minimal)", moved)
	}
}

func TestFenceRejectsMovedOwnership(t *testing.T) {
	m, _ := newMembership(t, vclock.NewReal(), nil)
	for i := 0; i < 3; i++ {
		if err := m.Join(fmt.Sprintf("vm-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	hot := "obj-hot"
	owner, epoch, ok := m.Admit(hot)
	if !ok {
		t.Fatal("admit failed")
	}
	if err := m.Fence(hot, owner, epoch); err != nil {
		t.Fatalf("same-epoch fence = %v", err)
	}
	if err := m.Leave(owner); err != nil {
		t.Fatal(err)
	}
	if err := m.Fence(hot, owner, epoch); !errors.Is(err, ErrOwnershipMoved) {
		t.Fatalf("fence after move = %v, want ErrOwnershipMoved", err)
	}
	if m.Metrics().Counter("cluster.fence_rejections").Value() == 0 {
		t.Fatal("fence rejection not counted")
	}
	// An object whose owner did NOT move commits fine across the epoch
	// bump.
	var stable string
	for i := 0; ; i++ {
		id := fmt.Sprintf("obj-%04d", i)
		if o, _ := m.Owner(id); o != owner {
			stable = id
			break
		}
	}
	sOwner, _ := m.Owner(stable)
	if err := m.Fence(stable, sOwner, epoch); err != nil {
		t.Fatalf("fence on unmoved object = %v", err)
	}
}

func TestEpochSurvivesProcessRestart(t *testing.T) {
	clock := vclock.NewReal()
	store := kvstore.Open(kvstore.Config{Clock: clock})
	defer store.Close()
	cfg := MembershipConfig{
		Backing:   store,
		Clock:     clock,
		LeaseTTL:  200 * time.Millisecond,
		Heartbeat: 50 * time.Millisecond,
	}
	m1, err := NewMembership(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := m1.Join(fmt.Sprintf("vm-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Leave("vm-01"); err != nil {
		t.Fatal(err)
	}
	want := m1.Epoch()
	if want == 0 {
		t.Fatal("epoch not bumped")
	}
	m1.Close()

	m2, err := NewMembership(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Epoch(); got != want {
		t.Fatalf("successor epoch = %d, want %d (persisted)", got, want)
	}
	// The predecessor's still-live lease is adopted into the view.
	found := false
	for _, mem := range m2.Members() {
		if mem.Name == "vm-00" && !mem.Local {
			found = true
		}
	}
	if !found {
		t.Fatalf("predecessor lease not adopted: %+v", m2.Members())
	}
}

func TestHeartbeatJitterSpreadsRenewals(t *testing.T) {
	m, _ := newMembership(t, vclock.NewReal(), nil)
	intervals := make(map[time.Duration]bool)
	for i := 0; i < 32; i++ {
		intervals[m.jitteredInterval()] = true
	}
	if len(intervals) < 8 {
		t.Fatalf("jittered intervals barely vary: %d distinct of 32", len(intervals))
	}
	base := m.cfg.Heartbeat
	lo := time.Duration(float64(base) * (1 - heartbeatJitter))
	hi := time.Duration(float64(base) * (1 + heartbeatJitter))
	for d := range intervals {
		if d < lo || d > hi {
			t.Fatalf("interval %s outside [%s, %s]", d, lo, hi)
		}
	}
}
