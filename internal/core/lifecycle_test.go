package core

import (
	"context"
	"encoding/json"
	"errors"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/resilience"
	"github.com/hpcclab/oparaca-go/internal/trigger"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// TestFailedNewStopsWhatItStarted fails New after the event log, the
// bus, the queue and the ownership layer are up, and every goroutine
// they started must stop. The first write New makes is the first
// node's lease; failing it trips a one-sample breaker, so reading the
// object directory back is what fails.
func TestFailedNewStopsWhatItStarted(t *testing.T) {
	refused := errors.New("lease write refused")
	no := false
	cfg := Config{Workers: 2, OwnershipLeaseTTL: time.Hour, ServeObjectStore: &no}

	// With the default breaker one failed write is absorbed: New succeeds,
	// and the lease missing is vm-00's, so the lease was the first write.
	cfg.Backing = kvstore.Open(kvstore.Config{})
	defer cfg.Backing.Close()
	cfg.Backing.InjectWriteFailures(1, refused)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	leases, err := cfg.Backing.List(context.Background(), "cluster/lease/")
	p.Close()
	if err != nil || strings.Join(leases, ",") != "cluster/lease/vm-01" {
		t.Fatalf("leases after one refused write = %v, %v; want vm-01's only", leases, err)
	}

	cfg.Backing = kvstore.Open(kvstore.Config{})
	defer cfg.Backing.Close()
	cfg.Backing.InjectWriteFailures(1, refused)
	cfg.Breaker = resilience.Config{Window: 1, MinSamples: 1, FailureThreshold: 1, OpenTimeout: time.Hour}
	base := goruntime.NumGoroutine()
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "recovering object directory") || !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("New = %v, want the directory read refused by the open breaker", err)
	}
	if n := cfg.Backing.FaultsServed(); n != 1 {
		t.Fatalf("injected write failures served = %d, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := goruntime.Stack(buf, true)
			t.Fatalf("%d goroutines outlive the failed New (%d before it):\n%s", goruntime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOwnershipTimingFollowsLeaseTTL pins what the lease TTL alone
// decides: a node renews its lease every TTL/3, give or take the
// heartbeat's 20 % jitter, and a rebalance opens a transition window of
// one heartbeat, which is also the back-off a routed invocation racing
// it is told.
func TestOwnershipTimingFollowsLeaseTTL(t *testing.T) {
	const ttl = 3 * time.Second
	clock := vclock.NewManual(time.Unix(1_700_000_000, 0))
	no := false
	p, err := New(Config{Workers: 2, OwnershipLeaseTTL: ttl, Clock: clock, ServeObjectStore: &no})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	expiry := func() time.Time {
		doc, err := p.Backing().Get(ctx, "cluster/lease/vm-00")
		if err != nil {
			t.Fatal(err)
		}
		var lease struct{ Expires time.Time }
		if err := json.Unmarshal(doc.Value, &lease); err != nil {
			t.Fatal(err)
		}
		return lease.Expires
	}
	t0 := clock.Now()
	if got := expiry(); !got.Equal(t0.Add(ttl)) {
		t.Fatalf("joined lease expires %v, want %v", got, t0.Add(ttl))
	}
	// Two heartbeats, the membership monitor, the event log's sweep and
	// the flush loops of the cursor and invocation-record tables are
	// armed before the clock moves. Counting fewer lets the flush loops
	// stand in for a heartbeat that arms only after the advance, and
	// then renews a whole interval late.
	for deadline := time.Now().Add(5 * time.Second); clock.Pending() < 6; {
		if time.Now().After(deadline) {
			t.Fatalf("timers armed = %d, want 6", clock.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	clock.Advance(ttl/3*8/10 - time.Millisecond)
	if got := expiry(); !got.Equal(t0.Add(ttl)) {
		t.Fatalf("lease renewed before 0.8×TTL/3: expires %v", got)
	}
	clock.Advance(ttl/3*12/10 - ttl/3*8/10 + time.Millisecond)
	renewed := clock.Now().Add(ttl)
	for deadline := time.Now().Add(5 * time.Second); !expiry().Equal(renewed); {
		if time.Now().After(deadline) {
			t.Fatalf("lease not renewed by 1.2×TTL/3: expires %v, want %v", expiry(), renewed)
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.DrainNode("vm-01"); err != nil {
		t.Fatal(err)
	}
	var moving *cluster.TransitionError
	if err := p.Membership().CheckMoving(); !errors.As(err, &moving) || moving.RetryAfter != ttl/3 {
		t.Fatalf("after a drain CheckMoving = %v, want a transition window of %v", err, ttl/3)
	}
}

// TestTriggerSubscriptionsAgreeWithTheStore refuses a subscribe and an
// unsubscribe at the store, and the platform's live subscriptions must
// still be the stored ones: what a successor on the same store
// recovers.
func TestTriggerSubscriptionsAgreeWithTheStore(t *testing.T) {
	backing := kvstore.Open(kvstore.Config{})
	defer backing.Close()
	no := false
	cfg := Config{Workers: 1, Backing: backing, ServeObjectStore: &no}
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := func(p *Platform) string {
		names, _ := p.TriggerSubscriptions()
		return strings.Join(names, ",")
	}
	sub := trigger.Subscription{Class: "Note", Type: trigger.StateChanged, Webhook: "http://127.0.0.1:9/hook"}

	bad := sub
	bad.Webhook = "ftp://x"
	if err := p1.SubscribeTrigger("bad", bad); !errors.Is(err, trigger.ErrInvalidSubscription) {
		t.Fatalf("invalid subscribe = %v, want ErrInvalidSubscription", err)
	}
	refused := errors.New("store refused")
	backing.InjectWriteFailures(1, refused)
	if err := p1.SubscribeTrigger("hook", sub); !errors.Is(err, refused) {
		t.Fatalf("subscribe with the store refusing = %v, want its error", err)
	}
	if got := live(p1); got != "" {
		t.Fatalf("live after refused subscribes = %q, want none", got)
	}
	if err := p1.SubscribeTrigger("hook", sub); err != nil {
		t.Fatal(err)
	}
	backing.InjectWriteFailures(1, refused)
	if ok, err := p1.UnsubscribeTrigger("hook"); ok || !errors.Is(err, refused) {
		t.Fatalf("unsubscribe with the store refusing = %v, %v; want false and its error", ok, err)
	}
	if got := live(p1); got != "hook" {
		t.Fatalf("live after a refused unsubscribe = %q, want hook", got)
	}
	p1.Kill()

	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := live(p2); got != "hook" {
		t.Fatalf("a successor recovered %q, want hook", got)
	}
	if ok, err := p2.UnsubscribeTrigger("hook"); !ok || err != nil {
		t.Fatalf("unsubscribe = %v, %v", ok, err)
	}
	p2.Kill()
	p3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if got := live(p3); got != "" {
		t.Fatalf("a successor after the unsubscribe recovered %q, want none", got)
	}
}
