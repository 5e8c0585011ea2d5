//go:build goexperiment.synctest

package core

import (
	"context"
	"encoding/json"
	"errors"
	"regexp"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/resilience"
	"github.com/hpcclab/oparaca-go/internal/simtest"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// TestFailedNewStopsWhatItStarted fails New after the event log, the
// bus, the queue and the ownership layer are up, and every goroutine
// they started must stop. The first write New makes is the first
// node's lease; failing it trips a one-sample breaker, so reading the
// object directory back is what fails. Once the bubble is idle, a
// goroutine New left behind is asleep or parked, and still counted.
func TestFailedNewStopsWhatItStarted(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		refused := errors.New("lease write refused")
		no := false
		cfg := Config{Workers: 2, OwnershipLeaseTTL: time.Hour, ServeObjectStore: &no}

		// With the default breaker one failed write is absorbed: New
		// succeeds, and the lease missing is vm-00's, so the lease was the
		// first write.
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
		simtest.Wait()
		base, _ := bubbleGoroutines()
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "recovering object directory") || !errors.Is(err, resilience.ErrOpen) {
			t.Fatalf("New = %v, want the directory read refused by the open breaker", err)
		}
		if n := cfg.Backing.FaultsServed(); n != 1 {
			t.Fatalf("injected write failures served = %d, want 1", n)
		}
		simtest.Wait()
		if n, dump := bubbleGoroutines(); n > base {
			t.Fatalf("%d goroutines outlive the failed New (%d before it):\n%s", n, base, dump)
		}
	})
}

// bubbleGoroutines counts the goroutines of the calling bubble, which the
// dump of every goroutine marks with their synctest group, and returns
// the dump. runtime.NumGoroutine would count the finalizer goroutine too
// while it runs a finalizer, which nothing in the bubble can wait for.
func bubbleGoroutines() (int, []byte) {
	buf := make([]byte, 1<<20)
	buf = buf[:goruntime.Stack(buf, true)]
	return len(bubbled.FindAll(buf, -1)), buf
}

var bubbled = regexp.MustCompile(`(?m)^goroutine \d+ \[[^\]]*synctest`)

// TestOwnershipTimingFollowsLeaseTTL pins what the lease TTL alone
// decides: a node renews its lease every TTL/3, give or take the
// heartbeat's 20 % jitter, and a rebalance opens a transition window of
// one heartbeat, which is also the back-off a routed invocation racing
// it is told.
func TestOwnershipTimingFollowsLeaseTTL(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
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
		simtest.Wait()
		if n := clock.Pending(); n != 6 {
			t.Fatalf("timers armed = %d, want 6", n)
		}
		clock.Advance(ttl/3*8/10 - time.Millisecond)
		simtest.Wait()
		if got := expiry(); !got.Equal(t0.Add(ttl)) {
			t.Fatalf("lease renewed before 0.8×TTL/3: expires %v", got)
		}
		clock.Advance(ttl/3*12/10 - ttl/3*8/10 + time.Millisecond)
		renewed := clock.Now().Add(ttl)
		simtest.Wait() // the heartbeat's renewal lands
		if got := expiry(); !got.Equal(renewed) {
			t.Fatalf("lease not renewed by 1.2×TTL/3: expires %v, want %v", got, renewed)
		}
		if err := p.DrainNode("vm-01"); err != nil {
			t.Fatal(err)
		}
		var moving *cluster.TransitionError
		if err := p.Membership().CheckMoving(); !errors.As(err, &moving) || moving.RetryAfter != ttl/3 {
			t.Fatalf("after a drain CheckMoving = %v, want a transition window of %v", err, ttl/3)
		}
	})
}
