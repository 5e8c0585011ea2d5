//go:build goexperiment.synctest

package cluster

// Lease expiry and renewal tests in bubbles: the leases run on the real
// clock, which in a bubble is virtual, so a test sleeps exactly the TTL
// or window it names and the check after it is made at that instant.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/simtest"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

func TestKillExpiresLeaseAndRebalances(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		var mu sync.Mutex
		var gotDead []string
		var gotEpoch uint64
		m, _ := newMembership(t, vclock.NewReal(), func(dead []string, epoch uint64) {
			mu.Lock()
			gotDead = append(gotDead, dead...)
			gotEpoch = epoch
			mu.Unlock()
		})
		for i := 0; i < 3; i++ {
			if err := m.Join(fmt.Sprintf("vm-%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
		hot := "obj-hot"
		owner, _ := m.Owner(hot)
		epochBefore := m.Epoch()
		if err := m.Kill(owner); err != nil {
			t.Fatal(err)
		}
		// newMembership's lease TTL, and the monitor's heartbeat that
		// finds it lapsed.
		time.Sleep(200*time.Millisecond + 50*time.Millisecond)
		simtest.Wait()
		if m.Metrics().Counter("cluster.rebalances").Value() == 0 {
			t.Fatal("rebalance never ran after kill")
		}
		mu.Lock()
		dead, epoch := append([]string(nil), gotDead...), gotEpoch
		mu.Unlock()
		if len(dead) != 1 || dead[0] != owner {
			t.Fatalf("OnRebalance dead = %v, want [%s]", dead, owner)
		}
		if epoch != epochBefore+1 {
			t.Fatalf("epoch = %d, want %d", epoch, epochBefore+1)
		}
		if newOwner, ok := m.Owner(hot); !ok || newOwner == owner {
			t.Fatalf("object still owned by dead node %q (ok=%v)", newOwner, ok)
		}
		if len(m.Members()) != 2 {
			t.Fatalf("live members = %d after kill", len(m.Members()))
		}
	})
}

func TestTransitionWindowReportsMoving(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		m, _ := newMembership(t, vclock.NewReal(), nil)
		for i := 0; i < 2; i++ {
			if err := m.Join(fmt.Sprintf("vm-%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CheckMoving(); err != nil {
			t.Fatalf("CheckMoving before any rebalance = %v", err)
		}
		if err := m.Leave("vm-01"); err != nil {
			t.Fatal(err)
		}
		err := m.CheckMoving()
		if !errors.Is(err, ErrOwnershipMoving) {
			t.Fatalf("CheckMoving in window = %v, want ErrOwnershipMoving", err)
		}
		var te *TransitionError
		if !errors.As(err, &te) || te.RetryAfter <= 0 {
			t.Fatalf("TransitionError retry-after missing: %v", err)
		}
		time.Sleep(te.RetryAfter)
		if err := m.CheckMoving(); err != nil {
			t.Fatalf("transition window still open after the %v it reported: %v", te.RetryAfter, err)
		}
	})
}

func TestLeaseRenewalPersists(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		m, store := newMembership(t, vclock.NewReal(), nil)
		if err := m.Join("vm-00"); err != nil {
			t.Fatal(err)
		}
		doc, err := store.Get(context.Background(), leasePrefix+"vm-00")
		if err != nil {
			t.Fatalf("lease not persisted: %v", err)
		}
		if len(doc.Value) == 0 {
			t.Fatal("empty lease doc")
		}
		// Stays live well past the TTL because the heartbeat renews it.
		time.Sleep(500 * time.Millisecond)
		if len(m.Members()) != 1 {
			t.Fatalf("heartbeated member expired: live=%d", len(m.Members()))
		}
	})
}
