package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/simtest"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// TestBubbles runs this package's bubble tests; see internal/simtest.
func TestBubbles(t *testing.T) { simtest.Bubbles(t) }

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
