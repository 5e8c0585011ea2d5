package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// replayYAML declares Doc with a YAML chain trigger into Tally.bump;
// the webhook sink is added as a named subscription so both recovery
// paths (triggersubs/ at New, class triggers at redeploy) are
// exercised by the crash test.
const replayYAML = `classes:
  - name: Doc
    concurrencyMode: locked
    keySpecs:
      - name: content
    functions:
      - name: write
        image: img/write
    triggers:
      - on: stateChanged
        keyPrefix: content
        targetObject: tally-1
        function: bump
  - name: Tally
    concurrencyMode: locked
    keySpecs:
      - name: n
        kind: number
        default: 0
    functions:
      - name: bump
        image: img/bump
`

// chainSubID is the deterministic identity core stamps on the YAML
// chain trigger above — cursors stored under it before the crash must
// be found again after the redeploy.
var chainSubID = "class/Doc/" + model.TriggerDef{
	On: "stateChanged", KeyPrefix: "content",
	TargetObject: "tally-1", Function: "bump",
}.Identity()

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrashReplayRedeliversEvents is the kill-and-restart acceptance
// test: events appended before a crash must be redelivered to both
// sink kinds after a successor platform recovers from the same
// backing store — the webhook from its recovered named-subscription
// cursor, the object-method chain from its recovered class-trigger
// cursor — and a reader must observe the full gap-free offset
// sequence.
func TestCrashReplayRedeliversEvents(t *testing.T) {
	const writes = 3
	ctx := context.Background()

	// One webhook endpoint outlives both platform incarnations. It
	// refuses deliveries until the "restart" flips accepting, then
	// records the offsets it acknowledged.
	var accepting atomic.Bool
	var hits atomic.Int64
	var mu sync.Mutex
	var acked []int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !accepting.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		var ev trigger.Event
		_ = json.NewDecoder(r.Body).Decode(&ev)
		mu.Lock()
		acked = append(acked, ev.Offset)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	shared := kvstore.Open(kvstore.Config{})
	defer shared.Close()

	// First life: webhook deliveries fail fast, chain deliveries are
	// wedged behind a zero async quota on Tally — every event ends up
	// appended and cursor-pending, nothing acknowledged.
	p1 := newEventPlatform(t, Config{
		Backing:  shared,
		Triggers: trigger.Settings{WebhookMaxRetries: 1, WebhookBackoff: time.Millisecond},
		Async:    asyncq.Settings{ClassQuotas: map[string]int{"Tally": 0}},
	})
	if _, err := p1.DeployYAML(ctx, []byte(replayYAML)); err != nil {
		t.Fatal(err)
	}
	doc, err := p1.CreateObject(ctx, "Doc", "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.CreateObject(ctx, "Tally", "tally-1"); err != nil {
		t.Fatal(err)
	}
	if err := p1.SubscribeTrigger("hook", trigger.Subscription{
		Class: "Doc", Type: trigger.StateChanged, KeyPrefix: "con", Webhook: srv.URL,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		payload, _ := json.Marshal(fmt.Sprintf("v%d", i))
		if _, err := p1.Invoke(ctx, doc, "write", payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The crash is only meaningful once both consumers registered
	// durably: cursor first-writes are flushed through, so their keys
	// must be visible in the backing store; the webhook must have
	// burned its retry budget at least once.
	waitUntil(t, "webhook attempts", func() bool { return hits.Load() >= 2 })
	waitUntil(t, "durable webhook cursor", func() bool {
		_, err := shared.Get(ctx, "evcursor/named/hook/"+doc)
		return err == nil
	})
	waitUntil(t, "durable chain cursor", func() bool {
		_, err := shared.Get(ctx, "evcursor/"+chainSubID+"/"+doc)
		return err == nil
	})
	if n := tallyCount(t, p1, "tally-1"); n != 0 {
		t.Fatalf("chain delivered %v times despite the quota wedge", n)
	}
	p1.Kill()

	// Second life: the endpoint accepts, the quota is gone. The named
	// subscription recovers during New; the class trigger recovers at
	// redeploy. Both must replay from their stored cursors.
	accepting.Store(true)
	preRestart := hits.Load()
	p2 := newEventPlatform(t, Config{
		Backing:  shared,
		Triggers: trigger.Settings{WebhookMaxRetries: 4, WebhookBackoff: time.Millisecond},
	})
	if _, err := p2.DeployYAML(ctx, []byte(replayYAML)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "webhook redelivery of every pre-crash event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		// Redelivery is at-least-once, so duplicates are legal and a
		// bare length check can be satisfied before every offset has
		// arrived; wait for the full set.
		seen := map[int64]bool{}
		for _, off := range acked {
			seen[off] = true
		}
		for off := int64(1); off <= writes; off++ {
			if !seen[off] {
				return false
			}
		}
		return true
	})
	if preRestart < 2 {
		t.Fatalf("pre-crash attempts = %d, want >= 2", preRestart)
	}
	mu.Lock()
	got := append([]int64(nil), acked...)
	mu.Unlock()
	seen := map[int64]bool{}
	last := int64(0)
	for _, off := range got {
		if off < last {
			t.Fatalf("webhook offsets out of order: %v", got)
		}
		last = off
		seen[off] = true
	}
	for off := int64(1); off <= writes; off++ {
		if !seen[off] {
			t.Fatalf("offset %d never redelivered (acked %v)", off, got)
		}
	}
	waitUntil(t, "chain redelivery into Tally", func() bool {
		return tallyCount(t, p2, "tally-1") >= writes
	})

	// A reader resuming from offset 1 sees the whole pre-crash
	// sequence, contiguous and in per-object order.
	entries, err := p2.ReadEvents(ctx, doc, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != writes {
		t.Fatalf("replayed %d entries, want %d", len(entries), writes)
	}
	for i, e := range entries {
		if e.Offset != int64(i+1) {
			t.Fatalf("entry %d has offset %d (gap): %+v", i, e.Offset, entries)
		}
	}
	first, next, err := p2.elog.Bounds(ctx, doc)
	if err != nil || first != 1 || next != int64(writes+1) {
		t.Fatalf("bounds = [%d, %d), %v; want [1, %d)", first, next, err, writes+1)
	}
}

// TestEventLogRetentionTruncation caps the per-object log and checks
// that reads below the retained floor fail with ErrOffsetCompacted
// while reads at the floor still succeed.
func TestEventLogRetentionTruncation(t *testing.T) {
	const cap, writes = 4, 10
	ctx := context.Background()
	p := newEventPlatform(t, Config{EventLogMaxPerObject: cap})
	if _, err := p.DeployYAML(ctx, []byte(chainYAML("locked"))); err != nil {
		t.Fatal(err)
	}
	observe(t, p, "observer", "Doc", newOffsetSink(t))
	doc, err := p.CreateObject(ctx, "Doc", "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		payload, _ := json.Marshal(i)
		if _, err := p.Invoke(ctx, doc, "write", payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	first, next, err := p.elog.Bounds(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if first != writes-cap+1 || next != writes+1 {
		t.Fatalf("bounds = [%d, %d), want [%d, %d)", first, next, writes-cap+1, writes+1)
	}
	if _, err := p.ReadEvents(ctx, doc, 1, 0); !errors.Is(err, ErrOffsetCompacted) {
		t.Fatalf("read below floor returned %v, want ErrOffsetCompacted", err)
	}
	entries, err := p.ReadEvents(ctx, doc, first, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != cap || entries[0].Offset != first {
		t.Fatalf("read at floor: %d entries from %d", len(entries), entries[0].Offset)
	}
}
