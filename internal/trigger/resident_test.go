package trigger

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/heaptest"
)

// TestPerConsumerResidentBudget pins what the bus keeps per
// (subscription, object) pair once a burst of work has passed: nothing.
// A consumer lives only while it has work, so after a recovery burst
// that runs a consumer for every pair, and a quiet Drain, the bus holds
// no consumer, and neither the delivery queue nor delState keeps what
// the burst grew. The cursors themselves are the log's and are stored
// before the measurement; the consumers are created the way a restart
// creates them, by cursor recovery on Subscribe.
func TestPerConsumerResidentBudget(t *testing.T) {
	const n = 100_000
	ctx := context.Background()
	log := newLog(t, eventlog.Config{})
	objects := make([]string, n)
	for i := range objects {
		objects[i] = fmt.Sprintf("obj-%06d", i)
		if err := log.SetCursor(ctx, "named/audit", objects[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	b := newBus(t, Config{Log: log})
	per := heaptest.PerEntry(t, n, func() {
		if err := b.Subscribe("audit", Subscription{Class: "Tally", Type: StateChanged, TargetFunction: "audit"}); err != nil {
			t.Fatal(err)
		}
		b.Drain()
	})
	runtime.KeepAlive(objects)
	b.delMu.Lock()
	consumers := len(b.delState)
	b.delMu.Unlock()
	if consumers != 0 {
		t.Fatalf("bus holds %d consumers after the burst, want 0", consumers)
	}
	t.Logf("%.2f B per (subscription, object) pair after a burst and quiet", per)
	// Measured 0.02–0.17 B: what is left of delState's last rebuild.
	// While every pair kept its consumer it was 159 B: a 104-byte
	// consumerState in a 112-byte size class and a 40-byte slot at the
	// map's fill.
	if per > 5 {
		t.Errorf("an idle pair keeps %.2f B resident, budget 5", per)
	}
}
