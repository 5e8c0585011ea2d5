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
// (subscription, object) pair whose consumer has caught up — the state
// an object that was ever delivered for costs for the life of the
// process: one delState slot and one consumerState (its key, a pointer
// to the subscription all its consumers share, an empty hand-off). The
// delivery queue the recovery burst grew is released once it drains.
// The cursors themselves are the log's and are stored before the
// measurement; the consumers are created the way a restart creates
// them, by cursor recovery on Subscribe.
func TestPerConsumerResidentBudget(t *testing.T) {
	const n = 50_000
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
	if consumers != n {
		t.Fatalf("bus holds %d consumers, want %d", consumers, n)
	}
	t.Logf("%.1f B per caught-up (subscription, object) consumer", per)
	// Measured 159 B: a 104-byte consumerState in a 112-byte size class
	// (208 while it held the Subscription by value, 272–282 B in all)
	// and a 40-byte slot at the map's fill. Up to 10 B more, run to run,
	// was the spent queue array while the queue popped by reslicing. The
	// ceiling is the measurement plus 10 %.
	if per > 175 {
		t.Errorf("a caught-up consumer keeps %.1f B resident, budget 175", per)
	}
}
