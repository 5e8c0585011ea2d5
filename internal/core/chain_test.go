package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// gatedChainYAML is replayYAML's chain (Doc commits fire tally-1.bump)
// plus a Gate class whose one function parks the async worker.
const gatedChainYAML = replayYAML + `  - name: Gate
    functions:
      - name: hold
        image: img/gate
`

// gatedChainPlatform builds a platform on backing with one async worker
// and deploys gatedChainYAML. Gate.hold signals started, then parks
// until gate closes.
func gatedChainPlatform(t *testing.T, backing *kvstore.Store, started chan<- struct{}, gate <-chan struct{}) *Platform {
	t.Helper()
	p := newEventPlatform(t, Config{Backing: backing, AsyncWorkers: 1})
	p.Images().Register("img/gate", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		started <- struct{}{}
		<-gate
		return invoker.Result{Output: json.RawMessage(`"open"`)}, nil
	}))
	if _, err := p.DeployYAML(context.Background(), []byte(gatedChainYAML)); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestChainedGroupIsRedeliveredAfterACrash: a chained call is
// record-less — the event log is its only durable queue — so a crash
// after its group was accepted but before it ran must redeliver its
// events from the log. The queue's one worker is held by a gated
// handler, so the groups wait accepted and unrun. Killed, the platform
// leaves its cursors before those events, and a successor on the same
// store runs every chained call at least once; closed instead, it runs
// each exactly once, and a successor runs none of them again.
func TestChainedGroupIsRedeliveredAfterACrash(t *testing.T) {
	const docs, writes = 4, 3
	const events = docs * writes
	for _, kill := range []bool{true, false} {
		t.Run(fmt.Sprintf("kill=%v", kill), func(t *testing.T) {
			ctx := context.Background()
			shared := kvstore.Open(kvstore.Config{})
			defer shared.Close()
			started, gate := make(chan struct{}, 2), make(chan struct{})
			p1 := gatedChainPlatform(t, shared, started, gate)
			for _, id := range []string{"tally-1", "gate-1"} {
				class := map[string]string{"tally-1": "Tally", "gate-1": "Gate"}[id]
				if _, err := p1.CreateObject(ctx, class, id); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p1.InvokeAsync(ctx, "gate-1", "hold", nil, nil); err != nil {
				t.Fatal(err)
			}
			<-started
			for d := range docs {
				doc, err := p1.CreateObject(ctx, "Doc", fmt.Sprintf("doc-%d", d))
				if err != nil {
					t.Fatal(err)
				}
				for w := range writes {
					payload, _ := json.Marshal(fmt.Sprintf("w%d", w))
					if _, err := p1.Invoke(ctx, doc, "write", payload, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Every Doc's consumer has a group accepted behind the gate.
			waitUntil(t, "a chained group per Doc queued", func() bool { return p1.Stats().Async.Depth >= docs })
			if got := tallyCount(t, p1, "tally-1"); got != 0 {
				t.Fatalf("tally = %v with the worker held, want 0", got)
			}
			// The crash comes once the cursor table's write-behind flush
			// has caught up, as on a platform that ran a while: the store
			// holds every cursor the bus set.
			waitUntil(t, "the stored cursors to catch up", func() bool {
				for d := range docs {
					doc := fmt.Sprintf("doc-%d", d)
					next, _ := p1.elog.Cursor(chainSubID, doc)
					stored, err := shared.Get(ctx, "evcursor/"+chainSubID+"/"+doc)
					if err != nil || string(stored.Value) != strconv.FormatInt(next, 10) {
						return false
					}
				}
				return true
			})
			if kill {
				killed := make(chan struct{})
				go func() {
					defer close(killed)
					p1.Kill()
				}()
				// Kill waits for the parked worker, so the gate opens once
				// the queue refuses work: after that, no task it holds runs.
				for {
					if _, err := p1.queue.SubmitGroup(asyncq.Target{}, "probe", nil, nil); errors.Is(err, asyncq.ErrClosed) {
						break
					}
					runtime.Gosched()
				}
				close(gate)
				<-killed
			} else {
				close(gate)
				p1.TriggerBus().Drain()
				if got := tallyCount(t, p1, "tally-1"); got != events {
					t.Fatalf("tally = %v before the restart, want exactly %d", got, events)
				}
				p1.Close()
			}
			p2 := gatedChainPlatform(t, shared, started, gate)
			p2.TriggerBus().Drain()
			got := tallyCount(t, p2, "tally-1")
			if kill && got < events {
				t.Fatalf("tally = %v after the crash, want every one of %d events chained at least once", got, events)
			}
			if !kill && got != events {
				t.Fatalf("tally = %v after a clean restart, want exactly %d", got, events)
			}
		})
	}
}

// TestChainedCallsLeaveNoRecord: N chained calls run through the async
// queue as record-less tasks. None leaves an invocation record, in the
// queue's table or the backing store, and polling a chained call's ID —
// which its terminal event carries — finds nothing, while a client's
// invoke-async beside them keeps its record.
func TestChainedCallsLeaveNoRecord(t *testing.T) {
	const n = 24
	ctx := context.Background()
	shared := kvstore.Open(kvstore.Config{})
	defer shared.Close()
	p := newEventPlatform(t, Config{Backing: shared})
	if _, err := p.DeployYAML(ctx, []byte(replayYAML)); err != nil {
		t.Fatal(err)
	}
	doc, err := p.CreateObject(ctx, "Doc", "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateObject(ctx, "Tally", "tally-1"); err != nil {
		t.Fatal(err)
	}
	// A stream on the target makes its terminal events readable, so the
	// chained calls' IDs surface; it holds every event of the target, a
	// stateChanged and an invocationCompleted per call.
	stream, err := p.StreamEvents("tally-1", 2*n)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for i := range n {
		payload, _ := json.Marshal(fmt.Sprintf("v%d", i))
		if _, err := p.Invoke(ctx, doc, "write", payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	p.TriggerBus().Drain()
	if got := tallyCount(t, p, "tally-1"); got != n {
		t.Fatalf("tally = %v, want %d", got, n)
	}
	// Dispatch is part of Publish: every event is on the stream by now.
	var chained []string
	for len(chained) < n {
		select {
		case ev := <-stream.Events():
			if ev.Type == trigger.InvocationCompleted {
				chained = append(chained, ev.Invocation)
			}
		default:
			t.Fatalf("the stream holds %d chained calls' terminal events, want %d (%+v)", len(chained), n, p.TriggerBus().Stats())
		}
	}
	for _, id := range chained {
		if _, err := p.Invocation(ctx, id); !errors.Is(err, ErrInvocationNotFound) {
			t.Fatalf("Invocation(%s) of a chained call = %v, want ErrInvocationNotFound", id, err)
		}
	}
	client, err := p.InvokeAsync(ctx, "tally-1", "bump", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := p.WaitInvocation(ctx, client); err != nil || rec.Status != asyncq.StatusCompleted {
		t.Fatalf("client invocation = %+v, %v", rec, err)
	}
	p.Close()
	keys, err := shared.List(ctx, "invocations/")
	if err != nil || len(keys) != 1 || keys[0] != "invocations/"+client {
		t.Fatalf("stored invocation records = %v (%v), want only the client's %s", keys, err, client)
	}
}
