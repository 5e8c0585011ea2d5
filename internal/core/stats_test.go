package core

import (
	"context"
	"encoding/json"
	"errors"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/metrics"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// TestStatsReadsComponentsOutsideThePlatformLock: Stats and the /metrics
// registries read the components without Platform.mu, so a component
// that is slow to answer — here the event bus's cursor lag, waiting on an
// append that holds the object's log — never stalls the directory lookup
// every invocation takes.
func TestStatsReadsComponentsOutsideThePlatformLock(t *testing.T) {
	p := newEventPlatform(t, Config{})
	ctx := context.Background()
	if _, err := p.DeployYAML(ctx, []byte(chainYAML("locked"))); err != nil {
		t.Fatal(err)
	}
	for id, class := range map[string]string{"doc-1": "Doc", "tally-1": "Tally"} {
		if _, err := p.CreateObject(ctx, class, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SubscribeTrigger("doc-chain", trigger.Subscription{
		Class: "Doc", Type: trigger.StateChanged, TargetObject: "tally-1", TargetFunction: "bump",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(ctx, "doc-1", "write", json.RawMessage(`"x"`), nil); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the chained delivery", func() bool { return p.TriggerBus().Stats().Delivered == 1 })

	// An append that holds doc-1's log until released — at the latest
	// before the platform closes, whatever the test found.
	held, release := make(chan struct{}), make(chan struct{})
	unhold := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unhold)
	go p.EventLog().AppendBatch(ctx, "doc-1", 1, func(int, int64) (json.RawMessage, error) {
		close(held)
		<-release
		return nil, errors.New("released")
	})
	<-held
	readers := map[string]func(){
		"Stats":      func() { p.Stats() },
		"Registries": func() { metrics.NewPromWriter().Registries(p.Registries()...) },
	}
	done := make(chan struct{}, len(readers))
	for _, read := range readers {
		go func() {
			read()
			done <- struct{}{}
		}()
	}
	waitUntil(t, "both readers to wait on doc-1's log", func() bool {
		return goroutinesIn("eventlog.(*Log).CursorLag") == len(readers)
	})
	if !p.mu.TryLock() {
		t.Error("a reader holds Platform.mu while it waits on a component")
	} else {
		p.mu.Unlock()
	}
	unhold()
	for range readers {
		<-done
	}
}

// goroutinesIn counts the goroutines whose stack has a frame of fn.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:goruntime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, fn+"(") {
			n++
		}
	}
	return n
}
