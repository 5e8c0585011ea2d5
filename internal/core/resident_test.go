package core

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/heaptest"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// TestPerObjectResidentBudget pins what the object directory keeps per
// object beyond the id's own bytes — the platform's own share of an
// idle object (its state is budgeted in memtable and kvstore, its event
// log in eventlog, where an idle object holds none).
func TestPerObjectResidentBudget(t *testing.T) {
	const n = 100_000
	p := newEventPlatform(t, Config{})
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj-%06d", i)
	}
	per := heaptest.PerEntry(t, n, func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, id := range ids {
			// The class arrives as CreateObject gets it from the gateway:
			// a string decoded for this one request.
			p.dir[id] = p.recordLocked(string([]byte("Tally")))
		}
	})
	runtime.KeepAlive(ids)
	if got := p.Stats().Objects; got != n {
		t.Fatalf("directory holds %d objects, want %d", got, n)
	}
	t.Logf("%.1f B per directory entry beyond the id", per)
	// Measured 35.0 B (a 24-byte slot at the map's fill after 100 000
	// inserts; 52.5 B with the 32-byte slot that also carried the
	// creation time, which nothing read); the ceiling is that plus 10 %.
	if per > 38.5 {
		t.Errorf("a directory entry costs %.1f B beyond the object id, budget 38.5", per)
	}
}

// TestDirectoryRecordFormatIsUnchanged: the slim in-memory record still
// persists as {"class","created"}, and a platform opened on documents
// written before the slimming reads them as they are.
func TestDirectoryRecordFormatIsUnchanged(t *testing.T) {
	ctx := context.Background()
	shared := kvstore.Open(kvstore.Config{})
	defer shared.Close()
	old := `{"class":"Tally","created":"2024-05-06T07:08:09.123456789Z"}`
	if _, err := shared.Put(ctx, "objects/old-1", json.RawMessage(old)); err != nil {
		t.Fatal(err)
	}
	p := newEventPlatform(t, Config{Backing: shared})
	newTallies(t, p, "new-1")
	if class, err := p.ObjectClass("old-1"); err != nil || class != "Tally" {
		t.Fatalf("ObjectClass(old-1) = %q, %v", class, err)
	}
	if n := bump(t, p, "old-1"); n != 1 {
		t.Fatalf("recovered object bumped to %d, want 1", n)
	}
	if got := p.ListObjects("Tally"); len(got) != 2 || got[0] != "new-1" || got[1] != "old-1" {
		t.Fatalf("ListObjects = %v", got)
	}
	// The creation time is not kept in memory; the stored document is
	// where it lives, and recovery leaves that document as it was.
	if doc, err := shared.Get(ctx, "objects/old-1"); err != nil || string(doc.Value) != old || doc.Version != 1 {
		t.Errorf("objects/old-1 = %s (version %d, %v), want it untouched", doc.Value, doc.Version, err)
	}
	doc, err := shared.Get(ctx, "objects/new-1")
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(doc.Value, &fields); err != nil {
		t.Fatal(err)
	}
	var class string
	var at time.Time
	if len(fields) != 2 || json.Unmarshal(fields["class"], &class) != nil || class != "Tally" ||
		json.Unmarshal(fields["created"], &at) != nil || at.IsZero() {
		t.Errorf("objects/new-1 = %s, want {class, created}", doc.Value)
	}
}
