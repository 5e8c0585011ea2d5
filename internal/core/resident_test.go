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
	now := p.cfg.Clock.Now()
	per := heaptest.PerEntry(t, n, func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, id := range ids {
			// The class arrives as CreateObject gets it from the gateway:
			// a string decoded for this one request.
			p.dir[id] = p.recordLocked(string([]byte("Tally")), now)
		}
	})
	runtime.KeepAlive(ids)
	if got := p.Stats().Objects; got != n {
		t.Fatalf("directory holds %d objects, want %d", got, n)
	}
	t.Logf("%.1f B per directory entry beyond the id", per)
	// Measured 52.5 B (a 32-byte slot at the map's fill after 100 000
	// inserts; 89.3 B with the 56-byte slot of {Class string; Created
	// time.Time} and a class string allocated per object); the ceiling is
	// that plus 10 %.
	if per > 57.8 {
		t.Errorf("a directory entry costs %.1f B beyond the object id, budget 57.8", per)
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
	p.mu.Lock()
	created := p.dir["old-1"].created
	p.mu.Unlock()
	if want := time.Date(2024, 5, 6, 7, 8, 9, 123456789, time.UTC); !time.Unix(0, created).Equal(want) {
		t.Errorf("recovered created = %v, want %v", time.Unix(0, created), want)
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
