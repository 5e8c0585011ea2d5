//go:build goexperiment.synctest

package core

// Upload-trigger tests that write the object store directly, on a
// platform that serves no socket, in bubbles. A check that an upload
// fired nothing makes a control upload that must fire, after it and the
// same way, and finds the control's call the only one.

import (
	"context"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// controlUpload uploads a photo to a fresh Photo and returns once its
// trigger's call is the next one made; then, once the bubble is idle,
// no other call has been made.
func controlUpload(t *testing.T, p *Platform, fired <-chan string) {
	t.Helper()
	id, err := p.CreateObject(context.Background(), "Photo", "control")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.objects.Put("cls-photo", id+"/photo", []byte("x"), ""); err != nil {
		t.Fatal(err)
	}
	if got := <-fired; got != id {
		t.Fatalf("trigger fired for %s before the control upload's %s", got, id)
	}
	simtest.Wait()
	select {
	case got := <-fired:
		t.Fatalf("trigger fired for %s", got)
	default:
	}
}

func TestUploadToUnknownObjectDoesNotTrigger(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		p, _, fired := newTriggerPlatform(t, false)
		// Direct store write for an object that was never created.
		if _, err := p.objects.Put("cls-photo", "ghost/photo", []byte("x"), ""); err != nil {
			t.Fatal(err)
		}
		controlUpload(t, p, fired)
	})
}

func TestUploadToUntriggeredKeyDoesNotFire(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		p, _, fired := newTriggerPlatform(t, false)
		id, err := p.CreateObject(context.Background(), "Photo", "")
		if err != nil {
			t.Fatal(err)
		}
		// Write under an undeclared key path: no trigger is bound to it.
		if _, err := p.objects.Put("cls-photo", id+"/otherkey", []byte("x"), ""); err != nil {
			t.Fatal(err)
		}
		controlUpload(t, p, fired)
	})
}

func TestTriggerInherited(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		p, _, fired := newTriggerPlatform(t, false)
		ctx := context.Background()
		// A subclass inherits the photo key, the function and the trigger.
		sub := `classes:
  - name: ProfilePhoto
    parent: Photo
`
		if _, err := p.DeployYAML(ctx, []byte(sub)); err != nil {
			t.Fatal(err)
		}
		id, err := p.CreateObject(ctx, "ProfilePhoto", "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.objects.Put("cls-profilephoto", id+"/photo", []byte("y"), ""); err != nil {
			t.Fatal(err)
		}
		if got := <-fired; got != id {
			t.Fatalf("trigger fired for %s, want the inherited trigger's %s", got, id)
		}
	})
}
