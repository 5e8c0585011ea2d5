package core

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/model"
)

// triggerPackage declares a multimedia-style class whose thumbnail
// method fires automatically when a photo is uploaded (paper §II-D's
// motivating scenario).
const triggerPackage = `classes:
  - name: Photo
    keySpecs:
      - name: photo
        kind: file
      - name: thumbnailed
        kind: bool
        default: false
      - name: lastEvent
    functions:
      - name: makeThumbnail
        image: img/thumbnail
    triggers:
      - onUpload: photo
        function: makeThumbnail
`

// newTriggerPlatform builds a platform recording thumbnail calls by
// object, and sending each called object on fired. Only a platform that
// serves its object store over HTTP can presign a URL; one that does not
// opens no socket, so it can run in a bubble.
func newTriggerPlatform(t *testing.T, serveObjects bool) (*Platform, *sync.Map, <-chan string) {
	t.Helper()
	p, err := New(Config{Workers: 2, FaaS: faas.Settings{ColdStart: time.Millisecond, IdleTimeout: time.Minute}, ServeObjectStore: &serveObjects})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	var calls sync.Map
	fired := make(chan string, 16)
	p.Images().Register("img/thumbnail", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
		calls.Store(task.Object, string(task.Payload))
		fired <- task.Object
		return invoker.Result{
			Output: json.RawMessage(`"thumbnail-done"`),
			State: map[string]json.RawMessage{
				"thumbnailed": json.RawMessage(`true`),
				"lastEvent":   task.Payload,
			},
		}, nil
	}))
	if _, err := p.DeployYAML(context.Background(), []byte(triggerPackage)); err != nil {
		t.Fatal(err)
	}
	return p, &calls, fired
}

func TestUploadTriggerFiresFunction(t *testing.T) {
	p, calls, fired := newTriggerPlatform(t, true)
	ctx := context.Background()
	id, err := p.CreateObject(ctx, "Photo", "pic-1")
	if err != nil {
		t.Fatal(err)
	}
	// Upload through the presigned URL, exactly like a customer would.
	putURL, err := p.PresignFile(id, "photo", http.MethodPut)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, putURL, strings.NewReader("jpegbytes"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	// The trigger runs asynchronously; wait for its handler's call.
	if got := <-fired; got != id {
		t.Fatalf("trigger fired for %s, want %s", got, id)
	}
	// The trigger's state delta persisted.
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := p.GetState(ctx, id, "thumbnailed")
		if err == nil && string(v) == "true" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state after trigger = %s, %v", v, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The event payload carried bucket/key/etag.
	raw, _ := calls.Load(id)
	var ev struct {
		Bucket string `json:"bucket"`
		Key    string `json:"key"`
		ETag   string `json:"etag"`
		Size   int    `json:"size"`
	}
	if err := json.Unmarshal([]byte(raw.(string)), &ev); err != nil {
		t.Fatalf("event payload %q: %v", raw, err)
	}
	if ev.Bucket != "cls-photo" || ev.Key != id+"/photo" || ev.Size != len("jpegbytes") || ev.ETag == "" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestTriggerValidationRejectsBadReferences(t *testing.T) {
	p, _, _ := newTriggerPlatform(t, true)
	ctx := context.Background()
	cases := []struct {
		name string
		pkg  string
	}{
		{"non-file key", `classes:
  - name: BadA
    keySpecs:
      - name: notafile
    functions:
      - name: f
        image: img/thumbnail
    triggers:
      - onUpload: notafile
        function: f
`},
		{"unknown function", `classes:
  - name: BadB
    keySpecs:
      - name: photo
        kind: file
    triggers:
      - onUpload: photo
        function: ghost
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := p.DeployYAML(ctx, []byte(c.pkg)); !errors.Is(err, model.ErrValidation) {
				t.Fatalf("err = %v, want ErrValidation", err)
			}
		})
	}
}

func TestCreateObjectRejectsSlashIDs(t *testing.T) {
	p, _, _ := newTriggerPlatform(t, true)
	if _, err := p.CreateObject(context.Background(), "Photo", "has/slash"); err == nil {
		t.Fatal("slash id accepted")
	}
	if _, err := p.CreateObject(context.Background(), "Photo", "has space"); err == nil {
		t.Fatal("space id accepted")
	}
}
