package model

import (
	"errors"
	"strings"
	"testing"
)

// TestEventTriggerValidation table-tests the event-trigger shapes.
func TestEventTriggerValidation(t *testing.T) {
	base := `classes:
  - name: A
    keySpecs:
      - name: count
        kind: number
    functions:
      - name: react
        image: img/react
    triggers:
      - %s
`
	cases := []struct {
		name    string
		trigger string
		ok      bool
	}{
		{"self method", "on: stateChanged\n        function: react", true},
		{"cross object", "on: stateChanged\n        targetObject: agg-1\n        function: anything", true},
		{"webhook", "on: invocationCompleted\n        webhook: http://example.test/hook", true},
		{"https webhook with port", "on: stateChanged\n        webhook: https://127.0.0.1:8443/hooks/a?x=1", true},
		{"prefix filter", "on: stateChanged\n        keyPrefix: cou\n        function: react", true},
		{"unknown event", "on: somethingElse\n        function: react", false},
		{"no sink", "on: stateChanged", false},
		{"two sinks", "on: stateChanged\n        function: react\n        webhook: http://x", false},
		{"both kinds", "on: stateChanged\n        onUpload: count\n        function: react", false},
		{"prefix on terminal", "on: invocationFailed\n        keyPrefix: cou\n        function: react", false},
		{"target without function", "on: stateChanged\n        targetObject: agg-1\n        webhook: http://x", false},
		{"self method unknown member", "on: stateChanged\n        function: ghost", false},
		{"upload with webhook", "onUpload: count\n        function: react\n        webhook: http://x", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			yaml := strings.Replace(base, "%s", c.trigger, 1)
			pkg, err := ParseYAML([]byte(yaml))
			if err == nil {
				// Member references surface at resolution time.
				var classes map[string]*Class
				classes, err = Resolve(pkg, nil)
				if err == nil {
					err = classes["A"].ValidateResolved()
				}
			}
			if c.ok && err != nil {
				t.Fatalf("valid trigger rejected: %v", err)
			}
			if !c.ok && !errors.Is(err, ErrValidation) {
				t.Fatalf("err = %v, want ErrValidation", err)
			}
		})
	}
}

// TestEventTriggerWebhookURL: a package whose webhook is not an absolute
// http or https URL with a host fails to parse, naming the URL — every
// delivery to it would fail and stall its cursor for good.
func TestEventTriggerWebhookURL(t *testing.T) {
	for name, hook := range map[string]string{
		"not a url":         "not a url",
		"relative":          "/hook",
		"ftp":               "ftp://x",
		"no host":           "http://",
		"port without host": "http://:8080/hook",
		"unparsable":        "http://[::1/hook",
		"opaque mailto":     "mailto:ops@example.test",
		"scheme-relative":   "//example.test/hook",
		"scheme without //": "http:example.test/hook",
	} {
		t.Run(name, func(t *testing.T) {
			yaml := "classes:\n  - name: A\n    triggers:\n      - on: stateChanged\n        webhook: \"" + hook + "\"\n"
			_, err := ParseYAML([]byte(yaml))
			if !errors.Is(err, ErrValidation) || !strings.Contains(err.Error(), `webhook "`+hook+`" is not an absolute http or https URL with a host`) {
				t.Fatalf("err = %v, want the webhook refused", err)
			}
		})
	}
}

// TestEventTriggersInheritAndSeparate verifies event triggers flow
// through inheritance independently of upload triggers and surface via
// EventTriggers.
func TestEventTriggersInheritAndSeparate(t *testing.T) {
	yaml := `classes:
  - name: Base
    keySpecs:
      - name: photo
        kind: file
      - name: count
        kind: number
    functions:
      - name: thumb
        image: img/thumb
      - name: react
        image: img/react
    triggers:
      - onUpload: photo
        function: thumb
      - on: stateChanged
        function: react
  - name: Child
    parent: Base
    triggers:
      - on: invocationFailed
        webhook: http://alerts.test/hook
`
	pkg, err := ParseYAML([]byte(yaml))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := Resolve(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	child := classes["Child"]
	if err := child.ValidateResolved(); err != nil {
		t.Fatal(err)
	}
	if tr, ok := child.Trigger("photo"); !ok || tr.Function != "thumb" {
		t.Fatalf("upload trigger = %+v, %v", tr, ok)
	}
	evs := child.EventTriggers()
	if len(evs) != 2 {
		t.Fatalf("event triggers = %+v", evs)
	}
	kinds := map[string]bool{}
	for _, tr := range evs {
		kinds[tr.On] = true
	}
	if !kinds[EventStateChanged] || !kinds[EventInvocationFailed] {
		t.Fatalf("inherited event triggers = %+v", evs)
	}
	// Identical re-declaration in a child collapses (same identity).
	dupe := `classes:
  - name: Grand
    parent: Child
    triggers:
      - on: stateChanged
        function: react
`
	pkg2, err := ParseYAML([]byte(dupe))
	if err != nil {
		t.Fatal(err)
	}
	classes2, err := Resolve(pkg2, map[string]*Class{"Child": child})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(classes2["Grand"].EventTriggers()); got != 2 {
		t.Fatalf("grandchild event triggers = %d, want 2 (identical override collapses)", got)
	}
}
