package main

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/invoker"
)

func builtins(t *testing.T) *invoker.Registry {
	t.Helper()
	reg := invoker.NewRegistry()
	registerBuiltinImages(reg)
	return reg
}

func invoke(t *testing.T, reg *invoker.Registry, image string, task invoker.Task) invoker.Result {
	t.Helper()
	h, err := reg.Lookup(image)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Invoke(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuiltinImagesRegistered(t *testing.T) {
	reg := builtins(t)
	for _, image := range []string{"img/counter-incr", "img/echo", "img/get-state", "img/json-random", "img/set-state", "img/uppercase"} {
		if _, err := reg.Lookup(image); err != nil {
			t.Errorf("%s: %v", image, err)
		}
	}
}

func TestBuiltinEcho(t *testing.T) {
	reg := builtins(t)
	res := invoke(t, reg, "img/echo", invoker.Task{Payload: json.RawMessage(`{"a":1}`)})
	if string(res.Output) != `{"a":1}` {
		t.Fatalf("output = %s", res.Output)
	}
}

func TestBuiltinUppercase(t *testing.T) {
	reg := builtins(t)
	res := invoke(t, reg, "img/uppercase", invoker.Task{Payload: json.RawMessage(`"shout"`)})
	if string(res.Output) != `"SHOUT"` {
		t.Fatalf("output = %s", res.Output)
	}
	// Non-string payload errors.
	h, _ := reg.Lookup("img/uppercase")
	if _, err := h.Invoke(context.Background(), invoker.Task{Payload: json.RawMessage(`42`)}); err == nil {
		t.Fatal("numeric payload accepted")
	}
}

func TestBuiltinSetAndGetState(t *testing.T) {
	reg := builtins(t)
	res := invoke(t, reg, "img/set-state", invoker.Task{
		Payload: json.RawMessage(`"value"`),
		Args:    map[string]string{"key": "k"},
	})
	if string(res.State["k"]) != `"value"` {
		t.Fatalf("state = %v", res.State)
	}
	res = invoke(t, reg, "img/get-state", invoker.Task{
		State: map[string]json.RawMessage{"k": json.RawMessage(`"stored"`)},
		Args:  map[string]string{"key": "k"},
	})
	if string(res.Output) != `"stored"` {
		t.Fatalf("output = %s", res.Output)
	}
	// Missing key yields null, not an error.
	res = invoke(t, reg, "img/get-state", invoker.Task{Args: map[string]string{"key": "ghost"}})
	if string(res.Output) != "null" {
		t.Fatalf("output = %s", res.Output)
	}
	// set-state without key errors.
	h, _ := reg.Lookup("img/set-state")
	if _, err := h.Invoke(context.Background(), invoker.Task{}); err == nil {
		t.Fatal("set-state without key accepted")
	}
}

func TestBuiltinCounterIncr(t *testing.T) {
	reg := builtins(t)
	res := invoke(t, reg, "img/counter-incr", invoker.Task{})
	if string(res.Output) != "1" {
		t.Fatalf("first incr = %s", res.Output)
	}
	res = invoke(t, reg, "img/counter-incr", invoker.Task{
		State: map[string]json.RawMessage{"count": res.State["count"]},
	})
	if string(res.Output) != "2" {
		t.Fatalf("second incr = %s", res.Output)
	}
}

func TestBuiltinJSONRandomDeterministicPerTask(t *testing.T) {
	reg := builtins(t)
	a := invoke(t, reg, "img/json-random", invoker.Task{ID: "task-1"})
	b := invoke(t, reg, "img/json-random", invoker.Task{ID: "task-1"})
	c := invoke(t, reg, "img/json-random", invoker.Task{ID: "task-2"})
	if string(a.Output) != string(b.Output) {
		t.Fatal("same task ID produced different documents")
	}
	if string(a.Output) == string(c.Output) {
		t.Fatal("different task IDs produced identical documents")
	}
	if string(a.State["doc"]) != string(a.Output) {
		t.Fatal("doc state does not match output")
	}
}
