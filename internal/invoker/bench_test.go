package invoker

import (
	"context"
	"encoding/json"
	"testing"
)

// BenchmarkMicroInvokeTask measures the in-process pure-function
// offload path (task encode -> handler -> state merge).
func BenchmarkMicroInvokeTask(b *testing.B) {
	reg := NewRegistry()
	reg.Register("img/echo", HandlerFunc(func(_ context.Context, task Task) (Result, error) {
		return Result{Output: task.Payload, State: map[string]json.RawMessage{"k": task.Payload}}, nil
	}))
	local := NewLocal(reg)
	ctx := context.Background()
	task := Task{
		ID: "bench", Class: "C", Object: "o", Function: "f",
		State:   map[string]json.RawMessage{"k": json.RawMessage(`1`)},
		Payload: json.RawMessage(`{"x":1}`),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := local.Offload(ctx, "img/echo", task)
		if err != nil {
			b.Fatal(err)
		}
		_ = MergeState(task.State, res.State)
	}
}
