//go:build goexperiment.synctest

package runtime

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// TestDeleteObjectStateSerializesWithInvocations verifies an in-flight
// invocation's delta merge cannot resurrect a concurrently deleted
// object: DeleteObjectState waits on the object's stripe, so it runs
// strictly after the merge and the final state is gone. The delete is
// issued once the handler has entered, and returns when the handler's
// 30 ms end.
func TestDeleteObjectStateSerializesWithInvocations(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		infra := testInfra(t)
		reg := invoker.NewRegistry()
		entered := make(chan struct{})
		reg.Register("img/incr", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
			close(entered)
			select {
			case <-time.After(30 * time.Millisecond):
			case <-ctx.Done():
				return invoker.Result{}, ctx.Err()
			}
			return invoker.Result{Output: json.RawMessage(`1`),
				State: map[string]json.RawMessage{"value": json.RawMessage(`1`)}}, nil
		}))
		infra.Transport = invoker.NewLocal(reg)
		rt, err := New(infra, resolvedClass(t, counterYAML, "Counter"), stdTemplate())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		ctx := context.Background()
		if err := rt.InitObjectState(ctx, "o"); err != nil {
			t.Fatal(err)
		}
		invoked := make(chan error, 1)
		go func() {
			_, err := rt.Invoke(ctx, "o", "incr", nil, nil)
			invoked <- err
		}()
		<-entered // the handler is mid-execution
		start := time.Now()
		if err := rt.DeleteObjectState(ctx, "o"); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got < 30*time.Millisecond {
			t.Fatalf("the delete returned %v after the handler entered, before its 30ms end", got)
		}
		if err := <-invoked; err != nil {
			t.Fatal(err)
		}
		// The delete must have run after the merge: only the class default
		// remains, not the merged value.
		v, err := rt.GetState(ctx, "o", "value")
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != "0" {
			t.Fatalf("state after delete = %s, want default 0 (merge resurrected deleted object)", v)
		}
	})
}
