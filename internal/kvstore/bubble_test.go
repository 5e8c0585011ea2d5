//go:build goexperiment.synctest

package kvstore

// Latency and capacity tests on the store's real clock inside a bubble,
// where time.Now and the clock's sleeps are virtual: a charge is measured
// exactly, and a test waits for the store's goroutine to block rather
// than for a guessed interval.

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/simtest"
)

func TestBatchGetChargesLatencyOncePerBatch(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		s := Open(Config{Settings: Settings{ReadLatency: 10 * time.Millisecond}})
		defer s.Close()
		start := time.Now()
		if _, err := s.BatchGet(context.Background(), []string{"a", "b", "c", "d"}); err != nil {
			t.Fatal(err)
		}
		// Exactly one latency is charged regardless of batch width.
		if got := time.Since(start); got != 10*time.Millisecond {
			t.Fatalf("a batch of 4 took %v, want one 10ms read latency", got)
		}
	})
}

func TestBatchGetContextCancelledMidBatch(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		s := Open(Config{Settings: Settings{ReadLatency: time.Hour}})
		defer s.Close()
		cctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := s.BatchGet(cctx, []string{"a", "b"})
			done <- err
		}()
		simtest.Wait() // the read is in its latency
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

func TestWriteCapacityThrottles(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		s := Open(Config{Settings: Settings{WriteOpsPerSec: 20}}) // a burst of 2
		defer s.Close()
		ctx := context.Background()
		start := time.Now()
		// Burst of 2 admits immediately.
		for i := 0; i < 2; i++ {
			if _, err := s.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
				t.Fatal(err)
			}
		}
		if got := time.Since(start); got != 0 {
			t.Fatalf("the burst of 2 took %v, want none", got)
		}
		// The third write waits for the next token, 1/20 s later.
		if _, err := s.Put(ctx, "k", json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got != 50*time.Millisecond {
			t.Fatalf("the third write was admitted after %v, want 50ms", got)
		}
	})
}

func TestContextCancelDuringThrottle(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		s := Open(Config{Settings: Settings{WriteOpsPerSec: 0.001}})
		defer s.Close()
		ctx := context.Background()
		if _, err := s.Put(ctx, "k", nil); err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, err := s.Put(cctx, "k", nil)
			done <- err
		}()
		simtest.Wait() // the write waits for capacity
		select {
		case err := <-done:
			t.Fatalf("a write was admitted without capacity: %v", err)
		default:
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}
