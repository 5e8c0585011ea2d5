//go:build goexperiment.synctest

package vclock

// Manual clock tests whose sleeper is another goroutine: simtest.Wait
// returns once it is asleep, and Pending must then count it.

import (
	"context"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/simtest"
)

func TestManualSleepWakesSleeper(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		m := NewManual(time.Unix(0, 0))
		done := make(chan error, 1)
		go func() {
			done <- m.Sleep(context.Background(), time.Minute)
		}()
		simtest.Wait()
		if n := m.Pending(); n != 1 {
			t.Fatalf("Pending = %d with one sleeper asleep, want 1", n)
		}
		m.Advance(time.Minute - time.Nanosecond)
		simtest.Wait()
		select {
		case err := <-done:
			t.Fatalf("Sleep returned %v a nanosecond early", err)
		default:
		}
		m.Advance(time.Nanosecond)
		if err := <-done; err != nil {
			t.Fatalf("Sleep = %v", err)
		}
	})
}

func TestManualSleepContextCancel(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		m := NewManual(time.Unix(0, 0))
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- m.Sleep(ctx, time.Hour) }()
		simtest.Wait()
		if n := m.Pending(); n != 1 {
			t.Fatalf("Pending = %d with one sleeper asleep, want 1", n)
		}
		cancel()
		if err := <-done; err != context.Canceled {
			t.Fatalf("Sleep = %v, want context.Canceled", err)
		}
	})
}

func TestTokenBucketTakeContext(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		m := NewManual(time.Unix(0, 0))
		b := NewTokenBucket(m, 0.001, 1)
		if !tryTake(b, 1) {
			t.Fatal("initial tryTake failed")
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- b.Take(ctx, 1) }()
		simtest.Wait()
		if n := m.Pending(); n != 1 {
			t.Fatalf("Pending = %d with one Take waiting for a token, want 1", n)
		}
		cancel()
		if err := <-done; err != context.Canceled {
			t.Fatalf("Take = %v, want context.Canceled", err)
		}
	})
}
