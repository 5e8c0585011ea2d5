//go:build goexperiment.synctest

// Package bubbles holds one passing and one failing bubble test, for
// internal/simtest's own test to run through the entry test.
package bubbles

import (
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// TestPasses sleeps an hour of the bubble's virtual time.
func TestPasses(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		start := time.Now()
		time.Sleep(time.Hour)
		if got := time.Since(start); got != time.Hour {
			t.Fatalf("slept %v of virtual time, want 1h", got)
		}
	})
}

// TestFails calls t.Fatal with a goroutine of the bubble parked on a
// channel that only its cleanup closes: the failure is reported, and the
// cleanup runs inside the bubble, so the bubble ends instead of panicking
// with a deadlock.
func TestFails(t *testing.T) {
	simtest.Run(t, func(t *testing.T) {
		release := make(chan struct{})
		t.Cleanup(func() { close(release) })
		go func() { <-release }()
		simtest.Wait()
		t.Fatal("the failure this test exists to report")
	})
}
