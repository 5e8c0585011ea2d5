//go:build goexperiment.synctest

package simtest

import (
	"testing"
	"testing/synctest"
)

const experiment = true

// Run runs body in a bubble, as a subtest of t named "bubble". The
// subtest's goroutine is the bubble's first, so everything body starts
// is in the bubble, body's t.Fatal ends only body, and the cleanups body
// registers run inside the bubble before Run waits for its last goroutine
// to exit. Run returns once every goroutine of the bubble has exited: a
// goroutine left blocked forever panics it with a deadlock.
func Run(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { t.Run("bubble", body) })
}

// Wait blocks until every other goroutine of the calling bubble is
// durably blocked: on a channel, a select, a sync.Cond, a sleep or a
// timer of the bubble. A goroutine waiting on a mutex or on I/O is not.
func Wait() { synctest.Wait() }
