//go:build !race

// Package israce reports whether the binary was built with the race
// detector, under which sync.Pool drops a quarter of its Puts and the
// detector's own bookkeeping allocates — so allocation-budget tests
// skip themselves.
package israce

// Enabled is true in a -race build.
const Enabled = false
