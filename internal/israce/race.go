//go:build race

package israce

// Enabled is true in a -race build.
const Enabled = true
