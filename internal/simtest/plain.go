//go:build !goexperiment.synctest

package simtest

// experiment is false in a build without GOEXPERIMENT=synctest, which
// has no testing/synctest and leaves the bubble test files out.
const experiment = false
