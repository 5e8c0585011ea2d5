package simtest

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestBubblesRunsTheChild runs testdata/bubbles, one passing and one
// failing bubble test behind an entry test, the way tier-1 runs a
// package: a plain go test, which reaches them only through Bubbles.
func TestBubblesRunsTheChild(t *testing.T) {
	for _, verbose := range []bool{false, true} {
		args := []string{"test", "-count=1"}
		if verbose {
			args = append(args, "-v")
		}
		cmd := exec.CommandContext(t.Context(), filepath.Join(runtime.GOROOT(), "bin", "go"), append(args, "./testdata/bubbles")...)
		cmd.Env = append(os.Environ(), "GOEXPERIMENT=")
		out, err := cmd.CombinedOutput()
		s := string(out)
		if err == nil {
			t.Fatalf("verbose=%v: a failing bubble test passed its package:\n%s", verbose, s)
		}
		for _, want := range []string{
			"bubble_test.go:35: the failure this test exists to report",
			"--- FAIL: TestBubbles",
			"FAIL\tgithub.com/hpcclab/oparaca-go/internal/simtest/testdata/bubbles",
		} {
			if !strings.Contains(s, want) {
				t.Errorf("verbose=%v: output lacks %q:\n%s", verbose, want, s)
			}
		}
		if strings.Contains(s, "panic:") {
			t.Errorf("verbose=%v: a t.Fatal in a bubble panicked the child:\n%s", verbose, s)
		}
		if verbose {
			// The child's tests are reported by name, each with its verdict.
			for _, want := range []string{"--- PASS: TestPasses", "--- FAIL: TestFails"} {
				if !strings.Contains(s, want) {
					t.Errorf("output lacks %q:\n%s", want, s)
				}
			}
		}
	}
}
