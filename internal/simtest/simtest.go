// Package simtest is the one way a test enters a testing/synctest bubble:
// a group of goroutines on a virtual clock that moves only when every one
// of them is durably blocked, so a test waits for what it waits for
// instead of sleeping for a guess of how long it takes.
//
// A bubble test sits in a _test.go file tagged
//
//	//go:build goexperiment.synctest
//
// runs its body through Run, and waits for the bubble's other goroutines
// with Wait. A package with bubble tests has one untagged entry test,
//
//	func TestBubbles(t *testing.T) { simtest.Bubbles(t) }
//
// Built with GOEXPERIMENT=synctest, the bubble tests run directly and the
// entry skips. A plain build leaves the tagged files out, and the entry
// runs the package's bubble tests in one child go test built with
// GOEXPERIMENT=synctest, which fails the entry with its output when it
// fails. So a plain `go test ./...` runs every bubble test.
package simtest

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/israce"
)

// bubbleTag is the build constraint of a file whose tests run in bubbles.
const bubbleTag = "goexperiment.synctest"

// Bubbles runs the bubble tests of the package in the current directory
// in one child go test built with GOEXPERIMENT=synctest, with -race when
// this is a race build, and fails with the child's output when the child
// fails. Under -v (and go test -json) the child's test lines are this
// binary's output, so its tests are reported by name. In a build that
// has the experiment, the bubble tests run directly and Bubbles skips.
func Bubbles(t *testing.T) {
	t.Helper()
	if experiment {
		t.Skip("built with GOEXPERIMENT=synctest: the bubble tests run directly")
	}
	names, err := bubbleTests(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("no Test function in a file tagged %s", bubbleTag)
	}
	args := []string{"test", "-count=1", "-run", "^(" + strings.Join(names, "|") + ")$"}
	if israce.Enabled {
		args = append(args, "-race")
	}
	verbose := flag.Lookup("test.v").Value.String() // "false", "true" or "test2json"
	if verbose != "false" {
		args = append(args, "-v="+verbose)
	}
	if d, ok := t.Deadline(); ok {
		// The child times out first, so its goroutine dump reaches the
		// output instead of dying with this binary.
		args = append(args, fmt.Sprintf("-timeout=%s", (time.Until(d)*9/10).Round(time.Second)))
	}
	cmd := exec.CommandContext(t.Context(), filepath.Join(runtime.GOROOT(), "bin", "go"), append(args, ".")...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	out, err := cmd.CombinedOutput()
	if verbose != "false" {
		os.Stdout.Write(testLines(out))
		if err != nil {
			t.Fatalf("%s: %v (the failing tests are reported above)", strings.Join(cmd.Args, " "), err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v\n%s", strings.Join(cmd.Args, " "), err, out)
	}
}

// bubbleTests names the Test functions declared in dir's _test.go files
// that only a build with the experiment compiles.
func bubbleTests(dir string) ([]string, error) {
	with := build.Default
	with.ToolTags = append(with.ToolTags[:len(with.ToolTags):len(with.ToolTags)], bubbleTag)
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		name := filepath.Base(path)
		if in, err := with.MatchFile(dir, name); err != nil || !in {
			continue
		}
		if in, err := build.Default.MatchFile(dir, name); err != nil || in {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names, nil
}

// testLines drops the child's own summary (the test binary's closing
// PASS or FAIL and go test's "ok"/"FAIL" package line), which would
// otherwise read as this binary's verdict.
func testLines(out []byte) []byte {
	var keep []byte
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		s := strings.TrimRight(strings.TrimPrefix(string(line), "\x16"), "\n")
		if s == "PASS" || s == "FAIL" || strings.HasPrefix(s, "ok  \t") || strings.HasPrefix(s, "FAIL\t") {
			continue
		}
		keep = append(keep, line...)
	}
	return keep
}
