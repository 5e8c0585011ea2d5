// Package archtest holds the repository's structural invariants: where a
// cross-cutting concern is enforced, which call sites a hot path may
// have, and what must not come back. Each is one row of TestInvariants,
// checked against the syntax trees of the repository's non-test Go files,
// so comments and string literals never match and the rows run with
// every `go test ./...`.
package archtest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A check inspects the parsed tree and reports what violates its
// invariant, or nil.
type check func(*tree) error

// TestInvariants runs one row per invariant. A row that fails names the
// sites that broke it; changing a row is a reviewed design decision, made
// in the same commit as the code that needs it.
func TestInvariants(t *testing.T) {
	tr := load(t)
	for _, row := range []struct {
		name  string
		check check
	}{
		// internal/runtime writes object state through one function,
		// ClassRuntime.commit. A second fence call, commit span or table
		// write means a cross-cutting concern (deadline, fence, span, event)
		// has two places to be threaded through, and one to be forgotten in.
		{"commit-fences-once", only("internal/runtime", "ClassRuntime.commit", "infra.Fence(", 1)},
		{"commit-spans-once", only("internal/runtime", "ClassRuntime.commit", `Child("commit")`, 1)},
		{"commit-writes-once", only("internal/runtime", "ClassRuntime.commit", "PutManyIfVersion(", 1)},
		{"no-table-write-outside-commit", calls("internal/runtime", "table.PutMany(", 0)},

		// internal/core invokes an object through one pipeline (invoke.go):
		// resolve is its only directory lookup, hop its only charge for
		// distance, enter its only routing decision, and the platform
		// exports five entries into it. A second site of any of them means
		// placement, ownership or deadline is decided per entrypoint again,
		// and the copies drift.
		{"resolve-is-the-lookup", only("internal/core/invoke.go", "Platform.resolve", "objectRuntime(", 1)},
		{"hop-is-the-charge", only("internal/core", "Platform.hop", "Clock.Sleep(ctx, 2*", 1)},
		{"enter-is-the-gate", only("internal/core", "Platform.enter", "members.CheckMoving()", 1)},
		{"five-invoke-entrypoints", exportedMethods("internal/core", "Platform", "Invoke", 5)},
		{"one-call-type", all(
			noName("internal/asyncq", `^Call$`),
			noName("internal/runtime", `^BatchCall$`),
			noName("", `^(asyncq\.Call|runtime\.BatchCall|invokeCoalesced)$`),
		)},

		// internal/runtime builds an object's table keys in the window's
		// pooled scratch, one allocation per window. A per-object cache
		// costs more on a miss than it saves on a hit, and misses most of
		// the time once a class has more objects than its bound.
		{"no-key-cache", noName("internal/runtime", `keyCache|maxKeyCacheObjects`)},

		// What the platform keeps per idle object is one slim map slot per
		// layer and no event-log entry. NoteCreated put an objectLog in
		// memory per created object; a vers map beside the memtable's data
		// map hashed and stored every key twice.
		{"no-log-per-created-object", noName("", `^NoteCreated$`)},
		{"no-second-version-map", noVar("", "vers", "map[string]int64")},

		// internal/kvstore keeps the slice it is handed, so a flushed value,
		// a retained log entry and an invocation record are each resident
		// once. The copies that make that safe are the five on the way in:
		// the memtable's four write-path clones and asyncq.Submit's copy of
		// the payload. Another one is a second resident copy of something.
		{"value-copy-sites", perFile("append(json.RawMessage(nil)", map[string]int{
			"internal/asyncq/asyncq.go":  1,
			"internal/memtable/table.go": 4,
		})},

		// An invocation record is written by one encoder and read by one
		// decoder (internal/asyncq/encode.go), each with its reflective
		// fallback. The route that serves a record reads it before it arms
		// a wait, because most polls find their invocation finished.
		{"one-reflective-decode", only("internal/asyncq", "decodeRecord", "json.Unmarshal(", 1)},
		{"one-reflective-encode", only("internal/asyncq", "encodeRecord", "json.Marshal(", 2)},
		{"poll-reads-before-arming", all(
			calls("internal/gateway#Gateway.handleGetInvocation", "context.WithTimeout(", 1),
			before("internal/gateway#Gateway.handleGetInvocation", "platform.Invocation(", "context.WithTimeout("),
			calls("internal/gateway#Gateway.handleGetInvocation", "r.URL.Query()", 0),
		)},

		// A webhook attempt is one RoundTrip on the bus's own transport,
		// with the URL parsed once, when the subscription is stored, by the
		// one webhook URL rule. net/http's client parses the URL and builds
		// the header per attempt and follows redirects to hosts the
		// subscription never named. An event log's bounds document is
		// rendered by metaDoc, not by the reflective encoder.
		{"one-round-trip", only("internal/trigger", "Bus.postWebhook", "RoundTrip(", 1)},
		{"no-http-client", noName("internal/trigger", `^http\.(Client|DefaultClient|NewRequest\w*|Get|Head|Post|PostForm)$`)},
		{"no-http-client-field", noName("internal/trigger", `^HTTPClient$`)},
		{"webhook-url-parsed-at-subscribe", all(
			calls("internal/trigger", "url.Parse(", 0),
			only("internal/trigger", "Subscription.validate", "model.WebhookURL(", 1),
		)},
		{"one-webhook-url-rule", only("internal/model", "WebhookURL", "url.Parse(", 1)},
		{"bounds-doc-not-reflective", calls("internal/eventlog", "json.Marshal(objMeta", 0)},
	} {
		t.Run(row.name, func(t *testing.T) {
			if err := row.check(tr); err != nil {
				t.Error(err)
			}
		})
	}
}

// tree is every non-test Go file of the repository, parsed, keyed by its
// slash-separated path relative to the repository root.
type tree struct {
	fset  *token.FileSet
	files map[string]*ast.File
}

// load parses every non-test .go file under the repository root,
// skipping hidden directories (.git, build output) and testdata.
func load(t *testing.T) *tree {
	t.Helper()
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repository root not found: %v", err)
	}
	tr := &tree{fset: token.NewFileSet(), files: map[string]*ast.File{}}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		tr.files[rel], err = parser.ParseFile(tr.fset, rel, src, parser.SkipObjectResolution)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// decls returns the top-level declarations at scope, in source order.
// A scope is "" for every file, a directory for its own files (not its
// subdirectories'), or a .go path for that file, optionally followed by
// "#" and a function ("F") or method ("T.M") name to narrow it to that
// declaration.
func (tr *tree) decls(scope string) []ast.Decl {
	where, fn, _ := strings.Cut(scope, "#")
	var out []ast.Decl
	for p, f := range tr.files {
		if where != "" && p != where && path.Dir(p) != where {
			continue
		}
		for _, d := range f.Decls {
			if fn == "" || funcName(d) == fn {
				out = append(out, d)
			}
		}
	}
	slices.SortFunc(out, func(a, b ast.Decl) int { return int(a.Pos() - b.Pos()) })
	return out
}

// funcName names a function declaration "F" or, for a method, "T.M".
func funcName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// render prints n as gofmt would.
func (tr *tree) render(n ast.Node) string {
	var b strings.Builder
	if err := printer.Fprint(&b, tr.fset, n); err != nil {
		return ""
	}
	return b.String()
}

// sites returns the calls at scope written the way pattern starts, in
// source order. A pattern is a callee and the start of its argument list,
// as gofmt prints them: `infra.Fence(` matches any call whose callee is
// infra.Fence or ends in .infra.Fence, whatever its arguments;
// `Child("commit")` matches only that argument.
func (tr *tree) sites(scope, pattern string) []token.Pos {
	callee, args, _ := strings.Cut(pattern, "(")
	var out []token.Pos
	for _, d := range tr.decls(scope) {
		ast.Inspect(d, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := tr.render(c.Fun)
			if fn != callee && !strings.HasSuffix(fn, "."+callee) {
				return true
			}
			// The call is printed whole: gofmt spaces an operand such as
			// 2*d by its context, and this is the context it was written in.
			if written, ok := strings.CutPrefix(tr.render(c), fn+"("); ok && strings.HasPrefix(written, args) {
				out = append(out, c.Pos())
			}
			return true
		})
	}
	return out
}

func (tr *tree) list(ps []token.Pos) string {
	s := make([]string, len(ps))
	for i, p := range ps {
		s[i] = tr.fset.Position(p).String()
	}
	return strings.Join(s, " ")
}

// calls: scope has exactly want calls written like pattern.
func calls(scope, pattern string, want int) check {
	return func(tr *tree) error {
		if got := tr.sites(scope, pattern); len(got) != want {
			return fmt.Errorf("%s has %d calls of %s, want %d: %s", scope, len(got), pattern, want, tr.list(got))
		}
		return nil
	}
}

// only: where has exactly want calls written like pattern, all of them
// inside function fn.
func only(where, fn, pattern string, want int) check {
	return all(calls(where, pattern, want), calls(where+"#"+fn, pattern, want))
}

// before: the first call at scope written like first precedes every call
// there written like then.
func before(scope, first, then string) check {
	return func(tr *tree) error {
		a, b := tr.sites(scope, first), tr.sites(scope, then)
		if len(a) == 0 || len(b) > 0 && slices.Min(b) < a[0] {
			return fmt.Errorf("%s calls %s (%s) before %s (%s)", scope, then, tr.list(b), first, tr.list(a))
		}
		return nil
	}
}

// perFile: the calls written like pattern, across every non-test file,
// are in exactly these files, this many in each.
func perFile(pattern string, want map[string]int) check {
	return func(tr *tree) error {
		got := map[string]int{}
		for _, p := range tr.sites("", pattern) {
			got[tr.fset.Position(p).Filename]++
		}
		for f, n := range want {
			if got[f] != n {
				return fmt.Errorf("%s has %d calls of %s, want %d; all of them: %v", f, got[f], pattern, n, got)
			}
		}
		if len(got) != len(want) {
			return fmt.Errorf("calls of %s are in %v, want exactly %v", pattern, got, want)
		}
		return nil
	}
}

// noName: no identifier at scope, declared or used, matches re. A
// package-qualified name is matched whole ("http.Client"), any other
// identifier by itself, so `Call` does not match call.Call.
func noName(scope, re string) check {
	rx := regexp.MustCompile(re)
	return func(tr *tree) error {
		var hits []token.Pos
		for _, d := range tr.decls(scope) {
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if rx.MatchString(x.Name + "." + n.Sel.Name) {
							hits = append(hits, n.Pos())
						}
						return false
					}
				case *ast.Ident:
					if rx.MatchString(n.Name) {
						hits = append(hits, n.Pos())
					}
				}
				return true
			})
		}
		if len(hits) > 0 {
			return fmt.Errorf("%q names %s at %s", scope, re, tr.list(hits))
		}
		return nil
	}
}

// noVar: no field or variable at scope is named name with type typ.
func noVar(scope, name, typ string) check {
	return func(tr *tree) error {
		var hits []token.Pos
		match := func(names []*ast.Ident, t ast.Expr) {
			for _, id := range names {
				if id.Name == name && t != nil && tr.render(t) == typ {
					hits = append(hits, id.Pos())
				}
			}
		}
		for _, d := range tr.decls(scope) {
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					match(n.Names, n.Type)
				case *ast.ValueSpec:
					match(n.Names, n.Type)
				}
				return true
			})
		}
		if len(hits) > 0 {
			return fmt.Errorf("%s %s is declared at %s", name, typ, tr.list(hits))
		}
		return nil
	}
}

// exportedMethods: package where declares exactly want exported methods
// on recv whose names start with prefix.
func exportedMethods(where, recv, prefix string, want int) check {
	return func(tr *tree) error {
		var got []string
		for _, d := range tr.decls(where) {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Recv != nil && fd.Name.IsExported() && strings.HasPrefix(fd.Name.Name, prefix) && recvType(fd.Recv.List[0].Type) == recv {
				got = append(got, fd.Name.Name)
			}
		}
		if len(got) != want {
			return fmt.Errorf("%s: %s has %d exported %s* methods, want %d: %v", where, recv, len(got), prefix, want, got)
		}
		return nil
	}
}

// all: every one of checks holds.
func all(checks ...check) check {
	return func(tr *tree) error {
		var errs []error
		for _, c := range checks {
			errs = append(errs, c(tr))
		}
		return errors.Join(errs...)
	}
}
