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

		// An invocation record is written by one encoder, with no
		// reflective fallback, and read by one decoder
		// (internal/asyncq/encode.go), whose fallback is for documents a
		// foreign writer stored. The route that serves a record reads it
		// before it arms a wait, because most polls find their invocation
		// finished.
		{"one-reflective-decode", only("internal/asyncq", "decodeRecord", "json.Unmarshal(", 1)},
		{"one-reflective-encode", only("internal/asyncq", "encodeRecord", "json.Marshal(", 0)},
		// What encoding/json's bytes look like is decided once, in
		// internal/jsonw: its writers escape any string and render any
		// RawMessage, and its scanner decodes any escape. A compaction or
		// an escaper of a module's own, or the helpers that stood in for
		// them, each knew part of the format, and a document one did not
		// cover fell back to reflection.
		{"json-bytes-are-jsonw", all(
			calls("", "json.Compact(", 1),
			calls("internal/jsonw", "json.Compact(", 1),
			calls("", "json.HTMLEscape(", 0),
			noDecl("", `^(plain|needsHTMLEscape|jsonSpace|isJSONSpace|recordScan)$`),
		)},
		{"poll-reads-before-arming", all(
			calls("internal/gateway#Gateway.handleGetInvocation", "WithTimeout(", 1),
			before("internal/gateway#Gateway.handleGetInvocation", "platform.Invocation(", "WithTimeout("),
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

		// A lone call is a group of one. The async queue hands every group
		// it drains to one hook, from one place; a commit hands its events
		// to one hook, and the bus appends them to the log in one body. A
		// handler panic is recovered where every handler runs, on whichever
		// goroutine that is. A single-call copy beside a group body drifts
		// from it, as the pairs these replaced had.
		{"one-drain-hook", all(
			noName("internal/asyncq", `^(Invoker|BatchInvoker|InvokeBatch)$`),
			only("internal/asyncq", "Queue.dispatch", "cfg.Invoke(", 1),
		)},
		{"one-event-hook", noName("internal/runtime", `^EventsBatch$`)},
		{"one-publish-body", all(
			only("internal/trigger", "Bus.PublishBatch", "Log.AppendBatch(", 1),
			calls("internal/trigger", "Log.Append(", 0),
		)},
		{"handler-panic-recovered-once", only("internal/runtime", "ClassRuntime.engineInvoke", "recover(", 1)},

		// The async queue is one channel that every worker receives from,
		// so an idle worker takes the next task and Capacity is the number
		// queued. enqueue is its one sender, where the closed check, admit
		// and the depth booking guard it. A partition of the queue would
		// bind a task to a worker that may be busy, and refuse a task while
		// other partitions have room.
		{"one-queue-send", all(
			sends("internal/asyncq", "q.tasks", 1),
			sends("internal/asyncq#Queue.enqueue", "q.tasks", 1),
		)},
		{"async-queue-is-one-channel", all(
			noType("internal/asyncq", "[]chan task"),
			noImport("internal/asyncq", "hash/fnv"),
			noName("internal/asyncq", `(^|\.)(shardFor|Shards|MaxRequeues|GCInterval)$`),
		)},

		// The event log is the bus's only queue. PublishBatch dispatches
		// what it appended before it returns, and the goroutines the bus
		// starts are its delivery workers and the re-arm timers. A channel
		// of in-flight events, a goroutine draining one, or an overflow
		// policy would put a queue between the append and the consumers
		// again, and an appended event could be shed there and stranded.
		{"bus-dispatches-in-publish", all(
			noChan("internal/trigger", "*inflight"),
			onlyGo("internal/trigger", "b.deliveryWorker", "b.rearm"),
			noName("internal/trigger", `^OverflowPolicy$`),
			only("internal/trigger", "Bus.PublishBatch", "b.dispatch(", 1),
		)},

		// Every counter lives once, in its component's registry, as a
		// handle resolved when the component is built, and /metrics renders
		// the registries: the gateway writes by hand only the five gauges
		// readiness derives. A hand-written series, or a counter kept as a
		// private field beside the registry, is a second copy for Stats(),
		// /readyz and /metrics to disagree on.
		{"metrics-are-registries", all(
			calls("", "pw.Counter(", 0),
			calls("", "pw.Gauge(", 5),
			calls("internal/gateway#Gateway.handleMetrics", "pw.Gauge(", 5),
			noVar("internal/trace", "started", "atomic.Int64"),
			noVar("internal/trace", "kept", "atomic.Int64"),
			noVar("internal/trace", "dropped", "atomic.Int64"),
			noVar("internal/core", "forwarded", "atomic.Int64"),
			noVar("internal/core", "ownerLocal", "atomic.Int64"),
			noVar("internal/core", "recovered", "atomic.Int64"),
			noVar("internal/cluster", "fenceRejections", "atomic.Int64"),
			noVar("internal/cluster", "rebalances", "int64"),
			noVar("internal/runtime", "leakedHandlers", "atomic.Int64"),
			noVar("internal/resilience", "opened", "int64"),
			noVar("internal/resilience", "halfOpens", "int64"),
			noVar("internal/resilience", "closes", "int64"),
			noVar("internal/resilience", "rejected", "int64"),
			noVar("internal/resilience", "succ", "int64"),
			noVar("internal/resilience", "fail", "int64"),
		)},

		// Time belongs to the clock. A deadline armed on the wall clock
		// expires in a different time from the one a vclock.Clock charged
		// and computed it in, and no test can drive it without sleeping. The
		// exceptions measure or bound real I/O.
		{"time-is-the-clocks", timeIsTheClocks(map[string]string{
			"internal/gateway/gateway.go#Gateway.ServeHTTP": "the request log's duration is the operator's record of real request time",
			"internal/core/platform.go#Platform.Close":      "bounds the shutdown of a real http.Server",
			"internal/experiment":                           "the experiments measure wall-clock latency of the running system",
		})},

		// A knob exists because something sets it, and a symbol because
		// something calls it. A new leaf of any Config under internal/, or
		// a new exported function, that only tests reach is a reviewed
		// edit of one of these lists.
		{"config-leaves-are-set", configLeavesAreSet(map[string]string{
			"core.Config.AsyncClassQuotas":     "per-class async caps; the quota tests set them to see 429s",
			"core.Config.AsyncDrainBatch":      "coalescing tests compare batched drains with per-task ones",
			"core.Config.AsyncQueueCapacity":   "backpressure tests shrink the queue to fill it",
			"core.Config.AsyncWorkers":         "contention and crash tests pin the worker count",
			"core.Config.Backing":              "the restart path: crash and replay tests hand a successor the killed platform's store",
			"core.Config.Breaker":              "the chaos soak shortens the breaker to see it open and close",
			"core.Config.Chaos":                "the chaos soak's seeded fault schedule",
			"core.Config.Clock":                "tests run the platform on a manual or hop-recording clock",
			"core.Config.ConcurrencyMode":      "the contention test runs every mode",
			"core.Config.EventLogMaxPerObject": "retention and replay tests lower the cap to see compaction",
			"core.Config.ForwardLatency":       "the invoke conformance tests charge the ingress-to-owner hop",
			"core.Config.TriggerMaxChainDepth": "the chain-cycle test lowers the depth bound",
			"core.Config.WebhookMaxRetries":    "delivery tests shorten the webhook policy to reach exhaustion",
			"core.Config.WebhookRetryBackoff":  "delivery tests shorten the webhook policy to reach exhaustion",
			"core.Config.WebhookTimeout":       "delivery tests shorten the webhook policy to reach timeouts",

			"asyncq.Config.FlushInterval":        "record tests shorten the flush to read records from the store, or lengthen it to hold them write-behind across a crash",
			"kvstore.Config.WriteLatency":        "the memtable delete/flush race tests need a backing write held in flight",
			"resilience.Config.FailureThreshold": "the chaos soak sets it through core.Config.Breaker to see the breaker open and close",
			"resilience.Config.HalfOpenProbes":   "the chaos soak sets it through core.Config.Breaker to see the breaker open and close",
			"resilience.Config.MinSamples":       "the chaos soak sets it through core.Config.Breaker to see the breaker open and close",
			"resilience.Config.OpenTimeout":      "the chaos soak sets it through core.Config.Breaker to see the breaker open and close",
			"resilience.Config.Window":           "the chaos soak sets it through core.Config.Breaker to see the breaker open and close",
			"trigger.Config.BackoffJitter":       "retry tests switch jitter off to assert exact backoffs",
			"trigger.Config.DeliveryWorkers":     "TestAppendedEventIsNeverStranded needs one worker to force the order",
		})},
		{"exported-has-a-caller", exportedHaveCallers(map[string]string{
			"cluster.Cluster.RemoveNode":        "fault model: a worker VM lost mid-flight",
			"core.Platform.DrainNode":           "fault model: a worker leaves gracefully",
			"core.Platform.KillNode":            "fault model: a worker crashes and its lease lapses",
			"kvstore.Store.InjectWriteFailures": "fault model: the next writes fail",
			"kvstore.Store.FaultsServed":        "fault model: how many injected faults the store served",
			"vclock.NewManual":                  "virtual time tests drive",
			"vclock.Manual.Advance":             "virtual time tests drive",
			"vclock.Manual.Pending":             "virtual time tests drive",
			"heaptest.PerEntry":                 "the measurement every resident-budget test compares against",
		})},
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

// noDecl: no function, method or type declared at the top level of
// scope has a name matching re.
func noDecl(scope, re string) check {
	rx := regexp.MustCompile(re)
	return func(tr *tree) error {
		var hits []token.Pos
		for _, d := range tr.decls(scope) {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if rx.MatchString(d.Name.Name) {
					hits = append(hits, d.Name.Pos())
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && rx.MatchString(ts.Name.Name) {
						hits = append(hits, ts.Name.Pos())
					}
				}
			}
		}
		if len(hits) > 0 {
			return fmt.Errorf("%q declares %s at %s", scope, re, tr.list(hits))
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

// noChan: no channel type at scope carries elem.
func noChan(scope, elem string) check {
	return func(tr *tree) error {
		var hits []token.Pos
		for _, d := range tr.decls(scope) {
			ast.Inspect(d, func(n ast.Node) bool {
				if c, ok := n.(*ast.ChanType); ok && tr.render(c.Value) == elem {
					hits = append(hits, c.Pos())
				}
				return true
			})
		}
		if len(hits) > 0 {
			return fmt.Errorf("%s declares a channel of %s at %s", scope, elem, tr.list(hits))
		}
		return nil
	}
}

// noType: no array, channel or map type at scope is written typ.
func noType(scope, typ string) check {
	return func(tr *tree) error {
		var hits []token.Pos
		for _, d := range tr.decls(scope) {
			ast.Inspect(d, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ArrayType, *ast.ChanType, *ast.MapType:
					if tr.render(n) == typ {
						hits = append(hits, n.Pos())
					}
				}
				return true
			})
		}
		if len(hits) > 0 {
			return fmt.Errorf("%s declares %s at %s", scope, typ, tr.list(hits))
		}
		return nil
	}
}

// noImport: no file at scope imports pkg.
func noImport(scope, pkg string) check {
	return func(tr *tree) error {
		var hits []token.Pos
		for _, d := range tr.decls(scope) {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.IMPORT {
				for _, s := range g.Specs {
					if is := s.(*ast.ImportSpec); is.Path.Value == `"`+pkg+`"` {
						hits = append(hits, is.Pos())
					}
				}
			}
		}
		if len(hits) > 0 {
			return fmt.Errorf("%s imports %s at %s", scope, pkg, tr.list(hits))
		}
		return nil
	}
}

// sends: scope has exactly want send statements, all of them on ch.
func sends(scope, ch string, want int) check {
	return func(tr *tree) error {
		var got, other []token.Pos
		for _, d := range tr.decls(scope) {
			ast.Inspect(d, func(n ast.Node) bool {
				if s, ok := n.(*ast.SendStmt); ok {
					got = append(got, s.Pos())
					if tr.render(s.Chan) != ch {
						other = append(other, s.Pos())
					}
				}
				return true
			})
		}
		if len(other) > 0 {
			return fmt.Errorf("%s sends on a channel other than %s at %s", scope, ch, tr.list(other))
		}
		if len(got) != want {
			return fmt.Errorf("%s has %d sends on %s, want %d: %s", scope, len(got), ch, want, tr.list(got))
		}
		return nil
	}
}

// onlyGo: every go statement at scope starts one of callees.
func onlyGo(scope string, callees ...string) check {
	return func(tr *tree) error {
		var hits []token.Pos
		for _, d := range tr.decls(scope) {
			ast.Inspect(d, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && !slices.Contains(callees, tr.render(g.Call.Fun)) {
					hits = append(hits, g.Pos())
				}
				return true
			})
		}
		if len(hits) > 0 {
			return fmt.Errorf("%s starts goroutines other than %v at %s", scope, callees, tr.list(hits))
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
