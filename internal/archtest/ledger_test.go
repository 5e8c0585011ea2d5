package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"slices"
	"strconv"
	"strings"
)

// configLeavesAreSet: every field of core.Config and core.RegionSpec is
// set by some non-test file outside internal/core — a key of a literal of
// its type, or the target of an assignment or of & through a variable of
// that type — or unset names it ("Config.Clock") with the reason it
// stays. An entry of unset that is set after all, or is no field, fails
// the row too, so the list stays the true list of leaves only tests set.
func configLeavesAreSet(unset map[string]string) check {
	return func(tr *tree) error {
		fields := map[string]bool{}
		for _, d := range tr.decls("internal/core/platform.go") {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || (ts.Name.Name != "Config" && ts.Name.Name != "RegionSpec") {
					continue
				}
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						fields[ts.Name.Name+"."+n.Name] = true
					}
				}
			}
		}
		if len(fields) == 0 {
			return fmt.Errorf("no Config or RegionSpec struct in internal/core/platform.go")
		}
		set := map[string]string{} // leaf → first setting site
		for p, f := range tr.files {
			if path.Dir(p) == "internal/core" {
				continue // the declaring package's own writes are its defaults
			}
			for leaf, pos := range configSets(f, path.Dir(p) == ".") {
				if _, seen := set[leaf]; !seen {
					set[leaf] = tr.fset.Position(pos).String()
				}
			}
		}
		var errs []string
		for _, leaf := range sortedKeys(fields) {
			_, isSet := set[leaf]
			_, listed := unset[leaf]
			switch {
			case !isSet && !listed:
				errs = append(errs, leaf+" is set by no non-test file")
			case isSet && listed:
				errs = append(errs, fmt.Sprintf("%s is listed as unset but %s sets it", leaf, set[leaf]))
			}
		}
		for _, leaf := range sortedKeys(unset) {
			if !fields[leaf] {
				errs = append(errs, leaf+" is listed as unset but is no field")
			}
		}
		if len(errs) > 0 {
			return fmt.Errorf("%s", strings.Join(errs, "; "))
		}
		return nil
	}
}

// configSets returns the Config and RegionSpec leaves f sets, with a
// site each. root is true for a file of the module's root package, where
// the aliases oaas.Config and oaas.RegionSpec are spelled bare.
func configSets(f *ast.File, root bool) map[string]token.Pos {
	quals := map[string]bool{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if p == "github.com/hpcclab/oparaca-go" {
			name = "oaas"
		} else if p != "github.com/hpcclab/oparaca-go/internal/core" {
			continue
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		quals[name] = true
	}
	typeOf := func(e ast.Expr) string {
		var name string
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok && quals[x.Name] {
				name = e.Sel.Name
			}
		case *ast.Ident:
			if root {
				name = e.Name
			}
		}
		if name == "Config" || name == "RegionSpec" {
			return name
		}
		return ""
	}
	out := map[string]token.Pos{}
	note := func(typ string, key ast.Expr) {
		if id, ok := key.(*ast.Ident); ok {
			if _, seen := out[typ+"."+id.Name]; !seen {
				out[typ+"."+id.Name] = id.Pos()
			}
		}
	}
	keys := func(typ string, lit *ast.CompositeLit) {
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				note(typ, kv.Key)
			}
		}
	}
	// vars are the identifiers f declares with a Config or RegionSpec
	// type, or binds to a literal of one.
	vars := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if typ := typeOf(n.Type); typ != "" {
				for _, id := range n.Names {
					vars[id.Name] = typ
				}
			}
		case *ast.Field:
			if typ := typeOf(n.Type); typ != "" {
				for _, id := range n.Names {
					vars[id.Name] = typ
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				lit, ok := rhs.(*ast.CompositeLit)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok && typeOf(lit.Type) != "" {
					vars[id.Name] = typeOf(lit.Type)
				}
			}
		}
		return true
	})
	field := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && vars[x.Name] != "" {
				note(vars[x.Name], sel.Sel)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if typ := typeOf(n.Type); typ != "" {
				keys(typ, n)
			}
			// []RegionSpec{{Name: …}} elides the element type.
			if at, ok := n.Type.(*ast.ArrayType); ok && typeOf(at.Elt) != "" {
				for _, el := range n.Elts {
					if lit, ok := el.(*ast.CompositeLit); ok && lit.Type == nil {
						keys(typeOf(at.Elt), lit)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				field(lhs)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X)
			}
		}
		return true
	})
	return out
}

// implicit names the methods code never names because the standard
// library calls them through an interface (error, fmt.Stringer,
// errors.Is/Unwrap, http.Handler, json.Marshaler/Unmarshaler).
var implicit = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// exportedHaveCallers: every exported function or method declared in a
// non-test file under internal/ is named by some non-test file other than
// at its own declaration, or uncalled lists it ("pkg.F", "pkg.T.M") with
// the reason it stays. The match is by name alone, so a symbol sharing
// its name with something called passes; the linker ledger in CHANGES.md
// is the exact check. An entry of uncalled that is named after all, or is
// no declaration, fails the row too.
func exportedHaveCallers(uncalled map[string]string) check {
	return func(tr *tree) error {
		named := map[string]bool{}
		declared := map[string]token.Pos{}
		for p, f := range tr.files {
			decl := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				decl[fd.Name] = true
				if !strings.HasPrefix(p, "internal/") || !fd.Name.IsExported() || implicit[fd.Name.Name] && fd.Recv != nil {
					continue
				}
				sym := path.Base(path.Dir(p)) + "." + fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					sym = path.Base(path.Dir(p)) + "." + funcName(fd)
				}
				declared[sym] = fd.Name.Pos()
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decl[id] {
					named[id.Name] = true
				}
				return true
			})
		}
		var errs []string
		syms := sortedKeys(declared)
		for _, sym := range syms {
			name := sym[strings.LastIndex(sym, ".")+1:]
			_, listed := uncalled[sym]
			switch {
			case !named[name] && !listed:
				errs = append(errs, fmt.Sprintf("%s (%s) is named by no non-test file", sym, tr.fset.Position(declared[sym])))
			case named[name] && listed:
				errs = append(errs, sym+" is listed as uncalled but a non-test file names "+name)
			}
		}
		for _, sym := range sortedKeys(uncalled) {
			if _, ok := declared[sym]; !ok {
				errs = append(errs, sym+" is listed as uncalled but is not declared")
			}
		}
		if len(errs) > 0 {
			return fmt.Errorf("%s", strings.Join(errs, "; "))
		}
		return nil
	}
}

// wallTime names the calls that read the wall clock or arm a wall-clock
// timer or deadline.
var wallTime = map[string]bool{
	"time.Now": true, "time.Since": true, "time.Until": true, "time.Sleep": true,
	"time.After": true, "time.Tick": true, "time.NewTimer": true, "time.NewTicker": true,
	"time.AfterFunc": true, "context.WithTimeout": true, "context.WithDeadline": true,
}

// timeIsTheClocks: no non-test file under internal/ outside internal/vclock
// names a wallTime function — called or passed as a value — except at a
// scope of wall (a directory, a file, or "file#F"), which gives the reason
// it stays on the wall clock. An entry of wall whose scope names none
// fails the row too.
func timeIsTheClocks(wall map[string]string) check {
	return func(tr *tree) error {
		sites := func(scope string) []token.Pos {
			var out []token.Pos
			for _, d := range tr.decls(scope) {
				ast.Inspect(d, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && wallTime[x.Name+"."+sel.Sel.Name] {
						out = append(out, sel.Pos())
					}
					return true
				})
			}
			return out
		}
		excepted := map[token.Pos]bool{}
		var errs []string
		for _, scope := range sortedKeys(wall) {
			got := sites(scope)
			if len(got) == 0 {
				errs = append(errs, scope+" is listed as on the wall clock but reads no wall time")
			}
			for _, p := range got {
				excepted[p] = true
			}
		}
		var hits []token.Pos
		for _, p := range sites("") {
			f := tr.fset.Position(p).Filename
			if strings.HasPrefix(f, "internal/") && !strings.HasPrefix(f, "internal/vclock/") && !excepted[p] {
				hits = append(hits, p)
			}
		}
		if len(hits) > 0 {
			errs = append(errs, "wall-clock time outside vclock.Clock at "+tr.list(hits))
		}
		if len(errs) > 0 {
			return fmt.Errorf("%s", strings.Join(errs, "; "))
		}
		return nil
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
