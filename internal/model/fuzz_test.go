package model

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/yamlx"
)

// examplePackages returns the package YAML of every program under
// examples/: the string constant packageYAML of its main.go.
func examplePackages(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "packageYAML" || len(vs.Values) != 1 {
				return true
			}
			if lit, ok := vs.Values[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				src, err := strconv.Unquote(lit.Value)
				if err != nil {
					tb.Fatalf("%s: %v", file, err)
				}
				out = append(out, src)
			}
			return false
		})
	}
	if len(out) == 0 {
		tb.Fatal("no packageYAML constant under examples/")
	}
	return out
}

// FuzzParseYAML: for any bytes, the YAML decoder and the package parser
// return a value or an error and never panic. The seeds are the example
// packages, which parse.
func FuzzParseYAML(f *testing.F) {
	for _, src := range examplePackages(f) {
		if _, err := ParseYAML([]byte(src)); err != nil {
			f.Fatalf("example package does not parse: %v\n%s", err, src)
		}
		f.Add([]byte(src))
	}
	f.Add([]byte(listing1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, err := yamlx.Decode(data); err != nil && v != nil {
			t.Fatalf("Decode returned both %v and %v", v, err)
		}
		if pkg, err := ParseYAML(data); (err == nil) == (pkg == nil) {
			t.Fatalf("ParseYAML = %v, %v: want exactly one of a package and an error", pkg, err)
		}
	})
}
