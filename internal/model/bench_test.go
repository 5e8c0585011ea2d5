package model

import "testing"

// BenchmarkMicroModelResolve flattens a three-level hierarchy.
func BenchmarkMicroModelResolve(b *testing.B) {
	pkg := &Package{Classes: []ClassDef{
		{Name: "A", Functions: []FunctionDef{{Name: "f1", Image: "i"}}},
		{Name: "B", Parent: "A", Functions: []FunctionDef{{Name: "f2", Image: "i"}}},
		{Name: "C", Parent: "B", Functions: []FunctionDef{{Name: "f1", Image: "j"}}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Resolve(pkg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
