package dataflow

import (
	"testing"

	"github.com/hpcclab/oparaca-go/internal/model"
)

// BenchmarkMicroDataflowCompile measures DAG validation+planning.
func BenchmarkMicroDataflowCompile(b *testing.B) {
	def := model.DataflowDef{Name: "d", Steps: []model.DataflowStep{
		{Name: "a", Function: "f"},
		{Name: "b", Function: "f", After: []string{"a"}},
		{Name: "c", Function: "f", After: []string{"a"}},
		{Name: "d", Function: "f", After: []string{"b", "c"}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(def); err != nil {
			b.Fatal(err)
		}
	}
}
