package yamlx

import "testing"

// BenchmarkMicroYAMLDecode parses the paper's Listing 1.
func BenchmarkMicroYAMLDecode(b *testing.B) {
	src := []byte(`classes:
  - name: Image
    qos:
      throughput: 100
    constraint:
      persistent: true
    keySpecs:
      - name: image
        kind: file
    functions:
      - name: resize
        image: img/resize
  - name: LabelledImage
    parent: Image
    functions:
      - name: detectObject
        image: img/detect-object
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(src); err != nil {
			b.Fatal(err)
		}
	}
}
