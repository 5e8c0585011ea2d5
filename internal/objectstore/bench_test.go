package objectstore

import (
	"testing"
	"time"
)

// BenchmarkMicroPresign measures presigned-URL generation+verification.
func BenchmarkMicroPresign(b *testing.B) {
	s := New("bench-secret", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := s.Presign("GET", "bucket", "obj/key.png", time.Minute)
		if err := s.Verify("GET", "bucket", "obj/key.png", q); err != nil {
			b.Fatal(err)
		}
	}
}
