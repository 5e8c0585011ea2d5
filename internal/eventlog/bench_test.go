package eventlog

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// benchEventPayload is a representative stored event (the JSON the
// bus appends per committed write).
var benchEventPayload = json.RawMessage(`{"seq":1,"offset":1,"type":"stateChanged","class":"Feed","object":"feed-0","function":"bump","keys":["n"]}`)

// newBenchEventLog builds a backed event log. The appending benchmarks
// run its sweep every sweepEvery iterations, so the cost of size-cap
// eviction and garbage reclamation is in the steady-state numbers.
func newBenchEventLog(b *testing.B) *Log {
	b.Helper()
	st := kvstore.Open(kvstore.Config{})
	l, err := New(Config{Backing: st})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		l.Close()
		st.Close()
	})
	return l
}

// sweepEvery is how many appending iterations pass between sweeps.
const sweepEvery = 1024

// BenchmarkEventLogAppend measures the durable append path the
// trigger bus takes on every committed write: write-through to the
// backing store, then the in-memory commit. "single" is the Publish
// path (one entry per backing write), "batch16" the group-commit
// PublishBatch path (16 entries amortized into one backing write).
func BenchmarkEventLogAppend(b *testing.B) {
	ctx := context.Background()
	build := func(int64) (json.RawMessage, error) { return benchEventPayload, nil }
	b.Run("single", func(b *testing.B) {
		l := newBenchEventLog(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(ctx, "feed-0", build); err != nil {
				b.Fatal(err)
			}
			if i%sweepEvery == sweepEvery-1 {
				l.Compact(ctx)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	})
	b.Run("batch16", func(b *testing.B) {
		const batch = 16
		l := newBenchEventLog(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.AppendBatch(ctx, "feed-0", batch, func(int, int64) (json.RawMessage, error) {
				return benchEventPayload, nil
			}); err != nil {
				b.Fatal(err)
			}
			if i%sweepEvery == sweepEvery-1 {
				l.Compact(ctx)
			}
		}
		// ops/s counts appended events, not batches, so single vs
		// batch16 read as the same unit.
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/s")
	})
}

// BenchmarkEventLogReplay measures cursor-resume throughput: paged
// Reads over a warm retained log, the path every recovering consumer
// and fromOffset stream takes. ops/s counts replayed entries.
func BenchmarkEventLogReplay(b *testing.B) {
	const retained, page = 1024, 256
	ctx := context.Background()
	b.Run("page256", func(b *testing.B) {
		l := newBenchEventLog(b)
		if _, err := l.AppendBatch(ctx, "feed-0", retained, func(int, int64) (json.RawMessage, error) {
			return benchEventPayload, nil
		}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		replayed := 0
		for i := 0; i < b.N; i++ {
			from := int64((i*page)%retained) + 1
			entries, err := l.Read(ctx, "feed-0", from, page)
			if err != nil {
				b.Fatal(err)
			}
			replayed += len(entries)
		}
		b.ReportMetric(float64(replayed)/b.Elapsed().Seconds(), "ops/s")
	})
}
