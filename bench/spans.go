package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Layer names of the traced pass. The first three nest for real inside
// one request; the rest are the layers' public entry points called on
// the live instances with the same operation.
const (
	layerRoundtrip = "client.roundtrip"
	layerGateway   = "gateway.ServeHTTP"
	layerHandler   = "handler"
	layerRTProbe   = "client.roundtrip/level"
	layerGWProbe   = "gateway.ServeHTTP/level"
	layerCore      = "core.InvokeRoutedFrom"
	layerRuntime   = "runtime.Invoke"
	layerMemLoad   = "memtable.GetManyVersionedInto"
	layerMemCommit = "memtable.PutManyIfVersion"
	layerFaas      = "faas.Invoke"
	layerAppend    = "eventlog.Append"
	layerPublish   = "trigger.Publish"
	layerSubmit    = "asyncq.InvokeAsyncBatch"
	layerTraceSpan = "trace.span"
)

// span is one timed interval of the traced pass. Spans of one
// operation share Op; Parent names the enclosing layer.
type span struct {
	Op      int64  `json:"op"`
	Layer   string `json:"layer"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps the traced pass's spans in memory; they are written
// out once, when the benchmark ends.
type spanLog struct {
	base time.Time
	op   atomic.Int64 // the operation in flight (the pass is serial)
	lvl  atomic.Value // string: the entry point currently driven
	mu   sync.Mutex
	all  []span
	sums map[string]float64 // allocation counts, per level
}

func newSpanLog() *spanLog {
	l := &spanLog{base: time.Now(), all: make([]span, 0, 1<<16), sums: map[string]float64{}}
	l.lvl.Store(layerGateway)
	return l
}

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

func (l *spanLog) level() string { return l.lvl.Load().(string) }

func (l *spanLog) add(layer, parent string, start, end int64) {
	l.mu.Lock()
	l.all = append(l.all, span{Op: l.op.Load(), Layer: layer, Parent: parent, StartNs: start, EndNs: end})
	l.mu.Unlock()
}

// count adds v to the running sum kept under name.
func (l *spanLog) count(name string, v float64) {
	l.mu.Lock()
	l.sums[name] += v
	l.mu.Unlock()
}

func (l *spanLog) sum(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sums[name]
}

// durations returns the lengths (ns) of every span of layer whose
// parent is parent ("" matches any parent), in recording order.
func (l *spanLog) durations(layer, parent string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.all {
		if s.Layer == layer && (parent == "" || s.Parent == parent) {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}
