package trace

import "time"

// TraceIDString returns the span's trace ID in hex ("" when disabled),
// for a span still live or already ended late.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	if s.td != nil {
		return s.td.id.String()
	}
	if s.kept != nil {
		return s.kept.id.String()
	}
	return ""
}

// slowThreshold returns the slow-keep threshold learned for route (0
// while none is learned).
func (t *Tracer) slowThreshold(route string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tl := t.tails[route]; tl != nil {
		return tl.slow
	}
	return 0
}

// routes returns the number of per-route tail windows.
func (t *Tracer) routes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.tails)
}
