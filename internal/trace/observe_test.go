package trace

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
