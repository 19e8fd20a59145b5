package obs

import "time"

// Span is an in-flight timed region. End folds it into the registry's
// phase table (count + total duration per path). The caller owns the
// hierarchy: a span's path is slash-separated, so "generate/summary"
// aggregates as a child of "generate".
type Span struct {
	reg   *Registry
	path  string
	start time.Time
}

// Begin opens a span at an explicit path on the Default registry:
//
//	sp := obs.Begin("generate/summary")
//	defer sp.End()
func Begin(path string) *Span {
	return defaultRegistry.Begin(path)
}

// Begin opens a span at an explicit path on r.
func (r *Registry) Begin(path string) *Span {
	return &Span{reg: r, path: path, start: time.Now()}
}

// End completes the span, folding it into the registry. Safe on a nil
// span (no-op), so conditional instrumentation needs no branches.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	p := s.reg.phase(s.path)
	p.count.Add(1)
	p.totalNS.Add(uint64(d))
	return d
}
