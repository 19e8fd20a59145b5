package main

import (
	"fmt"
	"time"
)

// span is one timed interval of a traced run. Parent is the ID of the
// span that was open when this one began (-1 for a root). A derived span
// was not bracketed by the benchmark: its duration is one the program
// reported for a phase inside the parent call (GenResult.Phases,
// GenResult.Duration), and its position packs such phases back to back
// from the parent's start, which is the order they ran in.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer records spans in memory on the benchmark's single measuring
// goroutine; begin/end nest, so the open stack gives each span's parent.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: t.now(), EndNS: -1})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) time.Duration {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("trace: end(%d) does not match the innermost open span", id))
	}
	t.open = t.open[:n-1]
	s := &t.spans[id]
	s.EndNS = t.now()
	return time.Duration(s.EndNS - s.StartNS)
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, f func() error) (time.Duration, error) {
	id := t.begin(name)
	err := f()
	return t.end(id), err
}

// derive adds closed child spans under parent, packed from parent's start
// in the given order, one per (name, duration) pair the program reported.
// It returns the IDs so a caller can nest further phases.
func (t *tracer) derive(parent int, names []string, durs []time.Duration) []int {
	cursor := t.spans[parent].StartNS
	ids := make([]int, len(names))
	for i, name := range names {
		id := len(t.spans)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
			StartNS: cursor, EndNS: cursor + int64(durs[i]), Derived: true})
		cursor += int64(durs[i])
		ids[i] = id
	}
	return ids
}

// finish computes self times (duration minus the part children cover;
// children of one parent never overlap here) and validates the tree.
func (t *tracer) finish() error {
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
	return checkSpans(t.spans)
}

// checkSpans verifies the tree is well formed: every span closed, parents
// recorded before children, children inside their parents, self times
// non-negative.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("trace: span %d has id %d", i, s.ID)
		}
		if s.EndNS < s.StartNS {
			return fmt.Errorf("trace: span %d (%s) not closed", s.ID, s.Name)
		}
		if s.Parent >= i || s.Parent < -1 {
			return fmt.Errorf("trace: span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				return fmt.Errorf("trace: span %d (%s) [%d,%d] outside parent %d (%s) [%d,%d]",
					s.ID, s.Name, s.StartNS, s.EndNS, p.ID, p.Name, p.StartNS, p.EndNS)
			}
		}
		if s.SelfNS < 0 {
			return fmt.Errorf("trace: span %d (%s) has self time %d", s.ID, s.Name, s.SelfNS)
		}
	}
	return nil
}

// leafShare is the share of span id's duration that the innermost spans
// beneath it cover — the part of an operation attributed to named layer
// spans. It is 0 for a span with nothing beneath it: an operation that is
// one call into a layer which reports no phases.
func (t *tracer) leafShare(id int) float64 {
	s := t.spans[id]
	if s.EndNS == s.StartNS {
		return 0
	}
	parent := make([]bool, len(t.spans))
	for _, c := range t.spans {
		if c.Parent >= 0 {
			parent[c.Parent] = true
		}
	}
	var covered int64
	for _, c := range t.spans {
		if parent[c.ID] {
			continue
		}
		for p := c.Parent; p >= 0; p = t.spans[p].Parent {
			if p == id {
				covered += c.EndNS - c.StartNS
				break
			}
		}
	}
	return float64(covered) / float64(s.EndNS-s.StartNS)
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Stamp   stamp             `json:"stamp"`
	Metrics map[string]metric `json:"metrics"`
	Spans   []span            `json:"spans"`
}
