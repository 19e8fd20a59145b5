package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q.test_ns")
	// 90 fast samples around 1µs, 9 around 1ms, 1 at 100ms: classic
	// latency tail. Log2 buckets give factor-of-2 precision, so assert
	// bucket-range bounds rather than exact values.
	for i := 0; i < 90; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 9; i++ {
		h.Observe(1_000_000)
	}
	h.Observe(100_000_000)
	hs := r.Snapshot().Histograms["q.test_ns"]
	if hs.Count != 100 {
		t.Fatalf("count = %d", hs.Count)
	}
	q := hs.SummaryQuantiles()
	if q == nil {
		t.Fatal("nil quantiles for populated histogram")
	}
	if q.P50 < 512 || q.P50 > 2048 {
		t.Fatalf("p50 = %.0f, want within the 1µs bucket [512,2048)", q.P50)
	}
	if q.P90 < 1000 || q.P90 > 2_097_152 {
		t.Fatalf("p90 = %.0f, want between the fast mode and the 1ms bucket top", q.P90)
	}
	if q.P99 < 524_288 || q.P99 > 100_000_000 {
		t.Fatalf("p99 = %.0f, want in the tail, capped at max", q.P99)
	}
	if !(q.P50 <= q.P90 && q.P90 <= q.P99) {
		t.Fatalf("quantiles not monotone: %+v", q)
	}

	// The top bucket is clamped to the recorded max, never beyond it.
	if got := hs.Quantile(1.0); got > float64(hs.Max) {
		t.Fatalf("p100 = %.0f exceeds max %d", got, hs.Max)
	}

	// All-zero samples quantile to zero.
	r2 := NewRegistry()
	z := r2.Histogram("z")
	z.Observe(0)
	z.Observe(0)
	if got := r2.Snapshot().Histograms["z"].Quantile(0.99); got != 0 {
		t.Fatalf("zero-only p99 = %.0f", got)
	}

	// Empty histogram: no summary at all (reports omit the field).
	var empty HistogramSnapshot
	if empty.SummaryQuantiles() != nil {
		t.Fatal("empty histogram produced quantiles")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := &Snapshot{
		Counters:   map[string]uint64{"x": 10, "only_a": 1},
		Gauges:     map[string]int64{"g": 5},
		Histograms: map[string]HistogramSnapshot{"h": {Count: 2, Sum: 30, Max: 20, Buckets: map[string]uint64{"16": 2}}},
		Phases:     []PhaseDur{{Name: "sym", NS: 100, Count: 1}},
		Spans:      []SpanRecord{{Path: "a", StartNS: 1, DurNS: 2}},
	}
	b := &Snapshot{
		Counters:   map[string]uint64{"x": 7, "only_b": 3},
		Gauges:     map[string]int64{"g": 9},
		Histograms: map[string]HistogramSnapshot{"h": {Count: 3, Sum: 300, Max: 200, Buckets: map[string]uint64{"256": 3}}},
		Phases:     []PhaseDur{{Name: "sym", NS: 50, Count: 2}, {Name: "cfg", NS: 10, Count: 1}},
		Spans:      []SpanRecord{{Path: "b", StartNS: 5, DurNS: 6}},
	}
	a.Merge(b)
	if a.Counters["x"] != 17 || a.Counters["only_a"] != 1 || a.Counters["only_b"] != 3 {
		t.Fatalf("counters = %v", a.Counters)
	}
	if a.Gauges["g"] != 9 {
		t.Fatalf("gauge not replaced: %d", a.Gauges["g"])
	}
	h := a.Histograms["h"]
	if h.Count != 5 || h.Sum != 330 || h.Max != 200 || h.Buckets["16"] != 2 || h.Buckets["256"] != 3 {
		t.Fatalf("histogram = %+v", h)
	}
	var sym, cfg *PhaseDur
	for i := range a.Phases {
		switch a.Phases[i].Name {
		case "sym":
			sym = &a.Phases[i]
		case "cfg":
			cfg = &a.Phases[i]
		}
	}
	if sym == nil || sym.NS != 150 || sym.Count != 3 {
		t.Fatalf("sym phase = %+v", sym)
	}
	if cfg == nil || cfg.NS != 10 {
		t.Fatalf("cfg phase = %+v", cfg)
	}
	if len(a.Spans) != 2 {
		t.Fatalf("spans = %+v", a.Spans)
	}
	// Merging nil is a no-op.
	before := a.Counters["x"]
	a.Merge(nil)
	if a.Counters["x"] != before {
		t.Fatal("nil merge mutated snapshot")
	}
}

// TestSpanSampling: per-path span logs keep the first spanKeepFirst and
// last spanKeepLast samples; everything in between is dropped and
// counted in obs.spans_dropped. Phase aggregates still see every span.
func TestSpanSampling(t *testing.T) {
	r := NewRegistry()
	const n = 20
	for i := 0; i < n; i++ {
		r.Begin("w0/u1").End()
	}
	s := r.Snapshot()
	if len(s.Spans) != spanKeepFirst+spanKeepLast {
		t.Fatalf("retained %d spans, want %d", len(s.Spans), spanKeepFirst+spanKeepLast)
	}
	wantDropped := uint64(n - spanKeepFirst - spanKeepLast)
	if got := s.Counters["obs.spans_dropped"]; got != wantDropped {
		t.Fatalf("obs.spans_dropped = %d, want %d", got, wantDropped)
	}
	// First samples precede last samples chronologically.
	for i := 1; i < len(s.Spans); i++ {
		if s.Spans[i].StartNS < s.Spans[i-1].StartNS {
			t.Fatalf("retained spans out of order: %+v", s.Spans)
		}
	}
	var phase *PhaseDur
	for i := range s.Phases {
		if s.Phases[i].Name == "w0/u1" {
			phase = &s.Phases[i]
		}
	}
	if phase == nil || phase.Count != n {
		t.Fatalf("phase aggregate lost spans: %+v", phase)
	}

	// A flood of distinct paths is bounded too: past maxSpanPaths new
	// paths are dropped wholesale, never an unbounded map.
	r2 := NewRegistry()
	for i := 0; i < maxSpanPaths+50; i++ {
		r2.Begin(fmt.Sprintf("p%d", i)).End()
	}
	s2 := r2.Snapshot()
	if len(s2.Spans) != maxSpanPaths {
		t.Fatalf("span paths unbounded: %d", len(s2.Spans))
	}
	if got := s2.Counters["obs.spans_dropped"]; got != 50 {
		t.Fatalf("obs.spans_dropped = %d, want 50", got)
	}
}

// TestMetricsDeltaEndpoint drives the long-poll protocol end to end:
// cursor 0 yields a full snapshot and a cursor; after a counter bump,
// polling with that cursor yields a delta containing exactly the bump.
func TestMetricsDeltaEndpoint(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(cursor uint64) *DeltaResponse {
		t.Helper()
		url := fmt.Sprintf("http://%s/metrics/delta?cursor=%d&wait=2000", addr, cursor)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		var d DeltaResponse
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		return &d
	}

	first := get(0)
	if !first.Full || first.Snapshot == nil || first.Cursor == 0 {
		t.Fatalf("cursor-0 response: full=%v cursor=%d", first.Full, first.Cursor)
	}

	c := Default().Counter("test.delta_endpoint")
	c.Add(42)
	deadline := time.Now().Add(5 * time.Second)
	var second *DeltaResponse
	for time.Now().Before(deadline) {
		second = get(first.Cursor)
		if second.Snapshot != nil && second.Snapshot.Counters["test.delta_endpoint"] > 0 {
			break
		}
		first.Cursor = second.Cursor
	}
	if second == nil || second.Snapshot == nil {
		t.Fatal("no delta arrived")
	}
	if second.Full {
		t.Fatal("known cursor answered with a full snapshot")
	}
	if got := second.Snapshot.Counters["test.delta_endpoint"]; got != 42 {
		t.Fatalf("delta counter = %d, want 42", got)
	}

	// An unknown (evicted or bogus) cursor falls back to a full snapshot.
	if d := get(999999); !d.Full {
		t.Fatal("unknown cursor did not resync with a full snapshot")
	}
}

// TestReportSchemaOneVersion: the reader accepts the current schema and
// no other, older or newer.
func TestReportSchemaOneVersion(t *testing.T) {
	r := &Report{
		Schema: ReportSchema,
		WallNS: 100,
		Phases: []PhaseDur{{Name: "drive", NS: 100}},
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("current-schema report rejected: %v", err)
	}
	for _, other := range []string{"meissa.run-report/v1", "meissa.run-report/v3"} {
		r.Schema = other
		if err := r.Validate(); err == nil {
			t.Fatalf("schema %q accepted", other)
		}
	}
}
