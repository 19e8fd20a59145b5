package obs

import "testing"

func TestHistogramQuantiles(t *testing.T) {
	var hs Histogram
	// 90 fast samples around 1µs, 9 around 1ms, 1 at 100ms: classic
	// latency tail. Log2 buckets give factor-of-2 precision, so assert
	// bucket-range bounds rather than exact values.
	for i := 0; i < 90; i++ {
		hs.Observe(1000)
	}
	for i := 0; i < 9; i++ {
		hs.Observe(1_000_000)
	}
	hs.Observe(100_000_000)
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
	var z Histogram
	z.Observe(0)
	z.Observe(0)
	if got := z.Quantile(0.99); got != 0 {
		t.Fatalf("zero-only p99 = %.0f", got)
	}

	// Empty histogram: no summary at all (reports omit the field).
	var empty Histogram
	if empty.SummaryQuantiles() != nil {
		t.Fatal("empty histogram produced quantiles")
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
	for _, other := range []string{"meissa.run-report/v1", "meissa.run-report/v2", "meissa.run-report/v4"} {
		r.Schema = other
		if err := r.Validate(); err == nil {
			t.Fatalf("schema %q accepted", other)
		}
	}
}
