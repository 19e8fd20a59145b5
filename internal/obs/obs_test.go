package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("x.gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if r.Gauge("x.gauge") != g {
		t.Fatal("same name must return same handle")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x.lat")
	h.Observe(0)    // bucket "0"
	h.Observe(1)    // [1,2) -> 2^1
	h.Observe(3)    // [2,4) -> 2^2
	h.Observe(1024) // [1024,2048) -> 2^11
	snap := snapshotHistogram(h)
	if snap.Count != 4 || snap.Sum != 1028 || snap.Max != 1024 {
		t.Fatalf("snapshot = %+v", snap)
	}
	want := map[string]uint64{"0": 1, "2^1": 1, "2^2": 1, "2^11": 1}
	for k, v := range want {
		if snap.Buckets[k] != v {
			t.Fatalf("bucket %s = %d, want %d (all: %v)", k, snap.Buckets[k], v, snap.Buckets)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x.lat")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	var bucketSum uint64
	for i := range h.buckets {
		bucketSum += h.buckets[i].Load()
	}
	if bucketSum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, workers*per)
	}
	if h.max.Load() != workers*per-1 {
		t.Fatalf("max = %d, want %d", h.max.Load(), workers*per-1)
	}
}

// TestSpanHierarchy: a span's path carries its hierarchy, and End folds
// each instance into its path's phase aggregate.
func TestSpanHierarchy(t *testing.T) {
	r := NewRegistry()
	root := r.Begin("generate")
	for i := 0; i < 3; i++ {
		child := r.Begin("generate/summary")
		time.Sleep(time.Millisecond)
		if d := child.End(); d < time.Millisecond {
			t.Fatalf("child span lasted %v, want >= 1ms", d)
		}
	}
	root.End()
	snap := r.Snapshot()
	var paths []string
	for _, p := range snap.Phases {
		paths = append(paths, p.Name)
		if p.NS <= 0 {
			t.Fatalf("phase %s has non-positive duration", p.Name)
		}
	}
	want := []string{"generate", "generate/summary"}
	if fmt.Sprint(paths) != fmt.Sprint(want) {
		t.Fatalf("phases = %v, want %v", paths, want)
	}
	gen, sum := snap.Phases[0], snap.Phases[1]
	if gen.Count != 1 || sum.Count != 3 {
		t.Fatalf("phase counts = %d, %d, want 1, 3", gen.Count, sum.Count)
	}
	if sum.NS < int64(3*time.Millisecond) || gen.NS < sum.NS {
		t.Fatalf("phase totals: generate %v, generate/summary %v", gen.Dur(), sum.Dur())
	}
}

func TestSpanNilSafe(t *testing.T) {
	var sp *Span
	if d := sp.End(); d != 0 {
		t.Fatal("nil span End must be a no-op")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Histogram("a.h").Observe(100)
	sp := r.Begin("phase1")
	time.Sleep(100 * time.Microsecond)
	sp.End()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SnapshotSchema || back.Histograms["a.h"].Count != 1 || back.Histograms["a.h"].Sum != 100 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"x": 1`) {
		t.Fatalf("unexpected content: %s", data)
	}
	// Overwrite must not leave temp droppings.
	if err := WriteFileAtomic(path, map[string]int{"x": 2}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("left %d entries in dir, want 1", len(ents))
	}
}

func TestReportValidate(t *testing.T) {
	good := func() *Report {
		return &Report{
			Schema:      ReportSchema,
			Command:     "gen",
			Program:     "Router",
			Parallelism: 1,
			WallNS:      int64(time.Second),
			Phases: []PhaseDur{
				{Name: "cfg", NS: 1000},
				{Name: "summary", NS: 2000},
				{Name: "sym", NS: 3000},
			},
			Paths: &PathReport{
				Explored: 10, Templates: 5,
				PossibleLog10Before: 3, PossibleLog10After: 1,
			},
			Solver:  NewSolverReport(20, 12, 6, 2, 4, 1, time.Second),
			Journal: &JournalReport{},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	for name, mutate := range map[string]func(*Report){
		"bad schema":        func(r *Report) { r.Schema = "nope" },
		"zero wall":         func(r *Report) { r.WallNS = 0 },
		"no phases":         func(r *Report) { r.Phases = nil },
		"zero phase":        func(r *Report) { r.Phases[0].NS = 0 },
		"missing cfg phase": func(r *Report) { r.Phases = r.Phases[2:] },
		"zero explored":     func(r *Report) { r.Paths.Explored = 0 },
		"zero templates":    func(r *Report) { r.Paths.Templates = 0 },
		"missing bucket":    func(r *Report) { delete(r.Solver.Outcomes, "cache_hit") },
		"outcome mismatch":  func(r *Report) { r.Solver.Outcomes["sat"] = 99 },
		"budget > unknown":  func(r *Report) { r.Solver.Outcomes["budget_exhausted"] = 3 },
		"truncated > unsat": func(r *Report) { r.Solver.TruncatedUnsat = 7 },
		"paths grew":        func(r *Report) { r.Paths.PossibleLog10After = 9 },
		// The store section's identities.
		"warmed > loaded":     func(r *Report) { r.Store = &StoreReport{Warmed: 3, SnapshotReads: 3} },
		"warmed, no reads":    func(r *Report) { r.Journal.Loaded, r.Store = 3, &StoreReport{Warmed: 3} },
		"committed, no txn":   func(r *Report) { r.Store = &StoreReport{Committed: 2, FileBytes: 400} },
		"txn into empty file": func(r *Report) { r.Store = &StoreReport{Committed: 2, Commits: 1} },
		"invalidated, no txn": func(r *Report) { r.Store = &StoreReport{Invalidated: 1, FileBytes: 400} },
		// The reuse break-even.
		"negative source":    func(r *Report) { r.Journal.SourceNS = -1 },
		"negative breakeven": func(r *Report) { r.Journal.BreakevenNSPerQuery = -0.5 },
	} {
		r := good()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: invalid report accepted", name)
		}
	}

	// A store-backed run: warm records are loaded ones, a commit left a file.
	r := good()
	r.Journal.Loaded, r.Journal.SourceNS, r.Journal.BreakevenNSPerQuery = 7, 4000, 1000
	r.Store = &StoreReport{Warmed: 7, SnapshotReads: 7, Committed: 2, Commits: 1, TailDiscarded: 90, FileBytes: 4000}
	if err := r.Validate(); err != nil {
		t.Fatalf("valid store-backed report rejected: %v", err)
	}

	// Truncated runs may legitimately have zero templates.
	r = good()
	r.Paths.Templates = 0
	r.Paths.Truncated = true
	if err := r.Validate(); err != nil {
		t.Fatalf("truncated zero-template report rejected: %v", err)
	}
}

func TestParseReport(t *testing.T) {
	r := &Report{
		Schema: ReportSchema,
		WallNS: 100,
		Phases: []PhaseDur{{Name: "drive", NS: 100}},
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseReport(data); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseReport([]byte("{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := ParseReport([]byte(`{"schema":"x"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestLogLevels(t *testing.T) {
	var buf bytes.Buffer
	prev := SetLogWriter(&buf)
	defer SetLogWriter(prev)
	defer SetLogLevel(LevelNormal)

	SetLogLevel(LevelNormal)
	Progressf("progress %d", 1)
	if buf.Len() != 0 {
		t.Fatalf("Progressf printed at LevelNormal: %q", buf.String())
	}
	Warnf("warn")
	if !strings.Contains(buf.String(), "warn") {
		t.Fatal("Warnf suppressed at LevelNormal")
	}

	buf.Reset()
	SetLogLevel(LevelVerbose)
	Progressf("progress %d", 2)
	if !strings.Contains(buf.String(), "progress 2") {
		t.Fatal("Progressf suppressed at LevelVerbose")
	}

	buf.Reset()
	SetLogLevel(LevelQuiet)
	Warnf("warn2")
	Progressf("progress3")
	if buf.Len() != 0 {
		t.Fatalf("LevelQuiet leaked output: %q", buf.String())
	}
}

// TestServeDebug: the debug server answers /metrics (with the Default
// registry's metrics) and pprof, and nothing else.
func TestServeDebug(t *testing.T) {
	Default().Histogram("test.serve").Observe(1)
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/metrics", "test.serve", http.StatusOK},
		{"/debug/pprof/", "goroutine", http.StatusOK},
		{"/metrics/delta", "", http.StatusNotFound},
		{"/flight", "", http.StatusNotFound},
		{"/debug/vars", "", http.StatusNotFound},
	} {
		resp, err := http.Get("http://" + addr + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		if !strings.Contains(string(body), tc.body) {
			t.Fatalf("GET %s: %q missing from body", tc.path, tc.body)
		}
	}
}
