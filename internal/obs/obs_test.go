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

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)    // bucket "0"
	h.Observe(1)    // [1,2) -> 2^1
	h.Observe(3)    // [2,4) -> 2^2
	h.Observe(1024) // [1024,2048) -> 2^11
	if h.Count != 4 || h.Sum != 1028 || h.Max != 1024 {
		t.Fatalf("histogram = %+v", h)
	}
	data, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var enc struct {
		Buckets map[string]uint64 `json:"buckets"`
	}
	if err := json.Unmarshal(data, &enc); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"0": 1, "2^1": 1, "2^2": 1, "2^11": 1}
	if fmt.Sprint(enc.Buckets) != fmt.Sprint(want) {
		t.Fatalf("buckets = %v, want %v", enc.Buckets, want)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil || back != h {
		t.Fatalf("round trip = %+v (%v), want %+v", back, err, h)
	}
	if err := json.Unmarshal([]byte(`{"buckets":{"2^65":1}}`), &back); err == nil {
		t.Fatal("out-of-range bucket accepted")
	}
}

// TestHistogramConcurrent: each goroutine observes into a histogram of its
// own; Add merges them after the join, and Fold sums them into a Total
// from many goroutines at once.
func TestHistogramConcurrent(t *testing.T) {
	const workers, per = 8, 1000
	hs := make([]Histogram, workers)
	total := GetHistogram("test.concurrent")
	before := total.Sum()
	var wg sync.WaitGroup
	for w := range hs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				hs[w].Observe(uint64(w*per + i))
			}
			total.Fold(&hs[w])
		}(w)
	}
	wg.Wait()
	var all Histogram
	for w := range hs {
		all.Add(&hs[w])
	}
	var bucketSum uint64
	for _, n := range all.Buckets {
		bucketSum += n
	}
	if all.Count != workers*per || bucketSum != workers*per || all.Max != workers*per-1 {
		t.Fatalf("merged count %d, bucket sum %d, max %d; want %d, %d, %d",
			all.Count, bucketSum, all.Max, workers*per, workers*per, workers*per-1)
	}
	if total.Sum()-before != all.Sum || GetHistogram("test.concurrent") != total {
		t.Fatalf("total grew by %d, want %d, under one name", total.Sum()-before, all.Sum)
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
			Solver:  NewSolverReport(20, 12, 6, 2, 1, time.Second),
			Journal: &JournalReport{},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	for name, mutate := range map[string]func(*Report){
		"bad schema":          func(r *Report) { r.Schema = "nope" },
		"zero wall":           func(r *Report) { r.WallNS = 0 },
		"no phases":           func(r *Report) { r.Phases = nil },
		"zero phase":          func(r *Report) { r.Phases[0].NS = 0 },
		"missing cfg phase":   func(r *Report) { r.Phases = r.Phases[2:] },
		"zero explored":       func(r *Report) { r.Paths.Explored = 0 },
		"zero templates":      func(r *Report) { r.Paths.Templates = 0 },
		"missing bucket":      func(r *Report) { delete(r.Solver.Outcomes, "budget_exhausted") },
		"outcome mismatch":    func(r *Report) { r.Solver.Outcomes["sat"] = 99 },
		"budget > unknown":    func(r *Report) { r.Solver.Outcomes["budget_exhausted"] = 3 },
		"truncated > unknown": func(r *Report) { r.Solver.TruncatedUnknown = 7 },
		"paths grew":          func(r *Report) { r.Paths.PossibleLog10After = 9 },
		// The store section's identities.
		"warmed > loaded":     func(r *Report) { r.Store = &StoreReport{Warmed: 3, SnapshotReads: 3} },
		"warmed, no reads":    func(r *Report) { r.Journal.Loaded, r.Store = 3, &StoreReport{Warmed: 3} },
		"committed, no txn":   func(r *Report) { r.Store = &StoreReport{Committed: 2, FileBytes: 400} },
		"txn into empty file": func(r *Report) { r.Store = &StoreReport{Committed: 2, Commits: 1} },
		"invalidated, no txn": func(r *Report) { r.Store = &StoreReport{Invalidated: 1, FileBytes: 400} },
		// The reuse break-even.
		"negative source":    func(r *Report) { r.Journal.SourceNS = -1 },
		"negative breakeven": func(r *Report) { r.Journal.BreakevenNSPerQuery = -0.5 },
		// The regress section's identities, and the counts it repeats.
		"regress part missing":    func(r *Report) { regressed(r).Delta = nil },
		"rebase imbalance":        func(r *Report) { regressed(r).Rebase.Retained++ },
		"templates added":         func(r *Report) { regressed(r).Templates.Added++ },
		"templates retired":       func(r *Report) { regressed(r).Templates.Retired++ },
		"live != solved":          func(r *Report) { regressed(r).Queries.Live++ },
		"journal_hits != hits":    func(r *Report) { regressed(r).Queries.JournalHits++ },
		"regress without solver":  func(r *Report) { regressed(r); r.Solver = nil },
		"regress without journal": func(r *Report) { regressed(r); r.Journal = nil },
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

	// A regression: 20 queries solved live, 60 answered by the baseline.
	r = good()
	g := regressed(r)
	if err := r.Validate(); err != nil {
		t.Fatalf("valid regress report rejected: %v", err)
	}
	if g.Queries.Reuse != 0.75 {
		t.Fatalf("reuse %g of %+v, want 0.75", g.Queries.Reuse, g.Queries)
	}

	// Truncated runs may legitimately have zero templates.
	r = good()
	r.Paths.Templates = 0
	r.Paths.Truncated = true
	if err := r.Validate(); err != nil {
		t.Fatalf("truncated zero-template report rejected: %v", err)
	}
}

// regressed gives r a valid regress section, consistent with its solver
// and journal sections, and returns it.
func regressed(r *Report) *RegressReport {
	r.Journal.Hits = 60
	r.Regress = &RegressReport{
		Delta:     &DeltaReport{TablesChanged: []string{"acl"}, EntriesModified: 1},
		Rebase:    &RebaseStats{Baseline: 70, Retained: 60, Invalidated: 10},
		Templates: &TemplateReport{Baseline: 10, Current: 10, Added: 2, Retired: 2, Unchanged: 8},
		Queries:   NewQueryReport(r.Solver.Solved, 60),
	}
	return r.Regress
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
	// One reader: a file of any other schema is refused, naming it.
	for _, tc := range []struct{ name, data, want string }{
		{"malformed JSON", "{", "parse report"},
		{"unknown schema", `{"schema":"x"}`, `"x"`},
		{"regress report", `{"schema":"meissa.regress-report/v1","wall_ns":5,"delta":{},"journal":{},"templates":{},"queries":{}}`,
			`"meissa.regress-report/v1"`},
		{"run report v2", `{"schema":"meissa.run-report/v2","wall_ns":100,"phases":[{"name":"drive","ns":100}]}`,
			`"meissa.run-report/v2"`},
	} {
		if _, err := ParseReport([]byte(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseReport = %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}

func TestLogLevels(t *testing.T) {
	var buf bytes.Buffer
	prev := setLogWriter(&buf)
	defer setLogWriter(prev)
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

// TestServeDebug: the debug server answers pprof, and nothing else.
func TestServeDebug(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/debug/pprof/", "goroutine", http.StatusOK},
		{"/metrics", "", http.StatusNotFound},
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

// setLogWriter redirects log output and returns the previous writer.
func setLogWriter(w io.Writer) io.Writer {
	logMu.Lock()
	defer logMu.Unlock()
	prev := logW
	logW = w
	return prev
}
