package meissa_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/programs"
)

// TestStatsTotalsParallelInvariant pins the accounting contract behind
// the run report: path, prune and total-query counts are EXACTLY equal
// across -parallel settings, not merely close. Sequential mode has no
// verdict cache (every logical query is a solver check); parallel mode
// answers some of those same queries from the shared cache — so
// Checks+CacheHits, never Checks alone, is the parallelism-invariant
// query volume the report exposes as solver.total_queries.
func TestStatsTotalsParallelInvariant(t *testing.T) {
	for _, p := range []*programs.Program{
		corpusProgram(t, "Router"),
		programs.GW(1, programs.Set1),
	} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			seq := generateAt(t, p, true, 1)
			if seq.SMT.CacheHits != 0 {
				t.Fatalf("sequential run used the verdict cache (%d hits); it must not have one", seq.SMT.CacheHits)
			}
			for _, par := range []int{2, 4} {
				got := generateAt(t, p, true, par)
				if got.PathsExplored != seq.PathsExplored {
					t.Errorf("P=%d PathsExplored = %d, want %d", par, got.PathsExplored, seq.PathsExplored)
				}
				if got.PrunedPaths != seq.PrunedPaths {
					t.Errorf("P=%d PrunedPaths = %d, want %d", par, got.PrunedPaths, seq.PrunedPaths)
				}
				if len(got.Templates) != len(seq.Templates) {
					t.Errorf("P=%d templates = %d, want %d", par, len(got.Templates), len(seq.Templates))
				}
				gotTotal := got.SMTCalls + got.SMT.CacheHits
				if gotTotal != seq.SMTCalls {
					t.Errorf("P=%d total queries = %d (checks %d + cache hits %d), want exactly %d",
						par, gotTotal, got.SMTCalls, got.SMT.CacheHits, seq.SMTCalls)
				}
				// The aggregated solver stats must be internally consistent:
				// every solved query has exactly one of the three outcomes,
				// and budget exhaustion is a subset of unknown.
				s := got.SMT
				if s.SatResults+s.UnsatResults+s.Unknowns != s.Checks {
					t.Errorf("P=%d outcome sum %d != checks %d",
						par, s.SatResults+s.UnsatResults+s.Unknowns, s.Checks)
				}
				if s.BudgetExhausted > s.Unknowns {
					t.Errorf("P=%d budget exhausted %d > unknowns %d", par, s.BudgetExhausted, s.Unknowns)
				}
			}
		})
	}
}

// TestRunReportValidates is the in-process metrics smoke test: a real
// generation must produce a run report that passes the same validator the
// CI metrics-smoke job runs on -metrics-out files, and survive a JSON
// round trip through ParseReport.
func TestRunReportValidates(t *testing.T) {
	p := corpusProgram(t, "Router")
	for _, par := range []int{1, 4} {
		gen := generateAt(t, p, true, par)
		rep := gen.Report("gen", p.Name, par)
		rep.Registry = obs.Default().Snapshot()
		if err := rep.Validate(); err != nil {
			t.Fatalf("P=%d report invalid: %v", par, err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		back, err := obs.ParseReport(data)
		if err != nil {
			t.Fatalf("P=%d round trip: %v", par, err)
		}
		if back.Solver.TotalQueries == 0 || back.Paths.Explored == 0 || back.Paths.Templates == 0 {
			t.Fatalf("P=%d round-tripped report lost counts: %+v", par, back)
		}
		for _, name := range []string{"cfg", "summary", "sym"} {
			found := false
			for _, ph := range back.Phases {
				if ph.Name == name && ph.NS > 0 {
					found = true
				}
			}
			if !found {
				t.Fatalf("P=%d report missing phase %q with nonzero duration: %+v", par, name, back.Phases)
			}
		}
		// The final pass's allocation cost is measured in sequential mode
		// only (with workers the MemStats deltas would mix goroutines).
		if measured := back.Paths.FinalMallocs > 0 && back.Paths.FinalAllocBytes > 0; measured != (par == 1) {
			t.Fatalf("P=%d final-pass allocation counts: mallocs=%d bytes=%d",
				par, back.Paths.FinalMallocs, back.Paths.FinalAllocBytes)
		}
	}
}

// TestShardedRunReportStillParses: v2 reports that earlier releases wrote
// with sections this build no longer has still pass ParseReport (and so
// checkmetrics), which ignores those sections — a sharded run's shard and
// fleet sections, a killed worker's flight events among them, the
// daemon section of a request the resident daemon served, the span log
// (registry.spans) and the counters (registry.counters) every registry
// snapshot held. A section is named by its keys from the report's root.
func TestShardedRunReportStillParses(t *testing.T) {
	for _, fx := range []struct {
		file, program string
		sections      [][]string
	}{
		{"testdata/sharded-run-report.json", "gw_1", [][]string{{"shard"}, {"fleet"}}},
		{"testdata/daemon-run-report.json", "gw-1", [][]string{{"daemon"}}},
		{"testdata/spans-run-report.json", "gw_1", [][]string{{"registry", "spans"}, {"registry", "counters"}}},
	} {
		data, err := os.ReadFile(fx.file)
		if err != nil {
			t.Fatal(err)
		}
		for _, section := range fx.sections {
			if !hasSection(data, section...) {
				t.Fatalf("%s lacks its %q section", fx.file, section)
			}
		}
		rep, err := obs.ParseReport(data)
		if err != nil {
			t.Fatalf("%s rejected: %v", fx.file, err)
		}
		// The daemon's request was warm: its queries were all journal hits.
		if rep.Schema != obs.ReportSchema || rep.Program != fx.program || rep.Paths.Templates == 0 ||
			rep.Solver.TotalQueries+rep.Journal.Hits == 0 {
			t.Fatalf("%s lost its counts: %+v", fx.file, rep)
		}
	}
}

// hasSection reports whether the JSON object data holds the section the
// keys lead to.
func hasSection(data []byte, keys ...string) bool {
	for _, k := range keys {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(data, &obj); err != nil {
			return false
		}
		var ok bool
		if data, ok = obj[k]; !ok {
			return false
		}
	}
	return true
}
