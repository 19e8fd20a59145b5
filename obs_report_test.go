package meissa_test

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"testing"

	meissa "repro"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/rulediff"
)

// TestStatsTotalsParallelInvariant pins the accounting contract behind
// the run report: path, prune and solver-check counts are EXACTLY equal
// across -parallel settings, not merely close. No run has a verdict memo,
// so every logical query is a solver check at any worker count, each one
// the report's solver.solved counts.
func TestStatsTotalsParallelInvariant(t *testing.T) {
	for _, p := range []*programs.Program{
		corpusProgram(t, "Router"),
		programs.GW(1, programs.Set1),
	} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			seq := run{p: p, opts: at(1)}.gen(t)
			for _, par := range []int{1, 2, 4} {
				got := run{p: p, opts: at(par)}.gen(t)
				if got.PathsExplored != seq.PathsExplored {
					t.Errorf("P=%d PathsExplored = %d, want %d", par, got.PathsExplored, seq.PathsExplored)
				}
				if got.PrunedPaths != seq.PrunedPaths {
					t.Errorf("P=%d PrunedPaths = %d, want %d", par, got.PrunedPaths, seq.PrunedPaths)
				}
				if len(got.Templates) != len(seq.Templates) {
					t.Errorf("P=%d templates = %d, want %d", par, len(got.Templates), len(seq.Templates))
				}
				if got.SMTCalls != seq.SMTCalls || got.SMT.CacheHits != 0 {
					t.Errorf("P=%d checks = %d (%d cache hits), want exactly %d and 0",
						par, got.SMTCalls, got.SMT.CacheHits, seq.SMTCalls)
				}
				if s := got.Report("gen", p.Name).Solver; s.Solved != seq.SMTCalls {
					t.Errorf("P=%d report solved %d, want %d", par, s.Solved, seq.SMTCalls)
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
				// One latency sample a check, the run's own: the earlier
				// runs in this process are not in it.
				if s.Latency.Count != s.Checks {
					t.Errorf("P=%d latency samples %d != checks %d", par, s.Latency.Count, s.Checks)
				}
			}
		})
	}
}

// TestRunReportValidates is the in-process metrics smoke test: a real
// generation must produce a run report that passes the same validator the
// CI metrics-smoke job runs on -metrics-out files, and survive a JSON
// round trip through ParseReport. Its runs share a process, and each
// report counts its own run's solver latency only.
func TestRunReportValidates(t *testing.T) {
	p := corpusProgram(t, "Router")
	for _, par := range []int{1, 4} {
		gen := run{p: p, opts: at(par)}.gen(t)
		back := roundTrip(t, gen.Report("gen", p.Name))
		if back.Solver.Solved == 0 || back.Paths.Explored == 0 || back.Paths.Templates == 0 {
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

// TestReportOwnsLatency: a run report holds its own copy of the solver's
// latency histogram. Whoever keeps a report keeps nothing of the
// GenResult alive, and a later change to the result leaves the report as
// it was.
func TestReportOwnsLatency(t *testing.T) {
	g := &meissa.GenResult{}
	g.SMT.Latency.Observe(1500)
	rep := g.Report("gen", "gw-1")
	if rep.Solver.LatencyNS == &g.SMT.Latency {
		t.Fatal("the report's latency histogram is the GenResult's")
	}
	want := *rep.Solver.LatencyNS
	g.SMT.Latency.Observe(90000)
	if got := *rep.Solver.LatencyNS; got != want || got.Count != 1 {
		t.Errorf("after the result's histogram changed, the report's reads %+v, want %+v", got, want)
	}
}

// TestRegressReportsPerRun regresses twice in one process from a store,
// as a library caller's loop does: each iteration's run report counts that
// iteration's solver latency only, and its regress section that
// iteration's live queries.
func TestRegressReportsPerRun(t *testing.T) {
	p := corpusProgram(t, "Router")
	opts := at(2)
	opts.StorePath = filepath.Join(t.TempDir(), "verdicts.store")
	run{p: p, opts: opts}.gen(t)
	cur := p.Rules
	for i := 0; i < 2; i++ {
		next, mutated := rulediff.MutateArgs(p.Prog, cur, 1)
		if mutated == 0 {
			t.Fatal("nothing to mutate")
		}
		res, err := run{p: p, rules: next, opts: opts, regress: true}.do()
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		back := roundTrip(t, res.Run)
		if back.Regress == nil || back.Regress.Queries.Live != back.Solver.Solved {
			t.Fatalf("iteration %d: regress section %+v", i, back.Regress)
		}
		if back.Solver.Solved == 0 || back.Solver.Solved != res.Gen.SMTCalls {
			t.Fatalf("iteration %d: report solved %d, run checks %d: want equal and > 0", i, back.Solver.Solved, res.Gen.SMTCalls)
		}
		cur = next
	}
}

// TestReportParallelismIsWorkers: the run report's parallelism is the
// worker count the run explored with, GOMAXPROCS for a requested 0, for a
// generation and a regression alike.
func TestReportParallelismIsWorkers(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	for _, par := range []int{0, 1, 3} {
		want := par
		if par == 0 {
			want = runtime.GOMAXPROCS(0)
		}
		gen := run{p: p, opts: at(par)}.gen(t)
		if gen.Parallelism != want || gen.Report("gen", p.Name).Parallelism != want {
			t.Errorf("Parallelism %d: the run reports %d workers (report %d), want %d",
				par, gen.Parallelism, gen.Report("gen", p.Name).Parallelism, want)
		}
	}
	base := genKey("gw-1", "", 1, "checkpoint")
	opts := at(0)
	opts.Checkpoint = filepath.Join(t.TempDir(), "next.journal")
	res := run{p: p, rules: mustVariant(t, p, "args1"), opts: opts, regress: true, old: p.Rules, baseline: get(t, base).path("checkpoint")}.res(t)
	if got := res.Run.Parallelism; got != runtime.GOMAXPROCS(0) {
		t.Errorf("a regression at Parallelism 0 reports %d workers, want %d", got, runtime.GOMAXPROCS(0))
	}
}

// roundTrip validates rep, passes it through JSON and ParseReport, and
// checks that its latency histogram has one sample a solved query.
func roundTrip(t *testing.T, rep *obs.Report) *obs.Report {
	t.Helper()
	if err := rep.Validate(); err != nil {
		t.Fatalf("%s report invalid: %v", rep.Command, err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseReport(data)
	if err != nil {
		t.Fatalf("%s report round trip: %v", rep.Command, err)
	}
	if lat := back.Solver.LatencyNS; lat == nil || lat.Count != back.Solver.Solved || *lat != *rep.Solver.LatencyNS {
		t.Fatalf("%s report: latency %+v for %d solved queries", rep.Command, lat, back.Solver.Solved)
	}
	return back
}
