package smt_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/programs"
	"repro/internal/summary"
	"repro/internal/sym"
)

// BenchmarkAblationIncrementalSolve turns push/pop state reuse (§3.2) off
// in the generation meissa.Generate runs on gw-3/set-2: summarization,
// then the final pass.
func BenchmarkAblationIncrementalSolve(b *testing.B) {
	for _, inc := range []bool{true, false} {
		name := "on"
		if !inc {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			o := sym.DefaultOptions()
			o.Solver.Incremental = inc
			benchGenerate(b, o)
		})
	}
}

// benchGenerate runs cfg.Build, summary.Summarize and sym.Explore on
// gw-3/set-2 under o, as meissa.Generate does under its zero Options.
func benchGenerate(b *testing.B, o sym.Options) {
	p := programs.GW(3, programs.Set2)
	var g *cfg.Graph
	var checks uint64
	var templates int
	for i := 0; i < b.N; i++ {
		var err error
		if g, err = cfg.Build(p.Prog, p.Rules); err != nil {
			b.Fatal(err)
		}
		so := o
		so.WantModels = false
		stats, err := summary.Summarize(g, summary.Options{Sym: so, UsePreconditions: true})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sym.Explore(sym.Config{Graph: g, Start: cfg.None, Options: o})
		if err != nil {
			b.Fatal(err)
		}
		checks, templates = stats.SMT.Checks+res.SMT.Checks, len(res.Templates)
	}
	b.ReportMetric(float64(checks), "smt-calls")
	b.ReportMetric(float64(templates), "templates")
	b.ReportMetric(g.PossiblePathsLog10(), "log10-paths")
}
