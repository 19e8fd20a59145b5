package summary

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/programs"
	"repro/internal/sym"
)

// BenchmarkAblationSummaryParts compares §3.3's two mechanisms: intra-
// pipeline elimination alone, and with public pre-condition filtering, in
// the generation meissa.Generate runs on gw-3/set-2.
func BenchmarkAblationSummaryParts(b *testing.B) {
	p := programs.GW(3, programs.Set2)
	for _, pre := range []bool{true, false} {
		name := "with-preconditions"
		if !pre {
			name = "intra-only"
		}
		b.Run(name, func(b *testing.B) {
			var g *cfg.Graph
			var checks uint64
			var templates int
			for i := 0; i < b.N; i++ {
				var err error
				if g, err = cfg.Build(p.Prog, p.Rules); err != nil {
					b.Fatal(err)
				}
				o := sym.DefaultOptions()
				o.WantModels = false
				stats, err := Summarize(g, Options{Sym: o, UsePreconditions: pre})
				if err != nil {
					b.Fatal(err)
				}
				o.WantModels = true
				res, err := sym.Explore(sym.Config{Graph: g, Start: cfg.None, Options: o})
				if err != nil {
					b.Fatal(err)
				}
				checks, templates = stats.SMT.Checks+res.SMT.Checks, len(res.Templates)
			}
			b.ReportMetric(float64(checks), "smt-calls")
			b.ReportMetric(float64(templates), "templates")
			b.ReportMetric(g.PossiblePathsLog10(), "log10-paths")
		})
	}
}
