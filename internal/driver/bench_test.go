package driver

import (
	"strconv"
	"testing"

	"repro/internal/programs"
	"repro/internal/switchsim"
)

// BenchmarkDriverPipeline measures end-to-end verdict throughput on the
// gw-1 loopback — the paper's smallest production-shaped gateway — as
// the engine's in-flight window sweeps from one case at a time to a full
// burst. The per-iteration cost is one whole suite run.
func BenchmarkDriverPipeline(b *testing.B) {
	p := programs.GW(1, programs.Set1)
	e := explore(b, p.Prog, p.Rules)
	for _, w := range sweepWindows {
		b.Run("window="+strconv.Itoa(w), func(b *testing.B) {
			target, err := switchsim.Compile(p.Prog, p.Rules, nil)
			if err != nil {
				b.Fatal(err)
			}
			d := New(p.Prog, e.graph, NewLoopback(target), nil)
			d.Window = w
			verdicts := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := d.RunTemplates(e.templates)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Failed != 0 || rep.Lost != 0 {
					b.Fatalf("clean loopback produced failures: %s", rep.Summary())
				}
				verdicts += len(rep.Outcomes)
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(verdicts)/b.Elapsed().Seconds(), "verdicts/s")
			}
		})
	}
}
