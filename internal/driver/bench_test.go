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

// TestDriveAllocsPerVerdict counts the allocations a steady-state gw-4
// loopback suite makes per verdict — the template cache warm, as in the
// drive-gw4-loopback benchmark — with no clock in the assertion. Captures
// are decoded into a reused slot arena and checked slot by slot, and the
// target deparses into the loopback's arena, so what is left is the case
// with its packets, its wire, and the outcome (3.1 a verdict; 7.7 while
// the target gave each packet a result and a wire, 21.7 when captures
// were parsed into per-header maps).
func TestDriveAllocsPerVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("gw-4 generation")
	}
	p := programs.GW(4, programs.Set4)
	e := explore(t, p.Prog, p.Rules)
	target, err := switchsim.Compile(p.Prog, p.Rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := New(p.Prog, e.graph, NewLoopback(target), nil)
	run := func() {
		rep, err := d.RunTemplates(e.templates)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Passed != len(e.templates) {
			t.Fatalf("clean loopback: %s", rep.Summary())
		}
	}
	run() // fill the template cache
	perVerdict := testing.AllocsPerRun(3, run) / float64(len(e.templates))
	t.Logf("%.2f allocations per verdict over %d verdicts", perVerdict, len(e.templates))
	if perVerdict > 3.4 {
		t.Errorf("%.2f allocations per verdict, ceiling 3.4", perVerdict)
	}
}
