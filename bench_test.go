package meissa_test

// Benchmark harness: the code summary figures (Fig. 11, Fig. 12) as
// testing.B benchmarks for profiling, parallel scaling, an end-to-end run,
// and the solver-cost ablation. The ablations of early termination,
// incremental solving and pre-condition filtering live with the switch
// each turns off, in internal/sym, internal/smt and internal/summary. Run
// with:
//
//	go test -bench=. -benchmem
//
// The absolute numbers reflect this repo's reduced program scales (see
// programs.Base). cmd/meissa-bench prints every table and figure as the
// paper's rows; internal/experiments' TestFig9Marks pins Fig. 9's cells.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	meissa "repro"
	"repro/internal/programs"
	"repro/internal/switchsim"
)

func benchGenerate(b *testing.B, p *programs.Program, opts meissa.Options) {
	var last *meissa.GenResult
	for i := 0; i < b.N; i++ {
		last = run{p: p, opts: opts}.gen(b)
	}
	b.ReportMetric(float64(last.SMTCalls), "smt-calls")
	b.ReportMetric(float64(len(last.Templates)), "templates")
	b.ReportMetric(last.PossiblePathsLog10After, "log10-paths")
}

// --- Parallel exploration scaling ---

// BenchmarkParallelScaling measures the frontier-splitting engine on the
// largest corpus program at P = 1/2/4/NCPU. The speedup metric is
// wall-clock time at P=1 divided by time at P (≈P on idle multi-core
// hardware; ~1 when GOMAXPROCS=1). smt-calls must stay within ±10% of
// sequential; cache-hits and pruned-paths expose where the time goes.
func BenchmarkParallelScaling(b *testing.B) {
	p := programs.GW(3, programs.Set3)

	seqOpts := meissa.DefaultOptions()
	seqOpts.Parallelism = 1
	start := time.Now()
	base := run{p: p, opts: seqOpts}.gen(b)
	baseline := time.Since(start)

	ps := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		ps = append(ps, n)
	}
	for _, par := range ps {
		par := par
		b.Run(fmt.Sprintf("P=%d", par), func(b *testing.B) {
			opts := meissa.DefaultOptions()
			opts.Parallelism = par
			var last *meissa.GenResult
			start := time.Now()
			for i := 0; i < b.N; i++ {
				last = run{p: p, opts: opts}.gen(b)
			}
			perOp := time.Since(start) / time.Duration(b.N)
			if len(last.Templates) != len(base.Templates) {
				b.Fatalf("P=%d produced %d templates, sequential %d",
					par, len(last.Templates), len(base.Templates))
			}
			b.ReportMetric(float64(baseline)/float64(perOp), "speedup")
			b.ReportMetric(float64(last.SMTCalls), "smt-calls")
			b.ReportMetric(float64(last.PrunedPaths), "pruned-paths")
		})
	}
}

// --- Fig. 11: code summary effectiveness across programs ---
// Panel (a) is the benchmark time; panels (b) and (c) are the smt-calls
// and log10-paths metrics.

func BenchmarkFig11WithSummary(b *testing.B) {
	for n := 1; n <= 4; n++ {
		p := programs.GW(n, programs.RuleScale(n))
		b.Run(p.Name, func(b *testing.B) {
			benchGenerate(b, p, meissa.DefaultOptions())
		})
	}
}

func BenchmarkFig11WithoutSummary(b *testing.B) {
	for n := 1; n <= 4; n++ {
		p := programs.GW(n, programs.RuleScale(n))
		b.Run(p.Name, func(b *testing.B) {
			benchGenerate(b, p, meissa.Options{NoSummary: true})
		})
	}
}

// --- Fig. 12: code summary effectiveness across rule sets (gw-4) ---

func BenchmarkFig12WithSummary(b *testing.B) {
	for _, set := range []programs.RuleScale{programs.Set1, programs.Set2, programs.Set3, programs.Set4} {
		p := programs.GW(4, set)
		b.Run(set.String(), func(b *testing.B) {
			benchGenerate(b, p, meissa.DefaultOptions())
		})
	}
}

func BenchmarkFig12WithoutSummary(b *testing.B) {
	for _, set := range []programs.RuleScale{programs.Set1, programs.Set2, programs.Set3, programs.Set4} {
		p := programs.GW(4, set)
		b.Run(set.String(), func(b *testing.B) {
			benchGenerate(b, p, meissa.Options{NoSummary: true})
		})
	}
}

// --- End-to-end: generation + driver against the software target ---

func BenchmarkEndToEndTest(b *testing.B) {
	p := programs.GW(2, programs.Set2)
	sys, gen := run{p: p, opts: meissa.DefaultOptions()}.generate(b)
	target, err := switchsim.Compile(p.Prog, p.Rules, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.TestTarget(target, gen)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed != 0 {
			b.Fatal("unexpected failures")
		}
	}
	b.ReportMetric(float64(len(gen.Templates)), "cases")
}

// --- Ablation (DESIGN.md) ---

// Solver-cost sensitivity: the paper drove Z3 over IPC (~1ms/query); our
// embedded solver answers in ~30µs, which mutes the wall-clock benefit of
// reducing SMT calls. Emulating per-query overhead restores the paper's
// Fig. 11a time ratios from the (reproduced) Fig. 11b call ratios.
func BenchmarkAblationSolverCost(b *testing.B) {
	p := programs.GW(3, programs.Set2)
	for _, overhead := range []time.Duration{0, 200 * time.Microsecond} {
		for _, withSummary := range []bool{true, false} {
			name := "native"
			if overhead > 0 {
				name = "emulated-ipc"
			}
			if withSummary {
				name += "/with-summary"
			} else {
				name += "/without-summary"
			}
			b.Run(name, func(b *testing.B) {
				benchGenerate(b, p, meissa.Options{NoSummary: !withSummary, SolverOverhead: overhead})
			})
		}
	}
}
