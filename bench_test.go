package meissa_test

// Benchmark harness: the code summary figures (Fig. 11, Fig. 12) as
// testing.B benchmarks for profiling, parallel scaling, an end-to-end run,
// and ablation benches for the design choices DESIGN.md calls out. Run
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

// genWith runs one full generation and reports custom metrics.
func genWith(b *testing.B, p *programs.Program, opts meissa.Options) *meissa.GenResult {
	b.Helper()
	sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		b.Fatal(err)
	}
	return gen
}

func benchGenerate(b *testing.B, p *programs.Program, opts meissa.Options) {
	var last *meissa.GenResult
	for i := 0; i < b.N; i++ {
		last = genWith(b, p, opts)
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
	base := genWith(b, p, seqOpts)
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
				last = genWith(b, p, opts)
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
			opts := meissa.DefaultOptions()
			opts.CodeSummary = false
			benchGenerate(b, p, opts)
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
			opts := meissa.DefaultOptions()
			opts.CodeSummary = false
			benchGenerate(b, p, opts)
		})
	}
}

// --- End-to-end: generation + driver against the software target ---

func BenchmarkEndToEndTest(b *testing.B) {
	p := programs.GW(2, programs.Set2)
	sys, err := meissa.New(p.Prog, p.Rules, nil, meissa.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		b.Fatal(err)
	}
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

// --- Ablations (DESIGN.md) ---

// Early termination on/off (§3.2 path pruning).
func BenchmarkAblationEarlyTermination(b *testing.B) {
	p := programs.GW(3, programs.Set2)
	for _, et := range []bool{true, false} {
		name := "on"
		if !et {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			opts := meissa.DefaultOptions()
			opts.EarlyTermination = et
			benchGenerate(b, p, opts)
		})
	}
}

// Incremental solving on/off (push/pop state reuse, §3.2).
func BenchmarkAblationIncrementalSolve(b *testing.B) {
	p := programs.GW(3, programs.Set2)
	for _, inc := range []bool{true, false} {
		name := "on"
		if !inc {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			opts := meissa.DefaultOptions()
			opts.IncrementalSolving = inc
			benchGenerate(b, p, opts)
		})
	}
}

// Intra-pipeline elimination only vs with public pre-condition filtering
// (§3.3's two mechanisms).
func BenchmarkAblationSummaryParts(b *testing.B) {
	p := programs.GW(3, programs.Set2)
	for _, pre := range []bool{true, false} {
		name := "with-preconditions"
		if !pre {
			name = "intra-only"
		}
		b.Run(name, func(b *testing.B) {
			opts := meissa.DefaultOptions()
			opts.UsePreconditions = pre
			benchGenerate(b, p, opts)
		})
	}
}

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
				opts := meissa.DefaultOptions()
				opts.CodeSummary = withSummary
				opts.SolverOverhead = overhead
				benchGenerate(b, p, opts)
			})
		}
	}
}
