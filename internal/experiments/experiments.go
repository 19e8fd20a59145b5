// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 1 (program inventory), Fig. 9 (generation time
// across programs and tools), Fig. 10 (time under growing rule sets),
// Fig. 11a–c (code summary effectiveness across programs), Fig. 12a–c
// (code summary effectiveness across rule sets), and Table 2 (bug
// detection matrix). The same harness backs cmd/meissa-bench and the
// testing.B benchmarks in bench_test.go.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	meissa "repro"
	"repro/internal/baselines"
	"repro/internal/bugs"
	"repro/internal/programs"
)

// Budget bounds each individual tool run, standing in for the paper's
// one-hour verification budget at our reduced program scale.
var Budget = 120 * time.Second

// Parallelism is the exploration worker count used for Meissa runs
// (0 = GOMAXPROCS, 1 = one runner on the root unit). Baselines model
// single-threaded tools and always run sequentially.
var Parallelism int

// --- Table 1 ---

// Table1Row is one program inventory line.
type Table1Row struct {
	Name     string
	Desc     string
	LOC      int
	RuleLOC  int
	Pipes    int
	Switches int
}

// Table1 builds the corpus inventory.
func Table1() []Table1Row {
	var out []Table1Row
	for _, p := range programs.All() {
		out = append(out, Table1Row{
			Name: p.Name, Desc: p.Description, LOC: p.LOC(),
			RuleLOC: p.Rules.LOC(), Pipes: p.Pipes, Switches: p.Switches,
		})
	}
	return out
}

// WriteTable1 renders Table 1.
func WriteTable1(w io.Writer) {
	fmt.Fprintf(w, "%-10s %5s %6s %6s %9s  %s\n", "Name", "LOC", "rules", "pipes", "switches", "description")
	for _, r := range Table1() {
		fmt.Fprintf(w, "%-10s %5d %6d %6d %9d  %s\n", r.Name, r.LOC, r.RuleLOC, r.Pipes, r.Switches, r.Desc)
	}
}

// --- Fig. 9 ---

// ToolResult is one program × tool cell.
type ToolResult struct {
	Tool      string
	Duration  time.Duration
	SMTCalls  uint64
	Templates int
	// PrunedPaths counts prefixes cut by early termination (only Meissa
	// populates it).
	PrunedPaths uint64
	// Timeout and Unsupported reproduce the ◦ and × marks of Fig. 9.
	Timeout     bool
	Unsupported bool
}

// Fig9Row is one program's results across all tools.
type Fig9Row struct {
	Program string
	Results []ToolResult
}

// RunMeissa measures Meissa's generation time on a program.
func RunMeissa(p *programs.Program) (ToolResult, error) {
	opts := meissa.DefaultOptions()
	opts.Deadline = Budget
	opts.Parallelism = Parallelism
	sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
	if err != nil {
		return ToolResult{}, err
	}
	gen, err := sys.Generate()
	if err != nil {
		return ToolResult{}, err
	}
	return ToolResult{
		Tool: "Meissa", Duration: gen.Duration, SMTCalls: gen.SMTCalls,
		Templates: len(gen.Templates), Timeout: gen.Truncated,
		PrunedPaths: gen.PrunedPaths,
	}, nil
}

// RunBaseline measures one baseline tool on a program.
func RunBaseline(tool baselines.Generator, p *programs.Program) ToolResult {
	stats, _, err := tool.Generate(p.Prog, p.Rules, Budget)
	switch {
	case err == nil:
		return ToolResult{Tool: tool.Name(), Duration: stats.Duration, SMTCalls: stats.SMTCalls, Templates: stats.Templates}
	case strings.Contains(err.Error(), "not supported"):
		return ToolResult{Tool: tool.Name(), Unsupported: true}
	case strings.Contains(err.Error(), "budget"):
		return ToolResult{Tool: tool.Name(), Timeout: true}
	default:
		return ToolResult{Tool: tool.Name(), Unsupported: true}
	}
}

// Fig9 runs all tools on all corpus programs.
func Fig9() ([]Fig9Row, error) {
	tools := []baselines.Generator{baselines.Aquila{}, baselines.P4Pktgen{}, baselines.Gauntlet{}}
	var rows []Fig9Row
	for _, p := range programs.All() {
		row := Fig9Row{Program: p.Name}
		m, err := RunMeissa(p)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", p.Name, err)
		}
		row.Results = append(row.Results, m)
		for _, tool := range tools {
			row.Results = append(row.Results, RunBaseline(tool, p))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteFig9 renders Fig. 9 as the paper's series: one column per tool,
// ◦ for timeout, × for no-support, plus Meissa's pruning counter so the
// perf trajectory is visible in the bench logs.
func WriteFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %8s\n",
		"Program", "Meissa", "Aquila", "p4pktgen", "Gauntlet", "pruned")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Program)
		var meissa ToolResult
		for _, res := range r.Results {
			if res.Tool == "Meissa" {
				meissa = res
			}
			switch {
			case res.Unsupported:
				fmt.Fprintf(w, " %12s", "x")
			case res.Timeout:
				fmt.Fprintf(w, " %12s", "o (timeout)")
			default:
				fmt.Fprintf(w, " %12s", res.Duration.Round(time.Millisecond))
			}
		}
		fmt.Fprintf(w, " %8d\n", meissa.PrunedPaths)
	}
}

// --- Fig. 10 ---

// Fig10Row is one (program, rule set) × {Meissa, Aquila} measurement.
type Fig10Row struct {
	Program string
	Set     programs.RuleScale
	Meissa  ToolResult
	Aquila  ToolResult
}

// Fig10 varies the rule set on gw-1 and gw-2 ("Because Gauntlet and
// p4pktgen cannot handle custom table rule sets and Aquila runs out of
// time on gw-3 and gw-4, we use gw-1 and gw-2 in this experiment").
func Fig10() ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, n := range []int{1, 2} {
		for _, set := range []programs.RuleScale{programs.Set1, programs.Set2, programs.Set3, programs.Set4} {
			p := programs.GW(n, set)
			m, err := RunMeissa(p)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s %s: %w", p.Name, set, err)
			}
			a := RunBaseline(baselines.Aquila{}, p)
			rows = append(rows, Fig10Row{Program: p.Name, Set: set, Meissa: m, Aquila: a})
		}
	}
	return rows, nil
}

// WriteFig10 renders Fig. 10.
func WriteFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "%-6s %-6s %12s %12s\n", "prog", "set", "Meissa", "Aquila")
	for _, r := range rows {
		a := r.Aquila.Duration.Round(time.Millisecond).String()
		if r.Aquila.Timeout {
			a = "o (timeout)"
		}
		fmt.Fprintf(w, "%-6s %-6s %12s %12s\n", r.Program, r.Set, r.Meissa.Duration.Round(time.Millisecond), a)
	}
}

// --- Fig. 11 / Fig. 12 ---

// SummaryEffect is one w/-vs-w/o code summary measurement: the three
// panels (a) running time, (b) SMT calls, (c) possible paths (log10).
type SummaryEffect struct {
	Label          string
	TimeWith       time.Duration
	TimeWithout    time.Duration
	SMTWith        uint64
	SMTWithout     uint64
	PathsWith      float64 // log10 of possible paths after summary
	PathsWithout   float64 // log10 of possible paths of the original CFG
	Templates      int
	TimeoutWith    bool
	TimeoutWithout bool
}

// MeasureSummaryEffect runs a program with and without code summary.
func MeasureSummaryEffect(p *programs.Program, label string) (SummaryEffect, error) {
	eff := SummaryEffect{Label: label}
	for _, withSummary := range []bool{true, false} {
		opts := meissa.DefaultOptions()
		opts.CodeSummary = withSummary
		opts.Deadline = Budget
		opts.Parallelism = Parallelism
		sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
		if err != nil {
			return eff, err
		}
		gen, err := sys.Generate()
		if err != nil {
			return eff, err
		}
		if withSummary {
			eff.TimeWith = gen.Duration
			eff.SMTWith = gen.SMTCalls
			eff.PathsWith = gen.PossiblePathsLog10After
			eff.Templates = len(gen.Templates)
			eff.TimeoutWith = gen.Truncated
		} else {
			eff.TimeWithout = gen.Duration
			eff.SMTWithout = gen.SMTCalls
			eff.PathsWithout = gen.PossiblePathsLog10After
			eff.TimeoutWithout = gen.Truncated
		}
	}
	return eff, nil
}

// Fig11 measures code summary effectiveness on gw-1..gw-4 (each at its
// Fig. 9 rule scale).
func Fig11() ([]SummaryEffect, error) {
	var out []SummaryEffect
	for n := 1; n <= 4; n++ {
		p := programs.GW(n, programs.RuleScale(n))
		eff, err := MeasureSummaryEffect(p, p.Name)
		if err != nil {
			return nil, fmt.Errorf("fig11 gw-%d: %w", n, err)
		}
		out = append(out, eff)
	}
	return out, nil
}

// Fig12 measures code summary effectiveness on gw-4 across set-1..set-4.
func Fig12() ([]SummaryEffect, error) {
	var out []SummaryEffect
	for _, set := range []programs.RuleScale{programs.Set1, programs.Set2, programs.Set3, programs.Set4} {
		p := programs.GW(4, set)
		eff, err := MeasureSummaryEffect(p, set.String())
		if err != nil {
			return nil, fmt.Errorf("fig12 %s: %w", set, err)
		}
		out = append(out, eff)
	}
	return out, nil
}

// WriteSummaryEffects renders the three panels.
func WriteSummaryEffects(w io.Writer, title string, effs []SummaryEffect) {
	fmt.Fprintf(w, "--- %s ---\n", title)
	fmt.Fprintf(w, "%-8s | %12s %12s | %10s %10s | %9s %9s\n",
		"", "time w/", "time w/o", "SMT w/", "SMT w/o", "log10 w/", "log10 w/o")
	for _, e := range effs {
		tw := e.TimeWith.Round(time.Millisecond).String()
		two := e.TimeWithout.Round(time.Millisecond).String()
		if e.TimeoutWith {
			tw = "o"
		}
		if e.TimeoutWithout {
			two = "o"
		}
		fmt.Fprintf(w, "%-8s | %12s %12s | %10d %10d | %9.1f %9.1f\n",
			e.Label, tw, two, e.SMTWith, e.SMTWithout, e.PathsWith, e.PathsWithout)
	}
}

// --- Table 2 ---

// WriteTable2 runs the bug matrix and renders it.
func WriteTable2(w io.Writer) error {
	rows, err := bugs.RunAll()
	if err != nil {
		return err
	}
	mark := func(d bugs.Detection) string {
		if d.Detected {
			return "Y"
		}
		return "."
	}
	fmt.Fprintf(w, "%3s %-55s %-8s %6s %8s %4s %8s %6s\n", "idx", "bug", "type", "Meissa", "p4pktgen", "PTA", "Gauntlet", "Aquila")
	for _, r := range rows {
		fmt.Fprintf(w, "%3d %-55s %-8s %6s %8s %4s %8s %6s\n",
			r.Scenario.Index, r.Scenario.Name, r.Scenario.Kind,
			mark(r.Meissa), mark(r.P4Pktgen), mark(r.PTA), mark(r.Gauntlet), mark(r.Aquila))
	}
	return nil
}
