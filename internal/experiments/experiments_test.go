package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/rules"
	"repro/internal/sym"
)

func TestTable1ShapesMatchPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Pipeline/switch topology is Table 1's hard data.
	checks := []struct {
		name            string
		pipes, switches int
	}{
		{"Router", 1, 1}, {"mTag", 1, 1}, {"ACL", 1, 1}, {"switch.p4", 1, 1},
		{"gw-1", 1, 1}, {"gw-2", 2, 1}, {"gw-3", 4, 1}, {"gw-4", 8, 2},
	}
	for _, c := range checks {
		r, ok := byName[c.name]
		if !ok {
			t.Fatalf("missing %s", c.name)
		}
		if r.Pipes != c.pipes || r.Switches != c.switches {
			t.Errorf("%s: %d pipes / %d switches, want %d / %d", c.name, r.Pipes, r.Switches, c.pipes, c.switches)
		}
	}
	// Rule-set sizes grow along the gw series.
	if !(byName["gw-1"].RuleLOC < byName["gw-2"].RuleLOC &&
		byName["gw-2"].RuleLOC < byName["gw-3"].RuleLOC &&
		byName["gw-3"].RuleLOC < byName["gw-4"].RuleLOC) {
		t.Error("gw rule sets must grow with the program index")
	}
}

// TestFig10ShapeMeissaBeatsAquila asserts Fig. 10's shape on counted work,
// not on its single-shot ms-scale wall-clocks: on every (program, rule
// set) Meissa covers the same valid paths as the verifier with fewer
// solver queries, and the gap widens with the rule set.
func TestFig10ShapeMeissaBeatsAquila(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both tools across 8 configurations")
	}
	rows, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 (2 programs x 4 sets)", len(rows))
	}
	for _, r := range rows {
		if r.Meissa.Timeout {
			t.Errorf("%s/%s: Meissa timed out", r.Program, r.Set)
		}
		if r.Aquila.Timeout {
			continue // a timeout is a win for Meissa
		}
		if r.Meissa.Templates != r.Aquila.Templates {
			t.Errorf("%s/%s: Meissa covers %d valid paths, Aquila %d",
				r.Program, r.Set, r.Meissa.Templates, r.Aquila.Templates)
		}
		if r.Meissa.SMTCalls >= r.Aquila.SMTCalls {
			t.Errorf("%s/%s: Meissa issued %d solver queries, Aquila %d",
				r.Program, r.Set, r.Meissa.SMTCalls, r.Aquila.SMTCalls)
		}
	}
	// The advantage grows with the rule set (the Fig. 10 trend): compare
	// each program's first and last set ratios.
	for _, pair := range [][2]int{{0, 3}, {4, 7}} {
		first, last := rows[pair[0]], rows[pair[1]]
		if first.Program != last.Program || first.Set != programs.Set1 || last.Set != programs.Set4 {
			t.Fatalf("unexpected row order: %+v", rows)
		}
		if first.Aquila.Timeout || last.Aquila.Timeout {
			continue
		}
		r1 := float64(first.Aquila.SMTCalls) / float64(first.Meissa.SMTCalls)
		r4 := float64(last.Aquila.SMTCalls) / float64(last.Meissa.SMTCalls)
		if r4 <= r1 {
			t.Errorf("%s: query advantage did not grow with the rule set (%.1fx -> %.1fx)", first.Program, r1, r4)
		}
	}
}

func TestSummaryEffectShape(t *testing.T) {
	if testing.Short() {
		t.Skip("generates gw-3 twice")
	}
	p := programs.GW(3, programs.Set2)
	eff, err := MeasureSummaryEffect(p, "gw-3")
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 11b: fewer SMT calls with summary on a multi-pipeline program.
	if eff.SMTWith >= eff.SMTWithout {
		t.Errorf("SMT calls with summary (%d) not below without (%d)", eff.SMTWith, eff.SMTWithout)
	}
	// Fig. 11c: orders of magnitude fewer possible paths.
	if eff.PathsWith+2 > eff.PathsWithout {
		t.Errorf("possible paths: 10^%.1f with vs 10^%.1f without — want >= 2 orders of magnitude",
			eff.PathsWith, eff.PathsWithout)
	}
	if eff.Templates == 0 {
		t.Error("no templates")
	}
}

func TestWriteRenderers(t *testing.T) {
	var b strings.Builder
	WriteTable1(&b)
	out := b.String()
	for _, want := range []string{"Router", "gw-4", "switches"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}

	b.Reset()
	WriteFig9(&b, []Fig9Row{{
		Program: "demo",
		Results: []ToolResult{
			{Tool: "Meissa", Duration: time.Second},
			{Tool: "Aquila", Timeout: true},
			{Tool: "p4pktgen", Unsupported: true},
			{Tool: "Gauntlet", Unsupported: true},
		},
	}})
	out = b.String()
	if !strings.Contains(out, " o ") || !strings.Contains(out, " x ") {
		t.Errorf("Fig 9 output missing the o/x marks:\n%s", out)
	}

	b.Reset()
	WriteFig10(&b, []Fig10Row{{
		Program: "demo", Set: programs.Set1,
		Meissa: ToolResult{Tool: "Meissa", Duration: time.Second, Timeout: true},
		Aquila: ToolResult{Tool: "Aquila", Duration: time.Second},
	}})
	out = b.String()
	if strings.Count(out, "o (timeout)") != 1 || !strings.Contains(out, "1s") {
		t.Errorf("Fig 10 output does not mark exactly the truncated Meissa cell:\n%s", out)
	}

	b.Reset()
	WriteSummaryEffects(&b, "demo", []SummaryEffect{{
		Label: "gw-9", TimeWith: time.Millisecond, TimeWithout: 2 * time.Millisecond,
		SMTWith: 10, SMTWithout: 20, PathsWith: 2, PathsWithout: 8,
	}})
	if !strings.Contains(b.String(), "gw-9") {
		t.Error("summary effects output missing the label")
	}
}

// brokenTool is a Generator whose run fails for a reason that is neither
// of the two marks.
type brokenTool struct{}

func (brokenTool) Name() string { return "broken" }

func (brokenTool) Generate(*p4.Program, *rules.Set, uint64) (*baselines.GenStats, []*sym.Template, error) {
	return nil, nil, errors.New("cfg: dangling node")
}

// TestRunBaselineFailsOnBrokenTool: an error other than ErrUnsupported or
// ErrTimeout fails the run instead of reading as a × cell.
func TestRunBaselineFailsOnBrokenTool(t *testing.T) {
	r, err := RunBaseline(brokenTool{}, programs.Router())
	if err == nil || !strings.Contains(err.Error(), "cfg: dangling node") {
		t.Fatalf("RunBaseline = %+v, %v; want the tool's error", r, err)
	}
}

// classes renders a Fig. 9 row as its cells' classes in column order: t
// for a time, o for a run past Budget, x for an unsupported program.
func classes(r Fig9Row) string {
	out := r.Program
	for _, res := range r.Results {
		switch {
		case res.Unsupported:
			out += " x"
		case res.Timeout:
			out += " o"
		default:
			out += " t"
		}
	}
	return out
}

// TestFig9Marks pins every Fig. 9 cell's class (columns Meissa, Aquila,
// p4pktgen, Gauntlet) under the counted budget, so the marks are the same
// on every host: at Budget no run reaches ◦, and the × marks of the
// production programs reproduce the paper's. Meissa's counted work is the
// same at Parallelism 2 as at 1. A budget of 1 000 takes the ◦ path on
// both Meissa and the baselines. About 13 s, mostly Aquila's gw-4 VC loop.
func TestFig9Marks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every tool on every corpus program")
	}
	oldBudget, oldPar := Budget, Parallelism
	defer func() { Budget, Parallelism = oldBudget, oldPar }()
	check := func(rows []Fig9Row, want []string) {
		t.Helper()
		if len(rows) != len(want) {
			t.Fatalf("%d rows, want %d", len(rows), len(want))
		}
		for i, r := range rows {
			if got := classes(r); got != want[i] {
				t.Errorf("budget %d: cells %q, want %q", Budget, got, want[i])
			}
		}
	}

	Parallelism = 1
	rows, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	check(rows, []string{
		"Router t t t t", "mTag t t t t", "ACL t t t t", "switch.p4 t t t t",
		"gw-1 t t x x", "gw-2 t t x x", "gw-3 t t x x", "gw-4 t t x x",
	})

	Parallelism = 2
	for i, p := range programs.All() {
		m, err := RunMeissa(p)
		if err != nil {
			t.Fatal(err)
		}
		seq := rows[i].Results[0]
		if m.Templates != seq.Templates || m.SMTCalls != seq.SMTCalls || m.Descents != seq.Descents {
			t.Errorf("%s: %d templates, %d checks, %d descents at Parallelism 2; %d, %d, %d at 1",
				p.Name, m.Templates, m.SMTCalls, m.Descents, seq.Templates, seq.SMTCalls, seq.Descents)
		}
	}

	Parallelism, Budget = 1, 1000
	rows, err = Fig9()
	if err != nil {
		t.Fatal(err)
	}
	check(rows, []string{
		"Router t o t t", "mTag t t t t", "ACL o o o o", "switch.p4 o o o o",
		"gw-1 t t x x", "gw-2 t o x x", "gw-3 o o x x", "gw-4 o o x x",
	})
}
