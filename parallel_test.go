package meissa_test

// Differential test for the exploration engine through Generate: on every
// corpus program, with and without code summary, Parallelism ∈ {2, 4, 8}
// must produce a template set byte-identical to one runner's
// (Parallelism: 1) — same paths, constraints, models, final states, hash
// obligations, Dropped flags, ordering and IDs. What pins one runner to the
// plain DFS is internal/sym's reference_test.go, which this package cannot
// see.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	meissa "repro"
	"repro/internal/expr"
	"repro/internal/programs"
	"repro/internal/sym"
)

// renderTemplates is a deterministic byte-comparable rendering (the final
// state's bound slots and the model sorted by variable name; everything else
// in stored order).
func renderTemplates(ts []*sym.Template) string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "#%d path=%v dropped=%v uncertain=%v\n", t.ID, t.Path, t.Dropped, t.Uncertain)
		for _, c := range t.Constraints {
			fmt.Fprintf(&b, "  C %s\n", c)
		}
		var fslots []int
		for s, val := range t.Final {
			if val != nil {
				fslots = append(fslots, s)
			}
		}
		sort.Slice(fslots, func(i, j int) bool { return t.Vars[fslots[i]] < t.Vars[fslots[j]] })
		for _, s := range fslots {
			fmt.Fprintf(&b, "  F %s=%s\n", t.Vars[s], t.Final[s])
		}
		var mvars []string
		for v := range t.Model {
			mvars = append(mvars, string(v))
		}
		sort.Strings(mvars)
		for _, v := range mvars {
			fmt.Fprintf(&b, "  M %s=%d\n", v, t.Model[expr.Var(v)])
		}
		for _, ob := range t.HashObligations {
			fmt.Fprintf(&b, "  H %s kind=%v width=%d inputs=%v\n", ob.Var, ob.Kind, ob.Width, ob.Inputs)
		}
	}
	return b.String()
}

func generateAt(t *testing.T, p *programs.Program, codeSummary bool, parallelism int) *meissa.GenResult {
	t.Helper()
	opts := meissa.DefaultOptions()
	opts.CodeSummary = codeSummary
	opts.Parallelism = parallelism
	sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestParallelMatchesSequentialOnCorpus(t *testing.T) {
	for _, p := range programs.All() {
		p := p
		if testing.Short() && p.Name == "gw-4" {
			continue // ~15s across all (P, summary) combinations
		}
		for _, codeSummary := range []bool{true, false} {
			name := fmt.Sprintf("%s/summary=%v", p.Name, codeSummary)
			t.Run(name, func(t *testing.T) {
				seq := generateAt(t, p, codeSummary, 1)
				want := renderTemplates(seq.Templates)
				for _, par := range []int{2, 4, 8} {
					got := generateAt(t, p, codeSummary, par)
					if r := renderTemplates(got.Templates); r != want {
						// Find the first diverging line for a readable failure.
						a, b := strings.Split(want, "\n"), strings.Split(r, "\n")
						line := "?"
						for i := 0; i < len(a) && i < len(b); i++ {
							if a[i] != b[i] {
								line = fmt.Sprintf("line %d:\n  seq: %s\n  par: %s", i, a[i], b[i])
								break
							}
						}
						t.Fatalf("P=%d template set differs from sequential (%d vs %d templates); first divergence at %s",
							par, len(seq.Templates), len(got.Templates), line)
					}
					if got.PathsExplored != seq.PathsExplored {
						t.Errorf("P=%d PathsExplored = %d, want %d", par, got.PathsExplored, seq.PathsExplored)
					}
					if got.PrunedPaths != seq.PrunedPaths {
						t.Errorf("P=%d PrunedPaths = %d, want %d", par, got.PrunedPaths, seq.PrunedPaths)
					}
					// SMT-call parity: every runner asks its own solver, so
					// the checks are exactly the sequential run's.
					if got.SMTCalls != seq.SMTCalls || got.SMT.CacheHits != 0 {
						t.Errorf("P=%d SMT calls %d (%d cache hits), want %d and 0",
							par, got.SMTCalls, got.SMT.CacheHits, seq.SMTCalls)
					}
				}
			})
		}
	}
}
