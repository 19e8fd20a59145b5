package sym_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/programs"
	"repro/internal/smt"
	"repro/internal/summary"
	"repro/internal/sym"
)

// depGraphs builds, for each program, the raw CFG and the summarized one
// (whose chain nodes carry whole folded paths' tags, all aliasing one
// slice per chain).
func depGraphs(t *testing.T) map[string]*cfg.Graph {
	t.Helper()
	return graphsOf(t, programs.Router(), programs.GW(1, programs.Set1), programs.GW(2, programs.Set2))
}

// graphsOf builds "<name>/raw" and "<name>/summarized" for each program.
func graphsOf(t *testing.T, ps ...*programs.Program) map[string]*cfg.Graph {
	t.Helper()
	out := map[string]*cfg.Graph{}
	for _, p := range ps {
		for _, summarized := range []bool{false, true} {
			g, err := cfg.Build(p.Prog, p.Rules)
			if err != nil {
				t.Fatal(err)
			}
			name := p.Name + "/raw"
			if summarized {
				name = p.Name + "/summarized"
				opts := sym.DefaultOptions()
				opts.Parallelism, opts.WantModels = 1, false
				if _, err := summary.Summarize(g, summary.Options{Sym: opts, UsePreconditions: true}); err != nil {
					t.Fatal(err)
				}
			}
			out[name] = g
		}
	}
	return out
}

// checkDeps is the independent oracle for the executor's dependency
// stack: a template's Deps are the sorted, de-duplicated union of
// Node.Deps over its path, computed here from the graph alone.
func checkDeps(t *testing.T, g *cfg.Graph, mode string, templates []*sym.Template) {
	t.Helper()
	for _, tm := range templates {
		var want []string
		for _, id := range tm.Path {
			want = append(want, g.Node(id).Deps...)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if !slices.Equal(tm.Deps, want) {
			t.Fatalf("%s: template %d (path %v): Deps = %v, want %v", mode, tm.ID, tm.Path, tm.Deps, want)
		}
	}
}

func TestTemplateDepsMatchPathUnion(t *testing.T) {
	for name, g := range depGraphs(t) {
		t.Run(name, func(t *testing.T) {
			opts := sym.DefaultOptions()
			opts.Parallelism = 1
			seq, err := sym.Explore(sym.Config{Graph: g, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.Templates) == 0 {
				t.Fatal("no templates")
			}
			tagged := 0
			for _, tm := range seq.Templates {
				tagged += len(tm.Deps)
			}
			if tagged == 0 {
				t.Fatal("no template carries a dependency tag; the oracle would be vacuous")
			}
			checkDeps(t, g, "sequential", seq.Templates)

			opts.Parallelism = 4
			par, err := sym.Explore(sym.Config{Graph: g, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			if len(par.Templates) != len(seq.Templates) {
				t.Fatalf("Parallelism=4: %d templates, sequential %d", len(par.Templates), len(seq.Templates))
			}
			checkDeps(t, g, "Parallelism=4", par.Templates)

			// Frontier units, each explored twice on one runner: the second
			// run starts from the same unit snapshot the first one used.
			opts.Parallelism = 1
			units := 0
			err = sym.ExploreUnits(sym.Config{Graph: g, Options: opts}, 4, 2, func(i, run int, res *sym.Result) {
				checkDeps(t, g, fmt.Sprintf("unit %d run %d", i, run), res.Templates)
				if run == 1 {
					units += len(res.Templates)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if units != len(seq.Templates) {
				t.Fatalf("frontier units emitted %d templates, sequential %d", units, len(seq.Templates))
			}
		})
	}
}

// maxMallocsPerPath is the allocation gate of the plain exploration path.
// gw-1/set-1's raw graph — 97 explored paths, 9 templates some 40 nodes
// deep, no journal, no verdict cache — measures 497 objects, 5.12 per
// explored path, within a few objects on every run (16.1 before the
// executor's state became slices, 5.31 while a template's final state was a
// map). What is left is per exploration (a fresh solver's memo misses, the
// plan, per-depth batch scratch), per template, or a value a path really
// computes, spread over few paths; gw-4's final pass measures 0.19. One
// allocation per DFS step would add about ten.
const maxMallocsPerPath = 5.3

// TestExploreMallocsPerPath pins that the plain path does not pay for the
// reuse stack (dependency sets for journal and cache, value-stack
// snapshots): per-step state is slices that are appended to and truncated.
func TestExploreMallocsPerPath(t *testing.T) {
	g := depGraphs(t)["gw-1/raw"]
	opts := sym.Options{EarlyTermination: true, Solver: smt.DefaultOptions(), SolverSet: true, Parallelism: 1, WantModels: true}
	explore := func() *sym.Result {
		res, err := sym.Explore(sym.Config{Graph: g, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	explore() // warm the obs registry and the runtime's size classes
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := explore()
	runtime.ReadMemStats(&m1)
	perPath := float64(m1.Mallocs-m0.Mallocs) / float64(res.PathsExplored)
	t.Logf("%d mallocs over %d explored paths: %.2f per path", m1.Mallocs-m0.Mallocs, res.PathsExplored, perPath)
	if perPath > maxMallocsPerPath {
		t.Errorf("sym.Explore allocates %.2f objects per explored path, ceiling %.1f", perPath, maxMallocsPerPath)
	}
}
