package sym

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/p4"
)

// batchCases is the shared graph/option table for the sibling-batch
// differential tests: the same shapes the parallel determinism test uses,
// since they exercise wide table fan-out (fig7), early-termination-heavy
// pruning (etSrc), disabled validation, stop-at prefixes, initial
// constraints and hash obligations.
func batchCases() []struct {
	name string
	cfg  func(t *testing.T) (*cfg.Graph, Config)
	opts func() Options
} {
	return []struct {
		name string
		cfg  func(t *testing.T) (*cfg.Graph, Config)
		opts func() Options
	}{
		{
			name: "fig7",
			cfg: func(t *testing.T) (*cfg.Graph, Config) {
				g, err := cfg.Build(p4.MustParse(fig7Src()), fig7Rules(12))
				if err != nil {
					t.Fatal(err)
				}
				return g, Config{}
			},
			opts: DefaultOptions,
		},
		{
			name: "early-termination-heavy",
			cfg: func(t *testing.T) (*cfg.Graph, Config) {
				g, err := cfg.Build(p4.MustParse(etSrc), etRules(8))
				if err != nil {
					t.Fatal(err)
				}
				return g, Config{}
			},
			opts: DefaultOptions,
		},
		{
			name: "no-models",
			cfg: func(t *testing.T) (*cfg.Graph, Config) {
				g, err := cfg.Build(p4.MustParse(fig7Src()), fig7Rules(10))
				if err != nil {
					t.Fatal(err)
				}
				return g, Config{}
			},
			opts: func() Options {
				o := DefaultOptions()
				o.WantModels = false
				return o
			},
		},
		{
			name: "stop-at-prefixes",
			cfg: func(t *testing.T) (*cfg.Graph, Config) {
				g, err := cfg.Build(p4.MustParse(fig7Src()), fig7Rules(6))
				if err != nil {
					t.Fatal(err)
				}
				region := g.Pipelines[0]
				return g, Config{StopAt: map[cfg.NodeID]bool{region.Exit: true}}
			},
			opts: func() Options {
				o := DefaultOptions()
				o.WantModels = false
				return o
			},
		},
		{
			name: "init-constraints",
			cfg: func(t *testing.T) (*cfg.Graph, Config) {
				g, err := cfg.Build(p4.MustParse(etSrc), etRules(8))
				if err != nil {
					t.Fatal(err)
				}
				return g, Config{InitConstraints: []expr.Bool{
					expr.Eq(expr.V("h.y", 16), expr.C(3, 16)),
				}}
			},
			opts: DefaultOptions,
		},
		{
			name: "hash-obligations",
			cfg: func(t *testing.T) (*cfg.Graph, Config) {
				src := `
header tcp { bit<16> srcPort; bit<16> dstPort; }
metadata { bit<16> h; bit<8> a; }
action setA(bit<8> v) { meta.a = v; }
table t { key = { tcp.dstPort : exact; } actions = { setA; } default_action = setA(0); }
control c {
  apply {
    hash(meta.h, tcp.srcPort);
    t.apply();
    if (meta.h == 7) { meta.a = 9; }
  }
}
pipeline p { control = c; }
`
				g, err := cfg.Build(p4.MustParse(src), etRules(0))
				if err != nil {
					t.Fatal(err)
				}
				return g, Config{}
			},
			opts: DefaultOptions,
		},
		{
			name: "non-incremental-solver",
			cfg: func(t *testing.T) (*cfg.Graph, Config) {
				g, err := cfg.Build(p4.MustParse(etSrc), etRules(6))
				if err != nil {
					t.Fatal(err)
				}
				return g, Config{}
			},
			opts: func() Options {
				o := DefaultOptions()
				o.Solver.Incremental = false
				o.SolverSet = true
				return o
			},
		},
	}
}

// TestBatchMatchesPerQuery checks the CheckBatch tentpole's correctness
// contract: with sibling batching on (the default) the template set,
// path counts and solver verdict counts are byte-identical to the
// per-query engine (noSiblingBatch), sequentially and at every worker
// count.
func TestBatchMatchesPerQuery(t *testing.T) {
	for _, c := range batchCases() {
		t.Run(c.name, func(t *testing.T) {
			g, conf := c.cfg(t)
			if noSiblingBatch {
				t.Fatal("sibling batching must default to on")
			}
			for _, p := range []int{1, 2, 4, 8} {
				ref := explorePerQuery(t, g, c.opts(), p, conf)
				got := exploreAt(t, g, c.opts(), p, conf)
				want, have := renderTemplates(ref.Templates), renderTemplates(got.Templates)
				if have != want {
					t.Fatalf("P=%d batched template set differs from per-query\n--- per-query ---\n%s--- batched ---\n%s", p, want, have)
				}
				if got.PathsExplored != ref.PathsExplored {
					t.Errorf("P=%d PathsExplored = %d, want %d", p, got.PathsExplored, ref.PathsExplored)
				}
				if got.PrunedPaths != ref.PrunedPaths {
					t.Errorf("P=%d PrunedPaths = %d, want %d", p, got.PrunedPaths, ref.PrunedPaths)
				}
				// CheckBatch performs the exact bookkeeping of the per-query
				// path, so verdict totals match exactly at every worker count.
				if got.SMT.Checks != ref.SMT.Checks {
					t.Errorf("P=%d batched Checks = %d, want %d", p, got.SMT.Checks, ref.SMT.Checks)
				}
				if got.SMT.SatResults != ref.SMT.SatResults || got.SMT.UnsatResults != ref.SMT.UnsatResults {
					t.Errorf("P=%d batched verdicts sat=%d/unsat=%d, want sat=%d/unsat=%d", p,
						got.SMT.SatResults, got.SMT.UnsatResults, ref.SMT.SatResults, ref.SMT.UnsatResults)
				}
			}
		})
	}
}

// TestBatchMatchesPerQueryBudget checks the contract under solver-budget
// exhaustion: Unknown verdicts flow through CheckBatch identically, so
// budget-limited batched runs keep the same (superset) template sets.
func TestBatchMatchesPerQueryBudget(t *testing.T) {
	g, err := cfg.Build(p4.MustParse(etSrc), etRules(8))
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Solver.SearchBudget = 1 // starve the search to force Unknowns
	o.SolverSet = true
	o.WantModels = false
	ref := explorePerQuery(t, g, o, 1, Config{})
	got := exploreAt(t, g, o, 1, Config{})
	if ref.SMT.Unknowns == 0 {
		t.Fatal("budget did not force any Unknown verdicts; tighten the test")
	}
	if want, have := renderTemplates(ref.Templates), renderTemplates(got.Templates); have != want {
		t.Fatalf("budget-limited batched template set differs\n--- per-query ---\n%s--- batched ---\n%s", want, have)
	}
	if got.SMT.Unknowns != ref.SMT.Unknowns || got.SMT.BudgetExhausted != ref.SMT.BudgetExhausted {
		t.Errorf("batched unknowns=%d budget=%d, want unknowns=%d budget=%d",
			got.SMT.Unknowns, got.SMT.BudgetExhausted, ref.SMT.Unknowns, ref.SMT.BudgetExhausted)
	}
}

// explorePerQuery is exploreAt on the per-query path: noSiblingBatch is set
// for the exploration, and no worker is running while it changes.
func explorePerQuery(t *testing.T, g *cfg.Graph, o Options, parallelism int, c Config) *Result {
	t.Helper()
	noSiblingBatch = true
	defer func() { noSiblingBatch = false }()
	return exploreAt(t, g, o, parallelism, c)
}
