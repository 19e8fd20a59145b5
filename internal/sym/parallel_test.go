package sym

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/smt"
)

// renderTemplates produces a deterministic, byte-comparable rendering of a
// template set: IDs, paths, constraints, final state, models, obligations
// and flags, with map keys sorted.
func renderTemplates(ts []*Template) string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "#%d path=%v dropped=%v uncertain=%v\n", t.ID, t.Path, t.Dropped, t.Uncertain)
		for _, c := range t.Constraints {
			fmt.Fprintf(&b, "  C %s\n", c)
		}
		var fvars []string
		for v := range t.Final {
			fvars = append(fvars, string(v))
		}
		sort.Strings(fvars)
		for _, v := range fvars {
			fmt.Fprintf(&b, "  F %s=%s\n", v, t.Final[expr.Var(v)])
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

func exploreAt(t *testing.T, g *cfg.Graph, base Options, parallelism int, c Config) *Result {
	t.Helper()
	opts := base
	opts.Parallelism = parallelism
	c.Graph = g
	c.Options = opts
	res, err := Explore(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelMatchesSequential checks the tentpole's determinism
// guarantee: for several graph shapes and option combinations, parallel
// exploration at P ∈ {2, 4, 8} yields a template set byte-identical to
// the sequential engine.
func TestParallelMatchesSequential(t *testing.T) {
	type tc struct {
		name string
		cfg  func(t *testing.T) (*cfg.Graph, Config)
		opts func() Options
	}
	cases := []tc{
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
			name: "no-early-termination",
			cfg: func(t *testing.T) (*cfg.Graph, Config) {
				g, err := cfg.Build(p4.MustParse(etSrc), etRules(6))
				if err != nil {
					t.Fatal(err)
				}
				return g, Config{}
			},
			opts: func() Options {
				o := DefaultOptions()
				o.EarlyTermination = false
				return o
			},
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
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, conf := c.cfg(t)
			seq := exploreAt(t, g, c.opts(), 1, conf)
			want := renderTemplates(seq.Templates)
			for _, p := range []int{2, 4, 8} {
				par := exploreAt(t, g, c.opts(), p, conf)
				got := renderTemplates(par.Templates)
				if got != want {
					t.Fatalf("P=%d template set differs from sequential\n--- sequential ---\n%s--- parallel ---\n%s", p, want, got)
				}
				if par.PathsExplored != seq.PathsExplored {
					t.Errorf("P=%d PathsExplored = %d, want %d", p, par.PathsExplored, seq.PathsExplored)
				}
				if par.PrunedPaths != seq.PrunedPaths {
					t.Errorf("P=%d PrunedPaths = %d, want %d", p, par.PrunedPaths, seq.PrunedPaths)
				}
			}
		})
	}
}

// TestParallelSMTCallParity checks the acceptance bound: parallel SMT call
// counts stay within ±10% of sequential (replay adds none; the shared
// verdict cache may remove some).
func TestParallelSMTCallParity(t *testing.T) {
	g, err := cfg.Build(p4.MustParse(etSrc), etRules(10))
	if err != nil {
		t.Fatal(err)
	}
	seq := exploreAt(t, g, DefaultOptions(), 1, Config{})
	for _, p := range []int{2, 4, 8} {
		par := exploreAt(t, g, DefaultOptions(), p, Config{})
		total := par.SMT.Checks + par.SMT.CacheHits
		lo := seq.SMT.Checks * 9 / 10
		hi := seq.SMT.Checks * 11 / 10
		if total < lo || total > hi {
			t.Errorf("P=%d checks+cacheHits = %d (+%d hits), sequential %d: outside ±10%%",
				p, total, par.SMT.CacheHits, seq.SMT.Checks)
		}
	}
}

// TestParallelSharedCache checks that a caller-supplied cache is shared
// across explorations: a second identical run answers its repeat checks
// from the cache.
func TestParallelSharedCache(t *testing.T) {
	g, err := cfg.Build(p4.MustParse(etSrc), etRules(8))
	if err != nil {
		t.Fatal(err)
	}
	cache := smt.NewVerdictCache()
	opts := DefaultOptions()
	opts.WantModels = false // Model() bypasses the cache; Check() hits it
	opts.Solver.Cache = cache
	first := exploreAt(t, g, opts, 4, Config{})
	if cache.Len() == 0 {
		t.Fatal("cache stayed empty")
	}
	second := exploreAt(t, g, opts, 4, Config{})
	if second.SMT.CacheHits == 0 {
		t.Error("second run hit the cache 0 times")
	}
	if got, want := renderTemplates(second.Templates), renderTemplates(first.Templates); got != want {
		t.Error("cache-hitting run changed the template set")
	}
	if second.SMT.Checks >= first.SMT.Checks {
		t.Errorf("cache did not reduce solver checks: %d vs %d", second.SMT.Checks, first.SMT.Checks)
	}
}

// TestParallelMaxPathsTruncates checks cooperative truncation.
func TestParallelMaxPathsTruncates(t *testing.T) {
	g, err := cfg.Build(p4.MustParse(fig7Src()), fig7Rules(50))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxPaths = 2
	res := exploreAt(t, g, opts, 4, Config{})
	if !res.Truncated {
		t.Error("expected truncation")
	}
	// Cooperative enforcement may overshoot by in-flight descents, but
	// not unboundedly.
	if res.PathsExplored > opts.MaxPaths+64 {
		t.Errorf("paths explored %d far exceeds MaxPaths %d", res.PathsExplored, opts.MaxPaths)
	}
}

// TestWorkersResolution pins the Parallelism contract: 0 = GOMAXPROCS,
// N = N.
func TestWorkersResolution(t *testing.T) {
	if got := (Options{Parallelism: 3}).Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
	if got := (Options{}).Workers(); got < 1 {
		t.Errorf("Workers() = %d, want >= 1", got)
	}
}
