package sym

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/smt"
)

// renderTemplates produces a deterministic, byte-comparable rendering of a
// template set: IDs, paths, constraints, final state, models, obligations
// and flags, the final state's bound slots and the model sorted by variable
// name.
func renderTemplates(ts []*Template) string {
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

// referenceAt is exploreAt for the plain DFS of reference_test.go.
func referenceAt(g *cfg.Graph, opts Options, c Config) *Result {
	c.Graph, c.Options = g, opts
	return exploreReference(c)
}

// checkCountedWork compares what an exploration counted with the
// reference's: descents, frames and solver checks at any worker count, and
// at one worker — one solver, asked the same questions in the same order —
// every solver counter. Latency is compared by its sample count, one a
// check; the clock decides the rest.
func checkCountedWork(t *testing.T, p int, got, ref *Result) {
	t.Helper()
	if got.PathsExplored != ref.PathsExplored || got.PrunedPaths != ref.PrunedPaths ||
		got.Frames != ref.Frames || got.JournalHits != ref.JournalHits {
		t.Errorf("P=%d explored/pruned/frames/journal hits = %d/%d/%d/%d, reference %d/%d/%d/%d", p,
			got.PathsExplored, got.PrunedPaths, got.Frames, got.JournalHits,
			ref.PathsExplored, ref.PrunedPaths, ref.Frames, ref.JournalHits)
	}
	g, r := got.SMT, ref.SMT
	g.Latency, r.Latency = obs.Histogram{Count: g.Latency.Count}, obs.Histogram{Count: r.Latency.Count}
	if g.Checks != r.Checks || g.CacheHits != 0 || g.Latency.Count != g.Checks || (p == 1 && g != r) {
		t.Errorf("P=%d solver counters %+v, reference %+v", p, g, r)
	}
}

// TestParallelMatchesSequential checks the engine's determinism guarantee:
// for several graph shapes and option combinations, Explore at P ∈ {1, 2, 4,
// 8} yields a template set byte-identical to the reference DFS and counts
// the same work; at P = 1, writing a journal, also the same journal file.
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
			ref := referenceAt(g, c.opts(), conf)
			want := renderTemplates(ref.Templates)
			for _, p := range []int{1, 2, 4, 8} {
				par := exploreAt(t, g, c.opts(), p, conf)
				got := renderTemplates(par.Templates)
				if got != want {
					t.Fatalf("P=%d template set differs from the reference\n--- reference ---\n%s--- engine ---\n%s", p, want, got)
				}
				checkCountedWork(t, p, par, ref)
			}

			// The journal is written in the order verdicts are derived: one
			// runner's file is the reference's.
			journaled := func(name string, explore func(Options) *Result) []byte {
				path := filepath.Join(t.TempDir(), name)
				j, err := journal.Open(path, 1, false)
				if err != nil {
					t.Fatal(err)
				}
				opts := c.opts()
				opts.Journal = j
				if got := renderTemplates(explore(opts).Templates); got != want {
					t.Errorf("%s: journaling changed the template set", name)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			refFile := journaled("reference", func(o Options) *Result { return referenceAt(g, o, conf) })
			oneFile := journaled("engine", func(o Options) *Result { return exploreAt(t, g, o, 1, conf) })
			if len(refFile) == 0 || !bytes.Equal(oneFile, refFile) {
				t.Errorf("P=1 journal (%d bytes) differs from the reference's (%d bytes)", len(oneFile), len(refFile))
			}
		})
	}
}

// TestParallelSMTCallParity checks that splitting asks the solver nothing
// new: at any worker count, the checks are the reference's SMT calls
// (replay adds none; a spilled branch takes its parent's verdict along).
func TestParallelSMTCallParity(t *testing.T) {
	g, err := cfg.Build(p4.MustParse(etSrc), etRules(10))
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceAt(g, DefaultOptions(), Config{})
	for _, p := range []int{1, 2, 4, 8} {
		par := exploreAt(t, g, DefaultOptions(), p, Config{})
		if par.SMT.Checks != ref.SMT.Checks || par.SMT.CacheHits != 0 {
			t.Errorf("P=%d checks = %d (%d cache hits), reference %d",
				p, par.SMT.Checks, par.SMT.CacheHits, ref.SMT.Checks)
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
