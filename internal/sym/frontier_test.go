package sym

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/p4"
)

// unitKey is the content-based name of u: its prefix's path key folded
// with its root's content hash.
func unitKey(f *frontier, u *unit) uint64 {
	return hashMix(u.hash, f.cfg.Graph.ContentHash(u.start))
}

// TestSplitFrontierDeterministic: splitting the same (graph, options,
// width) twice yields identical unit lists, each unit named once — the
// property that makes the pool's splice order, and so its output, the same
// on every run.
func TestSplitFrontierDeterministic(t *testing.T) {
	g, err := cfg.Build(p4.MustParse(fig7Src()), fig7Rules(10))
	if err != nil {
		t.Fatal(err)
	}
	c := Config{Graph: g, Options: DefaultOptions()}
	f1, err := splitFrontier(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := splitFrontier(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.units) == 0 {
		t.Fatal("empty frontier for a non-trivial graph")
	}
	if len(f1.units) != len(f2.units) {
		t.Fatalf("unit counts differ: %d vs %d", len(f1.units), len(f2.units))
	}
	seen := map[uint64]bool{}
	for i := range f1.units {
		a, b := f1.units[i], f2.units[i]
		if a.hash != b.hash || a.start != b.start {
			t.Fatalf("unit %d differs: %+v vs %+v", i, a, b)
		}
		k := unitKey(f1, a)
		if seen[k] {
			t.Fatalf("duplicate unit key %#x", k)
		}
		seen[k] = true
	}
}

// TestSplitFrontierCrossBuild: a graph rebuilt from the same source text
// splits into units with the same content-based names, even though node
// IDs may be assigned by a different Build invocation — the journal keys a
// runner derives below them are what a checkpoint or store shares across
// runs.
func TestSplitFrontierCrossBuild(t *testing.T) {
	mk := func() *frontier {
		g, err := cfg.Build(p4.MustParse(fig7Src()), fig7Rules(8))
		if err != nil {
			t.Fatal(err)
		}
		f, err := splitFrontier(Config{Graph: g, Options: DefaultOptions()}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1, f2 := mk(), mk()
	if len(f1.units) != len(f2.units) {
		t.Fatalf("unit counts diverge: %d vs %d", len(f1.units), len(f2.units))
	}
	for i := range f1.units {
		if a, b := unitKey(f1, f1.units[i]), unitKey(f2, f2.units[i]); a != b {
			t.Fatalf("unit %d key diverges: %#x vs %#x", i, a, b)
		}
	}
}

// TestRunnerUnitRerun: a unit can be explored repeatedly on the same
// runner with byte-identical results and no state bleeding between
// attempts or between units — a runner's stacks are reset from the unit's
// snapshot, never carried over.
func TestRunnerUnitRerun(t *testing.T) {
	g, err := cfg.Build(p4.MustParse(fig7Src()), fig7Rules(10))
	if err != nil {
		t.Fatal(err)
	}
	f, err := splitFrontier(Config{Graph: g, Options: DefaultOptions()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.units) < 2 {
		t.Skipf("need >= 2 units, got %d", len(f.units))
	}
	r := f.newRunner()

	first := r.exploreUnit(f.units[0])
	// Interleave another unit, then re-run unit 0: identical output.
	r.exploreUnit(f.units[1])
	again := r.exploreUnit(f.units[0])
	if got, want := renderTemplates(again.Templates), renderTemplates(first.Templates); got != want {
		t.Fatalf("unit 0 re-run diverged:\n--- first ---\n%s--- again ---\n%s", want, got)
	}
	if first.PathsExplored == 0 || len(first.Templates) == 0 {
		t.Fatalf("unit 0 produced no work: paths=%d templates=%d", first.PathsExplored, len(first.Templates))
	}
	if first.Recovered+again.Recovered != 0 {
		t.Fatalf("unit 0 recovered panics: %v %v", first.PathErrors, again.PathErrors)
	}
}
