package sym

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/p4"
)

// TestSplitFrontierDeterministic: splitting the same (graph, options,
// width) twice yields identical unit lists and digests — the property
// the coordinator's Ready verification stands on.
func TestSplitFrontierDeterministic(t *testing.T) {
	g, err := cfg.Build(p4.MustParse(fig7Src()), fig7Rules(10))
	if err != nil {
		t.Fatal(err)
	}
	c := Config{Graph: g, Options: DefaultOptions()}
	f1, err := SplitFrontier(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := SplitFrontier(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Units) == 0 {
		t.Fatal("empty frontier for a non-trivial graph")
	}
	if f1.Digest() != f2.Digest() {
		t.Fatalf("digest not deterministic: %#x vs %#x", f1.Digest(), f2.Digest())
	}
	if len(f1.Units) != len(f2.Units) {
		t.Fatalf("unit counts differ: %d vs %d", len(f1.Units), len(f2.Units))
	}
	seen := map[uint64]bool{}
	for i := range f1.Units {
		a, b := f1.Units[i], f2.Units[i]
		if a.Index != i || b.Index != i || a.Key != b.Key || a.Start != b.Start {
			t.Fatalf("unit %d differs: %+v vs %+v", i, a, b)
		}
		if seen[a.Key] {
			t.Fatalf("duplicate unit key %#x", a.Key)
		}
		seen[a.Key] = true
	}
}

// TestSplitFrontierCrossBuild: a graph rebuilt from the same source text
// (as a worker subprocess does) produces the same frontier digest, even
// though node IDs may be assigned by a different Build invocation. Keys
// are content-based, so this must hold for cross-process verification to
// ever succeed.
func TestSplitFrontierCrossBuild(t *testing.T) {
	mk := func() *Frontier {
		g, err := cfg.Build(p4.MustParse(fig7Src()), fig7Rules(8))
		if err != nil {
			t.Fatal(err)
		}
		f, err := SplitFrontier(Config{Graph: g, Options: DefaultOptions()}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1, f2 := mk(), mk()
	if f1.Digest() != f2.Digest() {
		t.Fatalf("digests diverge across independent builds: %#x vs %#x", f1.Digest(), f2.Digest())
	}
	if len(f1.Units) != len(f2.Units) {
		t.Fatalf("unit counts diverge: %d vs %d", len(f1.Units), len(f2.Units))
	}
	for i := range f1.Units {
		if f1.Units[i].Key != f2.Units[i].Key {
			t.Fatalf("unit %d key diverges: %#x vs %#x", i, f1.Units[i].Key, f2.Units[i].Key)
		}
	}
}

// TestRunnerUnitRerun: a unit can be explored repeatedly on the same
// runner (lease reassignment replays it) with byte-identical results and
// no state bleeding between attempts or between units.
func TestRunnerUnitRerun(t *testing.T) {
	g, err := cfg.Build(p4.MustParse(fig7Src()), fig7Rules(10))
	if err != nil {
		t.Fatal(err)
	}
	f, err := SplitFrontier(Config{Graph: g, Options: DefaultOptions()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Units) < 2 {
		t.Skipf("need >= 2 units, got %d", len(f.Units))
	}
	r := f.NewRunner(f.Options())

	first, err := r.Explore(0)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave another unit, then re-run unit 0: identical output.
	if _, err := r.Explore(1); err != nil {
		t.Fatal(err)
	}
	again, err := r.Explore(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderTemplates(again.Templates), renderTemplates(first.Templates); got != want {
		t.Fatalf("unit 0 re-run diverged:\n--- first ---\n%s--- again ---\n%s", want, got)
	}
	if first.PathsExplored == 0 || len(first.Templates) == 0 {
		t.Fatalf("unit 0 produced no work: paths=%d templates=%d", first.PathsExplored, len(first.Templates))
	}

	// Out-of-range indexes error instead of panicking the worker.
	if _, err := r.Explore(len(f.Units)); err == nil {
		t.Fatal("out-of-range unit accepted")
	}
}
