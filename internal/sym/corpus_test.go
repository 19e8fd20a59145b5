package sym_test

import (
	"testing"

	meissa "repro"
	"repro/internal/cfg"
	"repro/internal/journal"
	"repro/internal/programs"
	"repro/internal/sym"
)

// TestEngineMatchesReferenceOnCorpus runs the differential of
// TestParallelMatchesSequential on corpus graphs, raw and summarized: at 1, 2
// and 4 workers the templates are the reference DFS's byte for byte, and so
// are the descents, the frames entered — a spilled node is one frame, the
// unit's — and the solver questions asked.
func TestEngineMatchesReferenceOnCorpus(t *testing.T) {
	for name, g := range graphsOf(t, programs.Router(), programs.GW(1, programs.Set1), programs.GW(3, programs.Set3)) {
		c := sym.Config{Graph: g, Options: sym.DefaultOptions()}
		ref := sym.ExploreReference(c)
		want := sym.RenderTemplates(ref.Templates)
		for _, p := range []int{1, 2, 4} {
			c.Options.Parallelism = p
			got, err := sym.Explore(c)
			if err != nil {
				t.Fatal(err)
			}
			if sym.RenderTemplates(got.Templates) != want {
				t.Errorf("%s P=%d: %d templates differ from the reference's %d", name, p, len(got.Templates), len(ref.Templates))
			}
			sym.CheckCountedWork(t, p, got, ref)
		}
		if t.Failed() {
			t.Fatalf("%s: engine differs from the reference", name)
		}
	}
}

// TestTableWithHolesMatchesCold explores gw-2 and gw-3, raw and summarized,
// over a verdict table that holds the cold run's records whose key has an
// even low bit: a query is a hit or a miss by the toss of its key, so misses
// sync runs of entries that hits left to the condition stack alone, under
// long hit-only prefixes. At 1 and 4 workers the templates are the cold
// run's byte for byte, every query is a check or a hit, and the solver
// propagates something, but less than the cold run.
func TestTableWithHolesMatchesCold(t *testing.T) {
	even := func(e journal.Entry) bool { return e.Key()&1 == 0 }
	for name, g := range graphsOf(t, programs.GW(2, programs.Set2), programs.GW(3, programs.Set3)) {
		c := sym.Config{Graph: g, Options: sym.DefaultOptions()}
		c.Options.Parallelism = 1
		cold, table := sym.ColdTable(t, c, even)
		want := sym.RenderTemplates(cold.Templates)
		for _, p := range []int{1, 4} {
			c.Options.Parallelism, c.Options.Journal = p, sym.Adopted(t, table)
			got, err := sym.Explore(c)
			if err != nil {
				t.Fatal(err)
			}
			if sym.RenderTemplates(got.Templates) != want {
				t.Errorf("%s P=%d: %d templates differ from the cold run's %d", name, p, len(got.Templates), len(cold.Templates))
			}
			if got.SMT.Checks+got.JournalHits != cold.SMT.Checks || got.JournalHits == 0 {
				t.Errorf("%s P=%d: %d checks + %d hits, the cold run checks %d", name, p, got.SMT.Checks, got.JournalHits, cold.SMT.Checks)
			}
			if n := got.SMT.Propagations; n == 0 || n >= cold.SMT.Propagations {
				t.Errorf("%s P=%d: %d propagations, want some and fewer than the cold run's %d", name, p, n, cold.SMT.Propagations)
			}
			t.Logf("%s P=%d: %d checks, %d hits, %d propagations (cold: %d checks, %d propagations)",
				name, p, got.SMT.Checks, got.JournalHits, got.SMT.Propagations, cold.SMT.Checks, cold.SMT.Propagations)
		}
	}
}

// TestPlanMatchesFullWidth holds every plan a gw-1..4 generation compiles —
// each pipeline's exploration under code summary, then the final pass — to
// the full-width reference of plan_reference_test.go: spanning only the
// reachable IDs changes no entry of a reachable node, no pool, no slot and
// no tag.
func TestPlanMatchesFullWidth(t *testing.T) {
	for n := 1; n <= 4; n++ {
		p := programs.GW(n, programs.RuleScale(n))
		regions, finals := 0, 0
		restore := sym.ObservePlans(func(start cfg.NodeID, stop map[cfg.NodeID]bool, diff string) {
			if len(stop) == 0 {
				finals++
			} else {
				regions++
			}
			if diff != "" {
				t.Errorf("%s: plan from node %d (%d stop nodes): %s", p.Name, start, len(stop), diff)
			}
		})
		opts := meissa.DefaultOptions()
		opts.Parallelism = 1
		sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.Generate()
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if regions == 0 || finals != 1 {
			t.Fatalf("%s: %d pipeline plans and %d final-pass plans observed, want some and 1", p.Name, regions, finals)
		}
		t.Logf("%s: %d pipeline plans and the final pass's match the reference", p.Name, regions)
	}
}
