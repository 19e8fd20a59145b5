package sym_test

import (
	"testing"

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
