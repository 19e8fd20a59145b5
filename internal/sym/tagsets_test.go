package sym

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTagSetsMatchSortedUnion drives a dependency stack the way an
// exploration does — pushes of a node's tags, truncations to a frame's
// mark, reads at any height — and holds every read to the sorted,
// de-duplicated stack computed afresh.
func TestTagSetsMatchSortedUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var deps []uint32
	var s tagSets
	reads := 0
	for step := 0; step < 200000; step++ {
		switch r := rng.Intn(10); {
		case r < 4 && len(deps) < 200:
			for n := rng.Intn(5); n > 0; n-- {
				deps = append(deps, uint32(rng.Intn(40)))
			}
		case r < 7:
			n := rng.Intn(len(deps) + 1)
			deps = deps[:n]
			s.truncate(n)
		default:
			want := slices.Clone(deps)
			slices.Sort(want)
			if got := s.of(deps, 40); !slices.Equal(got, slices.Compact(want)) {
				t.Fatalf("step %d: of(%v) = %v, want %v", step, deps, got, slices.Compact(want))
			}
			reads++
		}
	}
	if reads == 0 {
		t.Fatal("no read")
	}
}
