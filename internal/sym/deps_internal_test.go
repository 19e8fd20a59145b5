package sym

import (
	"math/rand"
	"slices"
	"testing"
)

// TestDepStackMatchesSortedUnion drives the executor's dependency stack the
// way an exploration does — a frame's mark, then pushes of a node's tags
// (repeated IDs included), unwinds to an earlier frame's mark, reads at any
// height — and holds every read to the sorted, de-duplicated multiset of
// the IDs pushed since the bottom, computed afresh.
func TestDepStackMatchesSortedUnion(t *testing.T) {
	const ntags = 40
	rng := rand.New(rand.NewSource(1))
	e := &executor{hasDep: make([]bool, ntags)}
	type frame struct{ deps, pushed int }
	var frames []frame
	var pushed []uint32
	reads, repeats := 0, 0
	for step := 0; step < 200000; step++ {
		switch r := rng.Intn(10); {
		case r < 4 && len(frames) < 200:
			frames = append(frames, frame{len(e.deps), len(pushed)})
			ids := make([]uint32, rng.Intn(5))
			for i := range ids {
				ids[i] = uint32(rng.Intn(ntags))
				if slices.Contains(pushed, ids[i]) || slices.Contains(ids[:i], ids[i]) {
					repeats++
				}
			}
			pushed = append(pushed, ids...)
			e.pushDeps(ids)
		case r < 7 && len(frames) > 0:
			k := rng.Intn(len(frames))
			f := frames[k]
			frames = frames[:k]
			pushed = pushed[:f.pushed]
			e.truncDeps(f.deps)
		default:
			want := slices.Clone(pushed)
			slices.Sort(want)
			want = slices.Compact(want)
			if got := e.uniqueDeps(); !slices.Equal(got, want) {
				t.Fatalf("step %d: pushed %v, read %v, want %v", step, pushed, got, want)
			}
			stack := slices.Clone(e.deps)
			slices.Sort(stack)
			if !slices.Equal(stack, want) {
				t.Fatalf("step %d: pushed %v, stack %v, want each of %v once", step, pushed, e.deps, want)
			}
			for id, in := range e.hasDep {
				if in != slices.Contains(want, uint32(id)) {
					t.Fatalf("step %d: mark of %d is %v, stack %v", step, id, in, e.deps)
				}
			}
			reads++
		}
	}
	if reads == 0 || repeats == 0 {
		t.Fatalf("%d reads, %d repeated pushes", reads, repeats)
	}
}
