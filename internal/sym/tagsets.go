package sym

import "slices"

// tagSets caches the sorted distinct tag IDs of prefixes of a dependency
// stack, so that a read costs a look-up of each ID pushed since the last
// read, not a sort of the whole stack: a stack of sets, each covering the
// stack's first n entries and extending the one below it. Truncating the
// stack must truncate its sets (truncate), which pops the sets that
// covered more of it; with no sets that is one comparison.
type tagSets struct {
	tops []tagSet
	// ids holds the sets' IDs, each set a range of it; a set that adds no
	// ID to the one below shares its range.
	ids []uint32
	// added holds, set after set, the IDs each set adds to the one below:
	// what a pop takes out of in.
	added []uint32
	// in marks the IDs of the top set, indexed by tag ID; nil until the
	// first read.
	in []bool
}

// tagSet covers a stack's first n entries; its IDs are ids[lo:hi]. ids and
// added held end and added entries before it was pushed.
type tagSet struct{ n, lo, hi, end, added int }

// truncate drops the sets that cover more than a stack's first n entries.
func (s *tagSets) truncate(n int) {
	for k := len(s.tops); k > 0 && s.tops[k-1].n > n; k-- {
		top := s.tops[k-1]
		for _, id := range s.added[top.added:] {
			s.in[id] = false
		}
		s.ids, s.added, s.tops = s.ids[:top.end], s.added[:top.added], s.tops[:k-1]
	}
}

// of returns the distinct IDs of deps in ascending order, deps being the
// stack whose truncations the sets have followed and ntags bounding its
// IDs. It pushes the set of deps unless the top set is it. The result
// aliases the sets and is valid until the next truncate.
func (s *tagSets) of(deps []uint32, ntags int) []uint32 {
	var below tagSet // the top set, or the empty set of no entries
	if k := len(s.tops); k > 0 {
		if below = s.tops[k-1]; below.n == len(deps) {
			return s.ids[below.lo:below.hi]
		}
	} else if len(deps) == 0 {
		return nil
	}
	if s.in == nil {
		s.in = make([]bool, ntags)
	}
	// What was pushed since is mostly IDs the set holds already: a
	// summarized chain repeats the tags of the path before it.
	set := tagSet{n: len(deps), lo: below.lo, hi: below.hi, end: len(s.ids), added: len(s.added)}
	for _, id := range deps[below.n:] {
		if !s.in[id] {
			s.in[id] = true
			s.added = append(s.added, id)
		}
	}
	if add := s.added[set.added:]; len(add) > 0 {
		slices.Sort(add)
		// The set below lies before the end of ids, which the merge only
		// appends to.
		s.ids = mergeDisjoint(s.ids, s.ids[below.lo:below.hi], add)
		set.lo, set.hi = set.end, len(s.ids)
	}
	s.tops = append(s.tops, set)
	return s.ids[set.lo:set.hi]
}

// mergeDisjoint appends to out the union of a and b, ascending sets with
// no ID in common, in ascending order.
func mergeDisjoint(out, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
