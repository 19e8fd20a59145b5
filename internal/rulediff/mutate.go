package rulediff

import (
	"sort"

	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/rules"
)

// Mutators produce deterministic rule-set variants for regression tests
// and benchmarks: given the same input set and count they always mutate
// the same entries the same way, so differential gates can compare an
// incremental run against a cold run on a reproducible delta.

// MutateArgs returns a copy of s with the first action argument of n
// entries bumped by one, modulo 2^width of its parameter in prog (64 bits
// for an action prog does not declare), so the copy binds wherever s does:
// the canonical arg-only delta (signature-stable, so rulediff classifies
// it as Modified and invalidation stays entry-granular). The copy keeps s's table and entry order: a node's
// content hash covers its table's entries in the order the encoder saw
// them, so re-sorting the set would re-key every verdict downstream of a
// re-ordered table and a one-entry update would measure that instead.
// Candidates are the entries with at least one argument, in canonical
// order, so which entries change does not depend on s's order; the n
// mutated ones are spread evenly across that list. Returns the mutated set
// and the number of entries actually changed (less than n when fewer
// candidates exist).
func MutateArgs(prog *p4.Program, s *rules.Set, n int) (*rules.Set, int) {
	out := s.Clone()
	var cands []*rules.Entry
	names := out.Tables()
	sort.Strings(names)
	for _, t := range names {
		for _, e := range out.CanonicalEntries(t) {
			if len(e.Args) > 0 {
				cands = append(cands, e)
			}
		}
	}
	if n > len(cands) {
		n = len(cands)
	}
	if n <= 0 {
		return out, 0
	}
	picked := map[int]bool{}
	for i := 0; i < n; i++ {
		picked[i*len(cands)/n] = true
	}
	idx := make([]int, 0, len(picked))
	for i := range picked {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		e, w := cands[i], expr.MaxWidth
		if a := prog.Action(e.Action); a != nil && len(a.Params) > 0 {
			w = expr.Width(a.Params[0].Width)
		}
		e.Args[0] = (e.Args[0] + 1) & w.Mask()
	}
	return out, len(idx)
}
