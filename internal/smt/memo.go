package smt

import "repro/internal/expr"

// assertMemo is the per-condition part of Assert: the normalized atoms, the
// search hints they contribute, and (when a verdict cache is configured)
// the condition's digest for the cache key. Entries are immutable once
// made; atoms carry this solver's slots.
type assertMemo struct {
	cond  expr.Bool
	atoms []atom
	hints []hintEntry
	hash  uint64
	next  *assertMemo // the next entry in the same hash bucket
}

// maxMemo bounds the conditions found by shape; a condition past it is
// normalized on every Assert.
const maxMemo = 1 << 16

// hashDepth is how many levels of a condition the memo's bucket hash reads.
// Corpus conditions average 21 tree nodes and are mostly covered whole; a
// 144-conjunct miss predicate (587 nodes, left-deep) contributes its last
// few conjuncts.
const hashDepth = 5

// memoize returns what Assert needs of b, deriving it on first sight. A
// path condition is asserted on every visit of its predicate node, so the
// lookup is the hot part: HashBool reads only the top of b's tree to pick
// a bucket, and EqualBool confirms the candidate — a hash alone is never
// trusted, two conditions that agree down to hashDepth share a bucket and
// nothing else.
func (s *Solver) memoize(b expr.Bool) *assertMemo {
	h := expr.HashBool(b, hashDepth)
	for m := s.memo[h]; m != nil; m = m.next {
		if expr.EqualBool(m.cond, b) {
			return m
		}
	}
	m := &assertMemo{cond: b, atoms: s.normalize(b)}
	m.hints = hintEntries(m.atoms)
	if s.opts.Cache != nil {
		m.hash = boolHash(b)
	}
	if s.memoLen < maxMemo {
		m.next = s.memo[h]
		s.memo[h] = m
		s.memoLen++
	}
	return m
}

// SetConditions gives the solver the caller's numbered conditions, which
// AssertCondition then asserts by number. The exploration numbers each
// predicate node's own condition by node ID: most path conditions are one of
// those verbatim (substitution is copy-on-write and says so), and asserting
// them by number reads no tree at all. The table belongs to the caller, who
// must leave it unchanged while the solver uses it.
func (s *Solver) SetConditions(conds []expr.Bool) {
	s.conds = conds
	s.condMemo = make([]*assertMemo, len(conds))
}

// AssertCondition is Assert(conds[i]) for the table SetConditions was
// given.
func (s *Solver) AssertCondition(i int) {
	m := s.condMemo[i]
	if m == nil {
		m = s.memoize(s.conds[i])
		s.condMemo[i] = m
	}
	s.assert(m)
}
