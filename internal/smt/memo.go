package smt

import "repro/internal/expr"

// assertMemo is the per-condition part of Assert: the normalized atoms, the
// search hints they contribute, and (when a verdict cache is configured)
// the condition's digest for the cache key. A conjunction's entry holds no
// atoms of its own but the entries of its conjuncts (parts), whose atoms
// and hints assert appends in order. Entries are immutable once made; atoms
// carry this solver's slots.
type assertMemo struct {
	cond  expr.Bool
	atoms []atom
	hints []hintEntry
	parts []*assertMemo
	hash  uint64
	next  *assertMemo // the next entry in the same hash bucket
	// isFalse: cond simplifies to False. A conjunction with such a conjunct
	// is normalized whole, to normalize's one atomFalse.
	isFalse bool
}

// maxMemo bounds the entries found by shape, conjuncts included; a
// condition past it is normalized on every Assert.
const maxMemo = 1 << 16

// hashDepth is how many levels of a condition the memo's bucket hash reads.
// Corpus conditions average 21 tree nodes and are mostly covered whole; a
// 144-conjunct miss predicate (587 nodes, left-deep) contributes its last
// few conjuncts.
const hashDepth = 5

// freshPart is a conjunct a conjunction's miss meets for the first time:
// its entry, its simplified form and its bucket.
type freshPart struct {
	m      *assertMemo
	simple expr.Bool
	h      uint64
}

// memoize returns what Assert needs of b, deriving it on first sight. A
// path condition is asserted on every visit of its predicate node, so the
// lookup is the hot part: HashBool reads only the top of b's tree to pick
// a bucket, and EqualBool confirms the candidate — a hash alone is never
// trusted, two conditions that agree down to hashDepth share a bucket and
// nothing else. A conjunction missed whole is looked up conjunct by
// conjunct (a summary row's guard is its template's whole path condition,
// and sibling rows share most of it), and only the conjuncts never seen
// are normalized.
func (s *Solver) memoize(b expr.Bool) *assertMemo {
	h := expr.HashBool(b, hashDepth)
	if m := s.find(b, h); m != nil {
		return m
	}
	var m *assertMemo
	if l, ok := b.(expr.Logic); ok && l.Op == expr.LAnd {
		m = s.conjunction(b)
	}
	if m == nil {
		m = &assertMemo{cond: b}
		m.atoms, m.isFalse = s.normalize(b)
		m.hints = appendHints(nil, m.atoms)
	}
	s.insert(m, h)
	return m
}

// find returns the entry of b in bucket h, or nil.
func (s *Solver) find(b expr.Bool, h uint64) *assertMemo {
	for m := s.memo[h]; m != nil; m = m.next {
		if expr.EqualBool(m.cond, b) {
			return m
		}
	}
	return nil
}

// insert files m under bucket h while the memo has room.
func (s *Solver) insert(m *assertMemo, h uint64) {
	if s.opts.Cache != nil {
		m.hash = boolHash(m.cond)
	}
	if s.memoLen < maxMemo {
		m.next = s.memo[h]
		s.memo[h] = m
		s.memoLen++
	}
}

// conjunction derives the entry of the conjunction b from the entries of
// its conjuncts, normalizing only those the memo does not hold. It returns
// nil, having filed nothing, when a conjunct simplifies to False or is an
// entry that did: the whole condition then normalizes to one atomFalse. New conjuncts take
// their slots in normalize's order — every atom's subject first, then one
// pass over the atoms' references — so the variables are numbered as if b
// had been normalized whole.
func (s *Solver) conjunction(b expr.Bool) *assertMemo {
	s.leaves = expr.AppendConjuncts(s.leaves[:0], b)
	m := &assertMemo{cond: b, parts: make([]*assertMemo, len(s.leaves))}
	fresh := s.fresh[:0]
	for i, c := range s.leaves {
		h := expr.HashBool(c, hashDepth)
		p := s.find(c, h)
		if p == nil {
			sb := expr.SimplifyBool(c)
			if sb == expr.False {
				return nil
			}
			p = &assertMemo{cond: c}
			fresh = append(fresh, freshPart{m: p, simple: sb, h: h})
		} else if p.isFalse {
			return nil
		}
		m.parts[i] = p
	}
	for _, f := range fresh {
		f.m.atoms = s.lower(nil, f.simple)
	}
	var refs []int32
	for _, f := range fresh {
		refs = s.refSlots(refs, f.m.atoms)
		f.m.hints = appendHints(nil, f.m.atoms)
		s.insert(f.m, f.h)
	}
	clear(fresh)
	s.fresh = fresh[:0]
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
