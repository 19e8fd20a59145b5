package smt

import "repro/internal/expr"

// searchBudget enforces the per-query limit: a backtracking-step count.
type searchBudget struct {
	steps int
}

// spend consumes one step and reports whether the budget is exhausted.
func (b *searchBudget) spend() bool {
	if b.steps <= 0 {
		return true
	}
	b.steps--
	return false
}

func (b *searchBudget) exhausted() bool { return b.steps <= 0 }

// search performs bounded backtracking over the free variables, guided by
// the propagated domains, and validates every candidate assignment against
// the full original constraint list. This final concrete check is what
// makes models sound even for deferred atoms the domains cannot encode.
// The error is a *BudgetError when the result is Unknown because the step
// budget ran out; nil otherwise.
//
// All working storage (the assignment, the free-variable order, per-depth
// candidate buffers) is solver scratch indexed by slot; a Sat result leaves
// the model in s.assign for check to copy out. With bp non-nil (a
// CheckBatch sibling), the fixed/free split starts from the precomputed
// prefix split and only re-examines the variables this sibling's
// propagation touched.
func (s *Solver) search(bp *batchPrep) (Result, error) {
	if s.refuted() {
		return Unsat, nil
	}
	st := &s.assign
	free := s.scratchFree[:0]
	delta := s.scratchDelta[:0]
	if bp != nil {
		// Batched sibling: prefix-fixed assignments are already installed
		// in the scratch state; classify only the touched delta. A prefix
		// variable was touched if this sibling's frame saved it.
		depth := int32(len(s.frames) - 1)
		for _, sl := range bp.prefixFree {
			if v := &s.vars[sl]; v.saved == depth {
				if val, ok := v.dom.fixed(); ok {
					st.Val[sl], st.Set[sl] = val, true
					delta = append(delta, sl)
					continue
				}
			}
			free = append(free, sl)
		}
		for _, sl := range s.live[s.frames[depth].baseLive:] {
			if val, ok := s.vars[sl].dom.fixed(); ok {
				st.Val[sl], st.Set[sl] = val, true
				delta = append(delta, sl)
			} else {
				free = append(free, sl)
			}
		}
	} else {
		// An empty domain decides the query; otherwise fixed variables go
		// straight into the assignment, free ones into the search order.
		clear(st.Set)
		for _, sl := range s.live {
			d := &s.vars[sl].dom
			if d.empty() {
				return Unsat, nil
			}
			if val, ok := d.fixed(); ok {
				st.Val[sl], st.Set[sl] = val, true
			} else {
				free = append(free, sl)
			}
		}
	}
	s.sortFree(free)

	budget := &s.budget
	*budget = searchBudget{steps: s.opts.SearchBudget}
	ok := s.assignFrom(free, 0)
	res, err := Unsat, error(nil)
	switch {
	case ok:
		res = Sat
	case budget.exhausted():
		res = Unknown
		err = &BudgetError{Steps: s.opts.SearchBudget}
	}
	if bp != nil {
		// Restore the scratch state to prefix-fixed-only for the next
		// sibling: drop this sibling's delta-fixed vars and any free vars
		// a successful search assigned.
		for _, sl := range delta {
			st.Set[sl] = false
		}
		if ok {
			for _, sl := range free {
				st.Set[sl] = false
			}
		}
	}
	// Return the (possibly grown) scratch capacity to the solver.
	s.scratchFree = free[:0]
	s.scratchDelta = delta[:0]
	return res, err
}

// refuted reports whether some masked disequality (v & mask) != c is false
// for every value v's domain holds: the domain knows every bit of the mask,
// and those bits are c. Every candidate the search could try lies in the
// domain and fails the atom, so the Unsat this answers is the verdict the
// search would reach, only proved. Deciding here rather than in
// propagation leaves the domains, and what propagation counts, as they are.
func (s *Solver) refuted() bool {
	for _, i := range s.masked {
		a := &s.atoms[i]
		d := &s.vars[a.v].dom
		if (d.setBits|d.clrBits)&a.mask == a.mask && d.setBits&a.mask == a.c {
			return true
		}
	}
	return false
}

// sortFree orders the free variables smallest-interval-first (fail-first
// heuristic), ties by name — never by slot, which differs between solvers.
// The comparator is total (names are unique), so the result is the unique
// sorted order; insertion sort keeps it allocation-free on lists that are
// path-depth sized.
func (s *Solver) sortFree(free []int32) {
	for i := 1; i < len(free); i++ {
		sl := free[i]
		v := &s.vars[sl]
		rv := v.dom.hi - v.dom.lo
		j := i - 1
		for j >= 0 {
			u := &s.vars[free[j]]
			ru := u.dom.hi - u.dom.lo
			if ru < rv || (ru == rv && u.name < v.name) {
				break
			}
			free[j+1] = free[j]
			j--
		}
		free[j+1] = sl
	}
}

// assignFrom recursively assigns free[idx:] and finally validates the
// complete model.
func (s *Solver) assignFrom(free []int32, idx int) bool {
	budget := &s.budget
	if budget.spend() {
		return false
	}
	if idx == len(free) {
		// The level above has just scanned every constraint under this
		// assignment; with nothing free there was no such level.
		if idx == 0 && !s.consistent() {
			return false
		}
		return s.allBound
	}
	st := &s.assign
	sl := free[idx]
	v := &s.vars[sl]

	// Directional propagation at search time: if the variable is defined by
	// an expression whose variables are all assigned, compute it directly.
	if val, ok := s.definedValue(sl); ok {
		if !v.dom.contains(val) {
			return false
		}
		st.Val[sl], st.Set[sl] = val, true
		if s.consistent() && s.assignFrom(free, idx+1) {
			return true
		}
		st.Set[sl] = false
		s.stats.Backtracks++
		return false
	}

	it := candIter{d: &v.dom, hints: v.hints, max: s.opts.CandidatesPerVar, out: s.candBuf(idx)}
	for {
		cand, ok := it.next()
		if !ok {
			break
		}
		st.Val[sl], st.Set[sl] = cand, true
		if s.consistent() && s.assignFrom(free, idx+1) {
			return true
		}
		st.Set[sl] = false
		s.stats.Backtracks++
		if budget.exhausted() {
			return false
		}
	}
	if it.cut() {
		s.truncated = true
	}
	return false
}

// candBuf returns the reusable candidate buffer for one search depth.
func (s *Solver) candBuf(depth int) []uint64 {
	for len(s.candBufs) <= depth {
		s.candBufs = append(s.candBufs, make([]uint64, 0, s.opts.CandidatesPerVar))
	}
	return s.candBufs[depth][:0]
}

// definedValue looks for an atomDefine or atomVarEq fixing slot sl given
// the current partial assignment, scanning the arena in assert order.
func (s *Solver) definedValue(sl int32) (uint64, bool) {
	st := &s.assign
	for i := range s.atoms {
		a := &s.atoms[i]
		switch a.kind {
		case atomDefine:
			if a.v != sl {
				continue
			}
			if val, ok := st.EvalArith(a.e, a.erefs); ok {
				return a.w.Trunc(val), true
			}
		case atomVarEq:
			if a.v == sl && st.Set[a.u] {
				return a.w.Trunc(st.Val[a.u]), true
			}
			if a.u == sl && st.Set[a.v] {
				return a.w.Trunc(st.Val[a.v]), true
			}
		}
	}
	return 0, false
}

// consistent evaluates every original constraint under the partial
// assignment: it is rejected by a constraint that is false with all its
// variables assigned. The scan also records in allBound whether every
// constraint could be evaluated, which for a complete assignment is what
// the leaf of the search needs to accept it.
func (s *Solver) consistent() bool {
	all := true
	for i := range s.atoms {
		a := &s.atoms[i]
		ok, bound := s.assign.EvalBool(a.orig, a.orefs)
		if bound && !ok {
			return false
		}
		all = all && bound
	}
	s.allBound = all
	return true
}

// hintEntry is one memoized search hint: try val early for v.
type hintEntry struct {
	v   int32
	val uint64
}

// hintEntries extracts constants adjacent to each variable in an atom
// list, used as first candidates during search. Computed once per
// normalized constraint (memoized, see memo.go) and merged into the live
// per-variable hint index by Assert.
func hintEntries(atoms []atom) []hintEntry {
	var out []hintEntry
	add := func(v int32, val uint64) {
		out = append(out, hintEntry{v: v, val: val})
	}
	for _, a := range atoms {
		switch a.kind {
		case atomInterval, atomBits:
			add(a.v, a.c)
			add(a.v, a.c+1)
			if a.c > 0 {
				add(a.v, a.c-1)
			}
		case atomExclude:
			add(a.v, a.c+1)
		case atomDefine, atomDeferred, atomMaskNe:
			consts := collectConsts(a.orig)
			for _, vw := range a.tvars {
				for _, c := range consts {
					add(vw.v, c)
					add(vw.v, c+1)
					if c > 0 {
						add(vw.v, c-1)
					}
				}
			}
		}
	}
	return out
}

func collectConsts(b expr.Bool) []uint64 {
	var out []uint64
	var walkA func(a expr.Arith)
	walkA = func(a expr.Arith) {
		switch t := a.(type) {
		case expr.Const:
			out = append(out, t.Val)
		case expr.Bin:
			walkA(t.L)
			walkA(t.R)
		}
	}
	var walkB func(b expr.Bool)
	walkB = func(b expr.Bool) {
		switch t := b.(type) {
		case expr.Cmp:
			walkA(t.L)
			walkA(t.R)
		case expr.Logic:
			walkB(t.L)
			walkB(t.R)
		case expr.Not:
			walkB(t.X)
		}
	}
	if b != nil {
		walkB(b)
	}
	return out
}
