package smt

import (
	"time"

	"repro/internal/expr"
)

// searchBudget enforces the per-query limits: a backtracking-step count
// and an optional wall-clock deadline. The clock is consulted only every
// 256 steps — time.Now per step would dominate small queries.
type searchBudget struct {
	steps    int
	deadline time.Time
	timedOut bool
}

// spend consumes one step and reports whether the budget is exhausted.
func (b *searchBudget) spend() bool {
	if b.steps <= 0 {
		return true
	}
	b.steps--
	if !b.deadline.IsZero() && b.steps&255 == 0 && time.Now().After(b.deadline) {
		b.timedOut = true
		b.steps = 0
		return true
	}
	return false
}

func (b *searchBudget) exhausted() bool { return b.steps <= 0 }

// search performs bounded backtracking over the free variables, guided by
// the propagated domains, and validates every candidate assignment against
// the full original constraint list. This final concrete check is what
// makes models sound even for deferred atoms the domains cannot encode.
// The error is a *BudgetError when the result is Unknown because a step
// or time budget ran out; nil otherwise.
//
// All working storage (assignment map, free-variable order, per-depth
// candidate buffers) is reused solver scratch unless the caller wants a
// model, which must be freshly allocated because templates retain it.
// With bp non-nil (a CheckBatch sibling), the fixed/free split starts
// from the precomputed prefix split and only re-examines the variables
// this sibling's propagation touched.
func (s *Solver) search(doms map[expr.Var]*domain, wantModel bool, bp *batchPrep) (Result, expr.State, error) {
	atoms := s.allAtoms()

	var st expr.State
	free := s.scratchFree[:0]
	delta := s.scratchDelta[:0]
	if bp != nil {
		// Batched sibling: prefix-fixed assignments are already installed
		// in the scratch state; classify only the touched delta.
		st = s.scratchSt
		top := &s.frames[len(s.frames)-1]
		for _, v := range bp.prefixFree {
			if _, touched := top.domSnapshot[v]; touched {
				if val, ok := doms[v].fixed(); ok {
					st[v] = val
					delta = append(delta, v)
					continue
				}
			}
			free = append(free, v)
		}
		for _, v := range top.newVars {
			if val, ok := doms[v].fixed(); ok {
				st[v] = val
				delta = append(delta, v)
			} else {
				free = append(free, v)
			}
		}
	} else {
		// Fast path: domains already empty.
		for _, d := range doms {
			if d.empty() {
				return Unsat, nil, nil
			}
		}
		// Collect variables: fixed ones go straight into the assignment,
		// free ones into the search order.
		if wantModel {
			st = expr.State{}
		} else {
			st = s.scratchSt
			clear(st)
		}
		for v, d := range doms {
			if val, ok := d.fixed(); ok {
				st[v] = val
			} else {
				free = append(free, v)
			}
		}
	}
	// Deterministic order: smallest interval first (fail-first heuristic),
	// ties by name. Insertion sort keeps this allocation-free; the
	// comparator is total (names are unique), so the result is the unique
	// sorted order regardless of algorithm.
	sortFree(free, doms)

	budget := &s.budget
	*budget = searchBudget{steps: s.opts.SearchBudget}
	if s.opts.CheckTimeout > 0 {
		budget.deadline = time.Now().Add(s.opts.CheckTimeout)
	}
	ok := s.assign(free, 0, st, doms, atoms, budget)
	res, err := Unsat, error(nil)
	switch {
	case ok:
		res = Sat
	case budget.exhausted():
		res = Unknown
		if budget.timedOut {
			err = &BudgetError{Timeout: s.opts.CheckTimeout}
		} else {
			err = &BudgetError{Steps: s.opts.SearchBudget}
		}
	}
	if bp != nil {
		// Restore the scratch state to prefix-fixed-only for the next
		// sibling: drop this sibling's delta-fixed vars and any free vars
		// a successful search assigned.
		for _, v := range delta {
			delete(st, v)
		}
		if ok {
			for _, v := range free {
				delete(st, v)
			}
		}
	}
	// Return the (possibly grown) scratch capacity to the solver.
	s.scratchFree = free[:0]
	s.scratchDelta = delta[:0]
	if res == Sat {
		return Sat, st, nil
	}
	return res, nil, err
}

// sortFree orders the free variables smallest-interval-first, ties by
// name (in-place insertion sort; free lists are path-depth sized).
func sortFree(free []expr.Var, doms map[expr.Var]*domain) {
	for i := 1; i < len(free); i++ {
		v := free[i]
		dv := doms[v]
		rv := dv.hi - dv.lo
		j := i - 1
		for j >= 0 {
			du := doms[free[j]]
			ru := du.hi - du.lo
			if ru < rv || (ru == rv && free[j] < v) {
				break
			}
			free[j+1] = free[j]
			j--
		}
		free[j+1] = v
	}
}

// assign recursively assigns free variables and finally validates the
// complete model.
func (s *Solver) assign(free []expr.Var, idx int, st expr.State, doms map[expr.Var]*domain, atoms []atom, budget *searchBudget) bool {
	if budget.spend() {
		return false
	}

	if idx == len(free) {
		return s.validate(st, atoms)
	}

	v := free[idx]
	d := doms[v]

	// Directional propagation at search time: if v is defined by an
	// expression whose variables are all assigned, compute it directly.
	if val, ok := definedValue(v, atoms, st); ok {
		if !d.contains(val) {
			return false
		}
		st[v] = val
		if s.partialConsistent(st, atoms) && s.assign(free, idx+1, st, doms, atoms, budget) {
			return true
		}
		delete(st, v)
		s.stats.Backtracks++
		return false
	}

	for _, cand := range d.candidates(s.opts.CandidatesPerVar, s.hints[v], s.candBuf(idx)) {
		st[v] = cand
		if s.partialConsistent(st, atoms) && s.assign(free, idx+1, st, doms, atoms, budget) {
			return true
		}
		delete(st, v)
		s.stats.Backtracks++
		if budget.exhausted() {
			return false
		}
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

// definedValue looks for an atomDefine or atomVarEq fixing v given the
// current partial assignment.
func definedValue(v expr.Var, atoms []atom, st expr.State) (uint64, bool) {
	for i := range atoms {
		a := &atoms[i]
		switch a.kind {
		case atomDefine:
			if a.v != v {
				continue
			}
			val, ok := expr.EvalArithOK(a.e, st)
			if ok {
				return a.w.Trunc(val), true
			}
		case atomVarEq:
			if a.v == v {
				if uv, ok := st[a.u]; ok {
					return a.w.Trunc(uv), true
				}
			}
			if a.u == v {
				if vv, ok := st[a.v]; ok {
					return a.w.Trunc(vv), true
				}
			}
		}
	}
	return 0, false
}

// partialConsistent rejects partial assignments that already falsify some
// constraint whose variables are all assigned.
func (s *Solver) partialConsistent(st expr.State, atoms []atom) bool {
	for i := range atoms {
		a := &atoms[i]
		if a.orig == nil {
			continue
		}
		ok, bound := expr.EvalBoolOK(a.orig, st)
		if !bound {
			continue // some variable still unassigned
		}
		if !ok {
			return false
		}
	}
	return true
}

// validate checks the complete assignment against every original
// constraint.
func (s *Solver) validate(st expr.State, atoms []atom) bool {
	for i := range atoms {
		a := &atoms[i]
		if a.orig == nil {
			continue
		}
		ok, bound := expr.EvalBoolOK(a.orig, st)
		if !bound || !ok {
			return false
		}
	}
	return true
}

// hintEntry is one memoized search hint: try val early for v.
type hintEntry struct {
	v   expr.Var
	val uint64
}

// hintEntries extracts constants adjacent to each variable in an atom
// list, used as first candidates during search. Computed once per
// normalized constraint (memoized in Solver.memo) and merged into
// the live per-variable hint index by Assert.
func hintEntries(atoms []atom) []hintEntry {
	var out []hintEntry
	add := func(v expr.Var, val uint64) {
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
		case atomDefine, atomDeferred:
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
