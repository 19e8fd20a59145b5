package smt

import (
	"repro/internal/expr"
)

// atomKind classifies a normalized constraint atom by how the propagation
// engine can exploit it.
type atomKind int

const (
	// atomInterval: v op const (interval refinement).
	atomInterval atomKind = iota
	// atomBits: (v & mask) == const (known-bits refinement).
	atomBits
	// atomExclude: v != const or (v & mask) != const with one-bit mask.
	atomExclude
	// atomVarEq: v == u (domain unification between two variables).
	atomVarEq
	// atomDefine: v == e where e is a general expression (directional
	// propagation once e's variables are fixed).
	atomDefine
	// atomDeferred: anything else — checked only against candidate models.
	atomDeferred
	// atomFalse: a constraint that simplified to False.
	atomFalse
)

// varW pairs a variable with its declared width, the precomputed unit of
// the per-atom variable lists below.
type varW struct {
	v expr.Var
	w expr.Width
}

// atom is a normalized constraint.
type atom struct {
	kind atomKind
	v    expr.Var   // subject variable (interval/bits/exclude/varEq/define)
	u    expr.Var   // second variable for varEq
	w    expr.Width // width of the subject variable
	op   expr.CmpOp // for atomInterval
	c    uint64     // constant operand
	mask uint64     // for atomBits / atomExclude-with-mask
	e    expr.Arith // defining expression for atomDefine
	orig expr.Bool  // original constraint, for the final model check
	// tvars/evars are precomputed variable lists for define/deferred
	// atoms: every variable the atom mentions (touchVars) and the
	// variables of the defining expression (evalUnderFixed). Atoms are
	// memoized per constraint value in Solver.memo, so these are
	// computed once and shared read-only; a fixed order here replaces the
	// per-call map iteration the old code paid on every propagation.
	tvars []varW
	evars []varW
}

// normalize lowers a boolean constraint into a list of atoms. Conjunctions
// are flattened; each conjunct is pattern-matched into the strongest atom
// class the propagator can use. Disjunctions and other complex shapes
// become deferred atoms (still enforced via the final model check and
// case-split search).
func normalize(b expr.Bool) []atom {
	b = expr.SimplifyBool(b)
	var out []atom
	for _, c := range expr.Conjuncts(b) {
		out = append(out, normalizeOne(c)...)
	}
	for i := range out {
		precomputeVars(&out[i])
	}
	return out
}

// precomputeVars fills tvars/evars for atoms whose propagation walks
// their variable sets.
func precomputeVars(a *atom) {
	if a.kind != atomDefine && a.kind != atomDeferred {
		return
	}
	vars := map[expr.Var]expr.Width{}
	if a.e != nil {
		expr.VarsOfArith(a.e, vars)
		for v, w := range vars {
			a.evars = append(a.evars, varW{v: v, w: w})
		}
	}
	if a.orig != nil {
		expr.VarsOfBool(a.orig, vars)
	}
	if a.v != "" {
		vars[a.v] = a.w
	}
	for v, w := range vars {
		a.tvars = append(a.tvars, varW{v: v, w: w})
	}
}

func normalizeOne(b expr.Bool) []atom {
	switch t := b.(type) {
	case expr.BoolConst:
		if bool(t) {
			return nil
		}
		return []atom{{kind: atomFalse, orig: b}}
	case expr.Cmp:
		return normalizeCmp(t)
	case expr.Not:
		return normalizeOne(expr.Negate(t.X))
	}
	// Disjunctions and any other shape: deferred.
	return []atom{{kind: atomDeferred, orig: b}}
}

func normalizeCmp(c expr.Cmp) []atom {
	l, r := c.L, c.R
	op := c.Op
	// Put the constant on the right when possible.
	if _, ok := l.(expr.Const); ok {
		l, r = r, l
		op = flip(op)
	}

	rc, rIsConst := r.(expr.Const)

	switch lhs := l.(type) {
	case expr.Ref:
		if rIsConst {
			val := lhs.W.Trunc(rc.Val)
			switch op {
			case expr.CmpEq:
				if rc.Val > lhs.W.Mask() {
					return []atom{{kind: atomFalse, orig: c}}
				}
				return []atom{{kind: atomInterval, v: lhs.Var, w: lhs.W, op: expr.CmpEq, c: val, orig: c}}
			case expr.CmpNe:
				if rc.Val > lhs.W.Mask() {
					return nil // always true
				}
				return []atom{{kind: atomExclude, v: lhs.Var, w: lhs.W, c: val, mask: lhs.W.Mask(), orig: c}}
			default:
				return []atom{{kind: atomInterval, v: lhs.Var, w: lhs.W, op: op, c: rc.Val, orig: c}}
			}
		}
		if rr, ok := r.(expr.Ref); ok && op == expr.CmpEq {
			return []atom{{kind: atomVarEq, v: lhs.Var, u: rr.Var, w: lhs.W, orig: c}}
		}
		if op == expr.CmpEq {
			return []atom{{kind: atomDefine, v: lhs.Var, w: lhs.W, e: r, orig: c}}
		}
		return []atom{{kind: atomDeferred, orig: c}}
	case expr.Bin:
		// (v & mask) ==/!= const — ternary and LPM matches.
		if lhs.Op == expr.OpAnd && rIsConst {
			if vref, ok := lhs.L.(expr.Ref); ok {
				if mc, ok := lhs.R.(expr.Const); ok {
					return maskAtom(vref, mc.Val, rc.Val, op, c)
				}
			}
			if vref, ok := lhs.R.(expr.Ref); ok {
				if mc, ok := lhs.L.(expr.Const); ok {
					return maskAtom(vref, mc.Val, rc.Val, op, c)
				}
			}
		}
		// (e) == v — flip into a definition when the other side is a ref.
		if vr, ok := r.(expr.Ref); ok && op == expr.CmpEq {
			return []atom{{kind: atomDefine, v: vr.Var, w: vr.W, e: l, orig: c}}
		}
		return []atom{{kind: atomDeferred, orig: c}}
	}
	return []atom{{kind: atomDeferred, orig: c}}
}

// maskAtom builds atoms for (v & mask) op const.
func maskAtom(v expr.Ref, mask, val uint64, op expr.CmpOp, orig expr.Bool) []atom {
	val &= v.W.Mask()
	mask &= v.W.Mask()
	switch op {
	case expr.CmpEq:
		if val&^mask != 0 {
			return []atom{{kind: atomFalse, orig: orig}}
		}
		return []atom{{kind: atomBits, v: v.Var, w: v.W, mask: mask, c: val, orig: orig}}
	case expr.CmpNe:
		// Only exploitable when the mask covers the whole width (plain
		// disequality) — otherwise defer.
		if mask == v.W.Mask() {
			return []atom{{kind: atomExclude, v: v.Var, w: v.W, c: val, mask: mask, orig: orig}}
		}
		return []atom{{kind: atomDeferred, orig: orig}}
	default:
		return []atom{{kind: atomDeferred, orig: orig}}
	}
}

func flip(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.CmpGt:
		return expr.CmpLt
	case expr.CmpLt:
		return expr.CmpGt
	case expr.CmpGe:
		return expr.CmpLe
	case expr.CmpLe:
		return expr.CmpGe
	}
	return op
}
