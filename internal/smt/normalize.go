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
	// atomMaskNe: (v & mask) != const with a partial mask. Deferred like
	// atomDeferred, and refuted at query time once v's known bits cover
	// the mask and equal const (Solver.refuted).
	atomMaskNe
	// atomFalse: a constraint that simplified to False.
	atomFalse
)

// slotW pairs a variable's slot with the width the atom declares for it.
type slotW struct {
	v int32
	w expr.Width
}

// atom is a normalized constraint. Variables are slots of the solver that
// normalized it (Solver.slot): an atom is made on an assert-memo miss and
// from then on propagated, searched and evaluated without hashing a name.
type atom struct {
	kind atomKind
	v    int32      // subject variable (interval/bits/exclude/varEq/define)
	u    int32      // second variable for varEq
	w    expr.Width // width of the subject variable
	op   expr.CmpOp // for atomInterval
	c    uint64     // constant operand
	mask uint64     // for atomBits / atomExclude-with-mask / atomMaskNe
	e    expr.Arith // defining expression for atomDefine
	orig expr.Bool  // original constraint, for the final model check
	// orefs and erefs are the Ref slots of orig and e in evaluation order
	// (expr.SlotState). tvars lists every variable a define or deferred atom
	// mentions, each once, for propagation to bring to life.
	orefs []int32
	erefs []int32
	tvars []slotW
}

// normalize lowers a boolean constraint into a list of atoms. Conjunctions
// are flattened; each conjunct is pattern-matched into the strongest atom
// class the propagator can use. Disjunctions and other complex shapes
// become deferred atoms (still enforced via the final model check and
// case-split search). Every atom then gets the slot lists evaluation and
// propagation walk, cut from one buffer per constraint (a list cut before
// the buffer moves stays valid where it is).
func (s *Solver) normalize(b expr.Bool) []atom {
	b = expr.SimplifyBool(b)
	var out []atom
	for _, c := range expr.Conjuncts(b) {
		out = s.normalizeOne(out, c)
	}
	var refs []int32
	var mentions *atom // the atom whose tvars the walk below fills, if any
	slot := func(r expr.Ref) int32 {
		sl := s.slot(r.Var)
		if mentions != nil {
			mentions.mention(sl, r.W)
		}
		return sl
	}
	for i := range out {
		a := &out[i]
		mentions = nil
		if a.kind == atomDefine || a.kind == atomDeferred || a.kind == atomMaskNe {
			mentions = a
		}
		n := len(refs)
		refs = expr.RefSlotsBool(refs, a.orig, slot)
		a.orefs = refs[n:]
		if a.kind != atomDefine {
			continue
		}
		mentions = nil
		n = len(refs)
		refs = expr.RefSlotsArith(refs, a.e, slot)
		a.erefs = refs[n:]
		for k := range a.tvars {
			if a.tvars[k].v == a.v {
				a.tvars[k].w = a.w // the subject is born at its own width
			}
		}
	}
	return out
}

// mention records that the atom refers to slot sl at width w: each variable
// once, at the widest of its references.
func (a *atom) mention(sl int32, w expr.Width) {
	for i := range a.tvars {
		if a.tvars[i].v == sl {
			a.tvars[i].w = max(a.tvars[i].w, w)
			return
		}
	}
	a.tvars = append(a.tvars, slotW{v: sl, w: w})
}

// normalizeOne appends the atoms of one conjunct to dst.
func (s *Solver) normalizeOne(dst []atom, b expr.Bool) []atom {
	switch t := b.(type) {
	case expr.BoolConst:
		if bool(t) {
			return dst
		}
		return append(dst, atom{kind: atomFalse, orig: b})
	case expr.Cmp:
		return s.normalizeCmp(dst, t)
	case expr.Not:
		return s.normalizeOne(dst, expr.Negate(t.X))
	}
	// Disjunctions and any other shape: deferred.
	return append(dst, atom{kind: atomDeferred, orig: b})
}

func (s *Solver) normalizeCmp(dst []atom, c expr.Cmp) []atom {
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
					return append(dst, atom{kind: atomFalse, orig: c})
				}
				return append(dst, atom{kind: atomInterval, v: s.slot(lhs.Var), w: lhs.W, op: expr.CmpEq, c: val, orig: c})
			case expr.CmpNe:
				if rc.Val > lhs.W.Mask() {
					return dst // always true
				}
				return append(dst, atom{kind: atomExclude, v: s.slot(lhs.Var), w: lhs.W, c: val, mask: lhs.W.Mask(), orig: c})
			default:
				return append(dst, atom{kind: atomInterval, v: s.slot(lhs.Var), w: lhs.W, op: op, c: rc.Val, orig: c})
			}
		}
		if rr, ok := r.(expr.Ref); ok && op == expr.CmpEq {
			return append(dst, atom{kind: atomVarEq, v: s.slot(lhs.Var), u: s.slot(rr.Var), w: lhs.W, orig: c})
		}
		if op == expr.CmpEq {
			return append(dst, atom{kind: atomDefine, v: s.slot(lhs.Var), w: lhs.W, e: r, orig: c})
		}
		return append(dst, atom{kind: atomDeferred, orig: c})
	case expr.Bin:
		// (v & mask) ==/!= const — ternary and LPM matches.
		if lhs.Op == expr.OpAnd && rIsConst {
			if vref, ok := lhs.L.(expr.Ref); ok {
				if mc, ok := lhs.R.(expr.Const); ok {
					return s.maskAtom(dst, vref, mc.Val, rc.Val, op, c)
				}
			}
			if vref, ok := lhs.R.(expr.Ref); ok {
				if mc, ok := lhs.L.(expr.Const); ok {
					return s.maskAtom(dst, vref, mc.Val, rc.Val, op, c)
				}
			}
		}
		// (e) == v — flip into a definition when the other side is a ref.
		if vr, ok := r.(expr.Ref); ok && op == expr.CmpEq {
			return append(dst, atom{kind: atomDefine, v: s.slot(vr.Var), w: vr.W, e: l, orig: c})
		}
		return append(dst, atom{kind: atomDeferred, orig: c})
	}
	return append(dst, atom{kind: atomDeferred, orig: c})
}

// maskAtom builds atoms for (v & mask) op const.
func (s *Solver) maskAtom(dst []atom, v expr.Ref, mask, val uint64, op expr.CmpOp, orig expr.Bool) []atom {
	raw := val
	val &= v.W.Mask()
	mask &= v.W.Mask()
	switch op {
	case expr.CmpEq:
		if val&^mask != 0 {
			return append(dst, atom{kind: atomFalse, orig: orig})
		}
		return append(dst, atom{kind: atomBits, v: s.slot(v.Var), w: v.W, mask: mask, c: val, orig: orig})
	case expr.CmpNe:
		// A constant with bits above v's width never equals v & mask, so
		// the disequality always holds. Otherwise it is only exploitable
		// when the mask covers the whole width (plain disequality); a
		// partial mask is deferred.
		if raw > v.W.Mask() {
			return dst
		}
		if mask == v.W.Mask() {
			return append(dst, atom{kind: atomExclude, v: s.slot(v.Var), w: v.W, c: val, mask: mask, orig: orig})
		}
		return append(dst, atom{kind: atomMaskNe, v: s.slot(v.Var), w: v.W, c: val, mask: mask, orig: orig})
	default:
		return append(dst, atom{kind: atomDeferred, orig: orig})
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
