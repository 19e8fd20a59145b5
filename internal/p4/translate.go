package p4

import (
	"fmt"

	"repro/internal/expr"
)

// Arith translates a source expression to the CFG's arithmetic language
// (Fig. 3's aexp). It is the one meaning a P4 expression has outside the
// target: the CFG encoder, spec assumes and spec expects all call it.
//
// ref, when non-nil, is asked first about every field reference; a
// reference it declines resolves through e. Literals are untyped until
// an operand of known width meets them (fitWidths), operations are
// simplified as they are built, and ~x is x ^ mask(width of x).
func (e *Env) Arith(x Expr, ref func(*FieldRef) (expr.Arith, bool)) (expr.Arith, error) {
	switch t := x.(type) {
	case *NumberExpr:
		return expr.C(t.Val, expr.MaxWidth), nil
	case *FieldRef:
		if ref != nil {
			if a, ok := ref(t); ok {
				return a, nil
			}
		}
		v, w, err := e.ResolveRef(t)
		if err != nil {
			return nil, err
		}
		return expr.V(v, w), nil
	case *BinExpr:
		l, err := e.Arith(t.L, ref)
		if err != nil {
			return nil, err
		}
		r, err := e.Arith(t.R, ref)
		if err != nil {
			return nil, err
		}
		l, r = fitWidths(l, r)
		return expr.Simplify(expr.Bin{Op: t.Op, L: l, R: r}), nil
	case *NotExpr:
		v, err := e.Arith(t.X, ref)
		if err != nil {
			return nil, err
		}
		return expr.Simplify(expr.Bin{Op: expr.OpXor, L: v, R: expr.C(v.Width().Mask(), v.Width())}), nil
	}
	return nil, &CheckError{Msg: fmt.Sprintf("expression %T is not arithmetic", x), Pos: x.ExprPos()}
}

// Bool is Arith for a condition (Fig. 3's bexp).
func (e *Env) Bool(x Expr, ref func(*FieldRef) (expr.Arith, bool)) (expr.Bool, error) {
	switch t := x.(type) {
	case *CmpExpr:
		l, err := e.Arith(t.L, ref)
		if err != nil {
			return nil, err
		}
		r, err := e.Arith(t.R, ref)
		if err != nil {
			return nil, err
		}
		l, r = fitWidths(l, r)
		return expr.SimplifyBool(expr.Cmp{Op: t.Op, L: l, R: r}), nil
	case *LogicExpr:
		l, err := e.Bool(t.L, ref)
		if err != nil {
			return nil, err
		}
		r, err := e.Bool(t.R, ref)
		if err != nil {
			return nil, err
		}
		if t.Op == expr.LAnd {
			return expr.And(l, r), nil
		}
		return expr.Or(l, r), nil
	case *NotExpr:
		v, err := e.Bool(t.X, ref)
		if err != nil {
			return nil, err
		}
		return expr.SimplifyBool(expr.Negate(v)), nil
	case *IsValidExpr:
		return expr.Eq(expr.V(ValidVar(t.Header), 1), expr.C(1, 1)), nil
	}
	return nil, &CheckError{Msg: fmt.Sprintf("expression %T is not boolean", x), Pos: x.ExprPos()}
}

// fitWidths reconciles operand widths: an untyped literal adopts the other
// operand's width when its value fits there. One that does not fit keeps
// its 64 bits, so an impossible comparison stays detectable.
func fitWidths(l, r expr.Arith) (expr.Arith, expr.Arith) {
	lc, lIsC := l.(expr.Const)
	rc, rIsC := r.(expr.Const)
	switch {
	case lIsC && !rIsC && lc.W == expr.MaxWidth:
		if lc.Val <= r.Width().Mask() {
			return expr.C(lc.Val, r.Width()), r
		}
	case rIsC && !lIsC && rc.W == expr.MaxWidth:
		if rc.Val <= l.Width().Mask() {
			return l, expr.C(rc.Val, l.Width())
		}
	}
	return l, r
}
