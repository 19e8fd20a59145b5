package p4

import "repro/internal/expr"

// Arith translates a source expression to the CFG's arithmetic language
// (Fig. 3's aexp). It is the one meaning a P4 expression has outside the
// target: the CFG encoder, spec assumes and spec expects all call it.
//
// ref, when non-nil, is asked first about every field reference; a
// reference it declines resolves through e. Literals are untyped until
// an operand of known width meets them (fitWidths), operations are
// simplified as they are built, and ~x is x ^ mask(width of x).
func (e *Env) Arith(x Expr, ref func(*FieldRef) (expr.Arith, bool)) (a expr.Arith, err error) {
	defer catch(&err)
	return e.arith(x, ref), nil
}

// Bool is Arith for a condition (Fig. 3's bexp).
func (e *Env) Bool(x Expr, ref func(*FieldRef) (expr.Arith, bool)) (b expr.Bool, err error) {
	defer catch(&err)
	return e.boolean(x, ref), nil
}

func (e *Env) arith(x Expr, ref func(*FieldRef) (expr.Arith, bool)) expr.Arith {
	switch t := x.(type) {
	case *NumberExpr:
		return expr.C(t.Val, expr.MaxWidth)
	case *FieldRef:
		if ref != nil {
			if a, ok := ref(t); ok {
				return a
			}
		}
		return expr.V(e.resolve(t))
	case *BinExpr:
		l, r := fitWidths(e.arith(t.L, ref), e.arith(t.R, ref))
		return expr.Simplify(expr.Bin{Op: t.Op, L: l, R: r})
	case *NotExpr:
		v := e.arith(t.X, ref)
		return expr.Simplify(expr.Bin{Op: expr.OpXor, L: v, R: expr.C(v.Width().Mask(), v.Width())})
	}
	failCheck(x.ExprPos(), "%s is not arithmetic", ExprString(x))
	return nil
}

func (e *Env) boolean(x Expr, ref func(*FieldRef) (expr.Arith, bool)) expr.Bool {
	switch t := x.(type) {
	case *CmpExpr:
		l, r := fitWidths(e.arith(t.L, ref), e.arith(t.R, ref))
		return expr.SimplifyBool(expr.Cmp{Op: t.Op, L: l, R: r})
	case *LogicExpr:
		l, r := e.boolean(t.L, ref), e.boolean(t.R, ref)
		if t.Op == expr.LAnd {
			return expr.And(l, r)
		}
		return expr.Or(l, r)
	case *NotExpr:
		return expr.SimplifyBool(expr.Negate(e.boolean(t.X, ref)))
	case *IsValidExpr:
		return expr.Eq(expr.V(ValidVar(t.Header), 1), expr.C(1, 1))
	}
	failCheck(x.ExprPos(), "%s is not a condition", ExprString(x))
	return nil
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
