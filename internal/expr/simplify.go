package expr

// Simplify performs local algebraic simplification of an arithmetic
// expression: constant folding and identity/annihilator elimination.
// Simplification keeps symbolic execution states compact, which is what
// makes the succinct path encodings of code summary (§3.3) small.
func Simplify(a Arith) Arith {
	b, ok := a.(Bin)
	if !ok {
		return a
	}
	return simplifyBin(b.Op, b.L, b.R)
}

// simplifyBin is Simplify(Bin{op, l, r}) without boxing the operation
// first: substitution folds most of what it rebuilds straight to a
// constant, and an interface value built only to be folded is garbage.
func simplifyBin(op AOp, l, r Arith) Arith {
	l = Simplify(l)
	r = Simplify(r)
	lc, lIsC := l.(Const)
	rc, rIsC := r.(Const)
	if lIsC && rIsC {
		return foldBin(op, lc, rc)
	}
	w := l.Width()
	if rw := r.Width(); rw > w {
		w = rw
	}

	switch op {
	case OpAdd:
		if lIsC && lc.Val == 0 {
			return r
		}
		if rIsC && rc.Val == 0 {
			return l
		}
		// (x + c1) + c2 → x + (c1+c2)
		if rIsC {
			if lb, ok := l.(Bin); ok && lb.Op == OpAdd {
				if ic, ok := lb.R.(Const); ok {
					return simplifyBin(OpAdd, lb.L, Const{Val: w.Trunc(ic.Val + rc.Val), W: w})
				}
			}
		}
	case OpSub:
		if rIsC && rc.Val == 0 {
			return l
		}
		if EqualArith(l, r) {
			return Const{Val: 0, W: w}
		}
	case OpAnd:
		if (lIsC && lc.Val == 0) || (rIsC && rc.Val == 0) {
			return Const{Val: 0, W: w}
		}
		if lIsC && lc.Val == w.Mask() {
			return r
		}
		if rIsC && rc.Val == w.Mask() {
			return l
		}
		if EqualArith(l, r) {
			return l
		}
	case OpOr:
		if lIsC && lc.Val == 0 {
			return r
		}
		if rIsC && rc.Val == 0 {
			return l
		}
		if (lIsC && lc.Val == w.Mask()) || (rIsC && rc.Val == w.Mask()) {
			return Const{Val: w.Mask(), W: w}
		}
		if EqualArith(l, r) {
			return l
		}
	case OpXor:
		if lIsC && lc.Val == 0 {
			return r
		}
		if rIsC && rc.Val == 0 {
			return l
		}
		if EqualArith(l, r) {
			return Const{Val: 0, W: w}
		}
	case OpShl, OpShr:
		if rIsC && rc.Val == 0 {
			return l
		}
		if lIsC && lc.Val == 0 {
			return Const{Val: 0, W: w}
		}
	case OpMul:
		if (lIsC && lc.Val == 0) || (rIsC && rc.Val == 0) {
			return Const{Val: 0, W: w}
		}
		if lIsC && lc.Val == 1 {
			return r
		}
		if rIsC && rc.Val == 1 {
			return l
		}
	}
	return Bin{Op: op, L: l, R: r}
}

// foldBin is the constant an operation on two constants folds to.
func foldBin(op AOp, l, r Const) Const {
	w := l.W
	if r.W > w {
		w = r.W
	}
	return Const{Val: op.Apply(l.Val, r.Val, w), W: w}
}

// SimplifyBool performs local simplification of a boolean expression:
// constant folding of comparisons on constants, trivially-true/false
// comparisons of identical operands, and connective short-circuiting.
func SimplifyBool(b Bool) Bool {
	switch t := b.(type) {
	case BoolConst:
		return t
	case Cmp:
		return simplifyCmp(t.Op, t.L, t.R)
	case Logic:
		l := SimplifyBool(t.L)
		r := SimplifyBool(t.R)
		if t.Op == LAnd {
			return And(l, r)
		}
		return Or(l, r)
	case Not:
		x := SimplifyBool(t.X)
		if bc, ok := x.(BoolConst); ok {
			return BoolConst(!bc)
		}
		return Negate(x)
	}
	return b
}

// simplifyCmp is SimplifyBool(Cmp{op, l, r}) without boxing the comparison
// first (see simplifyBin): a comparison of two constants returns the
// shared True/False and allocates nothing.
func simplifyCmp(op CmpOp, l, r Arith) Bool {
	l = Simplify(l)
	r = Simplify(r)
	lc, lIsC := l.(Const)
	rc, rIsC := r.(Const)
	if lIsC && rIsC {
		return BoolConst(op.Apply(lc.Val, rc.Val))
	}
	if EqualArith(l, r) {
		switch op {
		case CmpEq, CmpGe, CmpLe:
			return True
		case CmpNe, CmpGt, CmpLt:
			return False
		}
	}
	// Width-impossible comparisons: x > mask(w) is always false.
	if rIsC {
		w := l.Width()
		switch op {
		case CmpGt:
			if rc.Val >= w.Mask() {
				return False
			}
		case CmpLe:
			if rc.Val >= w.Mask() {
				return True
			}
		case CmpLt:
			if rc.Val == 0 {
				return False
			}
		case CmpGe:
			if rc.Val == 0 {
				return True
			}
		case CmpEq, CmpNe:
			if rc.Val > w.Mask() {
				if op == CmpEq {
					return False
				}
				return True
			}
		}
	}
	return Cmp{Op: op, L: l, R: r}
}

// AppendConjuncts appends the top-level conjuncts of b to dst, left to
// right, and returns the extended slice: a non-conjunction is one conjunct,
// True contributes none and False is the conjunct False.
func AppendConjuncts(dst []Bool, b Bool) []Bool {
	switch t := b.(type) {
	case BoolConst:
		if t {
			return dst
		}
	case Logic:
		if t.Op == LAnd {
			return AppendConjuncts(AppendConjuncts(dst, t.L), t.R)
		}
	}
	return append(dst, b)
}
