// Package expr implements the bit-vector expression language used by the
// Meissa control-flow graph (Figure 3 of the paper): arithmetic expressions
// (aexp) over packet header fields and boolean expressions (bexp) over
// comparisons of arithmetic expressions.
//
// Values are unsigned bit-vectors of width 1..64 with modular arithmetic.
// Expressions are immutable; all transforming operations return new trees.
package expr

import (
	"strconv"
)

// Width is the bit width of an arithmetic expression, in the range [1, 64].
type Width int

// MaxWidth is the widest supported bit-vector.
const MaxWidth Width = 64

// Mask returns the value mask for the width (w low bits set).
func (w Width) Mask() uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// Trunc truncates v to the width.
func (w Width) Trunc(v uint64) uint64 { return v & w.Mask() }

// Var identifies a header field variable (field_id in the paper's grammar),
// e.g. "hdr.ipv4.dstAddr", "meta.egressPort", or a register cell
// "REG:counts-POS:0".
type Var string

// AOp is a binary arithmetic operator.
type AOp int

// Arithmetic operators. The paper's grammar lists + - & |; we additionally
// support ^, <<, >>, and * because the corpus programs use them for
// checksum folding and hashing.
const (
	OpAdd AOp = iota
	OpSub
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpMul
)

func (op AOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpAnd:
		return "&"
	case OpOr:
		return "|"
	case OpXor:
		return "^"
	case OpShl:
		return "<<"
	case OpShr:
		return ">>"
	case OpMul:
		return "*"
	}
	return "aop(" + strconv.Itoa(int(op)) + ")"
}

// Apply evaluates the operator on two concrete values, truncating to w.
func (op AOp) Apply(a, b uint64, w Width) uint64 {
	var r uint64
	switch op {
	case OpAdd:
		r = a + b
	case OpSub:
		r = a - b
	case OpAnd:
		r = a & b
	case OpOr:
		r = a | b
	case OpXor:
		r = a ^ b
	case OpShl:
		if b >= 64 {
			r = 0
		} else {
			r = a << b
		}
	case OpShr:
		if b >= 64 {
			r = 0
		} else {
			r = a >> b
		}
	case OpMul:
		r = a * b
	}
	return w.Trunc(r)
}

// CmpOp is a comparison operator between arithmetic expressions.
type CmpOp int

// Comparison operators from the paper's grammar, plus >= and <= which the
// frontend uses to encode range matches.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpGt
	CmpLt
	CmpGe
	CmpLe
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpGt:
		return ">"
	case CmpLt:
		return "<"
	case CmpGe:
		return ">="
	case CmpLe:
		return "<="
	}
	return "cop(" + strconv.Itoa(int(op)) + ")"
}

// Apply evaluates the comparison on concrete (unsigned) values.
func (op CmpOp) Apply(a, b uint64) bool {
	switch op {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpGt:
		return a > b
	case CmpLt:
		return a < b
	case CmpGe:
		return a >= b
	case CmpLe:
		return a <= b
	}
	return false
}

// Negate returns the complementary comparison.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpGt:
		return CmpLe
	case CmpLt:
		return CmpGe
	case CmpGe:
		return CmpLt
	case CmpLe:
		return CmpGt
	}
	return op
}

// Arith is an arithmetic expression (aexp in the paper's grammar).
type Arith interface {
	// Width is the bit width of the expression's value.
	Width() Width
	// String renders the expression in the paper's concrete syntax.
	String() string
	aexp()
}

// Bool is a boolean expression (bexp in the paper's grammar).
type Bool interface {
	// String renders the expression in the paper's concrete syntax.
	String() string
	bexp()
}

// Const is a concrete bit-vector value.
type Const struct {
	Val uint64
	W   Width
}

// C builds a constant of the given width, truncated to fit.
func C(val uint64, w Width) Const { return Const{Val: w.Trunc(val), W: w} }

func (c Const) Width() Width   { return c.W }
func (c Const) String() string { return strconv.FormatUint(c.Val, 10) }
func (Const) aexp()            {}

// Ref is a reference to a header field variable.
type Ref struct {
	Var Var
	W   Width
}

// V builds a variable reference.
func V(name Var, w Width) Ref { return Ref{Var: name, W: w} }

func (r Ref) Width() Width   { return r.W }
func (r Ref) String() string { return string(r.Var) }
func (Ref) aexp()            {}

// Bin is a binary arithmetic operation.
type Bin struct {
	Op   AOp
	L, R Arith
}

func (b Bin) Width() Width {
	lw, rw := b.L.Width(), b.R.Width()
	if lw > rw {
		return lw
	}
	return rw
}

func (b Bin) String() string { return string(AppendArith(nil, b)) }
func (Bin) aexp()            {}

// BoolConst is a boolean literal (True / False in the paper's grammar).
type BoolConst bool

// True and False are the boolean literals.
const (
	True  BoolConst = true
	False BoolConst = false
)

func (b BoolConst) String() string {
	if b {
		return "True"
	}
	return "False"
}
func (BoolConst) bexp() {}

// Cmp compares two arithmetic expressions.
type Cmp struct {
	Op   CmpOp
	L, R Arith
}

func (c Cmp) String() string { return string(AppendBool(nil, c)) }
func (Cmp) bexp()            {}

// LOp is a boolean connective.
type LOp int

// Boolean connectives from the paper's grammar.
const (
	LAnd LOp = iota
	LOr
)

func (op LOp) String() string {
	if op == LAnd {
		return "&&"
	}
	return "||"
}

// Logic combines two boolean expressions.
type Logic struct {
	Op   LOp
	L, R Bool
}

func (l Logic) String() string { return string(AppendBool(nil, l)) }
func (Logic) bexp()            {}

// Not negates a boolean expression (the ~ operator in the paper's grammar).
type Not struct{ X Bool }

func (n Not) String() string { return string(AppendBool(nil, n)) }
func (Not) bexp()            {}

// AppendArith appends a's rendering in the paper's concrete syntax to dst:
// the one renderer, which every String method of a composite expression
// goes through. Appending visits each node once, where nesting String
// calls re-copied every subtree's text at each level above it.
func AppendArith(dst []byte, a Arith) []byte {
	switch t := a.(type) {
	case Const:
		return strconv.AppendUint(dst, t.Val, 10)
	case Ref:
		return append(dst, t.Var...)
	case Bin:
		dst = append(dst, '(')
		dst = AppendArith(dst, t.L)
		dst = appendInfix(dst, t.Op.String())
		dst = AppendArith(dst, t.R)
		return append(dst, ')')
	}
	return dst
}

// appendInfix appends " op ".
func appendInfix(dst []byte, op string) []byte {
	dst = append(dst, ' ')
	dst = append(dst, op...)
	return append(dst, ' ')
}

// AppendBool is AppendArith for a boolean expression.
func AppendBool(dst []byte, b Bool) []byte {
	switch t := b.(type) {
	case BoolConst:
		return append(dst, t.String()...)
	case Cmp:
		dst = AppendArith(dst, t.L)
		dst = appendInfix(dst, t.Op.String())
		return AppendArith(dst, t.R)
	case Logic:
		dst = append(dst, '(')
		dst = AppendBool(dst, t.L)
		dst = appendInfix(dst, t.Op.String())
		dst = AppendBool(dst, t.R)
		return append(dst, ')')
	case Not:
		dst = append(dst, "~("...)
		dst = AppendBool(dst, t.X)
		return append(dst, ')')
	}
	return dst
}

// Eq is shorthand for an equality comparison.
func Eq(l, r Arith) Bool { return Cmp{Op: CmpEq, L: l, R: r} }

// And conjoins boolean expressions, short-circuiting constants.
func And(l, r Bool) Bool {
	if lb, ok := l.(BoolConst); ok {
		if lb {
			return r
		}
		return False
	}
	if rb, ok := r.(BoolConst); ok {
		if rb {
			return l
		}
		return False
	}
	return Logic{Op: LAnd, L: l, R: r}
}

// Or disjoins boolean expressions, short-circuiting constants.
func Or(l, r Bool) Bool {
	if lb, ok := l.(BoolConst); ok {
		if lb {
			return True
		}
		return r
	}
	if rb, ok := r.(BoolConst); ok {
		if rb {
			return True
		}
		return l
	}
	return Logic{Op: LOr, L: l, R: r}
}

// AndAll conjoins a slice of boolean expressions.
func AndAll(bs []Bool) Bool {
	res := Bool(True)
	for _, b := range bs {
		res = And(res, b)
	}
	return res
}

// Negate returns the logical negation of b, pushing the negation through
// comparisons and connectives (negation normal form step).
func Negate(b Bool) Bool {
	switch t := b.(type) {
	case BoolConst:
		return BoolConst(!t)
	case Cmp:
		return Cmp{Op: t.Op.Negate(), L: t.L, R: t.R}
	case Logic:
		if t.Op == LAnd {
			return Or(Negate(t.L), Negate(t.R))
		}
		return And(Negate(t.L), Negate(t.R))
	case Not:
		return t.X
	}
	return Not{X: b}
}

// VarsOfArith appends the variables referenced by a into dst.
func VarsOfArith(a Arith, dst map[Var]Width) {
	switch t := a.(type) {
	case Const:
	case Ref:
		if w, ok := dst[t.Var]; !ok || t.W > w {
			dst[t.Var] = t.W
		}
	case Bin:
		VarsOfArith(t.L, dst)
		VarsOfArith(t.R, dst)
	}
}

// VarsOfBool appends the variables referenced by b into dst.
func VarsOfBool(b Bool, dst map[Var]Width) {
	switch t := b.(type) {
	case BoolConst:
	case Cmp:
		VarsOfArith(t.L, dst)
		VarsOfArith(t.R, dst)
	case Logic:
		VarsOfBool(t.L, dst)
		VarsOfBool(t.R, dst)
	case Not:
		VarsOfBool(t.X, dst)
	}
}

// EqualArith reports structural equality of arithmetic expressions.
func EqualArith(a, b Arith) bool {
	switch ta := a.(type) {
	case Const:
		tb, ok := b.(Const)
		return ok && ta.Val == tb.Val && ta.W == tb.W
	case Ref:
		tb, ok := b.(Ref)
		return ok && ta.Var == tb.Var && ta.W == tb.W
	case Bin:
		tb, ok := b.(Bin)
		return ok && ta.Op == tb.Op && EqualArith(ta.L, tb.L) && EqualArith(ta.R, tb.R)
	}
	return false
}

// EqualBool reports structural equality of boolean expressions.
func EqualBool(a, b Bool) bool {
	switch ta := a.(type) {
	case BoolConst:
		tb, ok := b.(BoolConst)
		return ok && ta == tb
	case Cmp:
		tb, ok := b.(Cmp)
		return ok && ta.Op == tb.Op && EqualArith(ta.L, tb.L) && EqualArith(ta.R, tb.R)
	case Logic:
		tb, ok := b.(Logic)
		return ok && ta.Op == tb.Op && EqualBool(ta.L, tb.L) && EqualBool(ta.R, tb.R)
	case Not:
		tb, ok := b.(Not)
		return ok && EqualBool(ta.X, tb.X)
	}
	return false
}

// HashBool digests the top depth levels of b — node kinds, operators,
// constants, widths and the tails of variable names — so that EqualBool
// expressions hash equal and the cost is bounded whatever b's size. It picks
// a bucket; only EqualBool says two expressions are the same.
func HashBool(b Bool, depth int) uint64 { return hashBool(14695981039346656037, b, depth) }

func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

func hashBool(h uint64, b Bool, depth int) uint64 {
	switch t := b.(type) {
	case BoolConst:
		if t {
			return mix(h, 1)
		}
		return mix(h, 2)
	case Cmp:
		h = mix(h, 3<<8|uint64(t.Op))
		if depth > 0 {
			h = hashArith(hashArith(h, t.L, depth-1), t.R, depth-1)
		}
	case Logic:
		h = mix(h, 4<<8|uint64(t.Op))
		if depth > 0 {
			h = hashBool(hashBool(h, t.L, depth-1), t.R, depth-1)
		}
	case Not:
		h = mix(h, 5)
		if depth > 0 {
			h = hashBool(h, t.X, depth-1)
		}
	}
	return h
}

func hashArith(h uint64, a Arith, depth int) uint64 {
	switch t := a.(type) {
	case Const:
		return mix(mix(h, 6<<8|uint64(t.W)), t.Val)
	case Ref:
		h = mix(h, 7<<8|uint64(t.W))
		h = mix(h, uint64(len(t.Var)))
		for i := max(0, len(t.Var)-8); i < len(t.Var); i++ {
			h = mix(h, uint64(t.Var[i]))
		}
	case Bin:
		h = mix(h, 8<<8|uint64(t.Op))
		if depth > 0 {
			h = hashArith(hashArith(h, t.L, depth-1), t.R, depth-1)
		}
	}
	return h
}
