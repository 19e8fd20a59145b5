package expr

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestWidthMask(t *testing.T) {
	cases := []struct {
		w    Width
		want uint64
	}{
		{1, 1},
		{8, 0xff},
		{9, 0x1ff},
		{16, 0xffff},
		{32, 0xffffffff},
		{48, 0xffffffffffff},
		{64, ^uint64(0)},
	}
	for _, c := range cases {
		if got := c.w.Mask(); got != c.want {
			t.Errorf("Width(%d).Mask() = %#x, want %#x", c.w, got, c.want)
		}
	}
}

func TestTrunc(t *testing.T) {
	if got := Width(8).Trunc(0x1ff); got != 0xff {
		t.Errorf("Trunc(0x1ff) at width 8 = %#x, want 0xff", got)
	}
	if got := Width(64).Trunc(^uint64(0)); got != ^uint64(0) {
		t.Errorf("Trunc at width 64 must be identity")
	}
}

func TestAOpApplyModular(t *testing.T) {
	// 8-bit addition wraps around.
	if got := OpAdd.Apply(0xff, 1, 8); got != 0 {
		t.Errorf("0xff+1 (w8) = %d, want 0", got)
	}
	// Subtraction wraps too.
	if got := OpSub.Apply(0, 1, 8); got != 0xff {
		t.Errorf("0-1 (w8) = %d, want 255", got)
	}
	if got := OpShl.Apply(1, 65, 16); got != 0 {
		t.Errorf("1<<65 = %d, want 0", got)
	}
	if got := OpShr.Apply(0x100, 4, 16); got != 0x10 {
		t.Errorf("0x100>>4 = %#x, want 0x10", got)
	}
}

func TestCmpOpNegateInvolution(t *testing.T) {
	ops := []CmpOp{CmpEq, CmpNe, CmpGt, CmpLt, CmpGe, CmpLe}
	for _, op := range ops {
		if op.Negate().Negate() != op {
			t.Errorf("Negate is not an involution for %s", op)
		}
	}
}

func TestCmpNegateSemantics(t *testing.T) {
	// For all op and values, op(a,b) XOR negate(op)(a,b) must hold.
	f := func(a, b uint16, opIdx uint8) bool {
		op := CmpOp(opIdx % 6)
		x, y := uint64(a), uint64(b)
		return op.Apply(x, y) != op.Negate().Apply(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalArith(t *testing.T) {
	s := State{"hdr.x": 10, "hdr.y": 3}
	e := Bin{Op: OpAdd, L: V("hdr.x", 16), R: Bin{Op: OpMul, L: V("hdr.y", 16), R: C(2, 16)}}
	got, err := EvalArith(e, s)
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Errorf("eval = %d, want 16", got)
	}
}

func TestEvalArithUnbound(t *testing.T) {
	_, err := EvalArith(V("hdr.missing", 8), State{})
	if err == nil {
		t.Fatal("expected ErrUnbound")
	}
	if _, ok := err.(ErrUnbound); !ok {
		t.Fatalf("expected ErrUnbound, got %T", err)
	}
}

func TestEvalBool(t *testing.T) {
	s := State{"proto": 6}
	b := And(Eq(V("proto", 8), C(6, 8)), Cmp{Op: CmpNe, L: V("proto", 8), R: C(17, 8)})
	got, err := EvalBool(b, s)
	if err != nil || !got {
		t.Errorf("eval = %v, %v; want true, nil", got, err)
	}
}

func TestEvalBoolShortCircuit(t *testing.T) {
	// x == 1 || unbound == 2 : should short-circuit when x == 1.
	s := State{"x": 1}
	b := Logic{Op: LOr, L: Eq(V("x", 8), C(1, 8)), R: Eq(V("unbound", 8), C(2, 8))}
	got, err := EvalBool(b, s)
	if err != nil || !got {
		t.Errorf("short-circuit or: got %v, %v", got, err)
	}
	b2 := Logic{Op: LAnd, L: Eq(V("x", 8), C(2, 8)), R: Eq(V("unbound", 8), C(2, 8))}
	got2, err2 := EvalBool(b2, s)
	if err2 != nil || got2 {
		t.Errorf("short-circuit and: got %v, %v", got2, err2)
	}
}

func TestSubstArith(t *testing.T) {
	v := Subst{"dstPort": Bin{Op: OpAdd, L: V("srcPort", 16), R: C(1, 16)}}
	e := SubstArith(V("dstPort", 16), v)
	want := Bin{Op: OpAdd, L: V("srcPort", 16), R: C(1, 16)}
	if !EqualArith(e, want) {
		t.Errorf("subst = %s, want %s", e, want)
	}
}

func TestSubstBoolPaperFigure5b(t *testing.T) {
	// Figure 5(b): after dstIP <- 192.168.0.1, the predicate
	// dstIP == 10.1.1.1 must simplify to False.
	v := Subst{"dstIP": C(0xC0A80001, 32)}
	b := SubstBool(Eq(V("dstIP", 32), C(0x0A010101, 32)), v)
	if bc, ok := b.(BoolConst); !ok || bool(bc) {
		t.Errorf("predicate after assignment = %s, want False", b)
	}
}

func TestNegateDeMorgan(t *testing.T) {
	a := Eq(V("a", 8), C(1, 8))
	b := Eq(V("b", 8), C(2, 8))
	n := Negate(And(a, b))
	// Must be (a != 1) || (b != 2).
	l, ok := n.(Logic)
	if !ok || l.Op != LOr {
		t.Fatalf("negated AND = %s, want OR", n)
	}
}

func TestNegateSemantics(t *testing.T) {
	f := func(a, b uint8) bool {
		st := State{"a": uint64(a), "b": uint64(b)}
		orig := Or(Eq(V("a", 8), C(7, 8)), And(Cmp{Op: CmpNe, L: V("b", 8), R: C(3, 8)}, Cmp{Op: CmpLt, L: V("a", 8), R: V("b", 8)}))
		neg := Negate(orig)
		v1, err1 := EvalBool(orig, st)
		v2, err2 := EvalBool(neg, st)
		return err1 == nil && err2 == nil && v1 != v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAndOrShortCircuitConstants(t *testing.T) {
	x := Eq(V("x", 8), C(1, 8))
	if got := And(True, x); !EqualBool(got, x) {
		t.Errorf("And(True,x) = %s", got)
	}
	if got := And(False, x); !EqualBool(got, False) {
		t.Errorf("And(False,x) = %s", got)
	}
	if got := Or(True, x); !EqualBool(got, True) {
		t.Errorf("Or(True,x) = %s", got)
	}
	if got := Or(x, False); !EqualBool(got, x) {
		t.Errorf("Or(x,False) = %s", got)
	}
}

func TestVarsOf(t *testing.T) {
	b := And(Eq(V("a", 8), V("b", 16)), Cmp{Op: CmpGt, L: Bin{Op: OpAdd, L: V("c", 32), R: C(1, 32)}, R: C(5, 32)})
	vars := map[Var]Width{}
	VarsOfBool(b, vars)
	if len(vars) != 3 {
		t.Fatalf("got %d vars, want 3: %v", len(vars), vars)
	}
	if vars["b"] != 16 || vars["c"] != 32 {
		t.Errorf("widths wrong: %v", vars)
	}
}

func TestStateClone(t *testing.T) {
	s := State{"a": 1}
	c := s.Clone()
	c["a"] = 2
	if s["a"] != 1 {
		t.Error("Clone must not alias")
	}
}

func TestConjuncts(t *testing.T) {
	a := Eq(V("a", 8), C(1, 8))
	b := Eq(V("b", 8), C(2, 8))
	c := Eq(V("c", 8), C(3, 8))
	list := AppendConjuncts(nil, And(And(a, b), And(c, a)))
	if want := []Bool{a, b, c, a}; !reflect.DeepEqual(list, want) {
		t.Fatalf("got conjuncts %v, want %v", list, want)
	}
	if got := AppendConjuncts(list[:1], Logic{Op: LAnd, L: True, R: b}); !reflect.DeepEqual(got, []Bool{a, b}) {
		t.Errorf("appending to [a]: got %v, want [a b] (True contributes nothing)", got)
	}
	if got := AppendConjuncts(nil, False); !reflect.DeepEqual(got, []Bool{False}) {
		t.Errorf("AppendConjuncts(False) = %v, want [false]", got)
	}
	if got := AppendConjuncts(nil, Or(a, b)); len(got) != 1 {
		t.Errorf("conjuncts of OR = %d, want 1 (opaque)", len(got))
	}
	// One walk into the caller's buffer: nothing is allocated per leaf.
	deep := a
	for i := 0; i < 64; i++ {
		deep = And(deep, And(b, c))
	}
	buf := make([]Bool, 0, 256)
	if n := testing.AllocsPerRun(10, func() { buf = AppendConjuncts(buf[:0], deep) }); n != 0 || len(buf) != 129 {
		t.Errorf("AppendConjuncts into a buffer with room: %v allocations, %d conjuncts; want 0 and 129", n, len(buf))
	}
}
