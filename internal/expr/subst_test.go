package expr

import (
	"math/rand"
	"testing"
)

// refSubstArith and refSubstBool are the substitution this package shipped
// before it learned to fold before boxing: rebuild the operation as an
// interface value, then simplify it. They are the oracle the production
// walk (over a map and over a slot environment) is compared against.
func refSubstArith(a Arith, v Subst) (Arith, bool) {
	switch t := a.(type) {
	case Const:
		return t, false
	case Ref:
		if val, ok := v[t.Var]; ok {
			return val, true
		}
		return t, false
	case Bin:
		l, lc := refSubstArith(t.L, v)
		r, rc := refSubstArith(t.R, v)
		if !lc && !rc {
			return t, false
		}
		return Simplify(Bin{Op: t.Op, L: l, R: r}), true
	}
	return a, false
}

func refSubstBool(b Bool, v Subst) (Bool, bool) {
	switch t := b.(type) {
	case BoolConst:
		return t, false
	case Cmp:
		l, lc := refSubstArith(t.L, v)
		r, rc := refSubstArith(t.R, v)
		if !lc && !rc {
			return t, false
		}
		return SimplifyBool(Cmp{Op: t.Op, L: l, R: r}), true
	case Logic:
		l, lc := refSubstBool(t.L, v)
		r, rc := refSubstBool(t.R, v)
		if !lc && !rc {
			return t, false
		}
		if t.Op == LAnd {
			return And(l, r), true
		}
		return Or(l, r), true
	case Not:
		x, xc := refSubstBool(t.X, v)
		if !xc {
			return t, false
		}
		return SimplifyBool(Not{X: x}), true
	}
	return b, false
}

// exprGen draws random expression trees over a small variable pool, with
// enough constants that substitution folds often.
type exprGen struct {
	rng  *rand.Rand
	vars []Var
}

func (g *exprGen) arith(depth int) Arith {
	if depth == 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return C(uint64(g.rng.Intn(300)), Width(8+8*g.rng.Intn(2)))
		}
		return V(g.vars[g.rng.Intn(len(g.vars))], 16)
	}
	ops := []AOp{OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul}
	return Bin{Op: ops[g.rng.Intn(len(ops))], L: g.arith(depth - 1), R: g.arith(depth - 1)}
}

func (g *exprGen) boolean(depth int) Bool {
	switch k := g.rng.Intn(6); {
	case depth == 0 || k < 3:
		ops := []CmpOp{CmpEq, CmpNe, CmpGt, CmpLt, CmpGe, CmpLe}
		return Cmp{Op: ops[g.rng.Intn(len(ops))], L: g.arith(2), R: g.arith(2)}
	case k == 3:
		return Not{X: g.boolean(depth - 1)}
	case k == 4:
		return BoolConst(g.rng.Intn(2) == 0)
	default:
		return Logic{Op: LOp(g.rng.Intn(2)), L: g.boolean(depth - 1), R: g.boolean(depth - 1)}
	}
}

// subst binds a random subset of the pool to constants (mostly) or small
// expressions, as a map and as the equivalent slot environment.
func (g *exprGen) subst() (Subst, Env, func(Ref) int32) {
	m := Subst{}
	env := make(Env, len(g.vars))
	slot := func(r Ref) int32 {
		for i, pv := range g.vars {
			if pv == r.Var {
				return int32(i)
			}
		}
		panic("variable outside the pool")
	}
	for i, v := range g.vars {
		switch g.rng.Intn(4) {
		case 0: // unbound
		case 1:
			m[v] = g.arith(2)
			env[i] = m[v]
		default:
			m[v] = C(uint64(g.rng.Intn(300)), 16)
			env[i] = m[v]
		}
	}
	return m, env, slot
}

// TestSubstMatchesBoxThenSimplify is the differential for fold-before-box:
// on random expressions and bindings, SubstArith/SubstBool over a map and
// over a slot environment return exactly what box-then-simplify returned.
func TestSubstMatchesBoxThenSimplify(t *testing.T) {
	g := &exprGen{rng: rand.New(rand.NewSource(7)), vars: []Var{"a", "b", "c", "d"}}
	for i := 0; i < 4000; i++ {
		m, env, slot := g.subst()

		a := g.arith(4)
		want, _ := refSubstArith(a, m)
		if got := SubstArith(a, m); !EqualArith(got, want) {
			t.Fatalf("SubstArith(%s, %v) = %s, want %s", a, m, got, want)
		}
		if got := env.SubstArith(a, RefSlotsArith(nil, a, slot)); !EqualArith(got, want) {
			t.Fatalf("Env.SubstArith(%s, %v) = %s, want %s", a, m, got, want)
		}

		b := g.boolean(3)
		wantB, wantChanged := refSubstBool(b, m)
		if got := SubstBool(b, m); !EqualBool(got, wantB) {
			t.Fatalf("SubstBool(%s, %v) = %s, want %s", b, m, got, wantB)
		}
		if got, changed := env.SubstBool(b, RefSlotsBool(nil, b, slot)); !EqualBool(got, wantB) || changed != wantChanged {
			t.Fatalf("Env.SubstBool(%s, %v) = %s (changed %v), want %s (changed %v)", b, m, got, changed, wantB, wantChanged)
		}
	}
}

// TestSubstFoldsWithoutAllocating pins the statically-pruned majority of
// symbolic-execution paths: a table-entry predicate over a field the
// value stack binds to a constant folds to True/False with no allocation,
// and a predicate over unbound fields is returned as it came.
func TestSubstFoldsWithoutAllocating(t *testing.T) {
	slot := func(r Ref) int32 { return map[Var]int32{"x": 0, "y": 1}[r.Var] }
	env := Env{C(5, 16), nil}
	var folds, free Bool = Eq(V("x", 16), C(6, 16)), Eq(V("y", 16), C(6, 16))
	// A folded operand of a folded comparison: the intermediate constant
	// must not be boxed either.
	var nested Bool = Eq(Bin{Op: OpAnd, L: Bin{Op: OpAdd, L: V("x", 16), R: C(1, 16)}, R: C(3, 16)}, C(2, 16))
	foldRefs, freeRefs, nestedRefs := RefSlotsBool(nil, folds, slot), RefSlotsBool(nil, free, slot), RefSlotsBool(nil, nested, slot)
	var sink Bool
	if avg := testing.AllocsPerRun(100, func() {
		sink, _ = env.SubstBool(folds, foldRefs)
		sink, _ = env.SubstBool(free, freeRefs)
		sink, _ = env.SubstBool(nested, nestedRefs)
	}); avg != 0 {
		t.Errorf("constant-folding substitution allocates %.1f objects per run, want 0", avg)
	}
	if got, _ := env.SubstBool(folds, foldRefs); !EqualBool(got, False) {
		t.Errorf("x==6 under x=5 is %s, want False", got)
	}
	if got, _ := env.SubstBool(nested, nestedRefs); !EqualBool(got, True) {
		t.Errorf("(x+1)&3==2 under x=5 is %s, want True", got)
	}
	_ = sink
}

// TestSlotStateMatchesMapState: on random expressions and partial states,
// evaluating through a Ref-slot list gives what EvalArith/EvalBool give over
// the equivalent map (ok exactly where they return no error) — the value and whether there is one, including
// where an unbound variable sits behind a short-circuit — and an expression
// equal to another hashes like it at any depth.
func TestSlotStateMatchesMapState(t *testing.T) {
	g := &exprGen{rng: rand.New(rand.NewSource(13)), vars: []Var{"a", "b", "c", "d"}}
	_, _, slot := g.subst()
	for i := 0; i < 4000; i++ {
		m := State{}
		st := SlotState{Val: make([]uint64, len(g.vars)), Set: make([]bool, len(g.vars))}
		for k, v := range g.vars {
			st.Val[k] = uint64(g.rng.Intn(1 << 17)) // read only where Set: garbage elsewhere
			if g.rng.Intn(3) > 0 {
				st.Set[k], m[v] = true, st.Val[k]
			}
		}
		a := g.arith(4)
		wantV, err := EvalArith(a, m)
		wantOK := err == nil
		if got, ok := st.EvalArith(a, RefSlotsArith(nil, a, slot)); ok != wantOK || ok && got != wantV {
			t.Fatalf("EvalArith(%s) under %v = %d, %v; want %d, %v", a, m, got, ok, wantV, wantOK)
		}
		b := g.boolean(4)
		wantB, err := EvalBool(b, m)
		wantOK = err == nil
		if got, ok := st.EvalBool(b, RefSlotsBool(nil, b, slot)); ok != wantOK || got != wantB {
			t.Fatalf("EvalBool(%s) under %v = %v, %v; want %v, %v", b, m, got, ok, wantB, wantOK)
		}
		twin := copyBool(b)
		for depth := 0; depth < 6; depth++ {
			if HashBool(b, depth) != HashBool(twin, depth) {
				t.Fatalf("%s and its copy hash apart at depth %d", b, depth)
			}
		}
	}
}

// copyBool is a structurally equal tree of b in fresh boxes.
func copyBool(b Bool) Bool {
	switch t := b.(type) {
	case Cmp:
		return Cmp{Op: t.Op, L: copyArith(t.L), R: copyArith(t.R)}
	case Logic:
		return Logic{Op: t.Op, L: copyBool(t.L), R: copyBool(t.R)}
	case Not:
		return Not{X: copyBool(t.X)}
	}
	return b
}

func copyArith(a Arith) Arith {
	switch t := a.(type) {
	case Bin:
		return Bin{Op: t.Op, L: copyArith(t.L), R: copyArith(t.R)}
	case Ref:
		return t
	case Const:
		return t
	}
	return a
}
