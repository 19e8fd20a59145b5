package expr

import (
	"fmt"
	"slices"
)

// State is a concrete execution state: a mapping from header field
// variables to concrete values (s in Figure 4 of the paper).
type State map[Var]uint64

// Clone returns a copy of the state.
func (s State) Clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// ErrUnbound is returned when evaluating an expression that references a
// variable absent from the state.
type ErrUnbound struct{ Var Var }

func (e ErrUnbound) Error() string { return fmt.Sprintf("expr: unbound variable %s", e.Var) }

// EvalArith evaluates an arithmetic expression under a concrete state,
// following the Arithmetic-expr rule of Figure 4.
func EvalArith(a Arith, s State) (uint64, error) {
	switch t := a.(type) {
	case Const:
		return t.Val, nil
	case Ref:
		v, ok := s[t.Var]
		if !ok {
			return 0, ErrUnbound{Var: t.Var}
		}
		return t.W.Trunc(v), nil
	case Bin:
		l, err := EvalArith(t.L, s)
		if err != nil {
			return 0, err
		}
		r, err := EvalArith(t.R, s)
		if err != nil {
			return 0, err
		}
		return t.Op.Apply(l, r, t.Width()), nil
	}
	return 0, fmt.Errorf("expr: unknown arithmetic expression %T", a)
}

// EvalBool evaluates a boolean expression under a concrete state, following
// the Boolean-expr rule of Figure 4.
func EvalBool(b Bool, s State) (bool, error) {
	switch t := b.(type) {
	case BoolConst:
		return bool(t), nil
	case Cmp:
		l, err := EvalArith(t.L, s)
		if err != nil {
			return false, err
		}
		r, err := EvalArith(t.R, s)
		if err != nil {
			return false, err
		}
		return t.Op.Apply(l, r), nil
	case Logic:
		l, err := EvalBool(t.L, s)
		if err != nil {
			return false, err
		}
		// Short-circuit to match the sequential evaluation semantics.
		if t.Op == LAnd && !l {
			return false, nil
		}
		if t.Op == LOr && l {
			return true, nil
		}
		return EvalBool(t.R, s)
	case Not:
		v, err := EvalBool(t.X, s)
		if err != nil {
			return false, err
		}
		return !v, nil
	}
	return false, fmt.Errorf("expr: unknown boolean expression %T", b)
}

// Subst is a symbolic value stack: a mapping from header fields to
// arithmetic expressions (V in §3.2 of the paper).
type Subst map[Var]Arith

// Clone returns a copy of the substitution.
func (v Subst) Clone() Subst {
	out := make(Subst, len(v))
	for k, e := range v {
		out[k] = e
	}
	return out
}

// Env is a dense symbolic value stack: Env[s] is the value bound to
// variable slot s, nil while the variable is still a free input. The owner
// numbers the variables; RefSlotsArith/RefSlotsBool resolve an
// expression's references to slots once, so substituting it afterwards
// hashes no variable names.
type Env []Arith

// substEnv is the binding lookup behind one substitution walk: the map V,
// or (vals non-nil) an Env whose Ref slots are consumed in walk order —
// along with defs, when set: what each reference reads while its slot is
// unbound.
type substEnv struct {
	m    Subst
	vals Env
	refs []int32
	defs []Arith
}

func (e *substEnv) lookup(v Var) Arith {
	if e.vals == nil {
		return e.m[v]
	}
	val := e.vals[e.refs[0]]
	e.refs = e.refs[1:]
	if e.defs != nil {
		if val == nil {
			val = e.defs[0]
		}
		e.defs = e.defs[1:]
	}
	return val
}

// RefSlotsArith appends slot(r) for every variable reference r in a, in the
// order substitution and evaluation visit them.
func RefSlotsArith(dst []int32, a Arith, slot func(Ref) int32) []int32 {
	switch t := a.(type) {
	case Ref:
		dst = append(dst, slot(t))
	case Bin:
		dst = RefSlotsArith(dst, t.L, slot)
		dst = RefSlotsArith(dst, t.R, slot)
	}
	return dst
}

// RefSlotsBool is RefSlotsArith for a boolean expression.
func RefSlotsBool(dst []int32, b Bool, slot func(Ref) int32) []int32 {
	switch t := b.(type) {
	case Cmp:
		dst = RefSlotsArith(dst, t.L, slot)
		dst = RefSlotsArith(dst, t.R, slot)
	case Logic:
		dst = RefSlotsBool(dst, t.L, slot)
		dst = RefSlotsBool(dst, t.R, slot)
	case Not:
		dst = RefSlotsBool(dst, t.X, slot)
	}
	return dst
}

// SlotState is a partial concrete state over the same kind of numbering:
// variable slot s has the value Val[s] where Set[s] holds. Its evaluators
// take an expression's RefSlots list, so evaluating hashes no names either.
type SlotState struct {
	Val []uint64
	Set []bool
}

// EvalArith is the package-level EvalArith over a slot state, with ok
// false where that one fails on an unbound variable; refs is a's
// RefSlotsArith list.
func (s *SlotState) EvalArith(a Arith, refs []int32) (uint64, bool) {
	v, _, ok := s.evalArith(a, refs)
	return v, ok
}

// EvalBool is the package-level EvalBool over a slot state, with ok false
// where that one fails; refs is b's RefSlotsBool list.
func (s *SlotState) EvalBool(b Bool, refs []int32) (val, ok bool) {
	val, _, ok = s.evalBool(b, refs)
	return val, ok
}

// evalArith and evalBool consume one entry of refs per reference and hand
// back the rest, so they walk every operand even once the result is known
// to be undefined: the references that follow must stay aligned.
func (s *SlotState) evalArith(a Arith, refs []int32) (uint64, []int32, bool) {
	switch t := a.(type) {
	case Const:
		return t.Val, refs, true
	case Ref:
		sl := refs[0]
		return t.W.Trunc(s.Val[sl]), refs[1:], s.Set[sl]
	case Bin:
		l, refs, lok := s.evalArith(t.L, refs)
		r, refs, rok := s.evalArith(t.R, refs)
		return t.Op.Apply(l, r, t.Width()), refs, lok && rok
	}
	return 0, refs, false
}

func (s *SlotState) evalBool(b Bool, refs []int32) (bool, []int32, bool) {
	switch t := b.(type) {
	case BoolConst:
		return bool(t), refs, true
	case Cmp:
		l, refs, lok := s.evalArith(t.L, refs)
		r, refs, rok := s.evalArith(t.R, refs)
		ok := lok && rok
		return ok && t.Op.Apply(l, r), refs, ok
	case Logic:
		l, refs, lok := s.evalBool(t.L, refs)
		r, refs, rok := s.evalBool(t.R, refs)
		// The right operand is consulted only where sequential evaluation
		// reaches it, as in EvalBool.
		switch {
		case !lok:
			return false, refs, false
		case t.Op == LAnd && !l:
			return false, refs, true
		case t.Op == LOr && l:
			return true, refs, true
		}
		return r && rok, refs, rok
	case Not:
		v, refs, ok := s.evalBool(t.X, refs)
		return !v && ok, refs, ok
	}
	return false, refs, false
}

// bound reports whether any of the referenced slots has a value.
func (e Env) bound(refs []int32) bool {
	for _, s := range refs {
		if e[s] != nil {
			return true
		}
	}
	return false
}

// SubstArith is SubstArith over a slot environment; refs is a's
// RefSlotsArith list.
func (e Env) SubstArith(a Arith, refs []int32) Arith {
	if !e.bound(refs) {
		return a
	}
	out, k, _ := substArith(a, &substEnv{vals: e, refs: refs})
	return boxConst(out, k)
}

// SubstBool is SubstBool over a slot environment; refs is b's
// RefSlotsBool list. changed is false when no referenced slot is bound, and
// out is then b itself: what lets a caller that numbers its conditions tell
// a solver which one this is instead of handing it the tree again.
func (e Env) SubstBool(b Bool, refs []int32) (out Bool, changed bool) {
	if !e.bound(refs) {
		return b, false
	}
	return substBool(b, &substEnv{vals: e, refs: refs})
}

// SubstBoolOr is SubstBool where the i-th reference, while its slot
// refs[i] is unbound, reads defs[i] if that is non-nil. A nil defs is all
// nil. It is how a reader looks through a copy x ← y that has not run yet:
// x's reference reads y's slot, or the copy's own right-hand side.
func (e Env) SubstBoolOr(b Bool, refs []int32, defs []Arith) Bool {
	if !e.bound(refs) && !slices.ContainsFunc(defs, func(d Arith) bool { return d != nil }) {
		return b
	}
	out, _ := substBool(b, &substEnv{vals: e, refs: refs, defs: defs})
	return out
}

// SubstArith substitutes all variables in a with their values in V
// (the ⟦V⟧a operation of Figure 6). Variables absent from V are left as
// free symbolic inputs. Expressions untouched by the substitution are
// returned as-is, without allocation — the common case for table-entry
// predicates over raw input fields.
func SubstArith(a Arith, v Subst) Arith {
	out, k, _ := substArith(a, &substEnv{m: v})
	return boxConst(out, k)
}

// substArith reports whether it changed anything; an unchanged expression
// is returned as the interface value that came in, never re-boxed. An
// operation that folds to a constant comes back unboxed — a nil Arith and
// the value in the Const: the enclosing operation or comparison mostly
// folds it again, and only boxConst, for a value that is kept, puts it on
// the heap.
func substArith(a Arith, v *substEnv) (Arith, Const, bool) {
	switch t := a.(type) {
	case Ref:
		if val := v.lookup(t.Var); val != nil {
			return val, Const{}, true
		}
	case Bin:
		l, lk, lc := substArith(t.L, v)
		r, rk, rc := substArith(t.R, v)
		if !lc && !rc {
			break
		}
		if lk, ok := constOf(l, lk); ok {
			if rk, ok := constOf(r, rk); ok {
				return nil, foldBin(t.Op, lk, rk), true
			}
		}
		return simplifyBin(t.Op, boxConst(l, lk), boxConst(r, rk)), Const{}, true
	}
	return a, Const{}, false
}

// constOf is the constant a substArith result (a, k) stands for, if any.
func constOf(a Arith, k Const) (Const, bool) {
	if a == nil {
		return k, true
	}
	c, ok := a.(Const)
	return c, ok
}

func boxConst(a Arith, k Const) Arith {
	if a == nil {
		return k
	}
	return a
}

// SubstBool substitutes all variables in b with their values in V.
// Untouched expressions are returned as-is, without allocation.
func SubstBool(b Bool, v Subst) Bool {
	out, _ := substBool(b, &substEnv{m: v})
	return out
}

func substBool(b Bool, v *substEnv) (Bool, bool) {
	switch t := b.(type) {
	case Cmp:
		l, lk, lc := substArith(t.L, v)
		r, rk, rc := substArith(t.R, v)
		if !lc && !rc {
			break
		}
		if lk, ok := constOf(l, lk); ok {
			if rk, ok := constOf(r, rk); ok {
				return BoolConst(t.Op.Apply(lk.Val, rk.Val)), true
			}
		}
		return simplifyCmp(t.Op, boxConst(l, lk), boxConst(r, rk)), true
	case Logic:
		l, lc := substBool(t.L, v)
		r, rc := substBool(t.R, v)
		if !lc && !rc {
			break
		}
		if t.Op == LAnd {
			return And(l, r), true
		}
		return Or(l, r), true
	case Not:
		if x, xc := substBool(t.X, v); xc {
			return SimplifyBool(Not{X: x}), true
		}
	}
	return b, false
}

// RenameArith replaces variable references according to ren, leaving
// unmapped variables untouched. Unlike SubstArith it does not simplify,
// so structure is preserved for round-trip tests.
func RenameArith(a Arith, ren map[Var]Var) Arith {
	switch t := a.(type) {
	case Const:
		return t
	case Ref:
		if nv, ok := ren[t.Var]; ok {
			return Ref{Var: nv, W: t.W}
		}
		return t
	case Bin:
		return Bin{Op: t.Op, L: RenameArith(t.L, ren), R: RenameArith(t.R, ren)}
	}
	return a
}

// RenameBool replaces variable references according to ren.
func RenameBool(b Bool, ren map[Var]Var) Bool {
	switch t := b.(type) {
	case BoolConst:
		return t
	case Cmp:
		return Cmp{Op: t.Op, L: RenameArith(t.L, ren), R: RenameArith(t.R, ren)}
	case Logic:
		return Logic{Op: t.Op, L: RenameBool(t.L, ren), R: RenameBool(t.R, ren)}
	case Not:
		return Not{X: RenameBool(t.X, ren)}
	}
	return b
}
