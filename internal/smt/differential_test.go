package smt

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
)

// TestDifferentialBruteForce cross-checks the solver against exhaustive
// enumeration on randomly generated conjunctions over small-width
// variables: every SAT verdict must come with a model satisfying all
// constraints, every UNSAT verdict must have no satisfying assignment in
// the brute-force sweep. This is the solver's ground-truth test.
func TestDifferentialBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []expr.Var{"a", "b", "c"}
	const width = expr.Width(4) // 16 values per var → 4096 assignments

	// The last masked equality drawn, which a masked disequality mostly
	// reuses: a table miss after a hit on the same field.
	var last struct {
		v         expr.Ref
		mask, val uint64
	}
	genAtom := func() expr.Bool {
		v := expr.V(vars[rng.Intn(len(vars))], width)
		c := expr.C(uint64(rng.Intn(16)), width)
		switch rng.Intn(8) {
		case 0:
			return expr.Eq(v, c)
		case 1:
			return expr.Cmp{Op: expr.CmpNe, L: v, R: c}
		case 2:
			return expr.Cmp{Op: expr.CmpLt, L: v, R: c}
		case 3:
			return expr.Cmp{Op: expr.CmpGe, L: v, R: c}
		case 4:
			// masked equality (ternary match shape; a table entry's value
			// lies inside its mask, a contradiction's need not)
			last.v, last.mask, last.val = v, uint64(rng.Intn(16)), uint64(rng.Intn(16))
			if rng.Intn(2) == 0 {
				last.val &= last.mask
			}
			return expr.Eq(expr.Bin{Op: expr.OpAnd, L: v, R: expr.C(last.mask, width)}, expr.C(last.val, width))
		case 5:
			// arithmetic definition (summary shape)
			u := expr.V(vars[rng.Intn(len(vars))], width)
			return expr.Eq(v, expr.Simplify(expr.Bin{Op: expr.OpAdd, L: u, R: c}))
		case 6:
			// masked disequality with a partial mask (ternary miss shape)
			mask, val := uint64(rng.Intn(15)), uint64(rng.Intn(16))
			if rng.Intn(4) != 0 && last.v.Var != "" {
				v, mask = last.v, last.mask&^uint64(rng.Intn(16))
				if rng.Intn(4) != 0 {
					val = last.val
				}
			}
			return expr.Cmp{Op: expr.CmpNe, L: expr.Bin{Op: expr.OpAnd, L: v, R: expr.C(mask, width)}, R: expr.C(val&mask, width)}
		default:
			// disjunction (deferred shape)
			c2 := expr.C(uint64(rng.Intn(16)), width)
			return expr.Or(expr.Eq(v, c), expr.Eq(v, c2))
		}
	}

	refuted := 0 // trials a masked disequality decided without search
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(5)
		atoms := make([]expr.Bool, n)
		for i := range atoms {
			atoms[i] = genAtom()
		}

		// Brute force.
		bruteSAT := false
	brute:
		for a := uint64(0); a < 16; a++ {
			for b := uint64(0); b < 16; b++ {
				for c := uint64(0); c < 16; c++ {
					st := expr.State{"a": a, "b": b, "c": c}
					ok := true
					for _, at := range atoms {
						v, err := expr.EvalBool(at, st)
						if err != nil || !v {
							ok = false
							break
						}
					}
					if ok {
						bruteSAT = true
						break brute
					}
				}
			}
		}

		// Solver.
		s := New(DefaultOptions())
		for _, at := range atoms {
			s.Assert(at)
		}
		if s.refuted() {
			refuted++
		}
		model, res := s.Model()

		switch res {
		case Sat:
			if !bruteSAT {
				t.Fatalf("trial %d: solver says SAT, brute force says UNSAT\natoms: %v", trial, atoms)
			}
			// The model must satisfy every constraint (fill gaps with 0).
			st := expr.State{"a": 0, "b": 0, "c": 0}
			for k, v := range model {
				st[k] = v
			}
			for _, at := range atoms {
				ok, err := expr.EvalBool(at, st)
				if err != nil || !ok {
					t.Fatalf("trial %d: model %v violates %s", trial, st, at)
				}
			}
		case Unsat:
			if bruteSAT {
				t.Fatalf("trial %d: solver says UNSAT, brute force found a model\natoms: %v", trial, atoms)
			}
		case Unknown:
			// Allowed but must not happen on this tiny fragment.
			t.Fatalf("trial %d: Unknown on a 3-var width-4 problem", trial)
		}
	}
	t.Logf("%d trials decided by a masked disequality", refuted)
	if refuted == 0 {
		t.Error("no trial exercised the masked-disequality decision")
	}
}

// TestDifferentialIncrementalConsistency checks that Push/Assert/Pop
// sequences reach the same verdicts as one-shot solving.
func TestDifferentialIncrementalConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width = expr.Width(6)
	for trial := 0; trial < 100; trial++ {
		var atoms []expr.Bool
		for i := 0; i < 4; i++ {
			v := expr.V(expr.Var([]string{"x", "y"}[rng.Intn(2)]), width)
			c := expr.C(uint64(rng.Intn(64)), width)
			ops := []expr.CmpOp{expr.CmpEq, expr.CmpNe, expr.CmpLt, expr.CmpGe}
			atoms = append(atoms, expr.Cmp{Op: ops[rng.Intn(len(ops))], L: v, R: c})
		}

		oneShot := New(DefaultOptions())
		for _, a := range atoms {
			oneShot.Assert(a)
		}
		want := oneShot.Check()

		incr := New(DefaultOptions())
		for _, a := range atoms {
			incr.Push()
			incr.Assert(a)
		}
		got := incr.Check()
		if got != want {
			t.Fatalf("trial %d: incremental %s vs one-shot %s for %v", trial, got, want, atoms)
		}
		// Unwind and confirm the solver returns to SAT (no constraints).
		for range atoms {
			incr.Pop()
		}
		if r := incr.Check(); r != Sat {
			t.Fatalf("trial %d: after full unwind got %s", trial, r)
		}
	}
}

// sweepOracle is the brute-force side of TestDifferentialBatchSweeps: the
// assignments of three variables of different widths that satisfy the
// asserted prefix, kept as a stack that parallels the solver's frames.
type sweepOracle struct {
	vars   []expr.Ref
	frames [][]expr.State
}

func newSweepOracle(vars []expr.Ref) *sweepOracle {
	all := []expr.State{{}}
	for _, v := range vars {
		var next []expr.State
		for _, st := range all {
			for val := uint64(0); val <= v.W.Mask(); val++ {
				ext := st.Clone()
				ext[v.Var] = val
				next = append(next, ext)
			}
		}
		all = next
	}
	return &sweepOracle{vars: vars, frames: [][]expr.State{all}}
}

// satisfying returns the assignments of the current prefix under which b
// holds too.
func (o *sweepOracle) satisfying(t *testing.T, b expr.Bool) []expr.State {
	t.Helper()
	var out []expr.State
	for _, st := range o.frames[len(o.frames)-1] {
		ok, err := expr.EvalBool(b, st)
		if err != nil {
			t.Fatalf("oracle cannot evaluate %s: %v", b, err)
		}
		if ok {
			out = append(out, st)
		}
	}
	return out
}

func (o *sweepOracle) push(sat []expr.State) { o.frames = append(o.frames, sat) }
func (o *sweepOracle) pop()                  { o.frames = o.frames[:len(o.frames)-1] }

// TestDifferentialBatchSweeps drives the solver the way symbolic execution
// does — a depth-first walk whose every branch node decides its sibling
// conditions in one CheckBatch over the shared asserted prefix, descends
// into feasible ones by Push/Assert, extracts a model at the leaves, Pops,
// and sweeps again over the revived arena slots — and checks every verdict
// against enumeration of all assignments: an Unsat has no satisfying
// assignment, a Sat has one, a model satisfies everything asserted, and
// Unknown appears only when a search budget is set. Atoms
// compare variables of different widths with constants and with each other.
// Odd seeds share a verdict cache across the walk, so verdicts also come
// back through the batch's prefix-digest cache keys; every fourth seed
// solves non-incrementally; every fifth without a random search budget gives
// each query a budget of one step, so that the queries propagation alone
// does not decide answer Unknown — never Unsat.
//
// The variables stop at 4 bits because that is as far as the solver is
// complete: search tries at most CandidatesPerVar (24) values per free
// variable, and a search that cut a list short and found no model answers
// Unknown (Stats.TruncatedUnknown), which this walk would have to allow. With a
// 5-bit c, (c + 5) >= (c + 7) is such a query: c = 25 and c = 26 satisfy
// it, and the search tries neither.
func TestDifferentialBatchSweeps(t *testing.T) {
	verdicts, starved := 0, 0
	for seed := int64(0); seed < 96; seed++ {
		v, u := differentialBatchSweep(t, seed)
		verdicts, starved = verdicts+v, starved+u
	}
	if verdicts < 96*10 {
		t.Fatalf("only %d verdicts checked over 96 seeds", verdicts)
	}
	if starved == 0 {
		t.Fatal("no query ran out of its one-step budget")
	}
	t.Logf("%d verdicts checked against enumeration, %d of them Unknown on a one-step budget", verdicts, starved)
}

// FuzzDifferentialBatchSweeps lets the fuzzer pick the walk's seed: the
// same oracle over whatever sweeps the seed's random stream produces.
func FuzzDifferentialBatchSweeps(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 5, 8, 95, 29999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { differentialBatchSweep(t, seed) })
}

// differentialBatchSweep runs one seed's walk and returns how many verdicts
// it checked against the oracle and how many of them were Unknown on the
// one-step budget.
func differentialBatchSweep(t *testing.T, seed int64) (verdicts, starved int) {
	vars := []expr.Ref{expr.V("a", 2), expr.V("b", 3), expr.V("c", 4)}
	rng := rand.New(rand.NewSource(seed))
	opts := DefaultOptions()
	mode := uint64(seed) // a fuzzed seed may be negative
	budgeted := mode%3 == 2
	if budgeted {
		opts.SearchBudget = 1 + rng.Intn(4)
	}
	if mode%2 == 1 {
		opts.Cache = NewVerdictCache()
	}
	opts.Incremental = mode%4 != 0
	oneStep := !budgeted && mode%5 == 4
	if oneStep {
		opts.SearchBudget = 1
	}
	s := New(opts)
	// unknown checks that an Unknown is allowed, and counts those the
	// one-step budget gave.
	unknown := func(what string) {
		t.Helper()
		switch {
		case !budgeted && !oneStep:
			t.Fatalf("seed %d: %s is Unknown without a search budget", seed, what)
		case oneStep:
			starved++
		}
	}
	oracle := newSweepOracle(vars)

	arith := func() expr.Arith {
		v := vars[rng.Intn(len(vars))]
		switch rng.Intn(4) {
		case 0:
			return expr.Simplify(expr.Bin{Op: expr.OpAdd, L: v, R: expr.C(uint64(rng.Intn(8)), v.W)})
		case 1:
			return expr.Bin{Op: expr.OpAnd, L: v, R: expr.C(uint64(rng.Intn(int(v.W.Mask())+1)), v.W)}
		default:
			return v
		}
	}
	cmpOps := []expr.CmpOp{expr.CmpEq, expr.CmpNe, expr.CmpGt, expr.CmpLt, expr.CmpGe, expr.CmpLe}
	var atom func(depth int) expr.Bool
	atom = func(depth int) expr.Bool {
		op := cmpOps[rng.Intn(len(cmpOps))]
		switch k := rng.Intn(8); {
		case k < 3: // a variable, or a term over one, against a constant
			l := arith()
			return expr.Cmp{Op: op, L: l, R: expr.C(uint64(rng.Intn(int(l.Width().Mask())+1)), l.Width())}
		case k < 6: // variable against variable, widths mixed
			return expr.Cmp{Op: op, L: arith(), R: arith()}
		case k == 6 && depth > 0:
			return expr.Or(atom(depth-1), atom(depth-1))
		default:
			return expr.And(atom(0), expr.Negate(atom(0)))
		}
	}

	// sweep decides a fresh set of sibling conditions over the current
	// prefix and checks each verdict; sats[i] is what satisfies the
	// prefix and conds[i].
	var buf []Result
	sweep := func() (conds []expr.Bool, res []Result, sats [][]expr.State) {
		conds = make([]expr.Bool, 2+rng.Intn(4))
		for i := range conds {
			conds[i] = atom(1)
		}
		depth := s.Depth()
		buf = s.CheckBatch(conds, buf)
		if s.Depth() != depth {
			t.Fatalf("seed %d: CheckBatch left the solver at depth %d, entered at %d", seed, s.Depth(), depth)
		}
		res = append(res, buf...)
		for i, c := range conds {
			sat := oracle.satisfying(t, c)
			sats = append(sats, sat)
			verdicts++
			switch {
			case res[i] == Sat && len(sat) == 0:
				t.Fatalf("seed %d: Sat for %s, but no assignment satisfies it with the prefix\nsolver: %s", seed, c, s)
			case res[i] == Unsat && len(sat) > 0:
				t.Fatalf("seed %d: Unsat for %s, which %v satisfies with the prefix\nsolver: %s", seed, c, sat[0], s)
			case res[i] == Unknown:
				unknown(c.String())
			}
		}
		return conds, res, sats
	}
	var walk func(depth int)
	walk = func(depth int) {
		conds, res, sats := sweep()
		for i, c := range conds {
			if res[i] == Unsat || len(sats[i]) == 0 || rng.Intn(3) == 0 {
				continue // pruned as sym prunes, infeasible under a budget's Unknown, or not taken
			}
			s.Push()
			s.Assert(c)
			oracle.push(sats[i])
			if depth > 0 {
				walk(depth - 1)
			} else {
				model, r := s.Model()
				verdicts++
				switch {
				case r == Sat:
					ok := false
					for _, st := range sats[i] {
						// A variable the model leaves out is free: any value
						// does. One it gives more bits than the variable has
						// (v == u unifies at the left side's width) reads as
						// its low bits, as a reference to it evaluates.
						match := true
						for _, v := range vars {
							if val, has := model[v.Var]; has {
								match = match && st[v.Var] == v.W.Trunc(val)
							}
						}
						ok = ok || match
					}
					if !ok {
						t.Fatalf("seed %d: model %v does not satisfy the asserted set\nsolver: %s", seed, model, s)
					}
				case r == Unsat:
					t.Fatalf("seed %d: Model says Unsat, but %v satisfies the asserted set\nsolver: %s", seed, sats[i][0], s)
				default:
					unknown("Model")
				}
			}
			s.Pop()
			oracle.pop()
			// The popped frame left its arena slots to the next one:
			// sweep over them at this level before the next sibling.
			if rng.Intn(2) == 0 {
				sweep()
			}
		}
	}
	walk(2)
	if s.Depth() != 0 {
		t.Fatalf("seed %d: walk ended at depth %d", seed, s.Depth())
	}
	return verdicts, starved
}
