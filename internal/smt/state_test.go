package smt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
)

// varSnap is one variable's solver state by value, for comparing two
// solvers that number their variables differently.
type varSnap struct {
	Live   bool
	W      expr.Width
	Bounds bounds
	Excl   []uint64
	Hints  []uint64
}

// snapshot returns the state of every variable that is live or has hints,
// by name. A dead variable's domain is garbage by design and is left out.
func snapshot(s *Solver) map[expr.Var]varSnap {
	out := map[expr.Var]varSnap{}
	for i := range s.vars {
		v := &s.vars[i]
		if !v.live && len(v.hints) == 0 {
			continue
		}
		sn := varSnap{Live: v.live, Hints: append([]uint64(nil), v.hints...)}
		if v.live {
			sn.W, sn.Bounds = v.dom.w, v.dom.bounds
			sn.Excl = append([]uint64(nil), v.dom.excl.vals...)
			for _, x := range sn.Excl {
				if !v.dom.excl.has(x) {
					panic(fmt.Sprintf("%s: %d is listed as excluded and not found", v.name, x))
				}
			}
			if n := len(v.dom.excl.idx); n != 0 && n != len(sn.Excl) {
				panic(fmt.Sprintf("%s: exclusion index holds %d values, the list %d", v.name, n, len(sn.Excl)))
			}
		}
		out[v.name] = sn
	}
	return out
}

// progGen draws the random assertions of the state-layout tests: every atom
// class the normalizer knows, over a pool wide enough that some variables
// first appear deep in the stack.
type progGen struct {
	rng  *rand.Rand
	vars []expr.Ref
}

func newProgGen(seed int64) *progGen {
	g := &progGen{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 12; i++ {
		g.vars = append(g.vars, expr.V(expr.Var(fmt.Sprintf("f%02d", i)), expr.Width(4+2*(i%4))))
	}
	return g
}

func (g *progGen) cond() expr.Bool {
	v := g.vars[g.rng.Intn(len(g.vars))]
	u := g.vars[g.rng.Intn(len(g.vars))]
	c := expr.C(uint64(g.rng.Intn(int(v.W.Mask())+1)), v.W)
	switch g.rng.Intn(9) {
	case 0:
		return expr.Eq(v, c)
	case 1, 2:
		return expr.Cmp{Op: expr.CmpNe, L: v, R: c}
	case 3:
		return expr.Cmp{Op: expr.CmpLt, L: v, R: c}
	case 4:
		return expr.Cmp{Op: expr.CmpGe, L: v, R: c}
	case 5:
		return expr.Eq(expr.Bin{Op: expr.OpAnd, L: v, R: expr.C(uint64(g.rng.Intn(16)), v.W)}, expr.C(uint64(g.rng.Intn(16)), v.W))
	case 6:
		return expr.Eq(v, expr.Bin{Op: expr.OpAdd, L: u, R: c})
	case 7:
		return expr.Eq(v, u)
	default:
		return expr.And(expr.Or(expr.Eq(v, c), expr.Cmp{Op: expr.CmpGt, L: u, R: c}), expr.Cmp{Op: expr.CmpNe, L: u, R: c})
	}
}

// TestPopRestoresExactly: after every Pop of a random Push/Assert/Pop
// program that reaches depth 64, each variable's interval, known bits,
// exclusion list, hint list, width and liveness are what a fresh solver has
// after asserting the surviving frames — the undo trail and the hint log
// restore everything, and a variable first seen in the popped frame is
// dead again. The last program runs on top of three frames that exclude
// 4500 values of one variable between them, so the tracked set is cut at
// maxTrackedExclusions on the way up, stays there while deeper frames try to
// add to it, and comes back through the bound on the way down.
func TestPopRestoresExactly(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		// A budget, so that a hard random conjunction costs a bounded search
		// per comparison; Unknown must be restored exactly too.
		opts := DefaultOptions()
		opts.SearchBudget = 300
		if seed == 4 {
			opts.SearchBudget = 10
		}
		g := newProgGen(seed)
		s := New(opts)
		frames := [][]expr.Bool{nil}
		push := func() {
			s.Push()
			frames = append(frames, nil)
		}
		assert := func(b expr.Bool) {
			s.Assert(b)
			frames[len(frames)-1] = append(frames[len(frames)-1], b)
		}
		pops := 0
		pop := func() {
			s.Pop()
			pops++
			frames = frames[:len(frames)-1]
			fresh := New(opts)
			for d, fr := range frames {
				if d > 0 {
					fresh.Push()
				}
				for _, b := range fr {
					fresh.Assert(b)
				}
			}
			if got, want := snapshot(s), snapshot(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, back at depth %d: state differs from a fresh solver's\ngot  %v\nwant %v", seed, s.Depth(), got, want)
			}
			if seed == 4 && pops%8 != 0 && s.Depth() > 3 {
				// Every candidate of a search over the 4500-atom stack is
				// checked against all of it: compare a sample of the models.
				return
			}
			gm, gr := s.Model()
			wm, wr := fresh.Model()
			if gr != wr || !reflect.DeepEqual(gm, wm) {
				t.Fatalf("seed %d, back at depth %d: Model = %v %s, a fresh solver's %v %s", seed, s.Depth(), gm, gr, wm, wr)
			}
		}
		floor, steps, wantDepth := 0, 600, 64
		big := expr.V("big", 16)
		bigExcl := func() int { return len(s.vars[s.slots["big"]].dom.excl.vals) }
		if seed == 4 {
			floor, steps, wantDepth = 3, 150, 10
			for f, want := range []int{1500, 3000, maxTrackedExclusions} {
				var ne []expr.Bool
				for i := 0; i < 1500; i++ {
					ne = append(ne, expr.Cmp{Op: expr.CmpNe, L: big, R: expr.C(uint64(100+1500*f+i), 16)})
				}
				push()
				assert(expr.AndAll(ne))
				if bigExcl() != want {
					t.Fatalf("after %d exclusions: %d tracked, want %d", 1500*(f+1), bigExcl(), want)
				}
			}
			// 4500 is excluded by an atom the domain no longer tracks:
			// contains says yes, and only the final model check can say no.
			if d := &s.vars[s.slots["big"]].dom; !d.contains(4500) || d.contains(4000) {
				t.Fatalf("contains(4500), untracked: %v, want true; contains(4000), tracked: %v, want false", d.contains(4500), d.contains(4000))
			}
		}
		deepest := 0
		for step := 0; step < steps; step++ {
			depth := s.Depth()
			deepest = max(deepest, depth)
			switch k := g.rng.Intn(10); {
			case k < 4 && depth < 64 || depth == floor:
				push()
			case k < 7:
				assert(g.cond())
			case k < 8:
				assert(expr.Cmp{Op: expr.CmpNe, L: big, R: expr.C(uint64(5000+step), 16)}) // in the last program, past the bound
			default:
				pop()
			}
			// Keep climbing for the first stretch so depth 64 is reached.
			if step < 200 && s.Depth() < 64 && g.rng.Intn(2) == 0 {
				push()
			}
		}
		if seed == 4 && bigExcl() != maxTrackedExclusions {
			t.Fatalf("%d exclusions tracked above the frames that reached the bound, want %d", bigExcl(), maxTrackedExclusions)
		}
		for s.Depth() > 0 {
			pop()
		}
		if deepest < wantDepth || pops < wantDepth {
			t.Fatalf("seed %d: reached depth %d with %d pops; the program is too shallow to mean anything", seed, deepest, pops)
		}
		if s.vars[s.slots["big"]].live {
			t.Errorf("seed %d: big outlived the frames that mention it", seed)
		}
	}
}

// TestSlotNumberingDoesNotLeak is the sequential ≡ parallel trap in unit
// form: parallel workers and unit runners replay a path prefix on a solver
// that has seen other conditions first, so its slot numbers differ from the
// sequential solver's. Two solvers warmed on different conditions and then
// fed one assertion stack must agree on every verdict, every model and
// every counter.
func TestSlotNumberingDoesNotLeak(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		a, b := New(DefaultOptions()), New(DefaultOptions())
		// Warm b on the pool in reverse, and on a few variables a never
		// sees, so that no variable has the same slot in both.
		g := newProgGen(seed)
		b.Push()
		b.Assert(expr.Eq(expr.V("only-b", 8), expr.C(1, 8)))
		for i := len(g.vars) - 1; i >= 0; i-- {
			b.Assert(expr.Cmp{Op: expr.CmpNe, L: g.vars[i], R: expr.C(1, g.vars[i].W)})
		}
		b.Pop()
		b.ResetStats()

		var bufA, bufB []Result
		for step := 0; step < 400; step++ {
			switch k := g.rng.Intn(10); {
			case k < 3 && a.Depth() < 24:
				a.Push()
				b.Push()
			case k < 6:
				c := g.cond()
				a.Assert(c)
				b.Assert(c)
			case k < 7 && a.Depth() > 0:
				a.Pop()
				b.Pop()
			case k < 8:
				conds := []expr.Bool{g.cond(), g.cond(), g.cond()}
				bufA, bufB = a.CheckBatch(conds, bufA), b.CheckBatch(conds, bufB)
				if !reflect.DeepEqual(bufA, bufB) {
					t.Fatalf("seed %d step %d: CheckBatch %v vs %v", seed, step, bufA, bufB)
				}
			default:
				ma, ra := a.Model()
				mb, rb := b.Model()
				if ra != rb || !reflect.DeepEqual(ma, mb) {
					t.Fatalf("seed %d step %d: Model %v %s vs %v %s", seed, step, ma, ra, mb, rb)
				}
			}
		}
		if counters(a.Stats()) != counters(b.Stats()) {
			t.Fatalf("seed %d: stats diverge\n%+v\n%+v", seed, counters(a.Stats()), counters(b.Stats()))
		}
		if a.slots[g.vars[0].Var] == b.slots[g.vars[0].Var] {
			t.Fatalf("seed %d: the two solvers number %s alike; the test compares nothing", seed, g.vars[0].Var)
		}
	}
}

// TestConditionTableNeverServesAnotherCondition: a condition asserted by
// number is the one the table holds under that number now. The same number
// under a new table gets the new condition's atoms, not the memo of the old.
func TestConditionTableNeverServesAnotherCondition(t *testing.T) {
	x := expr.V("x", 8)
	s := New(DefaultOptions())
	for _, want := range []uint64{1, 2, 1} {
		s.SetConditions([]expr.Bool{expr.Eq(x, expr.C(want, 8))})
		for rep := 0; rep < 2; rep++ { // the second assert is served by number alone
			s.Push()
			s.AssertCondition(0)
			if m, r := s.Model(); r != Sat || m["x"] != want {
				t.Fatalf("condition 0 of the table holding x == %d: Model = %v %s", want, m, r)
			}
			s.Pop()
		}
	}
	// By number and by value are one memo entry, not two.
	if m := s.memoize(expr.Eq(x, expr.C(1, 8))); m != s.condMemo[0] {
		t.Error("asserting by number made a second entry for a condition Assert had memoized")
	}
}

// TestMemoConfirmsHashWithEquality forces a bucket collision: two
// conditions that agree on everything HashBool reads and differ below it.
// Each must get its own atoms.
func TestMemoConfirmsHashWithEquality(t *testing.T) {
	x := expr.V("x", 8)
	// Left-deep conjunctions whose first (deepest) conjunct differs: the
	// hash reads the last few.
	build := func(first uint64) expr.Bool {
		b := expr.Eq(x, expr.C(first, 8))
		for i := 0; i < 2*hashDepth; i++ {
			b = expr.And(b, expr.Cmp{Op: expr.CmpNe, L: expr.V(expr.Var(fmt.Sprintf("pad%d", i)), 8), R: expr.C(3, 8)})
		}
		return b
	}
	c1, c2 := build(1), build(2)
	if expr.HashBool(c1, hashDepth) != expr.HashBool(c2, hashDepth) {
		t.Fatal("the two conditions hash apart; the test forces no collision")
	}
	s := New(DefaultOptions())
	for _, tc := range []struct {
		cond expr.Bool
		want uint64
	}{{c1, 1}, {c2, 2}, {c1, 1}, {c2, 2}} {
		s.Push()
		s.Assert(tc.cond)
		if m, r := s.Model(); r != Sat || m["x"] != tc.want {
			t.Fatalf("asserted x == %d && …: Model x = %d (%s)", tc.want, m["x"], r)
		}
		s.Pop()
	}
	// Two entries for the conditions and one for each of their 12 distinct
	// conjuncts (x == 1, x == 2 and the 10 pads).
	if m1, m2 := s.memoize(c1), s.memoize(c2); m1 == m2 || s.memoLen != 14 {
		t.Errorf("two colliding conditions hold %d memo entries (same entry: %v), want 14 with the two distinct", s.memoLen, m1 == m2)
	}
}

// counters is st without its latency samples, which the clock decides:
// what two solvers asked the same questions must agree on, the number of
// samples (one a check) among it.
func counters(st Stats) Stats {
	st.Latency = obs.Histogram{Count: st.Latency.Count}
	return st
}
