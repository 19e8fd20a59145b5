package smt

import (
	"testing"

	"repro/internal/expr"
)

func newSolver() *Solver { return New(DefaultOptions()) }

func v(name string, w expr.Width) expr.Ref { return expr.V(expr.Var(name), w) }

func TestSimpleEquality(t *testing.T) {
	s := newSolver()
	s.Assert(expr.Eq(v("dstIP", 32), expr.C(0x0A010101, 32)))
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s, want SAT", r)
	}
	if m["dstIP"] != 0x0A010101 {
		t.Errorf("model dstIP = %#x", m["dstIP"])
	}
}

func TestContradiction(t *testing.T) {
	// Figure 5(c): srcPort == 80 && srcPort == 443 is invalid.
	s := newSolver()
	s.Assert(expr.Eq(v("srcPort", 16), expr.C(80, 16)))
	s.Assert(expr.Eq(v("srcPort", 16), expr.C(443, 16)))
	if r := s.Check(); r != Unsat {
		t.Fatalf("result = %s, want UNSAT", r)
	}
}

func TestIntervals(t *testing.T) {
	s := newSolver()
	s.Assert(expr.Cmp{Op: expr.CmpGt, L: v("port", 16), R: expr.C(1000, 16)})
	s.Assert(expr.Cmp{Op: expr.CmpLt, L: v("port", 16), R: expr.C(1003, 16)})
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: v("port", 16), R: expr.C(1001, 16)})
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s, want SAT", r)
	}
	if m["port"] != 1002 {
		t.Errorf("model port = %d, want 1002", m["port"])
	}
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: v("port", 16), R: expr.C(1002, 16)})
	if r := s.Check(); r != Unsat {
		t.Fatalf("after excluding 1002: result = %s, want UNSAT", r)
	}
}

func TestTernaryMask(t *testing.T) {
	// (ip & 0xFFFF0000) == 0x7F010000 — the 127.1.*.* prefix of Fig. 5(a).
	s := newSolver()
	s.Assert(expr.Eq(
		expr.Bin{Op: expr.OpAnd, L: v("dstIP", 32), R: expr.C(0xFFFF0000, 32)},
		expr.C(0x7F010000, 32)))
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s, want SAT", r)
	}
	if m["dstIP"]&0xFFFF0000 != 0x7F010000 {
		t.Errorf("model dstIP = %#x does not match prefix", m["dstIP"])
	}
}

func TestMaskContradiction(t *testing.T) {
	s := newSolver()
	s.Assert(expr.Eq(expr.Bin{Op: expr.OpAnd, L: v("x", 8), R: expr.C(0x0F, 8)}, expr.C(0x03, 8)))
	s.Assert(expr.Eq(expr.Bin{Op: expr.OpAnd, L: v("x", 8), R: expr.C(0x0F, 8)}, expr.C(0x04, 8)))
	if r := s.Check(); r != Unsat {
		t.Fatalf("result = %s, want UNSAT", r)
	}
}

func TestMaskValueOutsideMaskIsUnsat(t *testing.T) {
	// (x & 0x0F) == 0x13 can never hold: 0x10 bit outside the mask.
	s := newSolver()
	s.Assert(expr.Eq(expr.Bin{Op: expr.OpAnd, L: v("x", 8), R: expr.C(0x0F, 8)}, expr.C(0x13, 8)))
	if r := s.Check(); r != Unsat {
		t.Fatalf("result = %s, want UNSAT", r)
	}
}

// TestMaskedMissDecided is a ternary table's miss after a hit on the same
// 48-bit field: the hit's known bits decide the miss, so its Unsat is a
// proof, not a search cut short; a miss on other bits stays satisfiable.
func TestMaskedMissDecided(t *testing.T) {
	mac := v("srcAddr", 48)
	masked := expr.Bin{Op: expr.OpAnd, L: mac, R: expr.C(0xffffff000000, 48)}
	s := newSolver()
	s.Assert(expr.Eq(masked, expr.C(0x0a0b0c000000, 48)))
	s.Push()
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: masked, R: expr.C(0x0a0b0c000000, 48)})
	if r := s.Check(); r != Unsat || s.Stats().TruncatedUnknown != 0 {
		t.Fatalf("miss after hit: %s with %d truncated, want a proved UNSAT", r, s.Stats().TruncatedUnknown)
	}
	s.Pop()
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: expr.Bin{Op: expr.OpAnd, L: mac, R: expr.C(0xff0000000000, 48)}, R: expr.C(0x0b0000000000, 48)})
	m, r := s.Model()
	if r != Sat || m["srcAddr"]&0xffffff000000 != 0x0a0b0c000000 {
		t.Fatalf("miss on a differing prefix: %s, model %#x", r, m["srcAddr"])
	}
}

// TestMaskedMissWideConstant: with a mask and a constant wider than the
// 4-bit field, x & 0x14 is at most 4, so (x & 0x14) != 0x14 holds for
// every x, even where x's known bits match the constant's low bits.
func TestMaskedMissWideConstant(t *testing.T) {
	s := newSolver()
	x := v("x", 4)
	wide := expr.Const{Val: 0x14, W: 8}
	s.Assert(expr.Eq(expr.Bin{Op: expr.OpAnd, L: x, R: expr.C(0xC, 4)}, expr.C(0x4, 4)))
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: expr.Bin{Op: expr.OpAnd, L: x, R: wide}, R: wide})
	if r := s.Check(); r != Sat {
		t.Fatalf("result = %s, want SAT", r)
	}
}

// TestMaskedNeWideConstantFullMask: with a 4-bit x, x & 0x1f is at most
// 15, so (x & 0x1f) != 0x14 holds for every x — also for x = 4, whose
// bits match the constant's low four, and with a mask that covers all of
// x's width.
func TestMaskedNeWideConstantFullMask(t *testing.T) {
	s := newSolver()
	x := v("x", 4)
	s.Assert(expr.Eq(x, expr.C(4, 4)))
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: expr.Bin{Op: expr.OpAnd, L: x, R: expr.C(0x1f, 8)}, R: expr.C(0x14, 8)})
	m, r := s.Model()
	if r != Sat || m["x"] != 4 {
		t.Fatalf("result = %s, model %v; want SAT with x = 4", r, m)
	}
}

func TestVarEquality(t *testing.T) {
	s := newSolver()
	s.Assert(expr.Eq(v("a", 16), v("b", 16)))
	s.Assert(expr.Eq(v("a", 16), expr.C(99, 16)))
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s, want SAT", r)
	}
	if m["a"] != 99 || m["b"] != 99 {
		t.Errorf("model = %v, want a=b=99", m)
	}
}

func TestDefinedVariable(t *testing.T) {
	// dstPort == @srcPort + 1 with @srcPort == 10000 — the Algorithm 2
	// auxiliary-variable encoding from §3.3.
	s := newSolver()
	s.Assert(expr.Eq(v("@srcPort", 16), expr.C(10000, 16)))
	s.Assert(expr.Eq(v("dstPort", 16), expr.Bin{Op: expr.OpAdd, L: v("@srcPort", 16), R: expr.C(1, 16)}))
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s, want SAT", r)
	}
	if m["dstPort"] != 10001 {
		t.Errorf("model dstPort = %d, want 10001", m["dstPort"])
	}
}

func TestDefinedVariableFreeInput(t *testing.T) {
	// dstPort == srcPort + 1 with srcPort free: the search must pick a
	// srcPort and derive dstPort.
	s := newSolver()
	s.Assert(expr.Eq(v("dstPort", 16), expr.Bin{Op: expr.OpAdd, L: v("srcPort", 16), R: expr.C(1, 16)}))
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s, want SAT", r)
	}
	if m["dstPort"] != (m["srcPort"]+1)&0xffff {
		t.Errorf("model %v violates dstPort == srcPort+1", m)
	}
}

func TestPushPopRestores(t *testing.T) {
	s := newSolver()
	s.Assert(expr.Cmp{Op: expr.CmpLt, L: v("x", 8), R: expr.C(10, 8)})
	s.Push()
	s.Assert(expr.Eq(v("x", 8), expr.C(50, 8)))
	if r := s.Check(); r != Unsat {
		t.Fatalf("inner check = %s, want UNSAT", r)
	}
	s.Pop()
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("after pop = %s, want SAT", r)
	}
	if m["x"] >= 10 {
		t.Errorf("model x = %d, want < 10", m["x"])
	}
}

func TestPushPopNestedDeep(t *testing.T) {
	s := newSolver()
	// Build a chain of nested frames, then unwind and verify each level.
	for i := 0; i < 10; i++ {
		s.Push()
		s.Assert(expr.Cmp{Op: expr.CmpNe, L: v("y", 16), R: expr.C(uint64(i), 16)})
		if r := s.Check(); r != Sat {
			t.Fatalf("level %d: %s", i, r)
		}
	}
	for i := 0; i < 10; i++ {
		s.Pop()
	}
	if s.Depth() != 0 {
		t.Fatalf("depth = %d, want 0", s.Depth())
	}
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("after unwind: %s", r)
	}
	_ = m
}

func TestPopOnEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newSolver().Pop()
}

func TestNewVarRemovedOnPop(t *testing.T) {
	s := newSolver()
	s.Push()
	s.Assert(expr.Eq(v("fresh", 8), expr.C(1, 8)))
	s.Pop()
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s", r)
	}
	if _, ok := m["fresh"]; ok {
		t.Error("variable introduced in popped frame must not survive")
	}
}

func TestWidthOverflowEquality(t *testing.T) {
	// x (8-bit) == 300 is impossible.
	s := newSolver()
	s.Assert(expr.Eq(v("x", 8), expr.C(300, 16)))
	if r := s.Check(); r != Unsat {
		t.Fatalf("result = %s, want UNSAT", r)
	}
}

func TestDisjunctionDeferred(t *testing.T) {
	s := newSolver()
	s.Assert(expr.Or(expr.Eq(v("x", 8), expr.C(5, 8)), expr.Eq(v("x", 8), expr.C(7, 8))))
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: v("x", 8), R: expr.C(5, 8)})
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s, want SAT", r)
	}
	if m["x"] != 7 {
		t.Errorf("model x = %d, want 7", m["x"])
	}
}

func TestUnsatDisjunction(t *testing.T) {
	s := newSolver()
	s.Assert(expr.Or(expr.Eq(v("x", 8), expr.C(5, 8)), expr.Eq(v("x", 8), expr.C(7, 8))))
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: v("x", 8), R: expr.C(5, 8)})
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: v("x", 8), R: expr.C(7, 8)})
	if r := s.Check(); r == Sat {
		t.Fatalf("result = %s, want UNSAT (or at worst Unknown)", r)
	}
}

func TestManyExactEntriesDisjoint(t *testing.T) {
	// Like the ipv4_host table of Fig. 7: 100 exact-match values; asserting
	// one and the negation of all others must stay SAT.
	s := newSolver()
	s.Assert(expr.Eq(v("dstIP", 32), expr.C(0x01010150, 32)))
	for i := uint64(0); i < 100; i++ {
		if i != 0x50 {
			s.Assert(expr.Cmp{Op: expr.CmpNe, L: v("dstIP", 32), R: expr.C(0x01010100+i, 32)})
		}
	}
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s, want SAT", r)
	}
	if m["dstIP"] != 0x01010150 {
		t.Errorf("model = %#x", m["dstIP"])
	}
}

func TestChainedPipelineConstraints(t *testing.T) {
	// egressPort fixed by table 1, dstMAC keyed on egressPort in table 2
	// (Fig. 7 shape).
	s := newSolver()
	s.Assert(expr.Eq(v("egressPort", 9), expr.C(5, 9)))
	s.Assert(expr.Eq(v("egressPort", 9), expr.C(5, 9))) // re-assert is fine
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: v("egressPort", 9), R: expr.C(6, 9)})
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s", r)
	}
	if m["egressPort"] != 5 {
		t.Errorf("egressPort = %d", m["egressPort"])
	}
}

func TestStatsCount(t *testing.T) {
	s := newSolver()
	s.Assert(expr.Eq(v("x", 8), expr.C(1, 8)))
	before := s.Stats().Checks
	s.Check()
	s.Check()
	if got := s.Stats().Checks - before; got != 2 {
		t.Errorf("Checks delta = %d, want 2", got)
	}
	s.ResetStats()
	if s.Stats().Checks != 0 {
		t.Error("ResetStats must zero counters")
	}
}

func TestNonIncrementalMatchesIncremental(t *testing.T) {
	build := func(s *Solver) {
		s.Assert(expr.Cmp{Op: expr.CmpGe, L: v("a", 16), R: expr.C(10, 16)})
		s.Push()
		s.Assert(expr.Cmp{Op: expr.CmpLe, L: v("a", 16), R: expr.C(20, 16)})
		s.Assert(expr.Eq(v("b", 16), expr.Bin{Op: expr.OpAdd, L: v("a", 16), R: expr.C(2, 16)}))
	}
	inc := New(Options{Incremental: true})
	non := New(Options{Incremental: false})
	build(inc)
	build(non)
	mi, ri := inc.Model()
	mn, rn := non.Model()
	if ri != Sat || rn != Sat {
		t.Fatalf("results: %s %s", ri, rn)
	}
	for _, m := range []expr.State{mi, mn} {
		if m["a"] < 10 || m["a"] > 20 || m["b"] != (m["a"]+2)&0xffff {
			t.Errorf("model %v violates constraints", m)
		}
	}
}

func TestRangeMatch(t *testing.T) {
	// Range table entry: 1024 <= srcPort <= 2048.
	s := newSolver()
	s.Assert(expr.Cmp{Op: expr.CmpGe, L: v("srcPort", 16), R: expr.C(1024, 16)})
	s.Assert(expr.Cmp{Op: expr.CmpLe, L: v("srcPort", 16), R: expr.C(2048, 16)})
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s", r)
	}
	if m["srcPort"] < 1024 || m["srcPort"] > 2048 {
		t.Errorf("model srcPort = %d out of range", m["srcPort"])
	}
}

func TestEmptyConjunctionIsSat(t *testing.T) {
	s := newSolver()
	if r := s.Check(); r != Sat {
		t.Fatalf("empty solver = %s, want SAT", r)
	}
}

func TestAssertTrueNoOp(t *testing.T) {
	s := newSolver()
	s.Assert(expr.True)
	if r := s.Check(); r != Sat {
		t.Fatalf("result = %s", r)
	}
}

func TestAssertFalse(t *testing.T) {
	s := newSolver()
	s.Assert(expr.False)
	if r := s.Check(); r != Unsat {
		t.Fatalf("result = %s, want UNSAT", r)
	}
}

func TestLPMStylePriorities(t *testing.T) {
	// /24 prefix match excluding a more specific /32.
	s := newSolver()
	s.Assert(expr.Eq(
		expr.Bin{Op: expr.OpAnd, L: v("dst", 32), R: expr.C(0xFFFFFF00, 32)},
		expr.C(0x0A000100, 32)))
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: v("dst", 32), R: expr.C(0x0A000101, 32)})
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s", r)
	}
	if m["dst"]&0xFFFFFF00 != 0x0A000100 || m["dst"] == 0x0A000101 {
		t.Errorf("model dst = %#x", m["dst"])
	}
}

func TestSingleValueDomainExcluded(t *testing.T) {
	// 1-bit field pinned then excluded.
	s := newSolver()
	s.Assert(expr.Eq(v("flag", 1), expr.C(1, 1)))
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: v("flag", 1), R: expr.C(1, 1)})
	if r := s.Check(); r != Unsat {
		t.Fatalf("result = %s, want UNSAT", r)
	}
}

func TestOneBitFieldBothValues(t *testing.T) {
	s := newSolver()
	s.Assert(expr.Cmp{Op: expr.CmpNe, L: v("flag", 1), R: expr.C(0, 1)})
	m, r := s.Model()
	if r != Sat {
		t.Fatalf("result = %s", r)
	}
	if m["flag"] != 1 {
		t.Errorf("flag = %d, want 1", m["flag"])
	}
}
