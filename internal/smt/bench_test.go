package smt

import (
	"testing"

	"repro/internal/expr"
)

// benchPrefix asserts a realistic path prefix: an LPM-style masked match,
// a port interval, and a derived-field definition — the shape a few
// pipeline stages of table matches and assignments produce.
func benchPrefix(s *Solver) {
	s.Assert(expr.Eq(
		expr.Bin{Op: expr.OpAnd, L: v("ipv4.dstAddr", 32), R: expr.C(0xFFFF0000, 32)},
		expr.C(0x0A010000, 32)))
	s.Assert(expr.Cmp{Op: expr.CmpGt, L: v("tcp.srcPort", 16), R: expr.C(1023, 16)})
	s.Assert(expr.Eq(v("meta.nhop", 16),
		expr.Bin{Op: expr.OpAdd, L: v("tcp.dstPort", 16), R: expr.C(1, 16)}))
	s.Assert(expr.Eq(v("eth.type", 16), expr.C(0x0800, 16)))
}

// benchSiblings builds the k mutually-exclusive branch conditions of one
// k-way exact-match table on tcp.dstPort: k-1 hit arms plus the default
// arm (the conjunction of all negations).
func benchSiblings(k int) []expr.Bool {
	conds := make([]expr.Bool, 0, k)
	var miss []expr.Bool
	for i := 0; i < k-1; i++ {
		hit := expr.Eq(v("tcp.dstPort", 16), expr.C(uint64(2000+i), 16))
		conds = append(conds, hit)
		miss = append(miss, expr.Cmp{Op: expr.CmpNe, L: v("tcp.dstPort", 16), R: expr.C(uint64(2000+i), 16)})
	}
	conds = append(conds, expr.AndAll(miss))
	return conds
}

// BenchmarkCheckBatch compares deciding one k-way branch expansion with
// k independent Push/Assert/Check/Pop queries against a single CheckBatch
// sweep. The batch amortizes the shared-prefix work (digest, emptiness
// scan, fixed/free split) across the k siblings.
func BenchmarkCheckBatch(b *testing.B) {
	for _, k := range []int{2, 8, 32} {
		conds := benchSiblings(k)
		b.Run(benchName("per-query/k", k), func(b *testing.B) {
			s := New(DefaultOptions())
			benchPrefix(s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range conds {
					s.Push()
					s.Assert(c)
					s.Check()
					s.Pop()
				}
			}
		})
		b.Run(benchName("batched/k", k), func(b *testing.B) {
			s := New(DefaultOptions())
			benchPrefix(s)
			var res []Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = s.CheckBatch(conds, res)
			}
		})
	}
}

// BenchmarkIncrementalCheck measures the plain steady-state hot path —
// one Push/Assert/Check/Pop probe per iteration on a warm solver — the
// unit cost the zero-alloc arena work targets.
func BenchmarkIncrementalCheck(b *testing.B) {
	s := New(DefaultOptions())
	benchPrefix(s)
	probe := expr.Eq(v("tcp.dstPort", 16), expr.C(2004, 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push()
		s.Assert(probe)
		s.Check()
		s.Pop()
	}
}

func benchName(prefix string, k int) string {
	return prefix + "=" + itoa(k)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestSteadyStateAllocsCheck pins the tentpole's zero-alloc guarantee for
// the per-query hot path: after warm-up (normalize/hint memoization,
// scratch growth), Push/Assert/Check/Pop allocates nothing.
func TestSteadyStateAllocsCheck(t *testing.T) {
	s := New(DefaultOptions())
	benchPrefix(s)
	conds := benchSiblings(8)
	sweep := func() {
		for _, c := range conds {
			s.Push()
			s.Assert(c)
			s.Check()
			s.Pop()
		}
	}
	sweep() // warm scratch buffers and memo caches
	if avg := testing.AllocsPerRun(100, sweep); avg != 0 {
		t.Errorf("steady-state Push/Assert/Check/Pop allocates %.2f allocs/op, want 0", avg)
	}
}

// TestSteadyStateAllocsCheckBatch pins the same guarantee for the batched
// sweep, including the caller-reused results buffer.
func TestSteadyStateAllocsCheckBatch(t *testing.T) {
	s := New(DefaultOptions())
	benchPrefix(s)
	conds := benchSiblings(8)
	var res []Result
	sweep := func() { res = s.CheckBatch(conds, res) }
	sweep() // warm scratch buffers and memo caches
	if avg := testing.AllocsPerRun(100, sweep); avg != 0 {
		t.Errorf("steady-state CheckBatch allocates %.2f allocs/op, want 0", avg)
	}
}

// TestSteadyStateAllocsModel: a Push/Assert/Model/Pop cycle allocates the
// model it returns — templates keep it — and nothing else: the search runs
// in slot-indexed scratch and copies the assignment out once.
func TestSteadyStateAllocsModel(t *testing.T) {
	s := New(DefaultOptions())
	benchPrefix(s)
	conds := benchSiblings(8)
	var model expr.State
	sweep := func() {
		for _, c := range conds {
			s.Push()
			s.Assert(c)
			m, r := s.Model()
			if r != Sat {
				t.Fatalf("%s is %s under the prefix", c, r)
			}
			model = m
			s.Pop()
		}
	}
	sweep() // warm scratch buffers and memo caches
	// What the returned maps alone cost: one of the same size per sibling.
	var names []expr.Var
	for v := range model {
		names = append(names, v)
	}
	var sink expr.State
	mapsOnly := testing.AllocsPerRun(100, func() {
		for range conds {
			sink = make(expr.State, len(names))
			for _, v := range names {
				sink[v] = 0
			}
		}
	})
	if avg := testing.AllocsPerRun(100, sweep); avg != mapsOnly || mapsOnly == 0 {
		t.Errorf("steady-state Push/Assert/Model/Pop allocates %.2f allocs/op, want the %.2f its %d returned models cost", avg, mapsOnly, len(conds))
	}
	_ = sink
}

// TestBatchMatchesSequentialQueries is the package-level differential
// check backing the sym-level corpus test: CheckBatch verdicts and stats
// equal the per-query loop's on the same stack.
func TestBatchMatchesSequentialQueries(t *testing.T) {
	for _, k := range []int{1, 2, 8, 32} {
		conds := benchSiblings(k)

		ref := New(DefaultOptions())
		benchPrefix(ref)
		want := make([]Result, len(conds))
		for i, c := range conds {
			ref.Push()
			ref.Assert(c)
			want[i] = ref.Check()
			ref.Pop()
		}

		s := New(DefaultOptions())
		benchPrefix(s)
		got := s.CheckBatch(conds, nil)
		for i := range conds {
			if got[i] != want[i] {
				t.Errorf("k=%d sibling %d: batch=%s per-query=%s", k, i, got[i], want[i])
			}
		}
		if counters(s.Stats()) != counters(ref.Stats()) {
			t.Errorf("k=%d stats diverge: batch=%+v per-query=%+v", k, counters(s.Stats()), counters(ref.Stats()))
		}
	}
}
