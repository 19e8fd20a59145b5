package meissa_test

// Differential test for the exploration engine through Generate: on every
// corpus program, with and without code summary, Parallelism ∈ {2, 4, 8}
// must produce a template set byte-identical to one runner's
// (Parallelism: 1) — same paths, constraints, models, final states, hash
// obligations, Dropped flags, ordering and IDs. What pins one runner to the
// plain DFS is internal/sym's reference_test.go, which this package cannot
// see.

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/expr"
	"repro/internal/sym"
)

// renderTemplates is a deterministic byte-comparable rendering (the final
// state's bound slots and the model sorted by variable name; everything else
// in stored order). It formats with strconv and expr's Append functions,
// as WriteTemplates does; fmtRenderTemplates is its oracle.
func renderTemplates(ts []*sym.Template) []byte {
	var r renderer
	var b []byte
	for _, t := range ts {
		b = r.append(b, t)
	}
	return b
}

// digestSeed seeds every digest of a process.
var digestSeed = maphash.MakeSeed()

// digest hashes renderTemplates, rendered a template at a time: two
// template sets of one process have one digest when they render alike.
func digest(ts []*sym.Template) uint64 {
	var r renderer
	var h maphash.Hash
	h.SetSeed(digestSeed)
	var b []byte
	for _, t := range ts {
		b = r.append(b[:0], t)
		h.Write(b)
	}
	return h.Sum64()
}

// renderer renders templates. The templates of an exploration share its
// variable table, which it sorts by name once.
type renderer struct {
	vars  []expr.Var // the table order sorts
	order []int      // its slots by variable name
}

// append appends renderTemplates' rendering of t to b.
func (r *renderer) append(b []byte, t *sym.Template) []byte {
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(t.ID), 10)
	b = append(b, " path=["...)
	for i, id := range t.Path {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, "] dropped="...)
	b = strconv.AppendBool(b, t.Dropped)
	b = append(b, " uncertain="...)
	b = strconv.AppendBool(b, t.Uncertain)
	b = append(b, '\n')
	for _, c := range t.Constraints {
		b = append(b, "  C "...)
		b = expr.AppendBool(b, c)
		b = append(b, '\n')
	}
	if len(t.Vars) != len(r.vars) || len(t.Vars) > 0 && &t.Vars[0] != &r.vars[0] {
		r.vars, r.order = t.Vars, r.order[:0]
		for s := range t.Vars {
			r.order = append(r.order, s)
		}
		sort.Slice(r.order, func(i, j int) bool { return t.Vars[r.order[i]] < t.Vars[r.order[j]] })
	}
	for _, s := range r.order {
		if s >= len(t.Final) || t.Final[s] == nil {
			continue
		}
		b = append(b, "  F "...)
		b = append(b, t.Vars[s]...)
		b = append(b, '=')
		b = expr.AppendArith(b, t.Final[s])
		b = append(b, '\n')
	}
	vars := make([]expr.Var, 0, len(t.Model))
	for v := range t.Model {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	for _, v := range vars {
		b = append(b, "  M "...)
		b = append(b, v...)
		b = append(b, '=')
		b = strconv.AppendUint(b, t.Model[v], 10)
		b = append(b, '\n')
	}
	for _, ob := range t.HashObligations {
		b = append(b, "  H "...)
		b = append(b, ob.Var...)
		b = append(b, " kind="...)
		b = append(b, ob.Kind.String()...)
		b = append(b, " width="...)
		b = strconv.AppendInt(b, int64(ob.Width), 10)
		b = append(b, " inputs=["...)
		for i, in := range ob.Inputs {
			if i > 0 {
				b = append(b, ' ')
			}
			b = expr.AppendArith(b, in)
		}
		b = append(b, "]\n"...)
	}
	return b
}

func TestParallelMatchesSequentialOnCorpus(t *testing.T) {
	for _, p := range corpusAll() {
		if testing.Short() && p.Name == "gw-4" {
			continue // ~15s across all (P, summary) combinations
		}
		for _, codeSummary := range []bool{true, false} {
			name := fmt.Sprintf("%s/summary=%v", p.Name, codeSummary)
			t.Run(name, func(t *testing.T) {
				seq := get(t, genKey(p.Name, "", 1, "").summarized(codeSummary))
				for _, par := range []int{2, 4, 8} {
					got := get(t, genKey(p.Name, "", par, "").summarized(codeSummary))
					if got.digest != seq.digest {
						t.Fatalf("P=%d template set differs from sequential (%d vs %d templates)",
							par, seq.work.Templates, got.work.Templates)
					}
					if got.work.Paths != seq.work.Paths {
						t.Errorf("P=%d PathsExplored = %d, want %d", par, got.work.Paths, seq.work.Paths)
					}
					if got.work.Pruned != seq.work.Pruned {
						t.Errorf("P=%d PrunedPaths = %d, want %d", par, got.work.Pruned, seq.work.Pruned)
					}
					// SMT-call parity: every runner asks its own solver, so
					// the checks are exactly the sequential run's.
					if got.work.Checks != seq.work.Checks || got.work.CacheHits != 0 {
						t.Errorf("P=%d SMT calls %d (%d cache hits), want %d and 0",
							par, got.work.Checks, got.work.CacheHits, seq.work.Checks)
					}
				}
			})
		}
	}
}
