// Package smt implements the incremental constraint solver Meissa uses for
// path validity checking and test-packet model generation (the role Z3
// plays in §3.2 of the paper).
//
// The solver decides conjunctions of comparisons over bit-vector packet
// fields — the exact fragment produced by encoding P4 branching statements
// and match-action rules into the CFG. It supports the push/pop
// incremental-solving pattern that early termination relies on
// ("Meissa pushes an additional constraint into the SMT solver on a
// predicate node, and pops when it backtracks").
//
// Internally it combines:
//   - an interval + known-bits abstract domain per variable, refined by
//     propagation over the asserted atoms;
//   - exclusion sets for disequalities;
//   - directional propagation for equality-defined variables
//     (v == e with all variables of e fixed);
//   - a bounded backtracking search for the remaining free variables;
//   - a final concrete evaluation of every asserted constraint against the
//     candidate model, which makes reported models sound even for atoms the
//     abstract domains cannot reason about.
package smt

import (
	"slices"

	"repro/internal/expr"
)

// maxTrackedExclusions bounds the per-variable disequality set; beyond it
// the domain keeps only interval/bit information and relies on the final
// model check.
const maxTrackedExclusions = 4096

// exclLinear is the size up to which an exclusion set is searched by
// scanning it. A gw-4 generation makes 7.3 M lookups: 12 % on an empty set,
// 88 % on one of 8–15 values, 0.03 % on anything larger (a 144-entry
// table's miss branch) — a scan of two cache lines beats hashing the
// value. Larger sets keep a map beside the list so that a table of
// thousands of exact entries stays linear to assert.
const exclLinear = 16

// exclSet is a variable's individually excluded values in the order they
// were excluded, which is what lets Pop undo a frame's exclusions by
// truncating to the length the trail recorded.
type exclSet struct {
	vals []uint64
	// idx mirrors vals as a set from the first time vals outgrows
	// exclLinear; nil until then.
	idx map[uint64]struct{}
}

func (e *exclSet) has(x uint64) bool {
	if len(e.vals) > exclLinear {
		_, ok := e.idx[x]
		return ok
	}
	return slices.Contains(e.vals, x)
}

// add appends x, which the caller has checked is absent.
func (e *exclSet) add(x uint64) {
	e.vals = append(e.vals, x)
	if e.idx != nil {
		e.idx[x] = struct{}{}
	} else if len(e.vals) > exclLinear {
		e.idx = make(map[uint64]struct{}, 2*len(e.vals))
		for _, v := range e.vals {
			e.idx[v] = struct{}{}
		}
	}
}

// truncate drops every value excluded after the first n.
func (e *exclSet) truncate(n int) {
	for _, v := range e.vals[n:] {
		delete(e.idx, v)
	}
	e.vals = e.vals[:n]
}

// domain is the abstract value of one variable: an inclusive interval
// [lo, hi], bits known to be one (setBits) and zero (clrBits), and a set of
// individually excluded values. Domains are values in the solver's slot
// table; reset revives one for a variable's next life.
type domain struct {
	w expr.Width
	bounds
	excl exclSet
}

// bounds is the part of a domain the undo trail saves by value.
type bounds struct {
	lo, hi           uint64
	setBits, clrBits uint64
}

// reset makes d the full domain of a w-bit variable, keeping the exclusion
// set's storage.
func (d *domain) reset(w expr.Width) {
	d.w, d.bounds = w, bounds{hi: w.Mask()}
	d.excl.truncate(0)
}

// empty reports whether the domain is certainly unsatisfiable.
func (d *domain) empty() bool {
	if d.lo > d.hi {
		return true
	}
	if d.setBits&d.clrBits != 0 {
		return true
	}
	// A fixed value that is excluded is empty.
	if d.lo == d.hi {
		if d.excl.has(d.lo) {
			return true
		}
		if d.lo&d.setBits != d.setBits || (^d.lo)&d.clrBits != d.clrBits {
			return true
		}
	}
	return false
}

// fixed reports whether the domain pins exactly one value.
func (d *domain) fixed() (uint64, bool) {
	if d.lo == d.hi && !d.empty() {
		return d.lo, true
	}
	// All bits known.
	if d.setBits|d.clrBits == d.w.Mask() {
		v := d.setBits
		if v >= d.lo && v <= d.hi {
			if !d.excl.has(v) {
				return v, true
			}
		}
	}
	return 0, false
}

// contains reports whether v is consistent with the domain.
func (d *domain) contains(v uint64) bool {
	if v < d.lo || v > d.hi {
		return false
	}
	if v&d.setBits != d.setBits {
		return false
	}
	if v&d.clrBits != 0 {
		return false
	}
	return !d.excl.has(v)
}

// intersectInterval refines the interval; returns whether it changed.
func (d *domain) intersectInterval(lo, hi uint64) bool {
	changed := false
	if lo > d.lo {
		d.lo = lo
		changed = true
	}
	if hi < d.hi {
		d.hi = hi
		changed = true
	}
	return changed
}

// requireBits records that (v & mask) == val; returns whether it changed.
func (d *domain) requireBits(mask, val uint64) bool {
	set := val & mask
	clr := (^val) & mask
	changed := false
	if d.setBits|set != d.setBits {
		d.setBits |= set
		changed = true
	}
	if d.clrBits|clr != d.clrBits {
		d.clrBits |= clr
		changed = true
	}
	return changed
}

// exclude records v != x; returns whether it changed.
func (d *domain) exclude(x uint64) bool {
	if x == d.lo && d.lo < d.hi {
		d.lo++
		return true
	}
	if x == d.hi && d.hi > d.lo {
		d.hi--
		return true
	}
	if x < d.lo || x > d.hi {
		return false
	}
	if d.excl.has(x) || len(d.excl.vals) >= maxTrackedExclusions {
		return false
	}
	d.excl.add(x)
	return true
}

// tightenToBits pulls lo up and hi down to the nearest values consistent
// with the known-bits constraints. This is a cheap partial normalization;
// full consistency is enforced by contains() during search.
func (d *domain) tightenToBits() bool {
	changed := false
	for i := 0; i < 64 && !d.contains(d.lo) && d.lo < d.hi; i++ {
		d.lo++
		changed = true
	}
	for i := 0; i < 64 && !d.contains(d.hi) && d.hi > d.lo; i++ {
		d.hi--
		changed = true
	}
	return changed
}

// candidates yields up to max candidate values to try during search, in a
// deterministic order designed to satisfy typical packet-field constraints
// quickly: the bit-pattern canonical value, interval endpoints, and a few
// interior probes. out is a reusable caller-provided buffer (the solver
// keeps one per search depth); duplicates are rejected by linear scan,
// which beats a map for the ≤ max (typically 24) entries involved.
func (d *domain) candidates(max int, hints []uint64, out []uint64) []uint64 {
	add := func(v uint64) {
		if len(out) >= max {
			return
		}
		if !d.contains(v) {
			return
		}
		for _, prev := range out {
			if prev == v {
				return
			}
		}
		out = append(out, v)
	}
	for _, h := range hints {
		add(h)
	}
	// Canonical bit-pattern value: known set bits on, everything else off,
	// adjusted into the interval if needed.
	add(d.setBits)
	add(d.setBits | (d.lo &^ d.clrBits))
	add(d.lo)
	add(d.hi)
	if d.hi > d.lo {
		add(d.lo + (d.hi-d.lo)/2)
	}
	// Walk forward from lo to skirt exclusion clusters.
	v := d.lo
	for i := 0; i < 256 && len(out) < max && v <= d.hi; i++ {
		add(v)
		if v == d.hi {
			break
		}
		v++
	}
	return out
}
