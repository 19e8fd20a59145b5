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
//   - a refutation, before any search, of a masked disequality whose mask
//     the known bits already decide (a ternary table's miss after a hit);
//   - a bounded backtracking search for the remaining free variables;
//   - a final concrete evaluation of every asserted constraint against the
//     candidate model, which makes reported models sound even for atoms the
//     abstract domains cannot reason about.
package smt

import (
	"math/bits"
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
// with the known-bits constraints and the exclusions, each end by at most
// 64 and never past the other. This is a cheap partial normalization; full
// consistency is enforced by contains() during search.
func (d *domain) tightenToBits() bool {
	lo, hi := d.lo, d.hi
	if d.lo < d.hi {
		limit := d.hi
		if d.hi-d.lo > 64 {
			limit = d.lo + 64
		}
		d.lo = limit
		for x, ok := nextWithBits(lo, d.setBits, d.clrBits); ok && x < limit; x, ok = nextWithBits(x+1, d.setBits, d.clrBits) {
			if !d.excl.has(x) {
				d.lo = x
				break
			}
		}
	}
	if d.hi > d.lo {
		limit := d.lo
		if d.hi-d.lo > 64 {
			limit = d.hi - 64
		}
		d.hi = limit
		for x, ok := prevWithBits(hi, d.setBits, d.clrBits); ok && x > limit; x, ok = prevWithBits(x-1, d.setBits, d.clrBits) {
			if !d.excl.has(x) {
				d.hi = x
				break
			}
		}
	}
	return d.lo != lo || d.hi != hi
}

// nextWithBits returns the least y >= x with every bit of set on and every
// bit of clr off; ok is false when there is none.
func nextWithBits(x, set, clr uint64) (y uint64, ok bool) {
	if set&clr != 0 {
		return 0, false
	}
	forced := (x &^ clr) | set // x's free bits under the known ones
	diff := forced ^ x
	if diff == 0 {
		return x, true
	}
	p := 63 - bits.LeadingZeros64(diff) // the highest bit x gets wrong
	if forced&(1<<p) == 0 {
		// x has a known-zero bit on at p: carry into the lowest free bit
		// above p that x has off.
		up := ^x &^ (set | clr) &^ (1<<p | (1<<p - 1))
		if up == 0 {
			return 0, false
		}
		p = bits.TrailingZeros64(up)
		forced = x | 1<<p
	}
	// Above p, y is x; at p it is on; below, only the set bits are.
	below := uint64(1)<<p - 1
	return forced&^below | set&below, true
}

// prevWithBits returns the greatest y <= x with every bit of set on and
// every bit of clr off; ok is false when there is none.
func prevWithBits(x, set, clr uint64) (uint64, bool) {
	y, ok := nextWithBits(^x, clr, set)
	return ^y, ok
}

// candIter yields a variable's search candidates one at a time, in a
// deterministic order designed to satisfy typical packet-field constraints
// quickly: the asserted hints, the bit-pattern canonical value, the
// interval endpoints and midpoint, then a walk up from lo that skirts
// exclusion clusters. Each value is yielded once, only if the domain
// contains it, and at most max are. A search tries few candidates before
// one succeeds, so producing them lazily saves testing the rest. out holds
// what has been yielded (the solver keeps one buffer per search depth);
// duplicates are rejected by scanning it, which beats a map for the ≤ max
// (typically 24) entries involved.
type candIter struct {
	d     *domain
	hints []uint64
	max   int
	out   []uint64
	stage int    // 0 hints, 1–5 the fixed probes, 6 the walk
	i     int    // next hint, or steps walked
	walk  uint64 // next value the walk visits
	whole bool   // the walk reached hi: every value of the domain was yielded
}

// cut reports that the list ended short of the domain: some value of it
// was never yielded.
func (it *candIter) cut() bool { return !it.whole && uint64(len(it.out)) <= it.d.hi-it.d.lo }

// next returns the next candidate; ok is false once the list is exhausted.
func (it *candIter) next() (v uint64, ok bool) {
	d := it.d
	for len(it.out) < it.max {
		switch it.stage {
		case 0:
			if it.i == len(it.hints) {
				it.stage++
				continue
			}
			v = it.hints[it.i]
			it.i++
		case 1:
			// Canonical bit-pattern value: known set bits on, everything
			// else off, then adjusted into the interval.
			v = d.setBits
			it.stage++
		case 2:
			v = d.setBits | (d.lo &^ d.clrBits)
			it.stage++
		case 3:
			v = d.lo
			it.stage++
		case 4:
			v = d.hi
			it.stage++
		case 5:
			it.stage++
			it.i, it.walk = 0, d.lo
			if d.hi <= d.lo {
				continue
			}
			v = d.lo + (d.hi-d.lo)/2
		default:
			if it.i >= 256 || it.walk > d.hi {
				return 0, false
			}
			v = it.walk
			it.i++
			if v == d.hi {
				it.i, it.whole = 256, true
			} else {
				it.walk++
			}
		}
		if d.contains(v) && !slices.Contains(it.out, v) {
			it.out = append(it.out, v)
			return v, true
		}
	}
	return 0, false
}
