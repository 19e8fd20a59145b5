package smt

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
)

// The two search kernels as they were before they were rewritten, kept as
// the oracle: the eager candidate builder candIter replaced, and the
// step-by-step tightenToBits the closed form replaced.

// referenceCandidates builds the whole candidate list up front.
func (d *domain) referenceCandidates(max int, hints []uint64, out []uint64) []uint64 {
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
	add(d.setBits)
	add(d.setBits | (d.lo &^ d.clrBits))
	add(d.lo)
	add(d.hi)
	if d.hi > d.lo {
		add(d.lo + (d.hi-d.lo)/2)
	}
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

// referenceTightenToBits walks each end one value at a time.
func (d *domain) referenceTightenToBits() bool {
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

// randomDomain draws a domain of a random width 1–64 in the shapes the
// kernels must agree on: intervals wide and narrow, near either end of the
// width, and inverted; known bits that are consistent and contradictory;
// exclusions clustered at lo, at hi and inside, fewer and more than
// exclLinear.
func randomDomain(rng *rand.Rand) (*domain, []uint64) {
	w := expr.Width(1 + rng.Intn(64))
	d := &domain{}
	d.reset(w)
	m := w.Mask()
	pick := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return uint64(rng.Intn(300)) & m
		case 1:
			return m - uint64(rng.Intn(300))&m
		default:
			return rng.Uint64() & m
		}
	}
	d.lo, d.hi = pick(), pick()
	switch rng.Intn(5) {
	case 0:
		// leave inverted intervals inverted
	case 1:
		d.hi = d.lo + uint64(rng.Intn(200))
		if d.hi > m || d.hi < d.lo {
			d.hi = m
		}
	default:
		if d.lo > d.hi {
			d.lo, d.hi = d.hi, d.lo
		}
	}
	// Known bits: mostly sparse, sometimes dense, sometimes contradictory.
	for range rng.Intn(4) {
		mask := rng.Uint64() & m
		if rng.Intn(2) == 0 {
			mask &= rng.Uint64() & rng.Uint64()
		}
		val := rng.Uint64()
		d.setBits |= val & mask
		d.clrBits |= ^val & mask
	}
	if rng.Intn(10) == 0 {
		b := uint64(1) << rng.Intn(int(w))
		d.setBits |= b
		d.clrBits |= b
	}
	// Exclusions around lo, around hi, and anywhere.
	n := rng.Intn(3 * exclLinear)
	for range n {
		var x uint64
		switch rng.Intn(3) {
		case 0:
			x = d.lo + uint64(rng.Intn(80))
		case 1:
			x = d.hi - uint64(rng.Intn(80))
		default:
			x = rng.Uint64()
		}
		x &= m
		if !d.excl.has(x) {
			d.excl.add(x)
		}
	}
	hints := make([]uint64, rng.Intn(40))
	for i := range hints {
		switch rng.Intn(3) {
		case 0:
			hints[i] = d.lo + uint64(rng.Intn(8))
		case 1:
			hints[i] = d.setBits | uint64(rng.Intn(4))
		default:
			hints[i] = pick()
		}
	}
	return d, hints
}

func cloneDomain(d *domain) *domain {
	c := &domain{w: d.w, bounds: d.bounds}
	for _, x := range d.excl.vals {
		c.excl.add(x)
	}
	return c
}

// TestCandIterMatchesReference holds the lazy candidate iterator to the
// eager builder: the same values in the same order, for every list length.
func TestCandIterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 100000 {
		d, hints := randomDomain(rng)
		max := 1 + rng.Intn(30)
		want := d.referenceCandidates(max, hints, nil)
		it := candIter{d: d, hints: hints, max: max}
		var got []uint64
		for {
			v, ok := it.next()
			if !ok {
				break
			}
			got = append(got, v)
		}
		if _, ok := it.next(); ok {
			t.Fatalf("trial %d: iterator yields after it was exhausted", trial)
		}
		if !slices.Equal(got, want) || !slices.Equal(it.out, want) {
			t.Fatalf("trial %d: domain %+v excl %v max %d hints %v:\n got %v\nwant %v", trial, d.bounds, d.excl.vals, max, hints, got, want)
		}
	}
	// The walk's 256-step cap: with the low k bits known zero, the walk
	// from lo first meets a value the domain holds after 2^k - lo%2^k
	// steps, on either side of the cap.
	for k := 7; k <= 9; k++ {
		for lo := uint64(0); lo < 600; lo++ {
			d := &domain{}
			d.reset(16)
			d.lo, d.hi, d.clrBits = lo, 4000, 1<<k-1
			want := d.referenceCandidates(24, nil, nil)
			it := candIter{d: d, max: 24}
			for {
				if _, ok := it.next(); !ok {
					break
				}
			}
			if !slices.Equal(it.out, want) {
				t.Fatalf("k=%d lo=%d: got %v, want %v", k, lo, it.out, want)
			}
		}
	}
}

// TestTightenToBitsMatchesReference holds the closed-form tightening to
// the 64-step walk: the same bounds and the same change report.
func TestTightenToBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for trial := range n {
		d, _ := randomDomain(rng)
		ref := cloneDomain(d)
		before := d.bounds
		got, want := d.tightenToBits(), ref.referenceTightenToBits()
		if got != want || d.bounds != ref.bounds {
			t.Fatalf("trial %d: from %+v (w=%d, excl %v): got %+v changed=%v, want %+v changed=%v", trial, before, d.w, d.excl.vals, d.bounds, got, ref.bounds, want)
		}
	}
}

// TestNextWithBitsMatchesScan checks the bit-consistent successor and
// predecessor against a scan on every 6-bit value and constraint pair.
func TestNextWithBitsMatchesScan(t *testing.T) {
	const n = 64
	fits := func(y, set, clr uint64) bool { return y&set == set && y&clr == 0 }
	for set := uint64(0); set < n; set++ {
		for clr := uint64(0); clr < n; clr++ {
			for x := uint64(0); x < n; x++ {
				// Bits 6 and up are free, so above 63 the next fit is 64 |
				// set, or none when set and clr overlap.
				want, wok := uint64(0), false
				for y := x; y < 2*n; y++ {
					if fits(y, set, clr) {
						want, wok = y, true
						break
					}
				}
				if got, ok := nextWithBits(x, set, clr); ok != wok || ok && got != want {
					t.Fatalf("nextWithBits(%d, %#b, %#b) = %d, %v; want %d, %v", x, set, clr, got, ok, want, wok)
				}
				want, wok = 0, false
				for y := x + 1; y > 0; y-- {
					if fits(y-1, set, clr) {
						want, wok = y-1, true
						break
					}
				}
				if got, ok := prevWithBits(x, set, clr); ok != wok || ok && got != want {
					t.Fatalf("prevWithBits(%d, %#b, %#b) = %d, %v; want %d, %v", x, set, clr, got, ok, want, wok)
				}
			}
		}
	}
	// At the top of the 64-bit range there is nothing to carry into.
	if _, ok := nextWithBits(^uint64(0)-1, 1, 0); ok != true {
		t.Errorf("nextWithBits(max-1, set bit 0) found nothing")
	}
	if _, ok := nextWithBits(^uint64(0), 0, 1); ok {
		t.Errorf("nextWithBits(max, clr bit 0) found a value")
	}
	if _, ok := prevWithBits(0, 1, 0); ok {
		t.Errorf("prevWithBits(0, set bit 0) found a value")
	}
}
