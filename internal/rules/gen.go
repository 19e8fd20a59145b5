package rules

import "math/rand"

// Gen deterministically generates random rule sets for the open-source
// corpus programs (§5.1: "We generate random table rule sets for Router,
// mTag, ACL and switch.p4"). All generation is seeded so benchmark runs
// are reproducible.
type Gen struct {
	rng *rand.Rand
}

// NewGen returns a generator with the given seed.
func NewGen(seed int64) *Gen { return &Gen{rng: rand.New(rand.NewSource(seed))} }

// HostIP returns the i-th address of the 1.1.1.0/24-style host block used
// throughout the corpus (Fig. 7 of the paper uses 1.1.1.1..1.1.1.100).
func HostIP(i int) uint64 { return 0x01010100 + uint64(i%250) + uint64(i/250)<<8 }

// ExactChain populates two correlated tables reproducing Figure 7:
// table a maps key values to an intermediate value (egress port), and
// table b maps the intermediate value to a final action argument. Only n
// of the n×n path combinations are valid — the structure intra-pipeline
// redundancy elimination exploits.
func (g *Gen) ExactChain(set *Set, tableA, keyA, actionA, tableB, keyB, actionB string, n int) {
	for i := 1; i <= n; i++ {
		set.Add(tableA, Rule(actionA, []uint64{uint64(i)}, E(keyA, HostIP(i))))
		set.Add(tableB, Rule(actionB, []uint64{uint64(i)}, E(keyB, uint64(i))))
	}
}

// RandomLPM fills a table with n LPM entries of varying prefix length.
func (g *Gen) RandomLPM(set *Set, table, field string, n int, action string, argGen func(i int) []uint64) {
	for i := 0; i < n; i++ {
		plen := 8 + g.rng.Intn(25) // /8 .. /32
		base := uint64(g.rng.Uint32()) & LPMMask(plen, 32)
		e := Rule(action, argGen(i), L(field, base, plen))
		e.Priority = plen // longest prefix wins
		set.Add(table, e)
	}
}

// RandomRange fills a table with n disjoint port ranges.
func (g *Gen) RandomRange(set *Set, table, field string, n int, action string, argGen func(i int) []uint64) {
	span := uint64(65536 / max(n, 1))
	if span < 2 {
		span = 2
	}
	for i := 0; i < n; i++ {
		lo := uint64(i) * span
		hi := lo + span - 1
		if hi > 0xffff {
			hi = 0xffff
		}
		set.Add(table, Rule(action, argGen(i), R(field, lo, hi)))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
