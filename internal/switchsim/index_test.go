package switchsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rules"
)

// The row index's oracles: on random tables, the hit row the index finds
// and the probes it charges must be a first-match linear scan's over the
// rules as written (covers, not the lowered cells), and a
// traced packet must tell the reference interpreter's story — the same
// trace, the same applies and probes.

// tableCase is one random table — over 1–3 keys, each row drawn in its
// key's declared kind (ternary, LPM and range keys also take wildcards and
// omissions), with rows that repeat a match at another priority where the
// table's kinds allow it, masks repeated across priorities, and sometimes
// no rows at all — and the key vectors to look up in it.
type tableCase struct {
	prog   *p4.Program
	rs     *rules.Set
	widths []int
	lookup [][]uint64
}

// genTableCase draws a table case; next(n) is the source of every choice,
// a number in [0, n). A drawn row that the rule set cannot take — it
// repeats an earlier row's match where rules.Bind forbids that — is left
// out.
func genTableCase(next func(n int) int) *tableCase {
	tc := &tableCase{rs: rules.NewSet()}
	nk := 1 + next(3)
	var src strings.Builder
	src.WriteString("header h {")
	bits := 0
	for j := 0; j < nk; j++ {
		w := []int{1, 4, 8, 12, 16, 32, 48, 64}[next(8)]
		tc.widths = append(tc.widths, w)
		bits += w
		fmt.Fprintf(&src, " bit<%d> k%d;", w, j)
	}
	if pad := (8 - bits%8) % 8; pad > 0 {
		fmt.Fprintf(&src, " bit<%d> pad;", pad)
	}
	src.WriteString(" }\nmetadata { bit<8> m; }\n")
	src.WriteString("parser prs { state start { extract(h); transition accept; } }\n")
	src.WriteString("action hit() { meta.m = 1; }\ntable t {\n  key = {")
	kinds := make([]rules.MatchKind, nk)
	for j := 0; j < nk; j++ {
		kinds[j] = []rules.MatchKind{rules.Exact, rules.Ternary, rules.LPM, rules.Range}[next(4)]
		fmt.Fprintf(&src, " h.k%d : %s;", j, kinds[j])
	}
	src.WriteString(" }\n  actions = { hit; }\n}\ncontrol c { apply { t.apply(); } }\npipeline p { parser = prs; control = c; }\n")
	tc.prog = p4.MustParse(src.String())

	// A few values a key, so rows overlap and lookups hit: the extremes and
	// two drawn ones.
	pools := make([][]uint64, nk)
	masks := make([][]uint64, nk)
	for j, w := range tc.widths {
		full := ^uint64(0) >> (64 - w)
		pools[j] = []uint64{0, full, uint64(next(1<<16)) & full, uint64(next(1<<16)) << (w / 2) & full}
		masks[j] = []uint64{full, full &^ (full >> (w / 2)), full >> (w / 2), 0, uint64(next(1<<16)) & full}
	}
	pick := func(vs []uint64) uint64 { return vs[next(len(vs))] }
	var rows []*rules.Entry
	var prev *rules.Entry
	for r, nrows := 0, next(24); r < nrows; r++ {
		e := &rules.Entry{Priority: next(3), Action: "hit"}
		if prev != nil && next(4) == 0 { // a repeated match, at its own priority
			e.Matches = prev.Matches
		} else {
			for j, w := range tc.widths {
				f := fmt.Sprintf("h.k%d", j)
				switch k := next(3); {
				case k == 1 && kinds[j] != rules.Exact:
					e.Matches = append(e.Matches, rules.Match{Field: f, Kind: rules.Wildcard})
				case k == 2 && kinds[j] != rules.Exact: // the cell left out: a wildcard too
				case kinds[j] == rules.Exact:
					e.Matches = append(e.Matches, rules.Match{Field: f, Kind: rules.Exact, Val: pick(pools[j])})
				case kinds[j] == rules.Ternary:
					e.Matches = append(e.Matches, rules.Match{Field: f, Kind: rules.Ternary, Val: pick(pools[j]), Mask: pick(masks[j])})
				case kinds[j] == rules.LPM:
					e.Matches = append(e.Matches, rules.Match{Field: f, Kind: rules.LPM, Val: pick(pools[j]), Plen: next(w + 1)})
				default:
					lo, hi := pick(pools[j]), pick(pools[j])
					e.Matches = append(e.Matches, rules.Match{Field: f, Kind: rules.Range, Lo: min(lo, hi), Hi: max(lo, hi)})
				}
			}
		}
		try := rules.NewSet()
		for _, x := range append(rows, e) {
			try.Add("t", x)
		}
		if _, err := rules.Bind(tc.prog, try); err == nil {
			rows, tc.rs = append(rows, e), try
		}
		prev = e
	}
	for i := 0; i < 12; i++ {
		kv := make([]uint64, nk)
		for j, w := range tc.widths {
			full := ^uint64(0) >> (64 - w)
			if next(5) == 0 {
				kv[j] = uint64(next(1<<16)) * 0x9e3779b97f4a7c15 & full
			} else {
				kv[j] = pick(pools[j]) & full
			}
		}
		tc.lookup = append(tc.lookup, kv)
	}
	return tc
}

// scanRow is the first-match linear scan: the first entry, in the rule
// set's priority order, whose every match covers the key values; the
// entry count when none does.
func scanRow(es []*rules.Entry, widths []int, kv []uint64) int {
	for i, e := range es {
		covered := true
		for j, w := range widths {
			covered = covered && covers(e.Match(fmt.Sprintf("h.k%d", j)), kv[j], w)
		}
		if covered {
			return i
		}
	}
	return len(es)
}

// wireOf builds the packet that carries the key values.
func (tc *tableCase) wireOf(kv []uint64) []byte {
	bits := 0
	for _, w := range tc.widths {
		bits += w
	}
	wire := make([]byte, (bits+7)/8)
	off := 0
	for j, w := range tc.widths {
		packet.PutBits(wire, off, kv[j], w)
		off += w
	}
	return append(wire, packet.WithID(1)...)
}

// checkTableCase holds the index to the scan and to the reference on
// every lookup of the case, and returns the first difference, or "".
func checkTableCase(tc *tableCase) string {
	target, err := Compile(tc.prog, tc.rs, nil)
	if err != nil {
		return fmt.Sprintf("compile: %v", err)
	}
	ref := NewReference(tc.prog, tc.rs, nil)
	tbl := target.tables[0]
	es := tc.rs.Entries("t")
	for _, kv := range tc.lookup {
		want := scanRow(es, tc.widths, kv)
		if got := tbl.lookup(kv); int(got) != want {
			return fmt.Sprintf("keys %#x: index row %d, scan row %d", kv, got, want)
		}
		charge := uint64(len(es))
		if want < len(es) {
			charge = uint64(want + 1)
		}
		before := tbl.stats.Probes
		_, refBefore := ref.Counts()
		wire := tc.wireOf(kv)
		got, err := target.Inject(0, wire)
		if err != nil {
			return fmt.Sprintf("keys %#x: inject: %v", kv, err)
		}
		wantRes, err := ref.Inject(0, wire)
		if err != nil {
			return fmt.Sprintf("keys %#x: reference: %v", kv, err)
		}
		applies, probes := ref.Counts()
		if p := tbl.stats.Probes - before; p != charge || probes-refBefore != charge {
			return fmt.Sprintf("keys %#x: %d probes charged, reference %d, scan depth %d", kv, p, probes-refBefore, charge)
		}
		if tbl.stats.Applies != applies {
			return fmt.Sprintf("keys %#x: %d applies, reference %d", kv, tbl.stats.Applies, applies)
		}
		if !slices.Equal(got.Trace, wantRes.Trace) {
			return fmt.Sprintf("keys %#x: trace\n%s\nreference\n%s", kv, strings.Join(got.Trace, "\n"), strings.Join(wantRes.Trace, "\n"))
		}
	}
	return ""
}

// describe renders a case for a failure message.
func (tc *tableCase) describe() string {
	return fmt.Sprintf("widths %v, rules:\n%s", tc.widths, tc.rs)
}

// TestTableIndexMatchesScan holds the row index to the scan and to the
// reference interpreter on 3 000 random tables.
func TestTableIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]int{}
	for i := 0; i < 3000; i++ {
		tc := genTableCase(rng.Intn)
		if diff := checkTableCase(tc); diff != "" {
			t.Fatalf("table %d: %s\n%s", i, diff, tc.describe())
		}
		target, _ := Compile(tc.prog, tc.rs, nil)
		tbl := target.tables[0]
		switch {
		case len(tbl.ents) == 0:
			shapes["empty"]++
		case len(tbl.ranged) > 0 && len(tbl.groups) > 0:
			shapes["groups and range rows"]++
		case len(tbl.groups) > 1:
			shapes["several groups"]++
		}
	}
	t.Logf("shapes %v", shapes)
	for _, s := range []string{"empty", "groups and range rows", "several groups"} {
		if shapes[s] < 100 {
			t.Errorf("only %d of the tables were %s: the generator is not exercising the index", shapes[s], s)
		}
	}
}

// FuzzTableIndex drives the table generator with the fuzzer's bytes.
func FuzzTableIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 256)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			v := 0
			for k := 0; k < 3 && len(data) > 0; k++ {
				v, data = v<<8|int(data[0]), data[1:]
			}
			return v % n
		}
		tc := genTableCase(next)
		if diff := checkTableCase(tc); diff != "" {
			t.Fatalf("%s\n%s", diff, tc.describe())
		}
	})
}
