package meissa_test

// Gates for pruning in the parent's frame and for the fmt-free renderer:
// the counted work and every output byte are what they were before either
// (the constants below were recorded at commit 538846c, which walked every
// chain and rendered through fmt), and the walk enters far fewer frames.
// The checkpoint digests (JournalSHA) hold a record's tag list to the bytes
// it had at commit f67e8c7, which tagged every node of a rule's branch; they
// were recorded again when a completed run's checkpoint came to end with
// its template list, a frame after the same verdict frames.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	meissa "repro"
	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/programs"
	"repro/internal/sym"
)

// TestCountedWorkUnchangedByParentPrunes pins the counts on small inputs,
// whose summary rows are never pruned by peeking, on gw-4, whose second
// switch's rows mostly are, and on the one-pipeline programs ACL, mTag and
// switch.p4, whose final passes are mostly rows.
func TestCountedWorkUnchangedByParentPrunes(t *testing.T) {
	type counts struct {
		Paths, Pruned, Checks, JournalHits uint64
		Templates                          int
		// OutputSHA is the SHA-256 of WriteTemplates' output, JournalSHA
		// that of the cold run's checkpoint file; HookFNV folds every
		// PathHook call's path, in call order.
		OutputSHA, JournalSHA string
		HookFNV               uint64
	}
	want := map[string]counts{
		"Router/summary":    {Paths: 562, Pruned: 476, Checks: 179, JournalHits: 179, Templates: 43, OutputSHA: "62289fd8", JournalSHA: "1608a661", HookFNV: 0xc4c3898c9fe3a401},
		"Router/raw":        {Paths: 519, Pruned: 476, Checks: 93, JournalHits: 93, Templates: 43, OutputSHA: "7adc4fd8", JournalSHA: "2130da90", HookFNV: 0xf467aa6e399d1397},
		"gw-1/summary":      {Paths: 106, Pruned: 88, Checks: 50, JournalHits: 50, Templates: 9, OutputSHA: "c1f16725", JournalSHA: "6f1df508", HookFNV: 0x9b159383d05abb11},
		"gw-1/raw":          {Paths: 97, Pruned: 88, Checks: 32, JournalHits: 32, Templates: 9, OutputSHA: "3cd4246b", JournalSHA: "f59f0b68", HookFNV: 0xa98bad5051d729f0},
		"gw-2/summary":      {Paths: 631, Pruned: 568, Checks: 152, JournalHits: 152, Templates: 42, OutputSHA: "fbd390e0", JournalSHA: "e7d0863e", HookFNV: 0x57b2db53d6060b76},
		"gw-2/raw":          {Paths: 643, Pruned: 601, Checks: 110, JournalHits: 110, Templates: 42, OutputSHA: "7c5862b3", JournalSHA: "48ccdc34", HookFNV: 0xbe93ddcdd71762fd},
		"gw-3/summary":      {Paths: 1845, Pruned: 1702, Checks: 1598, JournalHits: 1598, Templates: 105, OutputSHA: "a6d8732f", JournalSHA: "28f90657", HookFNV: 0xbc34c47074b44003},
		"gw-3/raw":          {Paths: 2548, Pruned: 2443, Checks: 2456, JournalHits: 2456, Templates: 105, OutputSHA: "d3ea6186", JournalSHA: "e10d6760", HookFNV: 0xc5d09f0fc8bd33d1},
		"gw-4/summary":      {Paths: 22400, Pruned: 21601, Checks: 9274, JournalHits: 9274, Templates: 636, OutputSHA: "15093e9f", JournalSHA: "f0fb2ec0", HookFNV: 0x971e88e8f891fcd9},
		"gw-4/raw":          {Paths: 19898, Pruned: 19262, Checks: 15954, JournalHits: 15954, Templates: 636, OutputSHA: "a8010286", JournalSHA: "7e9e333a", HookFNV: 0x9b6316cee5cd4965},
		"ACL/summary":       {Paths: 2047, Pruned: 1697, Checks: 722, JournalHits: 722, Templates: 175, OutputSHA: "24c29b30", JournalSHA: "00c7c9de", HookFNV: 0x6f3ae8c73a8eb49},
		"ACL/raw":           {Paths: 1872, Pruned: 1697, Checks: 372, JournalHits: 372, Templates: 175, OutputSHA: "9c3a8974", JournalSHA: "c3f6f4b7", HookFNV: 0xbed1b9df05c39f73},
		"mTag/summary":      {Paths: 108, Pruned: 40, Checks: 140, JournalHits: 140, Templates: 34, OutputSHA: "5acdf097", JournalSHA: "44686598", HookFNV: 0xfd0b917be55e8dcd},
		"mTag/raw":          {Paths: 74, Pruned: 40, Checks: 72, JournalHits: 72, Templates: 34, OutputSHA: "64c0e456", JournalSHA: "549e0fdc", HookFNV: 0x9c44bd00fd2b33a5},
		"switch.p4/summary": {Paths: 6696, Pruned: 5712, Checks: 2238, JournalHits: 2238, Templates: 492, OutputSHA: "cdae06c5", JournalSHA: "86751ff8", HookFNV: 0x5965961f230a698b},
		"switch.p4/raw":     {Paths: 6204, Pruned: 5712, Checks: 1254, JournalHits: 1254, Templates: 492, OutputSHA: "3cab6160", JournalSHA: "b0e7fc2e", HookFNV: 0x1fa51b394ec381dc},
	}
	for _, p := range []*programs.Program{
		programs.Router(), programs.GW(1, programs.Set1), programs.GW(2, programs.Set2),
		programs.GW(3, programs.Set1), programs.GW(4, programs.Set2),
		programs.ACL(), programs.MTag(), programs.SwitchP4(),
	} {
		for _, summary := range []bool{true, false} {
			name := p.Name + "/raw"
			if summary {
				name = p.Name + "/summary"
			}
			h := fnv.New64a()
			opts := at(1)
			opts.NoSummary = !summary
			opts.Checkpoint = filepath.Join(t.TempDir(), "j")
			var buf []byte
			opts.PathHook = func(path []cfg.NodeID) {
				buf = buf[:0]
				for _, id := range path {
					buf = append(strconv.AppendInt(buf, int64(id), 10), ',')
				}
				h.Write(append(buf, '\n'))
			}
			gen := run{p: p, opts: opts}.gen(t)
			var out bytes.Buffer
			if err := meissa.WriteTemplates(&out, gen.Templates); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			journal, err := os.ReadFile(opts.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			jsum := sha256.Sum256(journal)
			got := counts{
				Paths: gen.PathsExplored, Pruned: gen.PrunedPaths, Checks: gen.SMTCalls,
				Templates: len(gen.Templates), OutputSHA: hex.EncodeToString(sum[:4]),
				JournalSHA: hex.EncodeToString(jsum[:4]), HookFNV: h.Sum64(),
			}
			// The same run again, answered from the checkpoint.
			opts.Resume, opts.PathHook = true, nil
			resumed := run{p: p, opts: opts}.gen(t)
			got.JournalHits = resumed.JournalHits
			var again bytes.Buffer
			if err := meissa.WriteTemplates(&again, resumed.Templates); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), out.Bytes()) {
				t.Errorf("%s: resumed output differs from the cold run's", name)
			}
			if got != want[name] {
				t.Errorf("%s:\n got %#v\nwant %#v", name, got, want[name])
			}
		}
	}
}

// TestTruncatedUnknownPinned pins how many searches found no model after
// cutting a candidate list short — which answer Unknown, not an Unsat that
// would not be a proof — at 0 on every Table 1 corpus program, with and
// without code summary. gw-3/set-1 made 223 and 243 and gw-4/set-4 4 622
// and 5 184 such (then Unsat) verdicts until the solver decided a masked
// table miss from its field's known bits instead of searching it. The
// count reaches the run report. -short skips the rule sets above set-1.
func TestTruncatedUnknownPinned(t *testing.T) {
	type tc struct {
		p     *programs.Program // nil: the corpus program name
		name  string
		scale programs.RuleScale
	}
	var cases []tc
	for _, name := range []string{"Router", "mTag", "ACL", "switch.p4", "gw-1"} {
		cases = append(cases, tc{name: name, scale: programs.Set1})
	}
	for n := 2; n <= 4; n++ {
		cases = append(cases, tc{programs.GW(n, programs.Set1), fmt.Sprintf("gw-%d", n), programs.Set1})
	}
	if !testing.Short() {
		cases = append(cases, tc{name: "gw-2", scale: programs.Set2}, tc{name: "gw-3", scale: programs.Set3}, tc{name: "gw-4", scale: programs.Set4})
	}
	for _, c := range cases {
		for _, summary := range []bool{true, false} {
			var got *cell
			if c.p == nil {
				got = get(t, genKey(c.name, "", 1, "").summarized(summary))
			} else {
				opts := at(1)
				opts.NoSummary = !summary
				got = observe(run{p: c.p, opts: opts}.res(t))
			}
			name := fmt.Sprintf("%s/%s summary=%v", c.name, c.scale, summary)
			if got.work.TruncatedUnknown != 0 {
				t.Errorf("%s: %d truncated Unknowns of %d, want 0", name, got.work.TruncatedUnknown, got.solver.Outcomes["unknown"])
			}
			// The report validated when the run was made.
			if got.solver.TruncatedUnknown != 0 {
				t.Errorf("%s: report carries truncated_unknown %d, want 0", name, got.solver.TruncatedUnknown)
			}
		}
	}
}

// TestFramesGate is the counted form of "static infeasibility is decided in
// the parent's frame" and "a summarized path is one frame": a sequential
// gw-4/set-2 generation made 152 170 dfs frames for its 22 400 descents when
// every summarized chain's saves were walked to reach its guard, 52 824
// while a chain with a hash obligation was still walked to its guard, and
// 47 064 while a summarized path was a chain of nodes; as one row a frame,
// it makes 17 388, of which 7 944 ran rows. A descent the parent prunes
// enters no frame, so there are fewer frames than descents.
func TestFramesGate(t *testing.T) {
	gen := run{p: programs.GW(4, programs.Set2), opts: at(1)}.gen(t)
	t.Logf("%d frames (%d rows) for %d descents (%.2f per descent)", gen.Frames, gen.RowFrames, gen.PathsExplored, float64(gen.Frames)/float64(gen.PathsExplored))
	if gen.PathsExplored != 22400 {
		t.Errorf("PathsExplored = %d, want 22400", gen.PathsExplored)
	}
	if gen.Frames != 17388 || gen.RowFrames != 7944 {
		t.Errorf("Frames = %d, RowFrames = %d, want 17388 and 7944", gen.Frames, gen.RowFrames)
	}
	if rep := gen.Report("gen", "gw-4"); rep.Paths.Frames != gen.Frames || rep.Paths.RowFrames != gen.RowFrames {
		t.Errorf("report paths.frames = %d, row_frames = %d, want %d and %d", rep.Paths.Frames, rep.Paths.RowFrames, gen.Frames, gen.RowFrames)
	}
}

// The renderers this repository shipped until templates were rendered
// without fmt, kept as the oracle: expr's String methods, WriteTemplates'
// body and renderTemplates' body, as they were.

func fmtArith(a expr.Arith) string {
	switch t := a.(type) {
	case expr.Const:
		return fmt.Sprintf("%d", t.Val)
	case expr.Ref:
		return string(t.Var)
	case expr.Bin:
		return fmt.Sprintf("(%s %s %s)", fmtArith(t.L), t.Op.String(), fmtArith(t.R))
	}
	panic(fmt.Sprintf("unknown arithmetic expression %T", a))
}

func fmtBool(b expr.Bool) string {
	switch t := b.(type) {
	case expr.BoolConst:
		if t {
			return "True"
		}
		return "False"
	case expr.Cmp:
		return fmt.Sprintf("%s %s %s", fmtArith(t.L), t.Op.String(), fmtArith(t.R))
	case expr.Logic:
		return fmt.Sprintf("(%s %s %s)", fmtBool(t.L), t.Op.String(), fmtBool(t.R))
	case expr.Not:
		return fmt.Sprintf("~(%s)", fmtBool(t.X))
	}
	panic(fmt.Sprintf("unknown boolean expression %T", b))
}

func fmtWriteTemplates(w io.Writer, ts []*sym.Template) error {
	bw := bufio.NewWriter(w)
	for _, t := range ts {
		fmt.Fprintf(bw, "#%d path=%v dropped=%v uncertain=%v\n", t.ID, t.Path, t.Dropped, t.Uncertain)
		for _, c := range t.Constraints {
			fmt.Fprintf(bw, "  cond %s\n", fmtBool(c))
		}
		vars := make([]string, 0, len(t.Model))
		for v := range t.Model {
			vars = append(vars, string(v))
		}
		sort.Strings(vars)
		for _, v := range vars {
			fmt.Fprintf(bw, "  model %s=%d\n", v, t.Model[expr.Var(v)])
		}
	}
	return bw.Flush()
}

func fmtRenderTemplates(ts []*sym.Template) string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "#%d path=%v dropped=%v uncertain=%v\n", t.ID, t.Path, t.Dropped, t.Uncertain)
		for _, c := range t.Constraints {
			fmt.Fprintf(&b, "  C %s\n", c)
		}
		var fslots []int
		for s, val := range t.Final {
			if val != nil {
				fslots = append(fslots, s)
			}
		}
		sort.Slice(fslots, func(i, j int) bool { return t.Vars[fslots[i]] < t.Vars[fslots[j]] })
		for _, s := range fslots {
			fmt.Fprintf(&b, "  F %s=%s\n", t.Vars[s], t.Final[s])
		}
		var mvars []string
		for v := range t.Model {
			mvars = append(mvars, string(v))
		}
		sort.Strings(mvars)
		for _, v := range mvars {
			fmt.Fprintf(&b, "  M %s=%d\n", v, t.Model[expr.Var(v)])
		}
		for _, ob := range t.HashObligations {
			fmt.Fprintf(&b, "  H %s kind=%v width=%d inputs=%v\n", ob.Var, ob.Kind, ob.Width, ob.Inputs)
		}
	}
	return b.String()
}

// boolMatchesFmt checks AppendBool and String against fmtBool on b.
func boolMatchesFmt(b expr.Bool) error {
	want := fmtBool(b)
	if got := string(expr.AppendBool([]byte("x"), b)); got != "x"+want {
		return fmt.Errorf("AppendBool = %q, want %q", got[1:], want)
	}
	if got := b.String(); got != want {
		return fmt.Errorf("String = %q, want %q", got, want)
	}
	return nil
}

// fmtOracle holds the append-style renderers to the fmt ones on one
// generation's templates: renderTemplates, whose digest is rendered, to
// fmtRenderTemplates and, with exprs, every constraint through AppendBool
// and String, every final value through AppendArith and String, and
// WriteTemplates to fmtWriteTemplates. It returns how many constraints it
// rendered and the first difference.
func fmtOracle(ts []*sym.Template, rendered uint64, exprs bool) (int, error) {
	if want := fmtRenderTemplates(ts); maphash.String(digestSeed, want) != rendered {
		got := renderTemplates(ts)
		n := 0
		for n < min(len(got), len(want)) && got[n] == want[n] {
			n++
		}
		return 0, fmt.Errorf("renderTemplates differs from the fmt rendering (%d vs %d bytes) at offset %d", len(got), len(want), n)
	}
	if !exprs {
		return 0, nil
	}
	constraints := 0
	for _, tm := range ts {
		for _, c := range tm.Constraints {
			if err := boolMatchesFmt(c); err != nil {
				return constraints, err
			}
			constraints++
		}
		for _, a := range tm.Final {
			if a == nil {
				continue
			}
			if got, want := string(expr.AppendArith(nil, a)), fmtArith(a); got != want || a.String() != want {
				return constraints, fmt.Errorf("AppendArith = %q, String = %q, want %q", got, a.String(), want)
			}
		}
	}
	var got, want bytes.Buffer
	if err := meissa.WriteTemplates(&got, ts); err != nil {
		return constraints, err
	}
	if err := fmtWriteTemplates(&want, ts); err != nil {
		return constraints, err
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return constraints, fmt.Errorf("WriteTemplates differs from the fmt rendering (%d vs %d bytes)", got.Len(), want.Len())
	}
	return constraints, nil
}

// TestRenderersMatchFmt: the append-style renderers and the String methods
// built on them produce the bytes fmt produced — over every constraint and
// final value of the summarized corpus templates and their template files,
// over random expressions nested deeper than any of those, and for
// renderTemplates' renderings of the corpus with and without code summary.
func TestRenderersMatchFmt(t *testing.T) {
	constraints := 0
	for _, p := range corpusAll() {
		for _, summary := range []bool{true, false} {
			c := get(t, genKey(p.Name, "", 1, "").summarized(summary))
			if c.oracle != nil {
				t.Errorf("%s (summary %v): %v", p.Name, summary, c.oracle)
			}
			constraints += c.rendered
		}
	}
	if constraints == 0 {
		t.Fatal("no corpus constraint was rendered")
	}

	rng := rand.New(rand.NewSource(18))
	var arith func(depth int) expr.Arith
	arith = func(depth int) expr.Arith {
		switch k := rng.Intn(4); {
		case depth == 0 || k == 0:
			return expr.C(rng.Uint64()>>uint(rng.Intn(64)), expr.Width(1+rng.Intn(64)))
		case k == 1:
			return expr.V(expr.Var(fmt.Sprintf("@hdr.f%d", rng.Intn(9))), 16)
		default:
			// Operators past OpMul render as aop(N).
			return expr.Bin{Op: expr.AOp(rng.Intn(int(expr.OpMul) + 2)), L: arith(depth - 1), R: arith(depth - 1)}
		}
	}
	var boolean func(depth int) expr.Bool
	boolean = func(depth int) expr.Bool {
		switch k := rng.Intn(6); {
		case depth == 0 || k < 2:
			return expr.Cmp{Op: expr.CmpOp(rng.Intn(int(expr.CmpLe) + 2)), L: arith(3), R: arith(3)}
		case k == 2:
			return expr.Not{X: boolean(depth - 1)}
		case k == 3:
			return expr.BoolConst(rng.Intn(2) == 0)
		default:
			return expr.Logic{Op: expr.LOp(rng.Intn(2)), L: boolean(depth - 1), R: boolean(depth - 1)}
		}
	}
	for i := 0; i < 2000; i++ {
		if err := boolMatchesFmt(boolean(8)); err != nil {
			t.Fatal(err)
		}
	}
}
