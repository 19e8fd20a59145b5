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
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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
			opts := meissa.DefaultOptions()
			opts.Parallelism = 1
			opts.CodeSummary = summary
			opts.Checkpoint = filepath.Join(t.TempDir(), "j")
			opts.PathHook = func(path []cfg.NodeID) {
				for _, id := range path {
					fmt.Fprintf(h, "%d,", id)
				}
				h.Write([]byte{'\n'})
			}
			gen := generateWith(t, p, opts)
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
			resumed := generateWith(t, p, opts)
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

func generateWith(t *testing.T, p *programs.Program, opts meissa.Options) *meissa.GenResult {
	t.Helper()
	sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return gen
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
		p     *programs.Program
		scale programs.RuleScale
	}
	var cases []tc
	for _, p := range []*programs.Program{programs.Router(), programs.MTag(), programs.ACL(), programs.SwitchP4()} {
		cases = append(cases, tc{p, programs.Set1})
	}
	for n := 1; n <= 4; n++ {
		cases = append(cases, tc{programs.GW(n, programs.Set1), programs.Set1})
	}
	if !testing.Short() {
		cases = append(cases,
			tc{programs.GW(2, programs.Set2), programs.Set2},
			tc{programs.GW(3, programs.Set3), programs.Set3},
			tc{programs.GW(4, programs.Set4), programs.Set4})
	}
	for _, c := range cases {
		for _, summary := range []bool{true, false} {
			opts := meissa.DefaultOptions()
			opts.Parallelism = 1
			opts.CodeSummary = summary
			gen := generateWith(t, c.p, opts)
			name := fmt.Sprintf("%s/%s summary=%v", c.p.Name, c.scale, summary)
			if gen.SMT.TruncatedUnknown != 0 {
				t.Errorf("%s: %d truncated Unknowns of %d, want 0", name, gen.SMT.TruncatedUnknown, gen.SMT.Unknowns)
			}
			rep := gen.Report("gen", c.p.Name, 1)
			if err := rep.Validate(); err != nil || rep.Solver.TruncatedUnknown != 0 {
				t.Errorf("%s: report carries truncated_unknown %d (validate: %v), want 0", name, rep.Solver.TruncatedUnknown, err)
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
	gen := generateAt(t, programs.GW(4, programs.Set2), true, 1)
	t.Logf("%d frames (%d rows) for %d descents (%.2f per descent)", gen.Frames, gen.RowFrames, gen.PathsExplored, float64(gen.Frames)/float64(gen.PathsExplored))
	if gen.PathsExplored != 22400 {
		t.Errorf("PathsExplored = %d, want 22400", gen.PathsExplored)
	}
	if gen.Frames != 17388 || gen.RowFrames != 7944 {
		t.Errorf("Frames = %d, RowFrames = %d, want 17388 and 7944", gen.Frames, gen.RowFrames)
	}
	if rep := gen.Report("gen", "gw-4", 1); rep.Paths.Frames != gen.Frames || rep.Paths.RowFrames != gen.RowFrames {
		t.Errorf("report paths.frames = %d, row_frames = %d, want %d and %d", rep.Paths.Frames, rep.Paths.RowFrames, gen.Frames, gen.RowFrames)
	}
}

// The renderers this repository shipped until templates were rendered
// without fmt, kept as the oracle: expr's String methods and
// WriteTemplates' body, as they were.

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

// TestRenderersMatchFmt: the append-style renderers and the String methods
// built on them produce the bytes fmt produced — over every constraint of
// the corpus templates, over random expressions nested deeper than any of
// those, and for whole template files.
func TestRenderersMatchFmt(t *testing.T) {
	check := func(b expr.Bool) {
		t.Helper()
		want := fmtBool(b)
		if got := string(expr.AppendBool([]byte("x"), b)); got != "x"+want {
			t.Fatalf("AppendBool = %q, want %q", got[1:], want)
		}
		if got := b.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
	constraints := 0
	for _, p := range programs.All() {
		gen := generateAt(t, p, true, 1)
		for _, tm := range gen.Templates {
			for _, c := range tm.Constraints {
				check(c)
				constraints++
			}
			for _, a := range tm.Final {
				if a == nil {
					continue
				}
				if got, want := string(expr.AppendArith(nil, a)), fmtArith(a); got != want || a.String() != want {
					t.Fatalf("AppendArith = %q, String = %q, want %q", got, a.String(), want)
				}
			}
		}
		var got, want bytes.Buffer
		if err := meissa.WriteTemplates(&got, gen.Templates); err != nil {
			t.Fatal(err)
		}
		if err := fmtWriteTemplates(&want, gen.Templates); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteTemplates differs from the fmt rendering (%d vs %d bytes)", p.Name, got.Len(), want.Len())
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
		check(boolean(8))
	}
}
