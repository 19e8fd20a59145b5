package rules_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/cfg"
	"repro/internal/programs"
	"repro/internal/rules"
	"repro/internal/switchsim"
)

var update = flag.Bool("update", false, "rewrite testdata/rejections.golden")

const rejectionsGolden = "testdata/rejections.golden"

// goldenPrograms are the corpus programs whose rule texts the golden
// mutates: the open programs and gw-1..4, all at set-1.
func goldenPrograms() []*programs.Program {
	ps := []*programs.Program{programs.Router(), programs.MTag(), programs.ACL(), programs.SwitchP4()}
	for i := 1; i <= 4; i++ {
		ps = append(ps, programs.GW(i, programs.Set1))
	}
	return ps
}

// TestRejectionsGolden pins what the readers of a rule set say about one
// that its program cannot mean: for each table's first entry in a corpus
// rule text, changed by each mutation once, the text of the first error
// of rules.Parse, cfg.Build or switchsim.Compile, else "ok", byte for
// byte. Run with -update to re-record testdata/rejections.golden.
func TestRejectionsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, p := range goldenPrograms() {
		src := p.Rules.String()
		lines, tables := entryLines(src)
		for i, ln := range lines {
			if i > 0 && tables[i] == tables[i-1] {
				continue
			}
			for k, name := range mutations {
				verdict := "ok"
				rs, err := rules.Parse(mutate(p.Prog, src, ln, tables[i], k, 0))
				if err == nil {
					_, err = cfg.Build(p.Prog, rs)
				}
				if err == nil {
					_, err = switchsim.Compile(p.Prog, rs, nil)
				}
				if err != nil {
					verdict = err.Error()
				}
				fmt.Fprintf(&b, "%s %s@%d: %s\n", p.Name, name, ln+1, verdict)
			}
		}
	}
	if *update {
		if err := os.WriteFile(rejectionsGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(rejectionsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if bytes.Equal(b.Bytes(), want) {
		return
	}
	got, wantLines := bytes.Split(b.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range max(len(got), len(wantLines)) {
		var g, w []byte
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s:%d differs\n got: %s\nwant: %s", rejectionsGolden, i+1, g, w)
		}
	}
}
