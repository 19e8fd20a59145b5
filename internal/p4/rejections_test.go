package p4_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"testing"

	"repro/internal/p4"
	"repro/internal/programs"
)

var update = flag.Bool("update", false, "rewrite testdata/rejections.golden")

const rejectionsGolden = "testdata/rejections.golden"

// malformed derives the golden's inputs from one corpus source: the text
// cut at evenly spaced offsets, with one whitespace-separated word dropped,
// and with a stray "@" or "{ ;" inserted. Each input has a stable label.
func malformed(src string) (labels, inputs []string) {
	add := func(label, s string) {
		labels = append(labels, label)
		inputs = append(inputs, s)
	}
	const cuts, drops, ats, braces = 60, 60, 40, 30
	for i := range cuts {
		off := i * len(src) / cuts
		add(fmt.Sprintf("cut@%d", off), src[:off])
	}
	words := regexp.MustCompile(`\S+`).FindAllStringIndex(src, -1)
	for i := range drops {
		w := words[i*len(words)/drops]
		add(fmt.Sprintf("drop@%d", w[0]), src[:w[0]]+src[w[1]:])
	}
	for i := range ats {
		off := i * len(src) / ats
		add(fmt.Sprintf("at@%d", off), src[:off]+"@"+src[off:])
	}
	for i := range braces {
		off := i * len(src) / braces
		add(fmt.Sprintf("brace@%d", off), src[:off]+"{ ;"+src[off:])
	}
	return labels, inputs
}

// TestRejectionsGolden pins what the front end says about malformed
// programs: for each input derived from a corpus source, the text of the
// Parse error, else of the Check error, else "ok", byte for byte. Run with
// -update to re-record testdata/rejections.golden.
func TestRejectionsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, p := range programs.All() {
		labels, inputs := malformed(p.Source)
		for i, src := range inputs {
			verdict := "ok"
			prog, err := p4.Parse(src)
			if err == nil {
				err = p4.Check(prog)
			}
			if err != nil {
				verdict = err.Error()
			}
			fmt.Fprintf(&b, "%s %s: %s\n", p.Name, labels[i], verdict)
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
