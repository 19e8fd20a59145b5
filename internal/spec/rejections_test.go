package spec_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite testdata/rejections.golden")

const rejectionsGolden = "testdata/rejections.golden"

// seed is a spec text FuzzParseSpec starts from, with the program its
// assumes are translated against.
type seed struct {
	label string
	src   string
	prog  *p4.Program
}

// seeds are the specs of the bug scenarios, printed, and two handwritten
// texts over Router's headers.
func seeds() []seed {
	router := programs.Router().Prog
	var out []seed
	for _, sc := range bugs.Scenarios() {
		for j, s := range sc.Specs {
			out = append(out, seed{fmt.Sprintf("bug%d.%d", sc.Index, j), s.String(), sc.Prog})
		}
	}
	return append(out, seed{"nat", `
spec in_tcp {
  assume ethernet.etherType == 0x0800;
  assume ipv4.protocol == 6;
  assume ipv4.dstAddr == 203.0.113.10;
  expect forwarded;
  expect ipv4.dstAddr == 192.168.1.2;
  expect tcp.srcPort == in.tcp.srcPort;
}

spec drop_others {
  assume ipv4.protocol == 47;
  expect dropped;
  expect invalid(tcp);
  expect valid(ipv4);
}
`, router}, seed{"port", "spec x {\n  assume tcp.srcPort > 1000;\n  expect forwarded;\n}\n", router})
}

// specMutations change a spec text once each, at its first spec or clause.
var specMutations = []struct {
	name string
	edit func(src string) string
}{
	{"drop-semi", func(s string) string { return strings.Replace(s, ";", "", 1) }},
	{"drop-brace", func(s string) string { return strings.Replace(s, "}", "", 1) }},
	{"nest", func(s string) string { return strings.Replace(s, "{\n", "{\nspec inner {\n", 1) }},
	{"stray-brace", func(s string) string { return s + "}\n" }},
	{"outside", func(s string) string {
		from, to := firstClause(s)
		return s[:from] + s[to:] + s[from:to]
	}},
	{"unknown-clause", func(s string) string { return strings.Replace(s, "{\n", "{\n  ensure forwarded;\n", 1) }},
	{"truncate", func(s string) string {
		from, to := firstClause(s)
		clause := strings.TrimSuffix(s[from:to], ";\n")
		const body = len("  assume ")
		return s[:from] + clause[:body+(len(clause)-body)/2] + ";\n" + s[to:]
	}},
	{"undeclared", func(s string) string {
		return strings.Replace(s, "{\n", "{\n  assume nosuch.field == 1;\n", 1)
	}},
	{"bad-name", func(s string) string { return strings.Replace(s, "spec ", "spec 9", 1) }},
}

// firstClause returns the byte range of the first clause line of a spec
// text, its newline included.
func firstClause(s string) (from, to int) {
	from = strings.Index(s, "{\n") + 2
	return from, from + strings.IndexByte(s[from:], '\n') + 1
}

// TestRejectionsGolden pins what the spec reader says about malformed
// specs: for each seed changed by each mutation once, the text of the
// first error of spec.Parse, else of AssumeConstraints against the seed's
// program, else "ok", byte for byte. Run with -update to re-record
// testdata/rejections.golden.
func TestRejectionsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, sd := range seeds() {
		for _, m := range specMutations {
			verdict := "ok"
			specs, err := spec.Parse(m.edit(sd.src))
			for _, s := range specs {
				if err == nil {
					_, err = s.AssumeConstraints(sd.prog)
				}
			}
			if err != nil {
				verdict = err.Error()
			}
			fmt.Fprintf(&b, "%s %s: %s\n", sd.label, m.name, verdict)
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

// TestRejectionsNameNoGoType: a rejection names the input's expression,
// never the Go type the checker holds it in, in the goldens of all three
// readers.
func TestRejectionsNameNoGoType(t *testing.T) {
	for _, path := range []string{rejectionsGolden, "../p4/testdata/rejections.golden", "../rules/testdata/rejections.golden"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "*p4.") {
				t.Errorf("%s:%d names a Go type: %s", path, i+1, line)
			}
		}
	}
}
