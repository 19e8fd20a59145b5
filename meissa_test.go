package meissa_test

import (
	"fmt"
	"strings"
	"testing"

	meissa "repro"
	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/switchsim"
)

// corpusSkips pins each corpus program's skipped cases on a fault-free
// target (0 where absent): hash post-validation conflicts, where the path
// condition rules out the value the hash function computes. switch.p4's
// 99 select an ECMP member by a hash range that the hash of the model's
// inputs falls outside.
var corpusSkips = map[string]int{"switch.p4": 99}

// TestCorpusCleanTargetsPass is the fundamental no-false-positive check:
// every corpus program, generated with full coverage and executed against
// a fault-free target, must pass every test case it does not skip, and
// skip exactly its pinned count.
func TestCorpusCleanTargetsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run")
	}
	for _, p := range corpusAll() {
		t.Run(p.Name, func(t *testing.T) {
			sys, gen := run{p: p, opts: meissa.DefaultOptions()}.generate(t)
			if gen.Truncated {
				t.Fatal("generation truncated")
			}
			if len(gen.Templates) == 0 {
				t.Fatal("no templates generated")
			}
			target, err := switchsim.Compile(p.Prog, p.Rules, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sys.TestTarget(target, gen)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				f := rep.Failures()[0]
				t.Fatalf("%s: %d false positives; first: case %d mismatches=%v checksums=%v violations=%v",
					p.Name, rep.Failed, f.Case.ID, f.Mismatches, f.ChecksumErrors, f.Violations)
			}
			if rep.Skipped != corpusSkips[p.Name] || rep.Passed+rep.Skipped != len(gen.Templates) {
				t.Errorf("%s: %d passed, %d skipped of %d templates; want %d skipped",
					p.Name, rep.Passed, rep.Skipped, len(gen.Templates), corpusSkips[p.Name])
			}
		})
	}
}

// TestSummaryPreservesCoverage verifies the §3.4 theorem operationally:
// generation with and without code summary yields the same number of
// valid paths on every corpus program small enough to run both ways.
func TestSummaryPreservesCoverage(t *testing.T) {
	for _, p := range []*programs.Program{
		programs.Router(), programs.MTag(), programs.ACL(),
		programs.GW(1, programs.Set1), programs.GW(2, programs.Set1),
	} {
		t.Run(p.Name, func(t *testing.T) {
			raw := meissa.DefaultOptions()
			raw.CodeSummary = false
			with, without := run{p: p, opts: meissa.DefaultOptions()}.gen(t), run{p: p, opts: raw}.gen(t)
			if len(with.Templates) != len(without.Templates) {
				t.Fatalf("coverage differs: %d templates with summary, %d without",
					len(with.Templates), len(without.Templates))
			}
		})
	}
}

// TestSummaryReducesWork verifies the Fig. 11 shape on a multi-pipeline
// program: with code summary, the final generation pass needs fewer SMT
// calls and the CFG has fewer possible paths.
func TestSummaryReducesWork(t *testing.T) {
	p := programs.GW(3, programs.Set1)
	raw := meissa.DefaultOptions()
	raw.CodeSummary = false
	genWith, genWithout := run{p: p, opts: meissa.DefaultOptions()}.gen(t), run{p: p, opts: raw}.gen(t)
	if genWith.PossiblePathsLog10After >= genWithout.PossiblePathsLog10After {
		t.Errorf("summary did not reduce possible paths: %.1f vs %.1f",
			genWith.PossiblePathsLog10After, genWithout.PossiblePathsLog10After)
	}
	// The final generation pass over the summarized CFG must be cheaper
	// than exploring the original whole program (the summarization cost
	// itself amortizes at production scale — Fig. 11a).
	if genWith.FinalPathsExplored >= genWithout.FinalPathsExplored {
		t.Errorf("summary did not reduce final-pass exploration: %d vs %d",
			genWith.FinalPathsExplored, genWithout.FinalPathsExplored)
	}
	if len(genWith.Templates) != len(genWithout.Templates) {
		t.Errorf("coverage differs: %d vs %d templates", len(genWith.Templates), len(genWithout.Templates))
	}
}

// TestUDPTransport runs the Router suite over real UDP sockets: the
// switch serves on a loopback UDP port, the driver injects datagrams and
// captures replies.
func TestUDPTransport(t *testing.T) {
	p := programs.Router()
	sys, gen := run{p: p, opts: meissa.DefaultOptions()}.generate(t)
	target, err := switchsim.Compile(p.Prog, p.Rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := driver.ServeUDP(target, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	link, err := driver.DialUDP(sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	rep, err := sys.Test(link, gen)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("UDP run failed: %s", rep.Summary())
	}
	if rep.Passed == 0 {
		t.Fatal("no cases ran")
	}
}

// TestSpecScopedGeneration checks that assume clauses narrow generation
// (§6's NAT sub-case workflow): with a TCP-only spec, no template's model
// carries a non-TCP protocol.
func TestSpecScopedGeneration(t *testing.T) {
	p := programs.Router()
	sp := spec.MustParseOne(`
spec tcp_only {
  assume ethernet.etherType == 0x0800;
  assume ipv4.protocol == 6;
  expect forwarded;
}
`)
	sys, err := meissa.New(p.Prog, p.Rules, []*spec.Spec{sp}, meissa.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Templates) == 0 {
		t.Fatal("no templates")
	}
	for _, tm := range gen.Templates {
		if proto, ok := tm.Model["hdr.ipv4.protocol"]; ok && proto != 6 {
			t.Errorf("template %d model has protocol %d, want 6", tm.ID, proto)
		}
	}
}

// TestDetectsInjectedFault is the end-to-end non-code bug check at the
// public API level.
func TestDetectsInjectedFault(t *testing.T) {
	p := programs.GW(1, programs.Set1)
	sys, gen := run{p: p, opts: meissa.DefaultOptions()}.generate(t)
	target, err := switchsim.Compile(p.Prog, p.Rules,
		switchsim.Faults{switchsim.SetValidNoOp{Header: "vxlan"}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.TestTarget(target, gen)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("injected setValid fault went undetected")
	}
}

// TestLocalize exercises the §7 bug-localization trace.
func TestLocalize(t *testing.T) {
	p := programs.GW(1, programs.Set1)
	sys, gen := run{p: p, opts: meissa.DefaultOptions()}.generate(t)
	target, _ := switchsim.Compile(p.Prog, p.Rules,
		switchsim.Faults{switchsim.SetValidNoOp{Header: "vxlan"}})
	link := driver.NewLoopback(target)
	rep, err := sys.Test(link, gen)
	if err != nil {
		t.Fatal(err)
	}
	fails := rep.Failures()
	if len(fails) == 0 {
		t.Fatal("expected failures")
	}
	out := meissa.Localize(gen, fails[0], link.Replay(fails[0].Case.Entry, fails[0].Case.Wire))
	for _, want := range []string{"Bug localization", "symbolic trace", "physical trace"} {
		if !strings.Contains(out, want) {
			t.Errorf("localization output missing %q:\n%s", want, out)
		}
	}
}

// TestNewRejectsBrokenPrograms checks input validation at the API
// boundary.
func TestNewRejectsBrokenPrograms(t *testing.T) {
	prog := &p4.Program{Name: "broken"}
	prog.Pipelines = []*p4.PipelineDecl{{Name: "p", Control: "missing"}}
	if _, err := meissa.New(prog, nil, nil, meissa.DefaultOptions()); err == nil {
		t.Fatal("expected error for unresolvable control")
	}
}

// The probes of ROADMAP item 16: one entry, appended to Router's rules,
// that the program cannot mean. Each once reached a clean target, which
// failed cases or ignored it; meissa.New must reject it instead, naming
// the rules line, the table and the entry.
func TestNewRejectsWhatRouterCannotMean(t *testing.T) {
	p := programs.Router()
	base := p.Rules.String()
	line := strings.Count(base, "\n") + 2 // the appended entry's
	nexthops := len(p.Rules.Entries("nexthop_mac"))
	for _, tc := range []struct{ name, table, entry, want string }{
		{"undeclared table", "nosuch", "meta.nexthop=1 -> rewrite_mac(1);", "the program declares no such table"},
		{"not a key of the table", "nexthop_mac", "ipv4.srcAddr=7 -> rewrite_mac(1);", "ipv4.srcAddr is not a key of the table"},
		{"no key", "nexthop_mac", "-> rewrite_mac(77);", "exact key meta.nexthop has no match"},
		{"range on an exact key", "nexthop_mac", "meta.nexthop=3..5 -> rewrite_mac(9);", "meta.nexthop: the exact key takes no range match"},
		{"duplicate key", "nexthop_mac", "meta.nexthop=1 -> rewrite_mac(77);", "matches what entry 0 matches"},
		{"wider than the key", "nexthop_mac", "meta.nexthop=4294967297 -> rewrite_mac(5);", "meta.nexthop: value 4294967297 is wider than the 32-bit key"},
		{"lpm on an exact key", "nexthop_mac", "meta.nexthop=64/28 -> rewrite_mac(5);", "meta.nexthop: the exact key takes no lpm match"},
		{"ternary on an exact key", "nexthop_mac", "meta.nexthop=64&&&0xf0 -> rewrite_mac(5);", "meta.nexthop: the exact key takes no ternary match"},
		{"not one of the table's actions", "nexthop_mac", "meta.nexthop=78 -> set_nexthop(1, 2);", "action set_nexthop is not one of the table's actions"},
		{"arity", "nexthop_mac", "meta.nexthop=77 -> rewrite_mac(1, 2, 3);", "action rewrite_mac has 1 parameters, got 3 arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs, err := rules.Parse(base + "table " + tc.table + " {\n  " + tc.entry + "\n}\n")
			if err != nil {
				t.Fatal(err)
			}
			entry := nexthops
			if tc.table == "nosuch" {
				entry = 0
			}
			want := fmt.Sprintf("rules:%d:3: table %s entry %d: %s", line, tc.table, entry, tc.want)
			if _, err := meissa.New(p.Prog, rs, nil, meissa.DefaultOptions()); err == nil || err.Error() != want {
				t.Fatalf("New: %v\nwant: %s", err, want)
			}
		})
	}
}
