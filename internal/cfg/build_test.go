package cfg

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/rules"
)

const miniSrc = `
header eth { bit<16> etherType; }
header ipv4 { bit<8> ttl; bit<32> dstAddr; }
metadata { bit<9> port; }
parser prs {
  state start {
    extract(eth);
    transition select(eth.etherType) {
      0x0800: parse_ipv4;
      default: accept;
    }
  }
  state parse_ipv4 { extract(ipv4); transition accept; }
}
action fwd(bit<9> p) { meta.port = p; }
action nop() { }
table host {
  key = { ipv4.dstAddr : exact; }
  actions = { fwd; }
  default_action = nop();
}
control ing {
  apply {
    if (ipv4.isValid()) {
      host.apply();
    }
  }
}
pipeline ig { parser = prs; control = ing; }
`

func miniRules() *rules.Set {
	return rules.MustParse(`
table host {
  ipv4.dstAddr=1.1.1.1 -> fwd(1);
  ipv4.dstAddr=1.1.1.2 -> fwd(2);
}
`)
}

func TestBuildMini(t *testing.T) {
	prog := p4.MustParse(miniSrc)
	g, err := Build(prog, miniRules())
	if err != nil {
		t.Fatal(err)
	}
	if g.Entry == None {
		t.Fatal("no entry")
	}
	if len(g.Pipelines) != 1 {
		t.Fatalf("pipelines = %d", len(g.Pipelines))
	}
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	// The variable table must include all declared fields.
	for _, v := range []expr.Var{"hdr.eth.etherType", "hdr.ipv4.dstAddr", "meta.port", "valid$ipv4", p4.DropVar} {
		if _, ok := g.Vars[v]; !ok {
			t.Errorf("missing var %s", v)
		}
	}
	if g.Vars["hdr.ipv4.dstAddr"] != 32 || g.Vars["meta.port"] != 9 {
		t.Errorf("widths wrong: %v", g.Vars)
	}
	// There must be predicate nodes for both table entries and a miss.
	var entries, miss int
	for _, n := range g.Nodes {
		if strings.HasPrefix(n.Comment, "table host entry") {
			entries++
		}
		if n.Comment == "table host miss" {
			miss++
		}
	}
	if entries != 2 || miss != 1 {
		t.Errorf("table expansion: %d entries, %d miss", entries, miss)
	}
}

func TestBuildPathCount(t *testing.T) {
	prog := p4.MustParse(miniSrc)
	g, err := Build(prog, miniRules())
	if err != nil {
		t.Fatal(err)
	}
	n := g.PossiblePaths()
	// Paths: non-IPv4 (1 via select-default * if-else) + IPv4 * (2 entries
	// + miss). Each then crosses the drop check (drop==1 / drop==0 both
	// possible statically, = x2).
	if n.Sign() <= 0 {
		t.Fatalf("possible paths = %s", n)
	}
	if got := g.PossiblePathsLog10(); got <= 0 {
		t.Errorf("log10 = %f", got)
	}
}

func TestRegionPaths(t *testing.T) {
	prog := p4.MustParse(miniSrc)
	g, err := Build(prog, miniRules())
	if err != nil {
		t.Fatal(err)
	}
	r := g.Pipelines[0]
	n := g.RegionPaths(r)
	// Within the region: parse branch x table branch combinations.
	if n.Int64() < 4 {
		t.Errorf("region paths = %s, want >= 4", n)
	}
}

func TestBuildMultiPipeline(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<8> x; }
metadata { bit<9> port; }
parser prs { state start { extract(h); transition accept; } }
action fwd(bit<9> p) { meta.port = p; }
table t { key = { h.x : exact; } actions = { fwd; } default_action = fwd(0); }
control cin  { apply { t.apply(); } }
control cout { apply { h.x = h.x + 1; } }
pipeline ig { parser = prs; control = cin; }
pipeline eg { control = cout; kind = egress; }
topology {
  entry ig;
  ig -> eg when meta.port < 32;
  ig -> exit when meta.port >= 32;
  eg -> exit;
}
`)
	rs := rules.MustParse(`
table t {
  h.x=1 -> fwd(1);
  h.x=2 -> fwd(40);
}
`)
	g, err := Build(prog, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Pipelines) != 2 {
		t.Fatalf("pipelines = %d", len(g.Pipelines))
	}
	if g.Pipelines[0].Name != "ig" || g.Pipelines[1].Name != "eg" {
		t.Errorf("topological order wrong: %s, %s", g.Pipelines[0].Name, g.Pipelines[1].Name)
	}
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTernaryPriorities(t *testing.T) {
	prog := p4.MustParse(`
header ip { bit<32> src; bit<32> dst; }
action permit() { }
action deny() { mark_drop(); }
table acl {
  key = { ip.src : ternary; ip.dst : ternary; }
  actions = { permit; deny; }
  default_action = deny();
}
control c { apply { acl.apply(); } }
pipeline p { control = c; }
`)
	rs := rules.MustParse(`
table acl {
  priority=10 ip.src=10.0.0.0&&&0xFF000000 -> permit();
  priority=5  ip.dst=10.0.0.0&&&0xFF000000 -> deny();
  priority=0  -> permit();
}
`)
	g, err := Build(prog, rs)
	if err != nil {
		t.Fatal(err)
	}
	// The catch-all priority-0 entry makes the miss branch statically
	// false, so no miss predicate should appear.
	for _, n := range g.Nodes {
		if n.Comment == "table acl miss" {
			t.Error("miss branch should be elided when a catch-all entry exists")
		}
	}
	// Entry 1 (priority 5) must carry the negation of entry 0.
	found := false
	for _, n := range g.Nodes {
		if n.Comment == "table acl entry 1" {
			s := n.Pred.String()
			if !strings.Contains(s, "!=") && !strings.Contains(s, "~") {
				t.Errorf("entry 1 predicate lacks higher-priority negation: %s", s)
			}
			found = true
		}
	}
	if !found {
		t.Error("entry 1 predicate not found")
	}
}

func TestBuildTopologyCycleRejected(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<8> x; }
control c { apply { } }
control d { apply { } }
pipeline p1 { control = c; }
pipeline p2 { control = d; }
topology { entry p1; p1 -> p2; p2 -> p1; }
`)
	if _, err := Build(prog, nil); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestBuildDropRoutesToRegionExit(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<8> x; }
action kill() { mark_drop(); }
control c { apply { if (h.x == 1) { kill(); } } }
pipeline p { control = c; }
`)
	g, err := Build(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := g.Pipelines[0]
	// Every node inside the region must reach the region exit; the drop
	// action must not bypass it.
	reach := map[NodeID]bool{}
	for stack := []NodeID{r.Entry}; len(stack) > 0; {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !reach[id] {
			reach[id] = true
			stack = append(stack, g.Nodes[id].Succs...)
		}
	}
	if !reach[r.Exit] {
		t.Fatal("region exit unreachable from entry")
	}
	for id := range reach {
		n := g.Node(id)
		if n.Kind == Action && n.Var == p4.DropVar && n.Comment == "drop" {
			if len(n.Succs) != 1 || n.Succs[0] != r.Exit {
				t.Errorf("drop node must link to region exit, got %v", n.Succs)
			}
		}
	}
}

func TestLPMMatchCond(t *testing.T) {
	prog := p4.MustParse(`
header ip { bit<32> dst; }
metadata { bit<9> port; }
action fwd(bit<9> p) { meta.port = p; }
table rt {
  key = { ip.dst : lpm; }
  actions = { fwd; }
  default_action = fwd(0);
}
control c { apply { rt.apply(); } }
pipeline p { control = c; }
`)
	rs := rules.NewSet()
	rs.Add("rt", rules.PRule(24, "fwd", []uint64{1}, rules.L("ip.dst", 0x0A000100, 24)))
	g, err := Build(prog, rs)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range g.Nodes {
		if n.Comment == "table rt entry 0" {
			found = true
			if !strings.Contains(n.Pred.String(), "&") {
				t.Errorf("LPM predicate should mask: %s", n.Pred)
			}
		}
	}
	if !found {
		t.Error("LPM entry predicate missing")
	}
}

// tagSrc's table runs a multi-statement action body with an if in each of
// its entry and miss branches.
const tagSrc = `
header eth { bit<16> etherType; bit<8> ttl; }
metadata { bit<9> port; bit<8> mark; }
parser prs { state start { extract(eth); transition accept; } }
action fwd(bit<9> p) {
  meta.port = p;
  if (eth.ttl == 0) { meta.mark = 1; } else { meta.mark = 2; eth.ttl = 7; }
  meta.mark = meta.mark + 1;
}
action punt() {
  meta.port = 0;
  if (eth.ttl == 1) { meta.mark = 3; }
  meta.mark = meta.mark + 2;
}
table t {
  key = { eth.etherType : exact; }
  actions = { fwd; }
  default_action = punt();
}
control ing { apply { t.apply(); } }
pipeline ig { parser = prs; control = ing; }
`

// TestTagOnBranchHeadOnly: an entry's predicate carries exactly its tag and
// the miss predicate the miss tag; no node of their action bodies, nor any
// other node, carries one.
func TestTagOnBranchHeadOnly(t *testing.T) {
	set := rules.MustParse(`
table t {
  eth.etherType=0x0800 -> fwd(1);
  eth.etherType=0x86dd -> fwd(2);
}
`)
	g, err := Build(p4.MustParse(tagSrc), set)
	if err != nil {
		t.Fatal(err)
	}
	want := map[NodeID]string{}
	for _, n := range g.Nodes {
		var i int
		if _, err := fmt.Sscanf(n.Comment, "table t entry %d", &i); err == nil {
			want[n.ID] = rules.DepTag("t", set.Entries("t")[i])
		} else if n.Comment == "table t miss" {
			want[n.ID] = rules.MissTag("t")
		}
	}
	if len(want) != 3 {
		t.Fatalf("%d branch heads, want 2 entries and a miss", len(want))
	}
	// The bodies are encoded too: each entry's if and three assignments to
	// meta.mark, the miss branch's if and two.
	var ifs, marks int
	for _, n := range g.Nodes {
		if tag, head := want[n.ID]; head {
			if len(n.Deps) != 1 || n.Deps[0] != tag {
				t.Errorf("%s: deps %v, want [%s]", n.Comment, n.Deps, tag)
			}
		} else if n.Deps != nil {
			t.Errorf("node %d (%q) carries %v", n.ID, n.Comment, n.Deps)
		}
		if n.Kind == Predicate && strings.Contains(n.Pred.String(), "hdr.eth.ttl") {
			ifs++
		}
		if n.Kind == Action && n.Var == "meta.mark" {
			marks++
		}
	}
	if ifs < 3 || marks < 8 {
		t.Errorf("%d if predicates and %d assignments to meta.mark, want at least 3 and 8", ifs, marks)
	}
}
