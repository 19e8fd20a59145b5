package sym

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/rules"
	"repro/internal/smt"
)

// fig7Graph builds the Figure 7 structure: table ipv4_host (dstIP →
// egressPort) followed by table mac_agent (egressPort → dstMAC), n rules
// each. n*n possible table paths, only n valid.
func fig7Src() string {
	return `
header ipv4 { bit<32> dstAddr; }
header eth { bit<48> dstMAC; }
metadata { bit<9> egressPort; }
action set_port(bit<9> p) { meta.egressPort = p; }
action set_mac(bit<48> m) { eth.dstMAC = m; }
action nop() { }
table ipv4_host {
  key = { ipv4.dstAddr : exact; }
  actions = { set_port; }
  default_action = nop();
}
table mac_agent {
  key = { meta.egressPort : exact; }
  actions = { set_mac; }
  default_action = nop();
}
control ing {
  apply {
    ipv4_host.apply();
    mac_agent.apply();
  }
}
pipeline ig { control = ing; }
`
}

// fig7Rules chains Figure 7's two tables: host 1.1.1.i leaves on port i,
// and port i gets MAC argument i, so only n of the n×n path combinations
// are valid (n < 256).
func fig7Rules(n int) *rules.Set {
	rs := rules.NewSet()
	for i := 1; i <= n; i++ {
		rs.Add("ipv4_host", rules.Rule("set_port", []uint64{uint64(i)}, rules.E("ipv4.dstAddr", 0x01010100+uint64(i))))
		rs.Add("mac_agent", rules.Rule("set_mac", []uint64{uint64(i)}, rules.E("meta.egressPort", uint64(i))))
	}
	return rs
}

func explore(t *testing.T, src string, rs *rules.Set, opts Options) *Result {
	t.Helper()
	prog := p4.MustParse(src)
	g, err := cfg.Build(prog, rs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(Config{Graph: g, Start: cfg.None, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// finalOf is v's final value on tm's path, nil where the path leaves it a
// free input.
func finalOf(tm *Template, v expr.Var) expr.Arith {
	for s, val := range tm.Final {
		if tm.Vars[s] == v {
			return val
		}
	}
	return nil
}

func TestFig7ValidPaths(t *testing.T) {
	const n = 10
	res := explore(t, fig7Src(), fig7Rules(n), DefaultOptions())
	// Valid paths: n chained-hit paths + miss/miss path + hits whose
	// mac_agent lookup misses... after set_port(i), mac_agent entry i
	// matches, so: n hit-hit paths + 1 miss-miss (egressPort stays 0 →
	// mac_agent miss since entries are 1..n) = n+1.
	want := n + 1
	if len(res.Templates) != want {
		t.Fatalf("valid paths = %d, want %d", len(res.Templates), want)
	}
	// Every template must carry a satisfying model.
	for _, tm := range res.Templates {
		if tm.Model == nil {
			t.Fatalf("template %d lacks a model", tm.ID)
		}
		for _, c := range tm.Constraints {
			ok, err := expr.EvalBool(c, tm.Model)
			if err != nil {
				// Free variables absent from the model default-fail; bind
				// them to zero.
				st := tm.Model.Clone()
				vars := map[expr.Var]expr.Width{}
				expr.VarsOfBool(c, vars)
				for v := range vars {
					if _, has := st[v]; !has {
						st[v] = 0
					}
				}
				ok, err = expr.EvalBool(c, st)
				if err != nil {
					t.Fatalf("template %d: eval %s: %v", tm.ID, c, err)
				}
			}
			if !ok {
				t.Errorf("template %d: model violates constraint %s", tm.ID, c)
			}
		}
	}
}

// etSrc builds a program where invalid path prefixes stem from input
// constraints (the Figure 5(c) pattern: two tables matching the same input
// field on disjoint values) followed by a third stage that multiplies the
// cost of every unpruned prefix.
const etSrc = `
header h { bit<16> x; bit<16> y; }
metadata { bit<8> a; bit<8> b; bit<8> c; }
action setA(bit<8> v) { meta.a = v; }
action setB(bit<8> v) { meta.b = v; }
action setC(bit<8> v) { meta.c = v; }
table tA { key = { h.x : exact; } actions = { setA; } default_action = setA(0); }
table tB { key = { h.x : exact; } actions = { setB; } default_action = setB(0); }
table tC { key = { h.y : exact; } actions = { setC; } default_action = setC(0); }
control ing { apply { tA.apply(); tB.apply(); tC.apply(); } }
pipeline ig { control = ing; }
`

func etRules(n int) *rules.Set {
	rs := rules.NewSet()
	for i := 1; i <= n; i++ {
		rs.Add("tA", rules.Rule("setA", []uint64{uint64(i)}, rules.E("h.x", uint64(i))))
		rs.Add("tB", rules.Rule("setB", []uint64{uint64(i)}, rules.E("h.x", uint64(100+i))))
		rs.Add("tC", rules.Rule("setC", []uint64{uint64(i)}, rules.E("h.y", uint64(i))))
	}
	return rs
}

func TestEarlyTerminationPrunes(t *testing.T) {
	const n = 6
	withET := explore(t, etSrc, etRules(n), DefaultOptions())
	noET := DefaultOptions()
	noET.EarlyTermination = false
	withoutET := explore(t, etSrc, etRules(n), noET)
	if len(withET.Templates) != len(withoutET.Templates) {
		t.Fatalf("coverage differs: %d vs %d templates", len(withET.Templates), len(withoutET.Templates))
	}
	// tA entry i (h.x == i) makes every tB entry (h.x == 100+j)
	// unsatisfiable; with early termination these prefixes die before tC
	// multiplies them.
	if withET.PathsExplored >= withoutET.PathsExplored {
		t.Errorf("early termination did not reduce exploration: %d vs %d",
			withET.PathsExplored, withoutET.PathsExplored)
	}
	if withET.PrunedPaths == 0 {
		t.Error("expected pruned prefixes with early termination")
	}
}

func TestInvalidPathFig5b(t *testing.T) {
	// Figure 5(b): assignment then contradicting predicate — statically
	// pruned without any SMT call.
	g := cfg.NewGraph()
	a := g.AddAction("dstIP", expr.C(0xC0A80001, 32), "p", "dstIP <- 192.168.0.1")
	g.Entry = a.ID
	p := g.AddPredicate(expr.Eq(expr.V("dstIP", 32), expr.C(0x0A010101, 32)), "p", "dstIP == 10.1.1.1")
	g.Link(a.ID, p.ID)
	leaf := g.AddAction("egressPort", expr.C(5, 9), "p", "egressPort <- 5")
	g.Link(p.ID, leaf.ID)

	res, err := Explore(Config{Graph: g, Options: DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) != 0 {
		t.Fatalf("invalid path produced %d templates", len(res.Templates))
	}
	if res.PrunedPaths != 1 {
		t.Errorf("pruned = %d, want 1", res.PrunedPaths)
	}
	if res.SMT.Checks != 0 {
		t.Errorf("static pruning must not call the solver; got %d checks", res.SMT.Checks)
	}
}

func TestInvalidPathFig5c(t *testing.T) {
	// Figure 5(c): srcPort == 80 then srcPort == 443 — needs the solver.
	g := cfg.NewGraph()
	p1 := g.AddPredicate(expr.Eq(expr.V("srcPort", 16), expr.C(80, 16)), "p", "")
	g.Entry = p1.ID
	p2 := g.AddPredicate(expr.Eq(expr.V("srcPort", 16), expr.C(443, 16)), "p", "")
	g.Link(p1.ID, p2.ID)
	leaf := g.AddAction("x", expr.C(1, 8), "p", "")
	g.Link(p2.ID, leaf.ID)

	res, err := Explore(Config{Graph: g, Options: DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) != 0 {
		t.Fatalf("invalid path produced templates")
	}
	if res.SMT.Checks == 0 {
		t.Error("expected SMT calls for semantic contradiction")
	}
}

func TestValidPathFig5a(t *testing.T) {
	// Figure 5(a): dstIP == 127.1.*.* then egressPort <- 5.
	g := cfg.NewGraph()
	p := g.AddPredicate(expr.Eq(
		expr.Bin{Op: expr.OpAnd, L: expr.V("dstIP", 32), R: expr.C(0xFFFF0000, 32)},
		expr.C(0x7F010000, 32)), "p", "dstIP == 127.1.*.*")
	g.Entry = p.ID
	a := g.AddAction("egressPort", expr.C(5, 9), "p", "")
	g.Link(p.ID, a.ID)

	res, err := Explore(Config{Graph: g, Options: DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) != 1 {
		t.Fatalf("templates = %d, want 1", len(res.Templates))
	}
	tm := res.Templates[0]
	if tm.Model["dstIP"]&0xFFFF0000 != 0x7F010000 {
		t.Errorf("model dstIP = %#x does not satisfy the template", tm.Model["dstIP"])
	}
	if c, ok := finalOf(tm, "egressPort").(expr.Const); !ok || c.Val != 5 {
		t.Errorf("final egressPort = %v, want 5", finalOf(tm, "egressPort"))
	}
}

func TestDroppedFlag(t *testing.T) {
	src := `
header h { bit<8> x; }
action kill() { mark_drop(); }
action keep() { }
table t {
  key = { h.x : exact; }
  actions = { kill; keep; }
  default_action = keep();
}
control c { apply { t.apply(); } }
pipeline p { control = c; }
`
	rs := rules.MustParse("table t {\n h.x=1 -> kill();\n h.x=2 -> keep();\n}")
	res := explore(t, src, rs, DefaultOptions())
	var dropped, kept int
	for _, tm := range res.Templates {
		if tm.Dropped {
			dropped++
		} else {
			kept++
		}
	}
	if dropped != 1 {
		t.Errorf("dropped templates = %d, want 1", dropped)
	}
	if kept != 2 { // entry 2 + miss
		t.Errorf("forwarded templates = %d, want 2", kept)
	}
}

func TestHashConcreteWhenKeysFixed(t *testing.T) {
	// §4: hash computed concretely when all keys are fixed by the path
	// condition.
	src := `
header tcp { bit<16> srcPort; }
metadata { bit<16> h; }
control c {
  apply {
    if (tcp.srcPort == 99) {
      hash(meta.h, tcp.srcPort);
    }
  }
}
pipeline p { control = c; }
`
	res := explore(t, src, nil, DefaultOptions())
	foundConst := false
	for _, tm := range res.Templates {
		if v := finalOf(tm, "meta.h"); v != nil {
			if _, isC := v.(expr.Const); isC && len(tm.HashObligations) == 0 {
				foundConst = true
			}
		}
	}
	if !foundConst {
		t.Error("hash with fixed keys should be computed concretely")
	}
}

func TestHashFreeWhenKeysUnconstrained(t *testing.T) {
	src := `
header tcp { bit<16> srcPort; }
metadata { bit<16> h; }
control c {
  apply {
    hash(meta.h, tcp.srcPort);
  }
}
pipeline p { control = c; }
`
	res := explore(t, src, nil, DefaultOptions())
	if len(res.Templates) == 0 {
		t.Fatal("no templates")
	}
	foundObligation := false
	for _, tm := range res.Templates {
		if len(tm.HashObligations) > 0 {
			foundObligation = true
		}
	}
	if !foundObligation {
		t.Error("hash with free keys must produce a post-validation obligation")
	}
}

func TestStopAtCollectsPrefixes(t *testing.T) {
	prog := p4.MustParse(fig7Src())
	g, err := cfg.Build(prog, fig7Rules(3))
	if err != nil {
		t.Fatal(err)
	}
	region := g.Pipelines[0]
	res, err := Explore(Config{
		Graph:   g,
		StopAt:  map[cfg.NodeID]bool{region.Entry: true},
		Options: DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one prefix path reaches the (only) pipeline entry.
	if len(res.Templates) != 1 {
		t.Fatalf("prefix templates = %d, want 1", len(res.Templates))
	}
}

func TestMaxPathsTruncates(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxPaths = 2
	res := explore(t, fig7Src(), fig7Rules(50), opts)
	if !res.Truncated {
		t.Error("expected truncation")
	}
}

func TestInitialStateSeeding(t *testing.T) {
	// Seed V with proto == TCP fixed; a UDP branch must be pruned
	// (Figure 8).
	g := cfg.NewGraph()
	entry := g.AddPredicate(expr.True, "p", "entry")
	g.Entry = entry.ID
	tcp := g.AddPredicate(expr.Eq(expr.V("proto", 8), expr.C(6, 8)), "p", "proto == TCP")
	udp := g.AddPredicate(expr.Eq(expr.V("proto", 8), expr.C(17, 8)), "p", "proto == UDP")
	g.Link(entry.ID, tcp.ID)
	g.Link(entry.ID, udp.ID)

	res, err := Explore(Config{
		Graph:           g,
		InitConstraints: []expr.Bool{expr.Eq(expr.V("proto", 8), expr.C(6, 8))},
		Options:         DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) != 1 {
		t.Fatalf("templates = %d, want 1 (UDP branch filtered)", len(res.Templates))
	}
}

func TestNonIncrementalSolverSameCoverage(t *testing.T) {
	opts := DefaultOptions()
	opts.Solver = smt.Options{Incremental: false}
	res1 := explore(t, fig7Src(), fig7Rules(8), opts)
	res2 := explore(t, fig7Src(), fig7Rules(8), DefaultOptions())
	if len(res1.Templates) != len(res2.Templates) {
		t.Fatalf("coverage differs: %d vs %d", len(res1.Templates), len(res2.Templates))
	}
}
