package programs

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/p4"
)

func TestAllProgramsParseAndCheck(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := p4.Check(p.Prog); err != nil {
				t.Fatalf("check: %v", err)
			}
			if _, err := cfg.Build(p.Prog, p.Rules); err != nil {
				t.Fatalf("cfg build: %v", err)
			}
		})
	}
}

func TestTable1Topology(t *testing.T) {
	// Pipeline and switch counts must match Table 1.
	want := map[string][2]int{
		"Router":    {1, 1},
		"mTag":      {1, 1},
		"ACL":       {1, 1},
		"switch.p4": {1, 1},
		"gw-1":      {1, 1},
		"gw-2":      {2, 1},
		"gw-3":      {4, 1},
		"gw-4":      {8, 2},
	}
	for _, p := range All() {
		w := want[p.Name]
		if p.Pipes != w[0] || p.Switches != w[1] {
			t.Errorf("%s: pipes=%d switches=%d, want %d/%d", p.Name, p.Pipes, p.Switches, w[0], w[1])
		}
		if got := len(p.Prog.Pipelines); got != w[0] {
			t.Errorf("%s: declared pipelines = %d, want %d", p.Name, got, w[0])
		}
		if got := len(p.Prog.Switches()); got != w[1] && p.Name != "Router" && p.Name != "mTag" && p.Name != "ACL" && p.Name != "switch.p4" {
			t.Errorf("%s: declared switches = %d, want %d", p.Name, got, w[1])
		}
	}
}

func TestLOCOrdering(t *testing.T) {
	// Table 1's size ordering: Router/mTag < ACL < switch.p4 and
	// gw-1 < gw-2 < gw-3 < gw-4.
	locs := map[string]int{}
	for _, p := range All() {
		locs[p.Name] = p.LOC()
		if p.LOC() == 0 {
			t.Errorf("%s has zero LOC", p.Name)
		}
	}
	if !(locs["gw-1"] < locs["gw-2"] && locs["gw-2"] < locs["gw-3"] && locs["gw-3"] < locs["gw-4"]) {
		t.Errorf("gw LOC ordering violated: %v", locs)
	}
	if !(locs["ACL"] > locs["Router"]) {
		t.Errorf("ACL should exceed Router: %v", locs)
	}
	if !(locs["switch.p4"] > locs["ACL"]) {
		t.Errorf("switch.p4 should exceed ACL: %v", locs)
	}
}

func TestRuleScaleDoubling(t *testing.T) {
	if Set2.ElasticIPs() != 2*Set1.ElasticIPs() ||
		Set3.ElasticIPs() != 2*Set2.ElasticIPs() ||
		Set4.ElasticIPs() != 2*Set3.ElasticIPs() {
		t.Errorf("rule sets must double: %d %d %d %d",
			Set1.ElasticIPs(), Set2.ElasticIPs(), Set3.ElasticIPs(), Set4.ElasticIPs())
	}
}

func TestRuleSetScalesWithSet(t *testing.T) {
	a := GW(4, Set1).Rules.Len()
	b := GW(4, Set2).Rules.Len()
	if b <= a {
		t.Errorf("set-2 rules (%d) must exceed set-1 (%d)", b, a)
	}
}

func TestGWDeterministic(t *testing.T) {
	a := GW(3, Set2)
	b := GW(3, Set2)
	if a.Source != b.Source {
		t.Error("generator must be deterministic")
	}
	if a.Rules.String() != b.Rules.String() {
		t.Error("rule generation must be deterministic")
	}
}

func TestGW4TopologyFlows(t *testing.T) {
	p := GW(4, Set1)
	topo := p.Prog.Topology
	if len(topo.Entries) != 2 {
		t.Fatalf("gw-4 entries = %d, want 2 (traffic split between switches)", len(topo.Entries))
	}
	// Flow B path must exist: s0_gwig -> s0_gweg -> s1_gwig.
	var crossSwitch bool
	for _, e := range topo.Edges {
		if e.From == "s0_gweg" && e.To == "s1_gwig" {
			crossSwitch = true
		}
	}
	if !crossSwitch {
		t.Error("gw-4 lacks the cross-switch flow-B edge")
	}
}

func TestOpenProgramsHaveRules(t *testing.T) {
	for _, p := range []*Program{Router(), MTag(), ACL(), SwitchP4()} {
		if p.Rules.Len() == 0 {
			t.Errorf("%s has an empty rule set", p.Name)
		}
	}
}
