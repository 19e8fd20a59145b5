package switchsim

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rules"
)

// A route that has visited every pipeline without reaching exit is a
// cycle. p4.Check rejects those, so the lowered edge lists are rewired
// by hand here; the engine must report the route, not emit a packet as if
// it had left.
func TestRouteThatNeverExitsIsAnError(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<8> x; }
parser prs { state start { extract(h); transition accept; } }
control a { apply { h.x = h.x + 1; } }
control b { apply { h.x = h.x + 2; } }
pipeline pa { parser = prs; control = a; }
pipeline pb { control = b; kind = egress; }
topology { entry pa; pa -> pb; pb -> exit; }
`)
	wire := append([]byte{1}, packet.WithID(1)...)
	for _, build := range []func() (func(int, []byte) (*Result, error), error){
		func() (func(int, []byte) (*Result, error), error) {
			target, err := Compile(prog, nil, nil)
			if err != nil {
				return nil, err
			}
			for i := range target.pipes[1].code {
				if in := &target.pipes[1].code[i]; in.op == opRet && in.src != nil {
					in.dst = 0 // pb -> pa
				}
			}
			return target.InjectQuietWire, nil
		},
		func() (func(int, []byte) (*Result, error), error) {
			cyclic := *prog
			topo := *prog.Topology
			topo.Edges = []*p4.TopoEdge{prog.Topology.Edges[0], {From: "pb", To: "pa"}}
			cyclic.Topology = &topo
			return NewReference(&cyclic, nil, nil).Inject, nil
		},
	} {
		inject, err := build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := inject(0, wire)
		if err == nil || !strings.Contains(err.Error(), "route did not reach exit after 2 pipelines") {
			t.Fatalf("cyclic route: result %+v, error %v", res, err)
		}
	}
}

// The target holds the rules as of Compile.
func TestCompileSnapshotsRules(t *testing.T) {
	prog := p4.MustParse(fwdProg)
	rs := fwdRules()
	target, err := Compile(prog, rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs.Add("host", rules.Rule("fwd", []uint64{7}, rules.E("ipv4.dstAddr", 0x0A0000FF)))
	res, err := target.InjectQuietWire(0, mkWire(t, prog, 0x0A0000FF, 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dropped {
		t.Fatal("an entry added after Compile reached the running target")
	}
	fresh, _ := Compile(prog, rs, nil)
	if res, _ := fresh.InjectQuietWire(0, mkWire(t, prog, 0x0A0000FF, 64, 1)); res.Dropped {
		t.Fatal("a target compiled after the Add must see the entry")
	}
}

// What the program leaves unresolvable is an error from Compile, with the
// source position — not a surprise for the first packet that gets there.
// What a rule set may not say is rules.Bind's to reject (its tests show
// Compile rejects it too).
func TestCompileRejectsWhatCannotResolve(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate func(*p4.Program, *rules.Set)
		want   string
	}{
		"malformed table key": {
			func(p *p4.Program, _ *rules.Set) {
				p.Table("host").Keys[0].Field = &p4.FieldRef{Parts: []string{"ipv4", "nope"}, Pos: p4.Pos{Line: 28, Col: 11}}
			}, `28:11: header "ipv4" has no field "nope"`,
		},
		"boolean used as a value": {
			func(p *p4.Program, _ *rules.Set) {
				as := p.Action("fwd").Body[0].(*p4.AssignStmt)
				as.RHS = &p4.CmpExpr{Op: expr.CmpEq, L: as.RHS, R: as.RHS, Pos: p4.Pos{Line: 24, Col: 30}}
			}, "24:30: p == p is not arithmetic",
		},
		"recursive action": {
			func(p *p4.Program, _ *rules.Set) {
				a := p.Action("deny")
				a.Body = append(a.Body, &p4.CallStmt{Call: &p4.ActionCall{Name: "deny"}})
			}, `action "deny" calls itself`,
		},
	} {
		prog, rs := p4.MustParse(fwdProg), fwdRules()
		tc.mutate(prog, rs)
		_, err := Compile(prog, rs, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}

// A header extracted twice loads its slots twice: the last instance wins,
// in the emitted packet and for the selects that follow.
func TestReExtractLastInstanceWins(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<8> x; }
header m { bit<8> seen; }
parser prs {
  state start { extract(h); transition again; }
  state again {
    extract(h);
    transition select(h.x) {
      2: mark;
      default: accept;
    }
  }
  state mark { extract(m); transition accept; }
}
control c { apply { } }
pipeline p { parser = prs; control = c; }
`)
	wire := append([]byte{1, 2, 9}, packet.WithID(1)...)
	target, err := Compile(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, inject := range []func(int, []byte) (*Result, error){target.Inject, NewReference(prog, nil, nil).Inject} {
		res, err := inject(0, wire)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := res.Output.Field("h", "x")
		seen, ok := res.Output.Field("m", "seen")
		if x != 2 || !ok || seen != 9 || len(res.Output.Headers) != 2 {
			t.Fatalf("output %v: h.x=%d m.seen=%d (%v); want one h with x=2, the select taking its branch", res.Output, x, seen, ok)
		}
	}
}
