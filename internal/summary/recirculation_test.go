package summary

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/sym"
)

// TestRecirculationUnrolled covers §4's recirculation handling:
// "Recirculation and resubmission are similar to multi-pipelines, because
// operators manually name unrolled pipelines." A program that
// recirculates once is expressed as ig → eg → ig_round2 → eg_round2, and
// code summary treats the rounds as ordinary pipelines.
func TestRecirculationUnrolled(t *testing.T) {
	src := `
program recirc;
header h { bit<8> hops; bit<8> kind; }
metadata { bit<1> again; }
parser prs { state start { extract(h); transition accept; } }
control ig1 {
  apply {
    h.hops = h.hops + 1;
    if (h.kind == 7) {
      meta.again = 1;
    } else {
      meta.again = 0;
    }
  }
}
control eg1 { apply { } }
control ig2 {
  apply {
    h.hops = h.hops + 1;
    meta.again = 0;
  }
}
control eg2 { apply { } }
pipeline ig       { parser = prs; control = ig1; }
pipeline eg       { control = eg1; kind = egress; }
pipeline ig_rnd2  { control = ig2; }
pipeline eg_rnd2  { control = eg2; kind = egress; }
topology {
  entry ig;
  ig -> eg;
  eg -> ig_rnd2 when meta.again == 1;
  eg -> exit when meta.again == 0;
  ig_rnd2 -> eg_rnd2;
  eg_rnd2 -> exit;
}
`
	prog := p4.MustParse(src)
	g, err := cfg.Build(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Pipelines) != 4 {
		t.Fatalf("pipelines = %d, want 4 (unrolled rounds)", len(g.Pipelines))
	}
	if _, err := Summarize(g, defaultOptions()); err != nil {
		t.Fatal(err)
	}
	res, err := sym.Explore(sym.Config{Graph: g, Options: sym.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	// Two valid end-to-end paths: one round (kind != 7) and two rounds
	// (kind == 7).
	var oneHop, twoHops int
	for _, tm := range res.Templates {
		val, err := expr.EvalArith(finalOf(tm, "hdr.h.hops"), expr.State{"hdr.h.hops": 0, "hdr.h.kind": tm.Model["hdr.h.kind"]})
		if err != nil {
			t.Fatalf("template %d: %v", tm.ID, err)
		}
		switch val {
		case 1:
			oneHop++
		case 2:
			twoHops++
		default:
			t.Errorf("template %d: hops = %d", tm.ID, val)
		}
	}
	if oneHop == 0 || twoHops == 0 {
		t.Fatalf("recirculated paths missing: %d one-round, %d two-round", oneHop, twoHops)
	}
}

// TestRegisterModeledAsField covers §4's register treatment: "the
// register reg[0] is modeled as a header field REG:reg-POS:0", with the
// initial cell value treated as an unbounded stateless variable.
func TestRegisterModeledAsField(t *testing.T) {
	src := `
program regs;
header h { bit<16> x; }
register bit<16> counts[4];
metadata { bit<16> c; }
parser prs { state start { extract(h); transition accept; } }
control c {
  apply {
    meta.c = reg_read(counts, 2);
    if (meta.c > 100) {
      h.x = 1;
    } else {
      h.x = 2;
    }
    reg_write(counts, 2, meta.c + 1);
  }
}
pipeline p { parser = prs; control = c; }
`
	prog := p4.MustParse(src)
	g, err := cfg.Build(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	regVar := p4.RegisterVar("counts", 2)
	if _, ok := g.Vars[regVar]; !ok {
		t.Fatalf("register cell %s not modeled as a field variable", regVar)
	}
	if _, err := Summarize(g, defaultOptions()); err != nil {
		t.Fatal(err)
	}
	res, err := sym.Explore(sym.Config{Graph: g, Options: sym.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	// Both branches on the register value must be covered (the initial
	// cell value is a free symbolic variable).
	seen := map[uint64]bool{}
	for _, tm := range res.Templates {
		if c, ok := finalOf(tm, "hdr.h.x").(expr.Const); ok {
			seen[c.Val] = true
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("register-dependent branches not both covered: %v", seen)
	}
	// The write-back must be expressed against the register's entry
	// value.
	for _, tm := range res.Templates {
		val := finalOf(tm, regVar)
		if val == nil {
			t.Fatal("register write-back missing from final state")
		}
		got, err := expr.EvalArith(val, expr.State{regVar: 41})
		if err != nil {
			t.Fatal(err)
		}
		if got != 42 {
			t.Fatalf("write-back = %d for entry value 41, want 42", got)
		}
	}
}
