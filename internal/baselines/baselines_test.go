package baselines

import (
	"errors"
	"testing"

	"repro/internal/programs"
)

func TestP4PktgenSupportsOpenPrograms(t *testing.T) {
	p := programs.Router()
	stats, templates, err := P4Pktgen{}.Generate(p.Prog, p.Rules, Budget)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Templates == 0 || len(templates) == 0 {
		t.Fatal("no templates")
	}
	if stats.SMTCalls == 0 {
		t.Error("expected solver activity")
	}
}

func TestP4PktgenRejectsProduction(t *testing.T) {
	p := programs.GW(1, programs.Set1)
	_, _, err := P4Pktgen{}.Generate(p.Prog, p.Rules, Budget)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestP4PktgenRejectsMultiPipeline(t *testing.T) {
	p := programs.GW(2, programs.Set1)
	_, _, err := P4Pktgen{}.Generate(p.Prog, p.Rules, Budget)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestGauntletSupportsOpenPrograms(t *testing.T) {
	p := programs.MTag()
	stats, templates, err := Gauntlet{}.Generate(p.Prog, p.Rules, Budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(templates) == 0 {
		t.Fatal("no templates")
	}
	_ = stats
}

func TestGauntletRejectsProduction(t *testing.T) {
	p := programs.GW(3, programs.Set1)
	_, _, err := Gauntlet{}.Generate(p.Prog, p.Rules, Budget)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestGauntletCoverageMatchesP4Pktgen(t *testing.T) {
	// Both enumerate all valid paths; they must agree on the count even
	// though Gauntlet skips early termination.
	p := programs.ACL()
	_, t1, err := P4Pktgen{}.Generate(p.Prog, p.Rules, Budget)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, err := Gauntlet{}.Generate(p.Prog, p.Rules, Budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != len(t2) {
		t.Errorf("coverage differs: %d vs %d", len(t1), len(t2))
	}
}

func TestAquilaVerifiesSmallProgram(t *testing.T) {
	p := programs.Router()
	stats, _, err := Aquila{}.Verify(p.Prog, p.Rules, Budget)
	if err != nil {
		t.Fatal(err)
	}
	// Verification discharges per-statement VCs: strictly more solver
	// calls than plain generation.
	genStats, _, err := P4Pktgen{}.Generate(p.Prog, p.Rules, Budget)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SMTCalls <= genStats.SMTCalls {
		t.Errorf("Aquila's VC discharge should exceed generation solver calls: %d vs %d",
			stats.SMTCalls, genStats.SMTCalls)
	}
}

func TestAquilaTimesOutOnTinyBudget(t *testing.T) {
	p := programs.GW(3, programs.Set2)
	_, _, err := Aquila{}.Verify(p.Prog, p.Rules, 1000)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestPTACannotGenerate(t *testing.T) {
	p := programs.Router()
	_, _, err := PTA{}.Generate(p.Prog, p.Rules, Budget)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestNames(t *testing.T) {
	tools := []Generator{P4Pktgen{}, Gauntlet{}, Aquila{}, PTA{}}
	want := []string{"p4pktgen", "Gauntlet", "Aquila", "PTA"}
	for i, tool := range tools {
		if tool.Name() != want[i] {
			t.Errorf("tool %d name = %q, want %q", i, tool.Name(), want[i])
		}
	}
}
