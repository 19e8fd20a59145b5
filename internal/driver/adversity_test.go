// Adversity tests: the acceptance scenario for the resilient driver. A
// heavily shaken link (seeded 30% drop + duplication + reordering) over a
// real UDP transport must converge to the same per-case verdicts as a
// clean in-process loopback — link noise surfaces as Flaky, never as a
// false Fail.
//
// This file is an external test package so it can drive the full system
// through the root package (which itself imports internal/driver).
package driver_test

import (
	"testing"
	"time"

	meissa "repro"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/switchsim"
)

func testAdversity(t *testing.T, p *programs.Program) {
	t.Helper()
	sys, err := meissa.New(p.Prog, p.Rules, nil, meissa.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: the clean loopback run.
	cleanTarget, err := switchsim.Compile(p.Prog, p.Rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sys.Test(driver.NewLoopback(cleanTarget), gen)
	if err != nil {
		t.Fatal(err)
	}

	// The same target behind a shaken UDP link.
	udpTarget, err := switchsim.Compile(p.Prog, p.Rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := driver.ServeUDP(udpTarget, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	ul, err := driver.DialUDP(sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ul.Close()
	shaken := driver.NewFaultyLink(ul, driver.LinkFaults{
		Seed: 1, Drop: 0.3, Duplicate: 0.3, Reorder: 0.3,
	})

	d := sys.NewDriver(shaken, gen)
	// Enough retransmissions that P(all lost) is negligible even at 30%
	// loss in each direction; short windows keep the suite fast.
	d.Retries = 12
	d.RecvTimeout = 40 * time.Millisecond
	d.Backoff = time.Millisecond
	noisy, err := d.RunTemplates(gen.Templates)
	if err != nil {
		t.Fatal(err)
	}

	if len(noisy.Outcomes) != len(clean.Outcomes) {
		t.Fatalf("case count diverged: %d noisy vs %d clean", len(noisy.Outcomes), len(clean.Outcomes))
	}
	for i, no := range noisy.Outcomes {
		co := clean.Outcomes[i]
		if no.Pass != co.Pass {
			t.Errorf("case %d: noisy verdict %s (pass=%v) vs clean pass=%v — link noise changed a data-plane verdict",
				no.Case.ID, no.Verdict, no.Pass, co.Pass)
		}
	}
	if noisy.Failed != clean.Failed {
		t.Errorf("failed: noisy %d vs clean %d", noisy.Failed, clean.Failed)
	}
	if noisy.Lost != 0 {
		t.Errorf("%d cases lost — retry budget too small for the injected noise", noisy.Lost)
	}
	if noisy.Skipped != clean.Skipped {
		t.Errorf("skipped: noisy %d vs clean %d", noisy.Skipped, clean.Skipped)
	}
	stats := shaken.Stats()
	if stats.Dropped == 0 && stats.Duplicated == 0 && stats.Reordered == 0 {
		t.Error("fault injection inactive — the adversity run tested nothing")
	}
	t.Logf("clean: %s", clean.Summary())
	t.Logf("noisy: %s (injected %s)", noisy.Summary(), stats)
}

func TestAdversityRouter(t *testing.T) {
	testAdversity(t, programs.Router())
}

func TestAdversityGW1(t *testing.T) {
	testAdversity(t, programs.GW(1, programs.Set1))
}

// TestRetryLadderUDPRouter: at 40 retransmissions the default 10 ms
// backoff ladder no longer fits a Duration. The case budget saturates
// instead of wrapping negative, so every Router case still passes over a
// clean UDP link; a wrapped budget put every deadline in the past and
// lost each case whose reply was not already in.
func TestRetryLadderUDPRouter(t *testing.T) {
	p := programs.Router()
	sys, err := meissa.New(p.Prog, p.Rules, nil, meissa.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		t.Fatal(err)
	}
	target, err := switchsim.Compile(p.Prog, p.Rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := driver.ServeUDP(target, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	ul, err := driver.DialUDP(sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ul.Close()
	d := sys.NewDriver(ul, gen)
	d.Retries = 40
	rep, err := d.RunTemplates(gen.Templates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed+rep.Skipped != len(gen.Templates) || rep.Passed == 0 {
		t.Errorf("Retries 40 over UDP: %s of %d templates", rep.Summary(), len(gen.Templates))
	}
}
