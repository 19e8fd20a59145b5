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
	"fmt"
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
	t.Logf("noisy: %s (injected %+v)", noisy.Summary(), stats)
}

func TestAdversityRouter(t *testing.T) {
	testAdversity(t, programs.Router())
}

func TestAdversityGW1(t *testing.T) {
	testAdversity(t, programs.GW(1, programs.Set1))
}

// TestShakenDriveCorpusSummaries drives gw-2 and ACL behind a shaken
// loopback at the driver's defaults, which are meissa test's. The
// loopback's simulated clock, delays included, makes each drive a
// function of its link's seed: the summary lines and the link counters
// are exact, and five repeats render one report, payload IDs included.
func TestShakenDriveCorpusSummaries(t *testing.T) {
	for _, tc := range []struct {
		p      *programs.Program
		faults driver.LinkFaults
		want   string
		stats  driver.LinkStats
	}{
		{programs.GW(2, programs.Set2), driver.LinkFaults{Seed: 7, Drop: 0.2, Duplicate: 0.1, Reorder: 0.2, Delay: 2 * time.Millisecond},
			"gw_2: 34 passed, 0 failed, 0 skipped (7 flaky, 1 lost, 10 retransmissions)",
			driver.LinkStats{Dropped: 12, Duplicated: 6, Reordered: 7, Corrupted: 0, Delayed: 51}},
		{programs.ACL(), driver.LinkFaults{Seed: 11, Drop: 0.1, Reorder: 0.2, Delay: 5 * time.Millisecond},
			"acl: 149 passed, 0 failed, 0 skipped (26 flaky, 0 lost, 31 retransmissions)",
			driver.LinkStats{Dropped: 34, Duplicated: 0, Reordered: 37, Corrupted: 0, Delayed: 187}},
	} {
		p := tc.p
		t.Run(p.Name, func(t *testing.T) {
			sys, err := meissa.New(p.Prog, p.Rules, nil, meissa.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := sys.Generate()
			if err != nil {
				t.Fatal(err)
			}
			drive := func() (*driver.Report, driver.LinkStats, string) {
				target, err := switchsim.Compile(p.Prog, p.Rules, nil)
				if err != nil {
					t.Fatal(err)
				}
				link := driver.NewFaultyLink(driver.NewLoopback(target), tc.faults)
				rep, err := sys.Test(link, gen)
				if err != nil {
					t.Fatal(err)
				}
				st := link.Stats()
				return rep, st, driver.RenderReport(rep, true) + fmt.Sprintf("%+v\n", st)
			}
			rep, st, want := drive()
			if got := rep.Summary(); got != tc.want {
				t.Errorf("summary %q\nwant    %q", got, tc.want)
			}
			if st != tc.stats {
				t.Errorf("link counters %+v, want %+v", st, tc.stats)
			}
			for i := 2; i <= 5; i++ {
				if _, _, got := drive(); got != want {
					t.Fatalf("repeat %d differs\n--- repeat 1 ---\n%s--- repeat %d ---\n%s", i, want, i, got)
				}
			}
		})
	}
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
