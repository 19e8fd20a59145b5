package driver

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/rules"
	"repro/internal/switchsim"
	"repro/internal/sym"
)

// explored holds one program's generation artifacts, shared across the
// runs under comparison (the templates are identical inputs; the target
// and driver are rebuilt per run so payload IDs restart at 1).
type explored struct {
	prog      *p4.Program
	rules     *rules.Set
	graph     *cfg.Graph
	templates []*sym.Template
}

func explore(t testing.TB, prog *p4.Program, rs *rules.Set) *explored {
	t.Helper()
	g, err := cfg.Build(prog, rs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sym.Explore(sym.Config{Graph: g, Options: sym.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return &explored{prog: prog, rules: rs, graph: g, templates: res.Templates}
}

func exploreGW1(t testing.TB) *explored {
	t.Helper()
	p := programs.GW(1, programs.Set1)
	return explore(t, p.Prog, p.Rules)
}

// sweepWindows are the in-flight windows every differential holds to the
// reference: one case at a time, the smallest overlap, a partial and a
// full burst.
var sweepWindows = []int{1, 2, 32, 256}

// freshDriver builds a driver over a loopback to a freshly compiled
// target. tweak customizes the link and the retry knobs before the run.
func freshDriver(t testing.TB, e *explored, faults switchsim.Faults, tweak func(*Driver)) *Driver {
	t.Helper()
	target, err := switchsim.Compile(e.prog, e.rules, faults)
	if err != nil {
		t.Fatal(err)
	}
	d := New(e.prog, e.graph, NewLoopback(target), nil)
	if tweak != nil {
		tweak(d)
	}
	return d
}

// runWindow executes the full suite through the engine at one in-flight
// window on a fresh target and driver.
func runWindow(t testing.TB, e *explored, faults switchsim.Faults, window int, tweak func(*Driver)) *Report {
	t.Helper()
	d := freshDriver(t, e, faults, tweak)
	d.Window = window
	rep, err := d.RunTemplates(e.templates)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// runReference executes the full suite through the lockstep reference
// (reference_test.go) on a fresh target and driver.
func runReference(t testing.TB, e *explored, faults switchsim.Faults, tweak func(*Driver)) *Report {
	t.Helper()
	rep, err := newLockstep(freshDriver(t, e, faults, tweak)).runTemplates(e.templates)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

var wantIDRe = regexp.MustCompile(`\(want \d+\)`)

// renderReport flattens a report into a canonical byte-comparable form.
// Outcomes and skips are in template order in the engine and in the
// reference. withIDs includes payload IDs; runs with retransmissions
// interleave ID allocation differently at each window, so those
// comparisons drop IDs.
func renderReport(rep *Report, withIDs bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "passed=%d failed=%d skipped=%d flaky=%d lost=%d retrans=%d tripped=%t short=%d\n",
		rep.Passed, rep.Failed, rep.Skipped, rep.Flaky, rep.Lost, rep.Retransmissions,
		rep.BreakerTripped, rep.ShortCircuited)
	for _, o := range rep.Outcomes {
		var id uint64
		if withIDs {
			id = o.Case.ID
		}
		fmt.Fprintf(&b, "case id=%d entry=%d wire=%d verdict=%s attempts=%d pass=%t absent=%t crashed=%t\n",
			id, o.Case.Entry, len(o.Case.Wire), o.Verdict, o.Attempts, o.Pass, o.Absent, o.Crashed)
		for _, m := range o.Mismatches {
			if !withIDs {
				// The wrong-ID diagnostic embeds the attempt's payload ID,
				// which follows the (excluded) allocation order.
				m = wantIDRe.ReplaceAllString(m, "(want #)")
			}
			fmt.Fprintf(&b, "  mismatch: %s\n", m)
		}
		for _, c := range o.ChecksumErrors {
			fmt.Fprintf(&b, "  checksum: %s\n", c)
		}
		for _, v := range o.Violations {
			fmt.Fprintf(&b, "  violation: %v\n", v)
		}
	}
	for _, c := range rep.Skips {
		fmt.Fprintf(&b, "skip reason=%q\n", c.SkipReason)
	}
	return b.String()
}

// TestPipelinedMatchesLockstepClean holds the engine to the lockstep
// reference on a clean loopback across windows: the reports must be
// byte-identical, payload IDs included, on the production-shaped gw-1
// corpus program (which exercises skips, predicted drops, VXLAN
// encapsulation and checksum maintenance).
func TestPipelinedMatchesLockstepClean(t *testing.T) {
	e := exploreGW1(t)
	want := renderReport(runReference(t, e, nil, nil), true)
	for _, w := range sweepWindows {
		got := renderReport(runWindow(t, e, nil, w, nil), true)
		if got != want {
			t.Fatalf("window=%d report differs from lockstep\n--- lockstep ---\n%s--- engine ---\n%s", w, want, got)
		}
	}
	if !strings.Contains(want, "passed=") || strings.HasPrefix(want, "passed=0 ") {
		t.Fatalf("suite decided no cases:\n%s", want)
	}
}

// TestOutputBuiltForFailuresOnly: the engine checks captures as slots and
// builds Outcome.Output only for an attempt that fails (no spec reads it
// here). A failing capture's Output is the packet the reference parses.
func TestOutputBuiltForFailuresOnly(t *testing.T) {
	e := exploreGW1(t)
	faults := switchsim.Faults{switchsim.SetValidNoOp{Header: "vxlan"}}
	once := func(d *Driver) { d.Retries = 0 }
	ref := runReference(t, e, faults, once)
	got := runWindow(t, e, faults, 1, once)
	failed := 0
	for i, o := range got.Outcomes {
		switch {
		case o.Pass && o.Output != nil:
			t.Errorf("case %d passed but built its Output", i)
		case !o.Pass && !o.Absent:
			failed++
			if !reflect.DeepEqual(o.Output, ref.Outcomes[i].Output) {
				t.Errorf("case %d Output\n%+v\nreference\n%+v", i, o.Output, ref.Outcomes[i].Output)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no failing capture; the check is vacuous")
	}
}

// TestPipelinedShakenLinkConverges drives the reference and the engine
// at every window through a heavily shaken link — 30% drop plus
// duplication and reordering — and requires all to converge: the retry
// machinery must absorb every injected fault (no Fail, no Lost) and report
// the noise as Flaky verdicts and retransmissions, never silently.
func TestPipelinedShakenLinkConverges(t *testing.T) {
	prog := p4.MustParse(driverProg)
	rs := rules.MustParse("table host {\n ipv4.dstAddr=10.0.0.1 -> fwd(3);\n}")
	e := explore(t, prog, rs)
	converged := func(name string, seed int64, rep *Report) *Report {
		if rep.Failed != 0 || rep.Lost != 0 {
			t.Errorf("seed=%d %s did not converge: %s", seed, name, rep.Summary())
			for _, f := range rep.Failures() {
				t.Logf("  %s: %v", f.Verdict, f.Mismatches)
			}
		}
		return rep
	}
	for _, seed := range []int64{7, 21} {
		shaken := func(d *Driver) {
			d.Link = NewFaultyLink(d.Link, LinkFaults{Seed: seed, Drop: 0.3, Duplicate: 0.1, Reorder: 0.1})
			d.Retries = 8 // 0.3^9 residual loss; a Lost verdict here is an engine bug
			d.Backoff = time.Millisecond
			d.RecvTimeout = 10 * time.Millisecond
		}
		lock := converged("lockstep", seed, runReference(t, e, nil, shaken))
		for _, w := range sweepWindows {
			pipe := converged(fmt.Sprintf("window=%d", w), seed, runWindow(t, e, nil, w, shaken))
			if got, want := len(pipe.Outcomes), len(lock.Outcomes); got != want {
				t.Errorf("seed=%d window=%d outcome counts diverge: engine=%d lockstep=%d", seed, w, got, want)
			}
			if pipe.Passed+pipe.Flaky != lock.Passed+lock.Flaky {
				t.Errorf("seed=%d window=%d converged verdicts diverge: engine=%d+%d lockstep=%d+%d",
					seed, w, pipe.Passed, pipe.Flaky, lock.Passed, lock.Flaky)
			}
		}
	}
}

// TestShakenDriveIsAFunctionOfItsSeed: a drive through a FaultyLink over
// the loopback runs on the loopback's simulated clock, delays included, so
// 50 repeats of the shaken gw-2 suite render one report — payload IDs,
// verdicts, attempts — and inject the same faults.
func TestShakenDriveIsAFunctionOfItsSeed(t *testing.T) {
	p := programs.GW(2, programs.Set2)
	e := explore(t, p.Prog, p.Rules)
	faults := LinkFaults{Seed: 7, Drop: 0.2, Duplicate: 0.1, Reorder: 0.2, Delay: 2 * time.Millisecond}
	drive := func() (*Report, string) {
		var fl *FaultyLink
		rep := runWindow(t, e, nil, DefaultWindow, func(d *Driver) {
			fl = NewFaultyLink(d.Link, faults)
			d.Link = fl
		})
		return rep, renderReport(rep, true) + fl.Stats().String()
	}
	rep, want := drive()
	if rep.Flaky == 0 || !strings.Contains(want, "delayed=") || strings.Contains(want, "delayed=0") {
		t.Fatalf("the shaken drive injected no delay or absorbed no noise; the check is vacuous:\n%s", want)
	}
	for i := 2; i <= 50; i++ {
		if _, got := drive(); got != want {
			t.Fatalf("repeat %d differs\n--- repeat 1 ---\n%s\n--- repeat %d ---\n%s", i, want, i, got)
		}
	}
}

// TestWindowBelowOneIsOne: a Window below 1 runs as Window 1 — the same
// report, payload IDs included — instead of admitting nothing (0) or
// panicking on a negative map size.
func TestWindowBelowOneIsOne(t *testing.T) {
	e := exploreGW1(t)
	want := renderReport(runWindow(t, e, nil, 1, nil), true)
	for _, w := range []int{0, -3} {
		if got := renderReport(runWindow(t, e, nil, w, nil), true); got != want {
			t.Errorf("Window=%d report differs from Window=1\n--- 1 ---\n%s--- %d ---\n%s", w, want, w, got)
		}
	}
}

// TestPipelinedEngineMachineryAllocs pins the engine's steady-state
// zero-alloc guarantee on its own machinery: the pcase freelist, the ID
// demux map and the per-case deadlines recycle a full case lifecycle —
// admit, capture window, cancellation, backoff, expiry — without
// allocating. (Report objects — Case, Outcome, captured Packet — are
// retained output.)
func TestPipelinedEngineMachineryAllocs(t *testing.T) {
	const window, backoff = 64, 3 * time.Millisecond
	eng := &engine{d: &Driver{RecvTimeout: 2 * time.Millisecond}, idMap: make(map[uint64]*pcase, window)}
	cases := make([]*Case, window)
	for i := range cases {
		cases[i] = &Case{ID: uint64(i + 1)}
	}
	now := time.Now()
	lifecycle := func() {
		now = now.Add(time.Millisecond) // march time forward, as a live run does
		for _, c := range cases {
			pc := eng.getPcase()
			pc.cur = c
			pc.deadline = now.Add(time.Hour)
			eng.openWindow(pc, now)
		}
		// Half the windows fill (capture arrives: demux + cancel), half
		// expire into a backoff whose expiry ends the case.
		for i, c := range cases {
			if i%2 == 0 {
				pc := eng.idMap[c.ID]
				eng.unwatch(pc)
				eng.putPcase(pc)
			}
		}
		if due := eng.dueCases(now); len(due) != 0 {
			t.Fatalf("%d cases due before their window closed", len(due))
		}
		now = eng.nextDue()
		for _, pc := range eng.dueCases(now) {
			eng.unwatch(pc)
			pc.state, pc.due = psBackoff, now.Add(backoff)
		}
		now = eng.nextDue()
		for _, pc := range eng.dueCases(now) {
			eng.putPcase(pc)
		}
		if len(eng.idMap) != 0 || !eng.nextDue().IsZero() || len(eng.free) != window {
			t.Fatalf("lifecycle leaked state: idMap=%d due=%v free=%d", len(eng.idMap), eng.nextDue(), len(eng.free))
		}
	}
	lifecycle() // warm the freelist, the demux map and the scan buffer
	if avg := testing.AllocsPerRun(100, lifecycle); avg != 0 {
		t.Errorf("steady-state engine machinery allocates %.2f allocs/op, want 0", avg)
	}
	if len(eng.cases) != window {
		t.Errorf("engine made %d cases for a window of %d", len(eng.cases), window)
	}
}
