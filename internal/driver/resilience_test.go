package driver

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/hashfn"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/switchsim"
	"repro/internal/sym"
)

// --- stub links for deterministic retry/demux tests ---

// preloadLink serves scripted captures before delegating to the inner
// link — it simulates late traffic from a previous case arriving first.
type preloadLink struct {
	Link
	pre [][]byte
}

func (p *preloadLink) Recv(buf []byte, timeout time.Duration) (int, bool, error) {
	if len(p.pre) > 0 {
		w := p.pre[0]
		p.pre = p.pre[1:]
		return copy(buf, w), true, nil
	}
	return p.Link.Recv(buf, timeout)
}

// dropFirstLink records every transmission and swallows the first N.
type dropFirstLink struct {
	Link
	sent  [][]byte
	drops int
}

func (l *dropFirstLink) Send(entry int, wire []byte) error {
	l.sent = append(l.sent, append([]byte(nil), wire...))
	if len(l.sent) <= l.drops {
		return nil
	}
	return l.Link.Send(entry, wire)
}

// blackholeLink accepts everything and captures nothing.
type blackholeLink struct{}

func (blackholeLink) Send(int, []byte) error { return nil }
func (blackholeLink) Recv([]byte, time.Duration) (int, bool, error) {
	return 0, false, nil
}
func (blackholeLink) Close() error { return nil }

// recvCountLink counts its receive calls.
type recvCountLink struct {
	Link
	recvs int
}

func (l *recvCountLink) Recv(buf []byte, timeout time.Duration) (int, bool, error) {
	l.recvs++
	return l.Link.Recv(buf, timeout)
}

// oversizeFirstLink replaces the first N transmissions with a wire too
// large for one UDP datagram.
type oversizeFirstLink struct {
	Link
	n int
}

func (l *oversizeFirstLink) Send(entry int, wire []byte) error {
	if l.n > 0 {
		l.n--
		wire = make([]byte, 70000)
	}
	return l.Link.Send(entry, wire)
}

// forwardedTemplate finds the first template whose path forwards (the
// prediction expects a capture).
func forwardedTemplate(t *testing.T, d *Driver, templates []*sym.Template) *sym.Template {
	t.Helper()
	for _, tm := range templates {
		c, err := d.Concretize(tm, d.allocID())
		if err != nil {
			t.Fatal(err)
		}
		if c.SkipReason == "" && c.Expected != nil {
			return tm
		}
	}
	t.Fatal("no forwarded template in suite")
	return nil
}

// runOne drives a one-template suite through RunTemplates — the product
// path — and returns its only outcome.
func runOne(t *testing.T, d *Driver, tm *sym.Template) *Outcome {
	t.Helper()
	rep, err := d.RunTemplates([]*sym.Template{tm})
	if err != nil {
		t.Fatalf("link trouble aborted the run: %v", err)
	}
	if len(rep.Outcomes) != 1 {
		t.Fatalf("one-template suite decided %d cases (%s)", len(rep.Outcomes), rep.Summary())
	}
	return rep.Outcomes[0]
}

// TestDemuxRequeuesInterleavedOutputs is the regression test for the
// wrong-ID capture bug: a late output from another case arriving first
// must be routed by its own ID, not charged to the in-flight case. Before
// the demux fix this produced a false "wrong ID" failure on the first
// attempt.
func TestDemuxRequeuesInterleavedOutputs(t *testing.T) {
	prog, _, templates, d := setup(t, nil)
	tm := forwardedTemplate(t, d, templates)

	// Fabricate the other case's late output: same template, different ID.
	caseB, err := d.Concretize(tm, 9999)
	if err != nil {
		t.Fatal(err)
	}
	staleWire, err := caseB.Expected.Marshal(prog)
	if err != nil {
		t.Fatal(err)
	}

	link := &preloadLink{Link: d.Link, pre: [][]byte{staleWire}}
	d.Link = link
	o := runOne(t, d, tm)
	if !o.Pass || o.Verdict != VerdictPass {
		t.Fatalf("interleaved stale output broke the case: verdict %s, mismatches %v",
			o.Verdict, o.Mismatches)
	}
	if o.Attempts != 1 {
		t.Errorf("demux should absorb the stale capture without retrying (attempts = %d)", o.Attempts)
	}
	if len(link.pre) != 0 {
		t.Error("the stale capture was never read: the demux went untested")
	}
}

// TestRetryAssignsFreshIDs: a dropped first transmission is retransmitted
// with a fresh payload ID and the case converges to Flaky — link noise,
// not a data-plane bug.
func TestRetryAssignsFreshIDs(t *testing.T) {
	_, _, templates, d := setup(t, nil)
	tm := forwardedTemplate(t, d, templates)
	fl := &dropFirstLink{Link: d.Link, drops: 1}
	d.Link = fl
	d.Backoff = time.Millisecond
	d.RecvTimeout = 5 * time.Millisecond

	o := runOne(t, d, tm)
	if o.Verdict != VerdictFlaky || !o.Pass {
		t.Fatalf("verdict = %s (pass=%v), want flaky", o.Verdict, o.Pass)
	}
	if o.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", o.Attempts)
	}
	if len(fl.sent) != 2 {
		t.Fatalf("transmissions = %d, want 2", len(fl.sent))
	}
	id0, ok0 := packet.PayloadID(fl.sent[0][max(len(fl.sent[0])-12, 0):])
	id1, ok1 := packet.PayloadID(fl.sent[1][max(len(fl.sent[1])-12, 0):])
	if !ok0 || !ok1 || id0 == id1 {
		t.Errorf("retransmission reused payload ID: %d vs %d", id0, id1)
	}
}

// TestLostVerdict: a link that never delivers exhausts its retries and
// reports Lost — explicitly ambiguous, never a silent Fail.
func TestLostVerdict(t *testing.T) {
	_, _, templates, d := setup(t, nil)
	tm := forwardedTemplate(t, d, templates)
	d.Link = blackholeLink{}
	d.Retries = 2
	d.Backoff = time.Millisecond
	d.RecvTimeout = 5 * time.Millisecond

	o := runOne(t, d, tm)
	if o.Verdict != VerdictLost || o.Pass {
		t.Fatalf("verdict = %s, want lost", o.Verdict)
	}
	if o.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", o.Attempts)
	}
}

// TestPersistentFailureStaysFail: a deterministic target fault must fail
// on every attempt and keep the Fail verdict — retries never launder a
// real data-plane bug into Flaky.
func TestPersistentFailureStaysFail(t *testing.T) {
	_, _, templates, d := setup(t, switchsim.Faults{switchsim.ChecksumSkip{Header: "ipv4"}})
	d.Backoff = time.Millisecond
	rep, err := d.RunTemplates(templates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("fault undetected")
	}
	if rep.Flaky != 0 || rep.Lost != 0 {
		t.Errorf("deterministic fault misclassified: %d flaky, %d lost", rep.Flaky, rep.Lost)
	}
	for _, o := range rep.Failures() {
		if o.Verdict != VerdictFail {
			t.Errorf("case %d verdict = %s, want fail", o.Case.ID, o.Verdict)
		}
		if o.Attempts != d.Retries+1 {
			t.Errorf("case %d gave up after %d attempts, want %d", o.Case.ID, o.Attempts, d.Retries+1)
		}
	}
}

// TestSkippedCasesRecorded: a hash post-validation conflict — the path
// condition pins the hash to a value other than the computed one — must
// land in Report.Skips with its reason, not vanish into a bare counter.
// Where the path condition admits the computed value, the case runs.
func TestSkippedCasesRecorded(t *testing.T) {
	_, _, _, d := setup(t, nil)
	v := p4.HeaderFieldVar("ipv4", "checksum")
	computed := expr.Width(16).Trunc(hashfn.Checksum([]uint64{5}, []expr.Width{16}))
	template := func(cond expr.Bool) *sym.Template {
		return &sym.Template{
			Constraints: []expr.Bool{cond},
			Model:       expr.State{v: expr.Width(16).Trunc(computed + 1)},
			HashObligations: []sym.HashObligation{{
				Var:    v,
				Kind:   cfg.Checksum,
				Inputs: []expr.Arith{expr.C(5, 16)},
				Width:  16,
			}},
		}
	}
	pinned := template(expr.Eq(expr.V(v, 16), expr.C(computed+1, 16)))
	admits := template(expr.Cmp{Op: expr.CmpNe, L: expr.V(v, 16), R: expr.C(computed+2, 16)})
	rep, err := d.RunTemplates([]*sym.Template{pinned, admits})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || len(rep.Skips) != 1 || rep.Skips[0].Template != pinned {
		t.Fatalf("skipped = %d, skips = %d, want 1/1, the pinned template", rep.Skipped, len(rep.Skips))
	}
	if rep.Skips[0].SkipReason == "" {
		t.Error("skip recorded without a reason")
	}
	if len(rep.Outcomes) != 1 {
		t.Errorf("%d cases ran, want the one whose path condition admits the computed hash", len(rep.Outcomes))
	}
}

// TestSummaryIncludesResilienceCounters.
func TestSummaryIncludesResilienceCounters(t *testing.T) {
	r := &Report{Program: "x", Passed: 2, Failed: 1, Skipped: 3, Flaky: 4, Lost: 5, Retransmissions: 6}
	s := r.Summary()
	for _, want := range []string{"2 passed", "1 failed", "3 skipped", "4 flaky", "5 lost", "6 retransmissions"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	// Clean runs keep the legacy one-liner.
	clean := (&Report{Program: "x", Passed: 2}).Summary()
	if strings.Contains(clean, "flaky") {
		t.Errorf("clean summary %q should omit resilience counters", clean)
	}
}

// TestOversizedDatagramIsAttemptFailure: a wire too large for the UDP
// transport must fail the attempt (and the case), not abort the run.
func TestOversizedDatagramIsAttemptFailure(t *testing.T) {
	prog := p4.MustParse(driverProg)
	rs := rules.MustParse("table host {\n ipv4.dstAddr=10.0.0.1 -> fwd(3);\n}")
	target, _ := switchsim.Compile(prog, rs, nil)
	sw, err := ServeUDP(target, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	link, err := DialUDP(sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	g, err := cfg.Build(prog, rs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sym.Explore(sym.Config{Graph: g, Options: sym.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	d := New(prog, g, &oversizeFirstLink{Link: link, n: 1}, nil)
	d.Retries = 0
	d.RecvTimeout = 20 * time.Millisecond

	tm := forwardedTemplate(t, d, res.Templates)
	if o := runOne(t, d, tm); o.Pass {
		t.Fatal("oversized datagram cannot pass")
	}

	// The suite continues: a normal-sized case still round-trips.
	d.Retries = 2
	if o2 := runOne(t, d, tm); !o2.Pass {
		t.Errorf("normal case after oversized failure: verdict %s, %v", o2.Verdict, o2.Mismatches)
	}
}

// TestUDPSwitchSurvivesGarbage: empty, malformed and out-of-range
// datagrams are counted and served through, never fatal.
func TestUDPSwitchSurvivesGarbage(t *testing.T) {
	prog := p4.MustParse(driverProg)
	rs := rules.MustParse("table host {\n ipv4.dstAddr=10.0.0.1 -> fwd(3);\n}")
	target, _ := switchsim.Compile(prog, rs, nil)
	sw, err := ServeUDP(target, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	raw, err := net.Dial("udp", sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Write([]byte{})                                // empty datagram
	raw.Write([]byte{255, 1, 2, 3})                    // entry 255 out of range
	raw.Write(append([]byte{0}, make([]byte, 400)...)) // parser garbage

	// The switch still serves real traffic afterwards.
	link, err := DialUDP(sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	g, _ := cfg.Build(prog, rs)
	res, _ := sym.Explore(sym.Config{Graph: g, Options: sym.DefaultOptions()})
	d := New(prog, g, link, nil)
	d.RecvTimeout = 100 * time.Millisecond
	o := runOne(t, d, forwardedTemplate(t, d, res.Templates))
	if !o.Pass {
		t.Fatalf("switch unhealthy after garbage: verdict %s, %v", o.Verdict, o.Mismatches)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sw.Errors() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sw.Errors() == 0 {
		t.Error("out-of-range entry not counted as an error")
	}
}

// TestUDPSwitchAbsorbsMidSuitePanic is the acceptance scenario: one case's
// traffic panics the target on every attempt. The switch keeps serving,
// the affected case reports Lost (the crash is visible in the switch's
// crash counter), and the rest of the suite completes with its normal
// verdicts.
func TestUDPSwitchAbsorbsMidSuitePanic(t *testing.T) {
	prog := p4.MustParse(driverProg)
	rs := rules.MustParse("table host {\n ipv4.dstAddr=10.0.0.1 -> fwd(3);\n}")
	// The forwarded case's traffic (dstAddr 10.0.0.1) crashes the target.
	target, err := switchsim.Compile(prog, rs, switchsim.Faults{
		switchsim.CrashWhen{Header: "ipv4", Field: "dstAddr", Value: 0x0A000001},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ServeUDP(target, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	link, err := DialUDP(sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	g, err := cfg.Build(prog, rs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sym.Explore(sym.Config{Graph: g, Options: sym.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	d := New(prog, g, link, nil)
	d.Retries = 2
	d.Backoff = time.Millisecond
	d.RecvTimeout = 50 * time.Millisecond
	rep, err := d.RunTemplates(res.Templates)
	if err != nil {
		t.Fatalf("suite aborted by target panic: %v", err)
	}
	if rep.Lost != 1 {
		t.Errorf("lost = %d, want exactly the crashing case", rep.Lost)
	}
	if rep.Failed != 0 {
		t.Errorf("failed = %d; a target crash must not masquerade as a data-plane failure", rep.Failed)
	}
	if rep.Passed != len(rep.Outcomes)-1 {
		t.Errorf("remaining suite incomplete: %d passed of %d", rep.Passed, len(rep.Outcomes))
	}
	if sw.Crashes() == 0 {
		t.Error("switch did not count the target crashes")
	}
}

// TestLoopbackCrashReportsTargetCrash: over a loopback link the crash is
// directly observable — the case fails with crash evidence, and the rest
// of the suite still runs.
func TestLoopbackCrashReportsTargetCrash(t *testing.T) {
	_, _, templates, d := setup(t, switchsim.Faults{
		switchsim.CrashWhen{Header: "ipv4", Field: "dstAddr", Value: 0x0A000001},
	})
	d.Backoff = time.Millisecond
	rep, err := d.RunTemplates(templates)
	if err != nil {
		t.Fatalf("suite aborted by target panic: %v", err)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want exactly the crashing case", rep.Failed)
	}
	o := rep.Failures()[0]
	if !o.Crashed {
		t.Error("outcome does not carry the crash flag")
	}
	found := false
	for _, m := range o.Mismatches {
		if strings.Contains(m, "target crashed") {
			found = true
		}
	}
	if !found {
		t.Errorf("crash not reported in mismatches: %v", o.Mismatches)
	}
	if rep.Passed == 0 {
		t.Error("remaining suite did not complete")
	}
}

// TestTransientCrashBecomesFlaky: a one-shot panic on the very first
// packet is absorbed by the retry engine — the case passes on the clean
// retransmit and is reported Flaky with crash evidence.
func TestTransientCrashBecomesFlaky(t *testing.T) {
	_, _, templates, d := setup(t, switchsim.Faults{switchsim.CrashOnPacket{N: 1}})
	d.Backoff = time.Millisecond
	rep, err := d.RunTemplates(templates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flaky != 1 || rep.Failed != 0 || rep.Lost != 0 {
		t.Fatalf("flaky/failed/lost = %d/%d/%d, want 1/0/0", rep.Flaky, rep.Failed, rep.Lost)
	}
	for _, o := range rep.Outcomes {
		if o.Verdict == VerdictFlaky && !o.Crashed {
			t.Error("flaky outcome lost its crash evidence")
		}
	}
}

// TestIdleWaitDoesNotSpin: while every case backs off or waits for a
// capture, the engine blocks until the earliest deadline instead of
// turning (and reading the link) until it falls due. It drives UDP, the
// link on the wall clock: on the loopback's simulated clock a wait passes
// in one jump. The suite's failing case makes 3 attempts over 30 ms of
// backoff, and its predicted drop holds a 200 ms capture window open; a
// loop that turns without waiting reads the link about once a
// millisecond (UDPLink's poll floor), some 200 times.
func TestIdleWaitDoesNotSpin(t *testing.T) {
	_, _, templates, d := setup(t, switchsim.Faults{switchsim.ChecksumSkip{Header: "ipv4"}})
	sw, err := ServeUDP(d.Link.(*Loopback).target, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	ul, err := DialUDP(sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ul.Close()
	link := &recvCountLink{Link: ul}
	d.Link = link
	d.Backoff = 10 * time.Millisecond
	d.Retries = 2
	rep, err := d.RunTemplates(templates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retransmissions == 0 {
		t.Fatalf("no case backed off; the check is vacuous: %s", rep.Summary())
	}
	if link.recvs > 50 {
		t.Errorf("%d receive calls for %s, want at most 50", link.recvs, rep.Summary())
	}
	t.Logf("%d receive calls for %s", link.recvs, rep.Summary())
}

// TestRetryLadderSaturates: the case budget derived from the backoff
// ladder is positive and non-decreasing for any retry count, where a
// doubling that wraps once made it negative at 40 retries; a value that
// fits is the plain sum.
func TestRetryLadderSaturates(t *testing.T) {
	d := &Driver{RecvTimeout: 200 * time.Millisecond, Backoff: 10 * time.Millisecond}
	prev := time.Duration(0)
	for r := 0; r <= 100; r++ {
		d.Retries = r
		b := d.caseBudget()
		if b <= 0 || b < prev {
			t.Fatalf("Retries %d: budget %v after %v", r, b, prev)
		}
		prev = b
	}
	d.Retries = 2
	if got, want := d.caseBudget(), 3*200*time.Millisecond+(10+20)*time.Millisecond+250*time.Millisecond; got != want {
		t.Errorf("Retries 2: budget %v, want %v", got, want)
	}
	if got := doubled(math.MaxInt64/2 + 1); got != math.MaxInt64 {
		t.Errorf("doubled past the largest Duration = %v", got)
	}
}
