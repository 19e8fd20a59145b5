package driver

import (
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/switchsim"
	"repro/internal/sym"
)

// crashLink makes every transmission look like a target panic — the
// dead-target scenario the circuit breaker exists for.
type crashLink struct{ sends int }

func (l *crashLink) Send(int, []byte) error {
	l.sends++
	return &switchsim.CrashError{Panic: "target is down"}
}
func (l *crashLink) Recv([]byte, time.Duration) (int, bool, error) { return 0, false, nil }
func (l *crashLink) Close() error                                  { return nil }

// breakerDriver runs the suite against a dead target with a threshold-2
// breaker: through the engine at the given window, or through the
// lockstep reference when lockstepRef is set.
func breakerDriver(t *testing.T, window int, lockstepRef bool) (*Report, *crashLink, int) {
	t.Helper()
	_, _, templates, d := setup(t, nil)
	link := &crashLink{}
	d.Link.Close()
	d.Link = link
	d.Window = window
	d.Retries = 1
	d.Backoff = time.Millisecond
	d.RecvTimeout = 10 * time.Millisecond
	d.BreakerThreshold = 2
	run := d.RunTemplates
	if lockstepRef {
		run = newLockstep(d).runTemplates
	}
	rep, err := run(templates)
	if err != nil {
		t.Fatal(err)
	}
	return rep, link, len(templates)
}

func checkBreakerReport(t *testing.T, rep *Report, link *crashLink) {
	t.Helper()
	if !rep.BreakerTripped {
		t.Fatal("breaker did not trip with every case crashing")
	}
	if rep.ShortCircuited == 0 {
		t.Fatal("no cases were short-circuited after the trip")
	}
	if rep.ShortCircuited > rep.Lost {
		t.Fatalf("short-circuited %d > lost %d", rep.ShortCircuited, rep.Lost)
	}
	// Short-circuited cases never touch the wire: the link saw only the
	// attempts of cases that ran before the trip.
	var attempts, scAttempts int
	for _, o := range rep.Outcomes {
		attempts += o.Attempts
		if o.ShortCircuited {
			scAttempts += o.Attempts
			if o.Verdict != VerdictLost || !o.Absent {
				t.Fatalf("short-circuited outcome has verdict %s absent=%v", o.Verdict, o.Absent)
			}
		}
	}
	if scAttempts != 0 {
		t.Fatalf("short-circuited cases transmitted %d attempts", scAttempts)
	}
	if link.sends != attempts {
		t.Fatalf("link saw %d sends but outcomes claim %d attempts", link.sends, attempts)
	}
}

// TestBreakerTripsLockstep: with the target dead and one case in flight,
// the engine stops transmitting after BreakerThreshold consecutive crashed
// cases and marks the rest Lost without further attempts — case for case
// what the lockstep reference reports, payload IDs included.
func TestBreakerTripsLockstep(t *testing.T) {
	rep, link, total := breakerDriver(t, 1, false)
	if len(rep.Outcomes) != total {
		t.Fatalf("outcomes %d != templates %d (every case must be accounted for)", len(rep.Outcomes), total)
	}
	checkBreakerReport(t, rep, link)
	ref, refLink, _ := breakerDriver(t, 1, true)
	checkBreakerReport(t, ref, refLink)
	if got, want := renderReport(rep, true), renderReport(ref, true); got != want {
		t.Errorf("Window=1 report differs from lockstep\n--- lockstep ---\n%s--- engine ---\n%s", want, got)
	}
}

// TestBreakerTripsPipelined: same contract under the windowed engine —
// in-flight cases finish, everything not yet admitted is short-circuited.
func TestBreakerTripsPipelined(t *testing.T) {
	rep, link, total := breakerDriver(t, 2, false)
	if len(rep.Outcomes) != total {
		t.Fatalf("outcomes %d != templates %d", len(rep.Outcomes), total)
	}
	checkBreakerReport(t, rep, link)
}

// TestBreakerResetOnHealthyCase: a single persistently-crashing case
// surrounded by passing traffic must NOT trip a threshold-2 breaker —
// any non-crashing verdict resets the streak.
func TestBreakerResetOnHealthyCase(t *testing.T) {
	_, _, templates, d := setup(t, switchsim.Faults{
		switchsim.CrashWhen{Header: "ipv4", Field: "dstAddr", Value: 0x0A000001},
	})
	d.Retries = 1
	d.Backoff = time.Millisecond
	d.BreakerThreshold = 2
	for _, window := range []int{1, 8} {
		d.Window = window
		rep, err := d.RunTemplates(templates)
		if err != nil {
			t.Fatal(err)
		}
		if rep.BreakerTripped || rep.ShortCircuited != 0 {
			t.Fatalf("window %d: breaker tripped on an isolated crash (short-circuited %d)",
				window, rep.ShortCircuited)
		}
		if rep.Passed == 0 {
			t.Fatalf("window %d: healthy cases did not pass", window)
		}
	}
}

// TestBreakerDisabledByDefault: threshold 0 means the breaker never
// engages, no matter how many consecutive crashes occur.
func TestBreakerDisabledByDefault(t *testing.T) {
	_, _, templates, d := setup(t, nil)
	d.Link.Close()
	link := &crashLink{}
	d.Link = link
	d.Window = 1
	d.Retries = 1
	d.Backoff = time.Millisecond
	d.RecvTimeout = 10 * time.Millisecond
	rep, err := d.RunTemplates(templates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BreakerTripped || rep.ShortCircuited != 0 {
		t.Fatal("breaker engaged with threshold 0")
	}
}

// TestSyncWindowsCloseInSendOrder: on a synchronous link the windows still
// open after a drain close in transmission order. Closed in the demux
// map's order, the order cases finalized in — and with it the breaker's
// crash streak and the payload IDs retransmissions draw — varied from run
// to run. Here one burst admits every case, a few first attempts crash,
// and the target captures nothing, so every verdict is a window closing:
// repeated runs must render the same report, payload IDs included.
func TestSyncWindowsCloseInSendOrder(t *testing.T) {
	var want string
	for run := 0; run < 6; run++ {
		_, _, templates, d := setup(t, nil)
		var suite []*sym.Template
		for len(suite)+len(templates) <= DefaultWindow {
			suite = append(suite, templates...)
		}
		// TableMissDefault leaves host without its rule, so nothing is
		// captured. The first attempts of four predicted forwards and two
		// predicted drops crash: the forwards end Fail, crashed, four in a
		// row — enough to trip the breaker — and the drops Flaky.
		faults := switchsim.Faults{switchsim.TableMissDefault{Table: "host"}}
		forwards, drops := 0, 0
		for i, tpl := range suite {
			if !tpl.Dropped && forwards < 4 {
				forwards++
			} else if tpl.Dropped && drops < 2 {
				drops++
			} else {
				continue
			}
			faults = append(faults, switchsim.CrashOnPacket{N: uint64(i + 1)})
		}
		target, err := switchsim.Compile(d.Prog, rules.MustParse("table host {\n ipv4.dstAddr=10.0.0.1 -> fwd(3);\n}"), faults)
		if err != nil {
			t.Fatal(err)
		}
		d.Link = NewLoopback(target)
		d.Retries = 1
		d.Backoff = time.Millisecond
		d.BreakerThreshold = 3
		rep, err := d.RunTemplates(suite)
		if err != nil {
			t.Fatal(err)
		}
		got := renderReport(rep, true)
		if run == 0 {
			if !rep.BreakerTripped || rep.Failed != 4 || rep.Flaky != 2 || rep.Lost == 0 {
				t.Fatalf("%d cases: %s, breaker tripped %v: want 4 crashed forwards failing, 2 crashed drops flaky and the breaker tripped",
					len(suite), rep.Summary(), rep.BreakerTripped)
			}
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d renders a different report\n--- run 0 ---\n%s--- run %d ---\n%s", run, want, run, got)
		}
	}
}
