package driver_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/rules"
	"repro/internal/switchsim"
)

// TestPipelinedMatchesLockstepBuggyTarget repeats the engine-vs-lockstep
// differential against targets compiled with each class of injected
// data-plane fault, and over a link that corrupts captures: every window
// must classify the same cases as Fail with the same mismatch and
// checksum-error text. The engine checks captures in slot form, the
// lockstep reference parses them into packets and compares field maps,
// so this holds the slot checker to the map checker on every kind of
// wrong output. IDs are excluded — retransmissions interleave the ID
// sequence differently — but attempts must match exactly.
func TestPipelinedMatchesLockstepBuggyTarget(t *testing.T) {
	fast := func(d *driver.Driver) {
		d.Retries = 1
		d.Backoff = time.Millisecond
	}
	// scenario explores the first Table 2 scenario whose target carries
	// a fault of the given class.
	scenario := func(class switchsim.Fault) (func(t *testing.T) *driver.Explored, switchsim.Faults) {
		for _, s := range bugs.Scenarios() {
			for _, f := range s.Faults {
				if reflect.TypeOf(f) == reflect.TypeOf(class) {
					return func(t *testing.T) *driver.Explored { return driver.Explore(t, s.Prog, s.Rules) }, s.Faults
				}
			}
		}
		t.Fatalf("no scenario injects %T", class)
		return nil, nil
	}
	type diffCase struct {
		name   string
		setup  func(t *testing.T) *driver.Explored
		faults switchsim.Faults
		tweak  func(d *driver.Driver)
	}
	cases := []diffCase{
		{
			name: "checksum-skip",
			setup: func(t *testing.T) *driver.Explored {
				prog := p4.MustParse(driver.DriverProg)
				rs := rules.MustParse("table host {\n ipv4.dstAddr=10.0.0.1 -> fwd(3);\n}")
				return driver.Explore(t, prog, rs)
			},
			faults: switchsim.Faults{switchsim.ChecksumSkip{Header: "ipv4"}},
			tweak:  fast,
		},
		{
			name:   "setvalid-noop",
			setup:  func(t *testing.T) *driver.Explored { return driver.ExploreGW1(t) },
			faults: switchsim.Faults{switchsim.SetValidNoOp{Header: "vxlan"}},
			tweak:  fast,
		},
	}
	once := func(d *driver.Driver) { d.Retries = 0 }
	for _, c := range []struct {
		name  string
		class switchsim.Fault
		tweak func(d *driver.Driver)
	}{
		{"field-overlap", switchsim.FieldOverlap{}, fast},
		{"wrong-compare", switchsim.WrongCompare{}, fast},
		{"wrong-assign", switchsim.WrongAssign{}, fast},
		// The unmarked header swallows the payload, so mismatches quote
		// payload IDs, which retransmissions allocate window-dependently.
		{"extract-no-validity", switchsim.ExtractNoValidity{}, once},
	} {
		setup, faults := scenario(c.class)
		cases = append(cases, diffCase{name: c.name, setup: setup, faults: faults, tweak: c.tweak})
	}
	// Corrupted packets reach the target and captures reach the checker:
	// one attempt per case, so a flipped bit is never retried away. The
	// serial link makes the FaultyLink draw its faults in the same order
	// at every window. The seed's flips miss the payload's magic: a
	// capture without one is charged to the oldest open window, and which
	// window that is depends on how many are open.
	cases = append(cases, diffCase{
		name: "corrupt-link",
		setup: func(t *testing.T) *driver.Explored {
			p := programs.GW(2, programs.Set1)
			return driver.Explore(t, p.Prog, p.Rules)
		},
		tweak: func(d *driver.Driver) {
			d.Link = &serialLink{inner: driver.NewFaultyLink(d.Link, driver.LinkFaults{Seed: 24, Corrupt: 0.05})}
			d.Retries = 0
		},
	})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := c.setup(t)
			ref := driver.RunReference(t, e, c.faults, c.tweak)
			if ref.Failed == 0 {
				t.Fatal("fault produced no failures; the differential is vacuous")
			}
			want := driver.RenderReport(ref, false)
			for _, w := range driver.SweepWindows {
				got := driver.RenderReport(driver.RunWindow(t, e, c.faults, w, c.tweak), false)
				if got != want {
					t.Fatalf("window=%d report differs from lockstep\n--- lockstep ---\n%s--- engine ---\n%s", w, want, got)
				}
			}
		})
	}
}

// serialLink collects each Send's captures before the next Send, so the
// faults of the link inside it are drawn in send order whatever the
// driver's window. It answers synchronously, like the loopback.
type serialLink struct {
	inner driver.Link
	queue [][]byte
	buf   [65536]byte
}

func (l *serialLink) Send(entry int, wire []byte) error {
	err := l.inner.Send(entry, wire)
	for {
		n, ok, rerr := l.inner.Recv(l.buf[:], time.Millisecond)
		if rerr != nil || !ok {
			return err
		}
		l.queue = append(l.queue, slices.Clone(l.buf[:n]))
	}
}

func (l *serialLink) Recv(buf []byte, _ time.Duration) (int, bool, error) {
	if len(l.queue) == 0 {
		return 0, false, nil
	}
	w := l.queue[0]
	l.queue = l.queue[1:]
	return copy(buf, w), true, nil
}

func (l *serialLink) Close() error      { return l.inner.Close() }
func (l *serialLink) Synchronous() bool { return true }
