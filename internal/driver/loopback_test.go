package driver

import (
	"testing"

	"repro/internal/switchsim"
)

// A delivered capture must not stay reachable from the loopback's queue,
// and the queue must keep reusing one small backing array however long
// the run: popping by reslicing the front pinned every delivered wire
// until the next regrowth and gave a slot of capacity away per pop.
func TestLoopbackQueueReleasesDeliveredCaptures(t *testing.T) {
	e := exploreGW1(t)
	target, err := switchsim.Compile(e.prog, e.rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := New(e.prog, e.graph, nil, nil)
	var wires [][]byte
	for i, tpl := range e.templates {
		c, err := d.Concretize(tpl, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if c.SkipReason == "" && c.Expected != nil {
			wires = append(wires, c.Wire)
		}
	}
	if len(wires) < 3 {
		t.Fatalf("gw-1 suite forwards %d cases, want at least 3", len(wires))
	}
	l := NewLoopback(target)
	buf := make([]byte, 2048)
	const burst = 3
	next := 0
	round := func() {
		for i := 0; i < burst; i++ {
			if err := l.Send(0, wires[next%len(wires)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < burst; i++ {
			var ok bool
			if i%2 == 0 {
				_, ok, _ = l.RecvInto(buf, 0)
			} else {
				_, ok, _ = l.Recv(0)
			}
			if !ok {
				t.Fatalf("capture %d of a burst of %d missing", i, burst)
			}
		}
	}
	// What a round allocates is the target's: a Result and a wire per
	// packet. The queue itself must add nothing once it has grown.
	if allocs := testing.AllocsPerRun(10000, round); allocs != 2*burst {
		t.Errorf("%.2f allocations a round of %d packets, want %d: the queue is regrowing", allocs, burst, 2*burst)
	}
	if _, ok, _ := l.Recv(0); ok {
		t.Fatal("a drained queue delivered a capture")
	}
	if c := cap(l.queue); c > 2*burst {
		t.Errorf("queue capacity %d after 10000 rounds of %d, want one small reused array", c, burst)
	}
	for i, w := range l.queue[:cap(l.queue)] {
		if w != nil {
			t.Errorf("queue slot %d still holds a delivered %d-byte capture", i, len(w))
		}
	}
}

// Report.Phases must account for a clean loopback suite with one case in
// flight and with a full window: every stage saw work.
func TestReportPhases(t *testing.T) {
	e := exploreGW1(t)
	for _, window := range []int{1, DefaultWindow} {
		rep := runWindow(t, e, nil, window, nil)
		ph := rep.Phases
		if ph.Concretize <= 0 || ph.Send <= 0 || ph.Recv <= 0 || ph.Check <= 0 {
			t.Errorf("window %d: a stage recorded no time: %+v", window, ph)
		}
	}
}
