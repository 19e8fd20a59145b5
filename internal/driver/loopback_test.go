package driver

import (
	"bytes"
	"testing"

	"repro/internal/switchsim"
)

// The loopback's captures live in one arena that the target deparses into
// and a drained queue rewinds: a round of sends and receives allocates
// nothing once the arena has grown, the arena's capacity stays that of
// one burst however long the run, and each capture comes back intact in
// the caller's buffer, which later sends must not overwrite.
func TestLoopbackQueueReleasesDeliveredCaptures(t *testing.T) {
	e := exploreGW1(t)
	target, err := switchsim.Compile(e.prog, e.rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := New(e.prog, e.graph, nil, nil)
	var wires, want [][]byte
	for i, tpl := range e.templates {
		c, err := d.Concretize(tpl, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if c.SkipReason == "" && c.Expected != nil {
			res, err := target.InjectQuietWire(c.Entry, c.Wire)
			if err != nil || res.Dropped {
				t.Fatalf("case %d: %v, dropped %v", i, err, res != nil && res.Dropped)
			}
			wires, want = append(wires, c.Wire), append(want, res.Wire)
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
		first := next
		for i := 0; i < burst; i++ {
			if err := l.Send(0, wires[next%len(wires)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < burst; i++ {
			n, ok, _ := l.Recv(buf, 0)
			if w := want[(first+i)%len(want)]; !ok || !bytes.Equal(buf[:n], w) {
				t.Fatalf("capture %d of a burst of %d: %x (%v), want %x", i, burst, buf[:n], ok, w)
			}
		}
	}
	round() // the arena grows to a burst
	if allocs := testing.AllocsPerRun(10000, round); allocs != 0 {
		t.Errorf("%.2f allocations a round of %d packets, want 0", allocs, burst)
	}
	if _, ok, _ := l.Recv(buf, 0); ok {
		t.Fatal("a drained queue delivered a capture")
	}
	if len(l.arena) != 0 || len(l.ends) != 0 || l.head != 0 {
		t.Fatalf("a drained queue did not rewind: arena %d bytes, %d ends, head %d", len(l.arena), len(l.ends), l.head)
	}
	widest := 0
	for _, w := range want {
		widest = max(widest, len(w))
	}
	if c := cap(l.arena); c > 2*burst*widest {
		t.Errorf("arena capacity %d after 10000 rounds of %d captures of at most %d bytes, want one small reused arena", c, burst, widest)
	}

	// A capture is the caller's: the sends that refill the arena leave it be.
	first := next
	for i := 0; i < burst; i++ {
		if err := l.Send(0, wires[(first+i)%len(wires)]); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	for i := 0; i < burst; i++ {
		w := make([]byte, 2048)
		n, ok, _ := l.Recv(w, 0)
		if !ok {
			t.Fatalf("capture %d of a burst of %d missing", i, burst)
		}
		got = append(got, w[:n])
	}
	round()
	for i, w := range got {
		if !bytes.Equal(w, want[(first+i)%len(want)]) {
			t.Errorf("Recv capture %d changed after later sends: %x", i, w)
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
