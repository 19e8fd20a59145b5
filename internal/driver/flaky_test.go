package driver

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// scriptLink records sends and serves a scripted capture queue.
type scriptLink struct {
	sent  [][]byte
	queue [][]byte
}

func (s *scriptLink) Send(entry int, wire []byte) error {
	s.sent = append(s.sent, append([]byte(nil), wire...))
	return nil
}

func (s *scriptLink) Recv(buf []byte, timeout time.Duration) (int, bool, error) {
	if len(s.queue) == 0 {
		return 0, false, nil
	}
	w := s.queue[0]
	s.queue = s.queue[1:]
	return copy(buf, w), true, nil
}

func (s *scriptLink) Close() error { return nil }

// exercise drives a FaultyLink through a fixed op sequence and returns a
// transcript of what the inner link saw and what Recv delivered.
func exercise(cfg LinkFaults) string {
	inner := &scriptLink{}
	for i := 0; i < 8; i++ {
		inner.queue = append(inner.queue, bytes.Repeat([]byte{byte(0x40 + i)}, 24))
	}
	fl := NewFaultyLink(inner, cfg)
	var log bytes.Buffer
	for i := 0; i < 8; i++ {
		fl.Send(0, bytes.Repeat([]byte{byte(i + 1)}, 24))
	}
	buf := make([]byte, 64)
	for i := 0; i < 24; i++ {
		n, ok, _ := fl.Recv(buf, time.Millisecond)
		fmt.Fprintf(&log, "recv %v %x\n", ok, buf[:n])
	}
	for i, w := range inner.sent {
		fmt.Fprintf(&log, "sent %d %x\n", i, w)
	}
	fmt.Fprintf(&log, "stats %s\n", fl.Stats())
	return log.String()
}

// TestFaultyLinkDeterminism: the same seed must reproduce the exact same
// fault decisions — that is what makes a shaken CI run debuggable.
func TestFaultyLinkDeterminism(t *testing.T) {
	cfg := LinkFaults{Seed: 7, Drop: 0.3, Duplicate: 0.3, Reorder: 0.3, Corrupt: 0.2}
	a, b := exercise(cfg), exercise(cfg)
	if a != b {
		t.Fatalf("same seed diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	cfg.Seed = 8
	if c := exercise(cfg); c == a {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestFaultyLinkPassthrough: an all-zero config is a transparent wire.
func TestFaultyLinkPassthrough(t *testing.T) {
	inner := &scriptLink{queue: [][]byte{{9, 9, 9}}}
	fl := NewFaultyLink(inner, LinkFaults{Seed: 1})
	want := []byte{1, 2, 3}
	if err := fl.Send(0, want); err != nil {
		t.Fatal(err)
	}
	if len(inner.sent) != 1 || !bytes.Equal(inner.sent[0], want) {
		t.Fatalf("passthrough mangled the wire: %x", inner.sent)
	}
	buf := make([]byte, 64)
	n, ok, err := fl.Recv(buf, time.Millisecond)
	if err != nil || !ok || !bytes.Equal(buf[:n], []byte{9, 9, 9}) {
		t.Fatalf("passthrough recv = %x %v %v", buf[:n], ok, err)
	}
	s := fl.Stats()
	if s.Dropped+s.Duplicated+s.Reordered+s.Corrupted+s.Delayed != 0 {
		t.Errorf("clean link reported injected faults: %s", s)
	}
}

func TestParseLinkFaults(t *testing.T) {
	lf, err := ParseLinkFaults("drop=0.3,dup=0.1,reorder=0.2,corrupt=0.05,delay=5ms,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if lf.Drop != 0.3 || lf.Duplicate != 0.1 || lf.Reorder != 0.2 ||
		lf.Corrupt != 0.05 || lf.Delay != 5*time.Millisecond || lf.Seed != 42 {
		t.Fatalf("parsed %+v", lf)
	}
	if !lf.Active() {
		t.Error("parsed spec should be active")
	}
	if empty, err := ParseLinkFaults(""); err != nil || empty.Active() {
		t.Errorf("empty spec: %+v, %v", empty, err)
	}
	for _, bad := range []string{"drop=2", "drop=-0.1", "dup=x", "delay=5", "nope=1", "drop"} {
		if _, err := ParseLinkFaults(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestFaultyLinkRecvZeroTimeoutReadsInner: a zero-timeout Recv still reads
// the inner link once, so a capture already queued there is delivered
// instead of the link reporting itself empty.
func TestFaultyLinkRecvZeroTimeoutReadsInner(t *testing.T) {
	inner := &scriptLink{}
	fl := NewFaultyLink(inner, LinkFaults{Seed: 1})
	if err := fl.Send(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	inner.queue = append(inner.queue, []byte{9, 9, 9}) // the target's answer
	buf := make([]byte, 64)
	n, ok, err := fl.Recv(buf, 0)
	if err != nil || !ok || !bytes.Equal(buf[:n], []byte{9, 9, 9}) {
		t.Fatalf("Recv(buf, 0) with a capture queued = %x, %v, %v", buf[:n], ok, err)
	}
}

// TestFaultyLinkDelayIsLatency: a delayed transmission waits on the inner
// link's clock, not in Send. It reaches the inner link on the first Send
// or Recv after its delivery time, and pending reports that time while
// it is held.
func TestFaultyLinkDelayIsLatency(t *testing.T) {
	inner := &countingLink{}
	const delay = 10 * time.Millisecond
	fl := NewFaultyLink(inner, LinkFaults{Seed: 3, Delay: delay})
	for i := byte(1); i <= 3; i++ {
		if err := fl.Send(0, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	if n := inner.sends.Load(); n != 0 {
		t.Fatalf("%d delayed transmissions delivered before the clock moved", n)
	}
	first := fl.pending()
	if first.IsZero() || first.After(simEpoch.Add(delay)) {
		t.Fatalf("pending = %v, want within %v of the epoch", first, delay)
	}
	buf := make([]byte, 16)
	inner.clk.advance(first.Add(-1))
	fl.Recv(buf, 0)
	if n := inner.sends.Load(); n != 0 {
		t.Fatalf("%d transmissions delivered before their time", n)
	}
	inner.clk.advance(first)
	fl.Recv(buf, 0)
	if n := inner.sends.Load(); n == 0 {
		t.Fatal("the earliest transmission was not delivered at its time")
	}
	inner.clk.advance(simEpoch.Add(delay))
	fl.Recv(buf, 0)
	if n, s := inner.sends.Load(), fl.Stats(); n != 3 || s.Delayed != 3 || !fl.pending().IsZero() {
		t.Fatalf("after the longest delay: %d delivered, %s, pending %v", n, s, fl.pending())
	}
}
