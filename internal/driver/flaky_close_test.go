package driver

import (
	"testing"
	"time"
)

// TestFaultyLinkCloseCancelsDelay: a transmission still delayed when the
// link closes never reaches the inner link, however far the clock moves
// afterwards, and a second Close is harmless.
func TestFaultyLinkCloseCancelsDelay(t *testing.T) {
	inner := &countingLink{}
	fl := NewFaultyLink(inner, LinkFaults{Seed: 1, Delay: time.Second})
	if err := fl.Send(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if fl.pending().IsZero() || inner.sends.Load() != 0 {
		t.Fatalf("the delay fault held nothing (pending %v, %d delivered); the check is vacuous",
			fl.pending(), inner.sends.Load())
	}
	for i := 1; i <= 2; i++ {
		if err := fl.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i, err)
		}
	}
	inner.clk.advance(simEpoch.Add(time.Hour))
	if _, ok, err := fl.Recv(make([]byte, 16), 0); ok || err != nil {
		t.Errorf("Recv after Close = %v, %v", ok, err)
	}
	if n := inner.sends.Load(); n != 0 {
		t.Errorf("%d transmissions reached the inner link after Close", n)
	}
	if s := fl.Stats(); s.Delayed != 0 {
		t.Errorf("delayed = %d after Close cancelled the only delay", s.Delayed)
	}
}
