package driver

import (
	"strings"
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

// TestParseLinkFaultsErrors pins the error messages: each malformed spec
// must fail with a description naming the offending key and the expected
// form, because these surface directly as CLI errors.
func TestParseLinkFaultsErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"drop=2", "probability in [0,1]"},
		{"drop=-0.1", "probability in [0,1]"},
		{"dup=x", "probability in [0,1]"},
		{"reorder=1.01", "probability in [0,1]"},
		{"corrupt=NaN", "probability in [0,1]"},
		{"delay=5", "duration"},
		{"delay=-3ms", "duration"},
		{"seed=abc", "integer"},
		{"seed=1.5", "integer"},
		{"nope=1", "unknown link fault key"},
		{"drop", "key=value"},
		{"=0.5", "unknown link fault key"},
		{"drop=0.5,,dup=0.1", "key=value"},
		{"drop=0.2,bogus=3", "unknown link fault key"},
	}
	for _, c := range cases {
		_, err := ParseLinkFaults(c.spec)
		if err == nil {
			t.Errorf("spec %q accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

// FuzzParseLinkFaults checks that arbitrary specs never panic, that
// accepted specs always yield in-range configurations, and that parsing
// is deterministic.
func FuzzParseLinkFaults(f *testing.F) {
	f.Add("drop=0.3,dup=0.1,reorder=0.2,corrupt=0.05,delay=5ms,seed=42")
	f.Add("")
	f.Add("drop=1")
	f.Add("delay=1h,seed=-9")
	f.Add("drop=0.0,drop=1.0")
	f.Add(",")
	f.Add("a=b=c")
	f.Fuzz(func(t *testing.T, spec string) {
		lf, err := ParseLinkFaults(spec)
		lf2, err2 := ParseLinkFaults(spec)
		if (err == nil) != (err2 == nil) || lf != lf2 {
			t.Fatalf("non-deterministic parse of %q", spec)
		}
		if err != nil {
			return
		}
		for _, p := range []float64{lf.Drop, lf.Duplicate, lf.Reorder, lf.Corrupt} {
			if p < 0 || p > 1 {
				t.Fatalf("accepted out-of-range probability %v from %q", p, spec)
			}
		}
		if lf.Delay < 0 {
			t.Fatalf("accepted negative delay %v from %q", lf.Delay, spec)
		}
	})
}
