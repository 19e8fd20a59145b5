package driver

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// closeTrackLink records when it was closed and when the last Send
// landed, so a test can detect transmissions delivered into a
// torn-down link.
type closeTrackLink struct {
	mu       sync.Mutex
	closedAt time.Time
	lastSend time.Time
	sends    int
}

func (l *closeTrackLink) Send(entry int, wire []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastSend = time.Now()
	l.sends++
	return nil
}

func (l *closeTrackLink) Recv([]byte, time.Duration) (int, bool, error) {
	return 0, false, nil
}

func (l *closeTrackLink) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closedAt = time.Now()
	return nil
}

// TestFaultyLinkCloseCancelsDelay is the regression test for the
// delay-fault teardown race: before the fix, a Send sleeping out a delay
// fault would wake after Close and transmit into the torn-down inner
// link (for channel-backed links, a send-on-closed panic), and Close
// could not interrupt the sleep. Now Close wakes the sleeper, which
// aborts with an error, and nothing is delivered late.
func TestFaultyLinkCloseCancelsDelay(t *testing.T) {
	inner := &closeTrackLink{}
	// Delay up to 2s per transmission: without cancellation the sender
	// goroutine would keep delivering for seconds after Close.
	fl := NewFaultyLink(inner, LinkFaults{Seed: 1, Delay: 2 * time.Second})

	done := make(chan error, 1)
	go func() {
		for {
			if err := fl.Send(0, []byte{1, 2, 3}); err != nil {
				done <- err
				return
			}
		}
	}()

	time.Sleep(100 * time.Millisecond) // let the sender enter a delay sleep
	closeStart := time.Now()
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(closeStart); d > 500*time.Millisecond {
		t.Fatalf("Close blocked %v waiting out a delay fault", d)
	}

	var sendErr error
	select {
	case sendErr = <-done:
	case <-time.After(time.Second):
		t.Fatal("sender goroutine still running 1s after Close (leaked)")
	}
	if sendErr == nil {
		t.Fatal("Send after Close returned nil")
	}
	if !strings.Contains(sendErr.Error(), "closed") {
		t.Errorf("Send error %q does not mention the closed link", sendErr)
	}

	// Nothing may land in the inner link after teardown settles. (A send
	// already past its delay when Close fires may race Close itself by a
	// hair; one sleeping out a delay must never be delivered.)
	time.Sleep(300 * time.Millisecond)
	inner.mu.Lock()
	lastSend, closedAt := inner.lastSend, inner.closedAt
	inner.mu.Unlock()
	if !lastSend.IsZero() && lastSend.After(closedAt.Add(100*time.Millisecond)) {
		t.Errorf("transmission delivered %v after Close", lastSend.Sub(closedAt))
	}

	// Close is idempotent.
	if err := fl.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestFaultyLinkCloseUnblocksRecvFlush covers the other delay path: a
// reorder-held transmission flushed from Recv also aborts on Close
// instead of sleeping on.
func TestFaultyLinkSendAfterCloseErrors(t *testing.T) {
	fl := NewFaultyLink(&closeTrackLink{}, LinkFaults{Seed: 1, Delay: time.Second})
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := fl.Send(0, []byte{7})
	if err == nil {
		t.Fatal("Send on a closed link succeeded")
	}
	if !errors.Is(err, errLinkClosed) {
		t.Errorf("err = %v, want errLinkClosed", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("Send on closed link slept %v before failing", d)
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
