package driver

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingLink is a thread-safe inner link that records every delivered
// payload. FaultyLink serializes inner calls under its own mutex, but the
// test reads counters from the main goroutine, so everything is atomic or
// mutex-guarded anyway. It runs on a simulated clock, which only the test
// goroutine advances.
type countingLink struct {
	sends atomic.Uint64
	mu    sync.Mutex
	wires [][]byte
	clk   simClock
}

func (c *countingLink) clock() *simClock { return &c.clk }

func (c *countingLink) Send(entry int, wire []byte) error {
	c.sends.Add(1)
	c.mu.Lock()
	c.wires = append(c.wires, append([]byte(nil), wire...))
	c.mu.Unlock()
	return nil
}

func (c *countingLink) Recv([]byte, time.Duration) (int, bool, error) { return 0, false, nil }
func (c *countingLink) Close() error                                  { return nil }

// TestFaultyLinkConcurrentCounters hammers one FaultyLink from many
// goroutines (run under -race in CI) and asserts the injected-fault
// counters exactly explain the delta between what was sent and what the
// inner link observed: delivered = sent - dropped + duplicated, and every
// actually-transmitted packet passed through the delay fault.
func TestFaultyLinkConcurrentCounters(t *testing.T) {
	inner := &countingLink{}
	fl := NewFaultyLink(inner, LinkFaults{
		Seed:      99,
		Drop:      0.25,
		Duplicate: 0.25,
		Reorder:   0.25,
		Delay:     10 * time.Microsecond,
	})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 16)
			for i := 0; i < per; i++ {
				binary.BigEndian.PutUint64(buf, uint64(w))
				binary.BigEndian.PutUint64(buf[8:], uint64(i))
				if err := fl.Send(0, buf); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// A reorder fault may still be holding the final transmission, and
	// every transmission is delayed: each Recv delivers what is due (the
	// network eventually delivers), and the clock moves on to the next
	// delivery, as the engine's idle wait does, until none is held.
	for buf := make([]byte, 64); ; {
		if _, _, err := fl.Recv(buf, 0); err != nil {
			t.Fatal(err)
		}
		next := fl.pending()
		if next.IsZero() {
			break
		}
		inner.clk.advance(next)
	}
	st := fl.Stats()
	sent := uint64(workers * per)
	wantDelivered := sent - st.Dropped + st.Duplicated
	if got := inner.sends.Load(); got != wantDelivered {
		t.Fatalf("inner link saw %d packets; counters say %d (sent %d - dropped %d + duplicated %d)",
			got, wantDelivered, sent, st.Dropped, st.Duplicated)
	}
	if st.Delayed != wantDelivered {
		t.Fatalf("delayed = %d, want one delay per delivered packet (%d)", st.Delayed, wantDelivered)
	}
	if st.Dropped == 0 || st.Duplicated == 0 || st.Reordered == 0 {
		t.Fatalf("expected every configured fault to fire at these rates: %s", st)
	}
	if st.Corrupted != 0 {
		t.Fatalf("corrupted = %d with corruption disabled", st.Corrupted)
	}
}

// parityPayload builds the (w, i) payload with even bit-parity. Sent
// payloads all having even parity means a one-bit corruption flip always
// produces a packet outside the sent set — no corrupted packet can
// masquerade as a different valid payload, whatever the goroutine
// schedule paired with the seeded fault sequence.
func parityPayload(w, i uint64) []byte {
	wire := make([]byte, 16)
	binary.BigEndian.PutUint64(wire, w)
	binary.BigEndian.PutUint64(wire[8:], i)
	if (bits.OnesCount64(w)+bits.OnesCount64(i))%2 == 1 {
		wire[0] = 1
	}
	return wire
}

// TestFaultyLinkCorruptionCounter isolates the corrupt fault (no drops or
// duplicates): the corrupted counter must equal the number of delivered
// packets that are not in the sent set.
func TestFaultyLinkCorruptionCounter(t *testing.T) {
	inner := &countingLink{}
	fl := NewFaultyLink(inner, LinkFaults{Seed: 5, Corrupt: 0.3})
	const workers, per = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := fl.Send(0, parityPayload(uint64(w), uint64(i))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := fl.Stats()
	if got := inner.sends.Load(); got != workers*per {
		t.Fatalf("inner link saw %d packets, want %d (no drop/dup configured)", got, workers*per)
	}
	sent := map[string]bool{}
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			sent[string(parityPayload(uint64(w), uint64(i)))] = true
		}
	}
	inner.mu.Lock()
	var mangled uint64
	for _, wire := range inner.wires {
		if !sent[string(wire)] {
			mangled++
		}
	}
	inner.mu.Unlock()
	if mangled != st.Corrupted {
		t.Fatalf("observed %d mangled packets, counter says %d", mangled, st.Corrupted)
	}
	if st.Corrupted == 0 {
		t.Fatal("corruption never fired at rate 0.3 over 400 packets")
	}
}
