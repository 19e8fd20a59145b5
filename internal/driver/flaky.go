package driver

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LinkFaults configures a FaultyLink: seeded, per-packet link noise in
// both directions. Rates are probabilities in [0, 1]; the same Seed over
// the same traffic reproduces the same fault sequence, so the checker's
// robustness is itself testable deterministically.
type LinkFaults struct {
	// Seed fixes the fault RNG; runs with equal seeds make identical
	// drop/duplicate/reorder/corrupt decisions.
	Seed int64
	// Drop loses a packet outright (applied per direction).
	Drop float64
	// Duplicate delivers a packet twice.
	Duplicate float64
	// Reorder holds an outgoing packet back and releases it behind the
	// next transmission (or at the next capture window).
	Reorder float64
	// Corrupt flips one random bit of the packet.
	Corrupt float64
	// Delay adds up to this much extra latency before each transmission.
	Delay time.Duration
}

// Active reports whether any fault is configured.
func (f LinkFaults) Active() bool {
	return f.Drop > 0 || f.Duplicate > 0 || f.Reorder > 0 || f.Corrupt > 0 || f.Delay > 0
}

// String renders the configuration compactly.
func (f LinkFaults) String() string {
	return fmt.Sprintf("drop=%.2f dup=%.2f reorder=%.2f corrupt=%.2f delay=%v seed=%d",
		f.Drop, f.Duplicate, f.Reorder, f.Corrupt, f.Delay, f.Seed)
}

// ParseLinkFaults parses a CLI fault spec of the form
// "drop=0.3,dup=0.1,reorder=0.1,corrupt=0.01,delay=5ms,seed=42".
// Unknown keys and malformed values are errors; every key is optional.
func ParseLinkFaults(s string) (LinkFaults, error) {
	var f LinkFaults
	if strings.TrimSpace(s) == "" {
		return f, nil
	}
	for _, item := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(item), "=", 2)
		if len(kv) != 2 {
			return f, fmt.Errorf("driver: link fault %q wants key=value", item)
		}
		key, val := kv[0], kv[1]
		switch key {
		case "drop", "dup", "reorder", "corrupt":
			p, err := strconv.ParseFloat(val, 64)
			// The negated comparison also rejects NaN, which compares
			// false against both bounds.
			if err != nil || !(p >= 0 && p <= 1) {
				return f, fmt.Errorf("driver: link fault %s=%q wants a probability in [0,1]", key, val)
			}
			switch key {
			case "drop":
				f.Drop = p
			case "dup":
				f.Duplicate = p
			case "reorder":
				f.Reorder = p
			case "corrupt":
				f.Corrupt = p
			}
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return f, fmt.Errorf("driver: link fault delay=%q wants a duration", val)
			}
			f.Delay = d
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return f, fmt.Errorf("driver: link fault seed=%q wants an integer", val)
			}
			f.Seed = n
		default:
			return f, fmt.Errorf("driver: unknown link fault key %q", key)
		}
	}
	return f, nil
}

// LinkStats counts the faults a FaultyLink actually injected.
type LinkStats struct {
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	Corrupted  uint64
	Delayed    uint64
}

// String renders the counters compactly.
func (s LinkStats) String() string {
	return fmt.Sprintf("dropped=%d duplicated=%d reordered=%d corrupted=%d delayed=%d",
		s.Dropped, s.Duplicated, s.Reordered, s.Corrupted, s.Delayed)
}

// FaultyLink wraps any Link and injects seeded faults — drop, duplicate,
// reorder, corrupt, delay — in both directions. It emulates the noisy
// harness cabling between the test controller and real switch hardware,
// where the link itself loses and mangles packets independently of any
// data-plane bug. The retrying driver must absorb this noise without
// reporting false failures; FaultyLink makes that property testable.
type FaultyLink struct {
	inner Link
	cfg   LinkFaults

	// closed is closed (once) by Close, cancelling any in-flight delay
	// sleep so a delayed transmission never races the inner link's
	// teardown (send-on-closed) and Close never waits out the delay.
	closed    chan struct{}
	closeOnce sync.Once

	mu    sync.Mutex
	rng   *rand.Rand
	stats LinkStats
	// heldSend is a transmission held back by a reorder fault; it is
	// released behind the next Send, or at the next Recv.
	heldSend *sendReq
	// heldRecv queues extra inbound deliveries (duplicates).
	heldRecv [][]byte
}

type sendReq struct {
	entry int
	wire  []byte
}

// NewFaultyLink wraps inner with the configured faults.
func NewFaultyLink(inner Link, cfg LinkFaults) *FaultyLink {
	return &FaultyLink{
		inner:  inner,
		cfg:    cfg,
		closed: make(chan struct{}),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Stats returns the injected-fault counters so far.
func (l *FaultyLink) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Send implements Link, subjecting the transmission to the configured
// faults before it reaches the inner link.
func (l *FaultyLink) Send(entry int, wire []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var queue []sendReq
	if l.rng.Float64() < l.cfg.Drop {
		l.stats.Dropped++
	} else {
		w := append([]byte(nil), wire...)
		if l.cfg.Corrupt > 0 && len(w) > 0 && l.rng.Float64() < l.cfg.Corrupt {
			w[l.rng.Intn(len(w))] ^= 1 << uint(l.rng.Intn(8))
			l.stats.Corrupted++
		}
		queue = append(queue, sendReq{entry, w})
		if l.rng.Float64() < l.cfg.Duplicate {
			queue = append(queue, sendReq{entry, append([]byte(nil), w...)})
			l.stats.Duplicated++
		}
	}
	// A previously held transmission goes out behind this one: reordered.
	if l.heldSend != nil {
		queue = append(queue, *l.heldSend)
		l.heldSend = nil
	}
	if len(queue) > 0 && l.rng.Float64() < l.cfg.Reorder {
		held := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		l.heldSend = &held
		l.stats.Reordered++
	}
	return l.flushLocked(queue)
}

func (l *FaultyLink) flushLocked(queue []sendReq) error {
	for _, q := range queue {
		if l.cfg.Delay > 0 {
			t := time.NewTimer(time.Duration(l.rng.Int63n(int64(l.cfg.Delay)) + 1))
			select {
			case <-t.C:
				l.stats.Delayed++
			case <-l.closed:
				// Close cancelled the delay: the link is going away, so
				// the rest of the queue is dropped, not delivered late
				// into a torn-down inner link.
				t.Stop()
				return errLinkClosed
			}
		}
		select {
		case <-l.closed:
			return errLinkClosed
		default:
		}
		if err := l.inner.Send(q.entry, q.wire); err != nil {
			return err
		}
	}
	return nil
}

// Recv implements Link: it releases any reorder-held transmission (the
// network eventually delivers it), then reads from the inner link,
// subjecting each capture to the same fault model.
func (l *FaultyLink) Recv(buf []byte, timeout time.Duration) (int, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.heldSend != nil {
		held := *l.heldSend
		l.heldSend = nil
		if err := l.flushLocked([]sendReq{held}); err != nil {
			return 0, false, err
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		if len(l.heldRecv) > 0 {
			w := l.heldRecv[0]
			l.heldRecv = l.heldRecv[1:]
			return copy(buf, w), true, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return 0, false, nil
		}
		n, ok, err := l.inner.Recv(buf, remaining)
		if err != nil || !ok {
			return 0, ok, err
		}
		if l.rng.Float64() < l.cfg.Drop {
			l.stats.Dropped++
			continue
		}
		if l.cfg.Corrupt > 0 && n > 0 && l.rng.Float64() < l.cfg.Corrupt {
			buf[l.rng.Intn(n)] ^= 1 << uint(l.rng.Intn(8))
			l.stats.Corrupted++
		}
		if l.rng.Float64() < l.cfg.Duplicate {
			l.heldRecv = append(l.heldRecv, append([]byte(nil), buf[:n]...))
			l.stats.Duplicated++
		}
		return n, true, nil
	}
}

// errLinkClosed reports a transmission abandoned because the link was
// closed while it was delayed. Idempotent Close is part of the Link
// contract, so the sentinel is internal: callers observe only the error.
var errLinkClosed = errors.New("driver: faulty link closed")

// Close implements Link. It first wakes any Send sleeping out a delay
// fault (the sleeper aborts with an error instead of transmitting into
// the closing inner link), then closes the inner link. Safe to call more
// than once.
func (l *FaultyLink) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return l.inner.Close()
}
