package driver

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
	// Delay adds up to this much latency to each transmission, on the
	// inner link's clock: simulated over the loopback, real over UDP.
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
	rates := map[string]*float64{"drop": &f.Drop, "dup": &f.Duplicate, "reorder": &f.Reorder, "corrupt": &f.Corrupt}
	for _, item := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(item), "=", 2)
		if len(kv) != 2 {
			return f, fmt.Errorf("driver: link fault %q wants key=value", item)
		}
		key, val := kv[0], kv[1]
		switch rate := rates[key]; {
		case rate != nil:
			p, err := strconv.ParseFloat(val, 64)
			// The negated comparison also rejects NaN, which compares
			// false against both bounds.
			if err != nil || !(p >= 0 && p <= 1) {
				return f, fmt.Errorf("driver: link fault %s=%q wants a probability in [0,1]", key, val)
			}
			*rate = p
		case key == "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return f, fmt.Errorf("driver: link fault delay=%q wants a duration", val)
			}
			f.Delay = d
		case key == "seed":
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
//
// A delay is latency, not a wait: the transmission is held until a time
// on the inner link's clock (simulated over the loopback), the first Send
// or Recv after it delivers it, and the engine's idle wait wakes for it.
type FaultyLink struct {
	inner Link
	cfg   LinkFaults
	clk   *simClock // the inner link's clock (clockOf); nil is the wall clock

	mu    sync.Mutex
	rng   *rand.Rand
	stats LinkStats
	// heldSend is a transmission held back by a reorder fault; it is
	// released behind the next Send, or at the next Recv.
	heldSend *sendReq
	// delayed holds the transmissions not yet delivered, in delivery-time
	// order (ties in the order they were scheduled).
	delayed []sendReq
	// heldRecv queues extra inbound deliveries (duplicates).
	heldRecv [][]byte
}

type sendReq struct {
	entry int
	wire  []byte
	at    time.Time // delivery time, once scheduled
}

// NewFaultyLink wraps inner with the configured faults.
func NewFaultyLink(inner Link, cfg LinkFaults) *FaultyLink {
	return &FaultyLink{
		inner: inner,
		cfg:   cfg,
		clk:   clockOf(inner),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Stats returns the injected-fault counters so far.
func (l *FaultyLink) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// clock makes a drive over the link run on the inner link's clock.
func (l *FaultyLink) clock() *simClock { return l.clk }

// pending is when the earliest delayed transmission falls due, zero when
// none is held.
func (l *FaultyLink) pending() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.delayed) == 0 {
		return time.Time{}
	}
	return l.delayed[0].at
}

// Send implements Link, subjecting the transmission to the configured
// faults before it reaches the inner link.
func (l *FaultyLink) Send(entry int, wire []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clk.now()
	var queue []sendReq
	if l.rng.Float64() < l.cfg.Drop {
		l.stats.Dropped++
	} else {
		w := append([]byte(nil), wire...)
		if l.cfg.Corrupt > 0 && len(w) > 0 && l.rng.Float64() < l.cfg.Corrupt {
			w[l.rng.Intn(len(w))] ^= 1 << uint(l.rng.Intn(8))
			l.stats.Corrupted++
		}
		queue = append(queue, sendReq{entry: entry, wire: w})
		if l.rng.Float64() < l.cfg.Duplicate {
			queue = append(queue, sendReq{entry: entry, wire: append([]byte(nil), w...)})
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
	for _, q := range queue {
		l.schedule(q, now)
	}
	return l.release(now)
}

// schedule holds a transmission until its delivery time: now, plus a
// random delay of up to cfg.Delay.
func (l *FaultyLink) schedule(q sendReq, now time.Time) {
	q.at = now
	if l.cfg.Delay > 0 {
		q.at = now.Add(time.Duration(l.rng.Int63n(int64(l.cfg.Delay)) + 1))
	}
	i := sort.Search(len(l.delayed), func(i int) bool { return l.delayed[i].at.After(q.at) })
	l.delayed = slices.Insert(l.delayed, i, q)
}

// release delivers, in delivery-time order, every held transmission whose
// time has come. An inner error stops it; the rest stay held.
func (l *FaultyLink) release(now time.Time) error {
	for len(l.delayed) > 0 && !l.delayed[0].at.After(now) {
		q := l.delayed[0]
		l.delayed = l.delayed[1:]
		if l.cfg.Delay > 0 {
			l.stats.Delayed++
		}
		if err := l.inner.Send(q.entry, q.wire); err != nil {
			return err
		}
	}
	return nil
}

// Recv implements Link: it releases any reorder-held transmission (the
// network eventually delivers it) and every delayed one now due, then
// reads from the inner link, subjecting each capture to the same fault
// model. The inner link is read at least once whatever the timeout, and
// only the first read waits: no longer than until the next delayed
// transmission falls due, so the caller's next Recv delivers it.
func (l *FaultyLink) Recv(buf []byte, timeout time.Duration) (int, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clk.now()
	if l.heldSend != nil {
		l.schedule(*l.heldSend, now)
		l.heldSend = nil
	}
	if err := l.release(now); err != nil {
		return 0, false, err
	}
	if len(l.delayed) > 0 {
		timeout = min(timeout, l.delayed[0].at.Sub(now))
	}
	for ; ; timeout = 0 {
		if len(l.heldRecv) > 0 {
			w := l.heldRecv[0]
			l.heldRecv = l.heldRecv[1:]
			return copy(buf, w), true, nil
		}
		n, ok, err := l.inner.Recv(buf, timeout)
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

// Close implements Link. A transmission still held — delayed, or behind a
// reorder — goes down with the link: none reaches the inner link after it
// is closed. Close is as idempotent as the inner link's.
func (l *FaultyLink) Close() error {
	l.mu.Lock()
	l.delayed, l.heldSend = nil, nil
	l.mu.Unlock()
	return l.inner.Close()
}
