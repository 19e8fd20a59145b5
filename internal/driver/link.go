// Package driver implements Meissa's test driver (§4 of the paper): a
// sender that concretizes test case templates into packets, a receiver
// that captures the target's output, and a checker that validates
// checksums, relates packets by their unique payload IDs, compares the
// actual output against the symbolic prediction, and evaluates the
// developer's intent (spec) — reporting passed and failed test cases.
package driver

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/switchsim"
)

// Link transports test packets to a switch under test and captures its
// output. Implementations: Loopback (in-process) and UDPLink (real
// sockets to a UDPSwitch, mirroring a lab harness port).
type Link interface {
	// Send injects a wire packet at the given entry point.
	Send(entry int, wire []byte) error
	// Recv captures one output packet into the caller's buf, waiting up
	// to timeout, so a steady receive stream reuses one buffer. n is the
	// capture length (n <= len(buf); longer captures are truncated, like
	// a short pcap snaplen). ok=false means nothing was captured (the
	// packet was dropped or lost).
	Recv(buf []byte, timeout time.Duration) (n int, ok bool, err error)
	// Close releases the link.
	Close() error
}

// SyncLink marks links whose captures are delivered synchronously by
// Send (the in-process loopback): once Recv reports an empty queue,
// every outstanding capture has already arrived, so the engine closes
// capture windows immediately instead of waiting out RecvTimeout.
type SyncLink interface {
	Synchronous() bool
}

// Loopback connects the driver directly to an in-process target. Send is
// the target's trace-free line-rate inject; Replay is the traced one.
type Loopback struct {
	target *switchsim.Target
	clk    simClock // what a drive over the loopback schedules on
	mu     sync.Mutex
	// The undelivered captures lie back to back in arena, the target
	// deparsing straight into it: capture i ends at ends[i] and starts
	// where capture i-1 ends (at 0 for the first). ends[head:] are not yet
	// delivered. A delivery copies out, and a drained queue rewinds both
	// to reuse them from the start, so a steady stream allocates nothing.
	arena []byte
	ends  []int
	head  int
}

// NewLoopback returns a loopback link to the target.
func NewLoopback(t *switchsim.Target) *Loopback { return &Loopback{target: t} }

// Synchronous implements SyncLink: loopback captures are enqueued by Send
// itself.
func (l *Loopback) Synchronous() bool { return true }

// clock makes the loopback run on a simulated clock: nothing on it takes
// time, so a drive only waits out the deadlines it sets itself.
func (l *Loopback) clock() *simClock { return &l.clk }

// Send implements Link. The target deparses straight to wire bytes,
// skipping the trace and the intermediate Packet nothing here reads.
func (l *Loopback) Send(entry int, wire []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	out, dropped, err := l.target.InjectQuietAppend(l.arena, entry, wire)
	if err != nil || dropped {
		return err
	}
	l.arena = out
	l.ends = append(l.ends, len(out))
	return nil
}

// pop takes the oldest undelivered capture off the queue. What it returns
// aliases the arena: copy it out before the lock is released.
func (l *Loopback) pop() ([]byte, bool) {
	if l.head == len(l.ends) {
		return nil, false
	}
	start := 0
	if l.head > 0 {
		start = l.ends[l.head-1]
	}
	out := l.arena[start:l.ends[l.head]]
	l.head++
	if l.head == len(l.ends) {
		l.arena, l.ends, l.head = l.arena[:0], l.ends[:0], 0
	}
	return out, true
}

// Recv implements Link.
func (l *Loopback) Recv(buf []byte, timeout time.Duration) (int, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out, ok := l.pop()
	return copy(buf, out), ok, nil
}

// Replay re-executes a wire packet through the target with tracing on
// and returns the execution trace, without enqueueing the capture for
// Recv. Bug localization uses this to obtain the physical trace of a
// specific failing case after the run, which retains none.
func (l *Loopback) Replay(entry int, wire []byte) *switchsim.Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	res, err := l.target.Inject(entry, wire)
	if err != nil {
		return nil
	}
	return res
}

// Close implements Link.
func (l *Loopback) Close() error { return nil }

// --- UDP transport ---

// UDPSwitch serves a target over UDP: each datagram is
// [1-byte entry index | wire packet]; outputs are sent back to the
// sender's address. It emulates attaching the test harness to switch
// front-panel ports.
//
// The switch is hardened against a hostile harness: a per-packet panic in
// the target is recovered and counted as a crash rather than killing the
// serve loop, transient socket errors are counted and served through, and
// concurrent packet handling is bounded by a fixed worker pool with an
// overload queue that sheds excess load (counted as drops, like real
// hardware back-pressure). Close drains queued packets before releasing
// the socket.
type UDPSwitch struct {
	target *switchsim.Target
	conn   *net.UDPConn
	// readerWG tracks the socket reader; workerWG the handler pool.
	readerWG sync.WaitGroup
	workerWG sync.WaitGroup
	work     chan datagram
	closed   chan struct{}
	once     sync.Once
	closeErr error

	// injectMu serializes target execution: the simulated pipeline holds
	// persistent register state and is not reentrant.
	injectMu sync.Mutex

	crashes, dropped, errs atomic.Uint64
}

type datagram struct {
	entry int
	wire  []byte
	// pooled, when non-nil, is returned to dgramPool after handling.
	pooled *[]byte
	peer   *net.UDPAddr
}

// udpWorkers bounds concurrent packet handling; udpBacklog bounds queued
// datagrams beyond which the switch sheds load.
const (
	udpWorkers = 4
	udpBacklog = 256
)

// ServeUDP starts a UDP switch on addr (e.g. "127.0.0.1:0") and returns
// it; Addr reports the bound address.
func ServeUDP(target *switchsim.Target, addr string) (*UDPSwitch, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("driver: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("driver: listen: %w", err)
	}
	s := &UDPSwitch{
		target: target,
		conn:   conn,
		work:   make(chan datagram, udpBacklog),
		closed: make(chan struct{}),
	}
	s.readerWG.Add(1)
	go s.read()
	for i := 0; i < udpWorkers; i++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for d := range s.work {
				s.handle(d)
			}
		}()
	}
	return s, nil
}

// Addr returns the switch's bound UDP address.
func (s *UDPSwitch) Addr() string { return s.conn.LocalAddr().String() }

// Crashes counts packets whose processing panicked in the target.
func (s *UDPSwitch) Crashes() uint64 { return s.crashes.Load() }

// Dropped counts packets that produced no reply: data-plane drops,
// malformed datagrams, and load shed by the bounded queue.
func (s *UDPSwitch) Dropped() uint64 { return s.dropped.Load() }

// Errors counts inject, marshal, read and write errors absorbed while
// serving.
func (s *UDPSwitch) Errors() uint64 { return s.errs.Load() }

// read pulls datagrams off the socket into the bounded work queue. It
// never exits on a transient error — only on Close (or the socket dying
// underneath it), after which it closes the queue so workers drain.
// dgramPool recycles datagram wire buffers between the socket reader and
// the handler workers: at line rate the switch allocates no per-packet
// buffer in steady state.
var dgramPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

func (s *UDPSwitch) read() {
	defer s.readerWG.Done()
	defer close(s.work)
	buf := make([]byte, 65536)
	for {
		n, peer, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			// Transient socket error: count it and keep serving.
			s.errs.Add(1)
			continue
		}
		if n < 1 {
			s.dropped.Add(1)
			continue
		}
		wp := dgramPool.Get().(*[]byte)
		*wp = append((*wp)[:0], buf[1:n]...)
		d := datagram{entry: int(buf[0]), wire: *wp, pooled: wp, peer: peer}
		select {
		case s.work <- d:
		default:
			// Queue full: shed load like an oversubscribed ingress port.
			dgramPool.Put(wp)
			s.dropped.Add(1)
		}
	}
}

// handle processes one datagram: inject, marshal, reply. Target panics
// are recovered (twice over: Inject recovers its own, and this guards the
// worker against everything else) and counted as crashes. The quiet
// inject is used unconditionally: nothing ever reads traces on the UDP
// path, and the trace-free interpreter is several times faster.
func (s *UDPSwitch) handle(d datagram) {
	res, err := func() (res *switchsim.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, fmt.Errorf("driver: packet handler panicked: %v", r)
				s.crashes.Add(1)
			}
		}()
		s.injectMu.Lock()
		defer s.injectMu.Unlock()
		return s.target.InjectQuietWire(d.entry, d.wire)
	}()
	if d.pooled != nil {
		// The inject fully consumed the wire bytes (parse copies); the
		// buffer can go back to the pool.
		dgramPool.Put(d.pooled)
	}
	if err != nil {
		var ce *switchsim.CrashError
		if errors.As(err, &ce) {
			s.crashes.Add(1)
		} else {
			s.errs.Add(1)
		}
		return
	}
	if res.Dropped {
		s.dropped.Add(1) // dropped: nothing comes back, like real hardware
		return
	}
	if _, err := s.conn.WriteToUDP(res.Wire, d.peer); err != nil {
		s.errs.Add(1)
	}
}

// Close shuts the switch down gracefully: it stops the reader, lets the
// workers drain every queued packet (replies still flush over the open
// socket), then releases the socket. Safe to call more than once.
func (s *UDPSwitch) Close() error {
	s.once.Do(func() {
		close(s.closed)
		// Unblock the reader without tearing the socket down yet.
		s.conn.SetReadDeadline(time.Now())
		s.readerWG.Wait()
		s.workerWG.Wait()
		s.closeErr = s.conn.Close()
	})
	return s.closeErr
}

// UDPLink is the driver side of a UDP transport.
type UDPLink struct {
	conn *net.UDPConn
}

// DialUDP connects to a UDPSwitch.
func DialUDP(addr string) (*UDPLink, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("driver: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("driver: dial: %w", err)
	}
	return &UDPLink{conn: conn}, nil
}

// Send implements Link.
func (l *UDPLink) Send(entry int, wire []byte) error {
	if entry < 0 || entry > 255 {
		return fmt.Errorf("driver: entry %d out of range", entry)
	}
	buf := append([]byte{byte(entry)}, wire...)
	_, err := l.conn.Write(buf)
	return err
}

// Recv implements Link: the socket read lands directly in the caller's
// buffer. It waits at least 200 µs: a read deadline already past reports
// a timeout without looking at the socket's queue.
func (l *UDPLink) Recv(buf []byte, timeout time.Duration) (int, bool, error) {
	if err := l.conn.SetReadDeadline(time.Now().Add(max(timeout, 200*time.Microsecond))); err != nil {
		return 0, false, err
	}
	n, err := l.conn.Read(buf)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return 0, false, nil
		}
		return 0, false, err
	}
	return n, true, nil
}

// Close implements Link.
func (l *UDPLink) Close() error { return l.conn.Close() }
