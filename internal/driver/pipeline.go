package driver

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/hashfn"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/switchsim"
	"repro/internal/sym"
)

// DefaultWindow is the default in-flight window: how many cases may have
// open capture windows or pending backoffs at once. One window's worth of
// cases is concretized, burst-transmitted, and decided as captures drain
// back, so the link never idles between cases.
const DefaultWindow = 256

// The engine is a single-coordinator event loop: exactly one
// goroutine admits, sends, drains, demultiplexes, and finalizes. Every
// Driver and Report field — nextID, the Report counters, the outcome
// slots — is touched only by that goroutine, which is why none of them
// need atomics; the obs counters it shares with other subsystems are
// already atomic. The concurrency lives in the link (a UDPSwitch's
// worker pool), never in the driver.
//
// A case's pending deadline lives on the case, not in per-case goroutines
// or timers: each turn one pass over the at most Window cases the engine
// holds fires the due ones, and an idle loop waits for the earliest.
//
// Every due, deadline and backoff, and every delivery a link holds back
// (nextDelivery; the tests' fault-injecting link delays some), is a time
// on one clock, the link's (clockOf). In-process links run on a simulated
// clock, which the idle loop advances to the earliest pending event, so a
// drive over them is a function of its inputs and seed; UDP runs on the
// wall clock. Phases, TimeToFirstVerdict and the case latency are
// measurements, on the wall clock on every link.

// simClock is a discrete-event clock: simEpoch (not the zero Time, which
// means "none") plus what it was advanced by. nil is the wall clock.
type simClock struct{ elapsed time.Duration }

var simEpoch = time.Unix(0, 0)

func (c *simClock) now() time.Time {
	if c == nil {
		return time.Now()
	}
	return simEpoch.Add(c.elapsed)
}

// advance moves the clock forward to t; it never moves back.
func (c *simClock) advance(t time.Time) { c.elapsed = max(c.elapsed, t.Sub(simEpoch)) }

// clockOf is the clock a link runs on: an in-process link's simulated one.
func clockOf(l Link) *simClock {
	if c, ok := l.(interface{ clock() *simClock }); ok {
		return c.clock()
	}
	return nil
}

// nextDelivery is when the link next delivers a transmission it holds.
func nextDelivery(l Link) time.Time {
	if h, ok := l.(interface{ pending() time.Time }); ok {
		return h.pending()
	}
	return time.Time{}
}

// pstate is an in-flight case's position in the retry state machine.
type pstate uint8

const (
	psIdle     pstate = iota // on the freelist / transiently unlinked
	psAwaiting               // transmitted, capture window open
	psBackoff                // failed attempt, waiting to retransmit
)

// pcase is the engine-side state of one in-flight case. Instances are
// pooled on a freelist: the steady-state loop admits, retries and
// finalizes cases without allocating engine machinery.
type pcase struct {
	idx      int // template slot; fixes Report ordering regardless of completion order
	tmpl     *sym.Template
	cc       *concretized // tmpl's cached concretization, which the checker reads
	cur      *Case        // current attempt (fresh payload ID per retransmission)
	last     *Outcome     // most recent failed attempt, reported on exhaustion
	attempt  int
	backoff  time.Duration
	start    time.Time // admission wall time (case latency metric)
	deadline time.Time // end-to-end case budget (caseBudget)
	// due is the case's one pending deadline: the capture window's close
	// while psAwaiting, the retransmission time while psBackoff.
	due      time.Time
	seq      uint64 // transmission order, for oldest-awaiting routing
	state    pstate
	observed bool // some attempt captured target behaviour
	crashed  bool // some attempt surfaced a target panic
}

// --- engine ---

type engine struct {
	d    *Driver
	sync bool      // link answers before Send returns (loopback)
	clk  *simClock // the scheduling clock (clockOf); nil is the wall clock
	// cases holds every pcase the engine has made, in flight or on the
	// freelist: never more than the window.
	cases []*pcase
	// idMap demultiplexes captures to their awaiting case by payload ID: a
	// late capture of another case is that case's, never charged to
	// whichever window is open. A capture whose ID maps to nothing belongs
	// to a superseded attempt and is dropped.
	idMap   map[uint64]*pcase
	free    []*pcase
	burst   []*pcase // reused: one admission burst's cases (admit)
	scratch []*pcase // reused iteration buffer (dueCases)
	routed  []routed // reused: one drain's decoded captures, awaiting the checker
	outs    []*Outcome
	skips   []*Case
	recvBuf []byte
	// dec is the capture decoder, the first pipeline's entry parser; nil
	// when it has none, and a capture is all payload. nslots is the
	// length of a capture's slot vector (p4.VarTable.HeaderSlots).
	dec    *packet.Decoder
	nslots int
	// The per-drain arena route decodes into and the checker reads:
	// each capture's wire copy, slot vector and header order are
	// subslices, reset (not freed) after every drain.
	wires    []byte
	slots    []uint64
	order    []int
	inflight int
	done     int
	seq      uint64
	rep      *Report
	start    time.Time // wall clock, for TimeToFirstVerdict
	firstSet bool
	err      error // deferred fatal error (Concretize failure mid-retry)
	// consecCrashes tracks the crash streak in finalization order; once
	// it reaches BreakerThreshold the breaker trips and un-admitted
	// templates short-circuit to Lost (in-flight cases still finish).
	consecCrashes int
}

// routed is a capture delivered to its case; got is valid when decoded.
type routed struct {
	pc      *pcase
	o       *Outcome
	got     capture
	decoded bool
}

// capture is a decoded capture in the drain's arena: the wire, its header
// slots and header order (packet.Decoder.Decode), and its payload.
type capture struct {
	wire    []byte
	slots   []uint64
	order   []int
	payload []byte
}

// RunTemplates concretizes and executes every template, returning the
// aggregated report. It keeps up to Window cases in flight: a burst of
// sends tops the window up, a drain loop routes every available capture
// to its case, and the cases whose capture window or backoff has expired
// fire. Window changes the scheduling only, never a verdict:
// reference_test.go holds every window to the one-case-at-a-time loop.
func (d *Driver) RunTemplates(templates []*sym.Template) (*Report, error) {
	window := max(d.Window, 1) // a window of 0 would never admit a case
	eng := &engine{
		d:       d,
		idMap:   make(map[uint64]*pcase, window),
		outs:    make([]*Outcome, len(templates)),
		skips:   make([]*Case, len(templates)),
		recvBuf: make([]byte, 65536),
		rep:     &Report{Program: d.Prog.Name},
		start:   time.Now(),
		clk:     clockOf(d.Link),
	}
	if s, ok := d.Link.(SyncLink); ok && s.Synchronous() {
		eng.sync = true
	}
	if pl := d.Prog.Pipeline(d.entryPipeline(0)); pl != nil && pl.Parser != "" {
		dec, err := packet.NewDecoder(d.Prog, pl.Parser)
		if err != nil {
			return nil, fmt.Errorf("driver: %w", err)
		}
		eng.dec = dec
	}
	eng.nslots = p4.Vars(d.Prog).HeaderSlots()
	if d.Checks.Specs {
		for _, s := range d.Specs {
			if _, err := d.assumeConstraints(s); err != nil {
				return nil, fmt.Errorf("driver: spec %s: %w", s.Name, err)
			}
		}
	}
	if !slices.Equal(d.cacheSpecs, d.Specs) {
		d.tmplCache, d.cacheSpecs = nil, slices.Clone(d.Specs)
	}
	d.phases = Phases{}

	next := 0
	for eng.done < len(templates) {
		progress := false
		// 1. Admission burst: top the window up, one send per case. A
		// tripped breaker short-circuits the whole remainder instead
		// (short-circuited cases hold no window slot).
		if took, err := eng.admit(templates, next, window); err != nil {
			return nil, err
		} else if took > 0 {
			next += took
			progress = true
		}
		// 2. Drain every capture already available.
		if eng.drain(0) {
			progress = true
		}
		// 3. Fire the cases whose capture window or backoff has expired.
		if due := eng.dueCases(eng.clk.now()); len(due) > 0 {
			for _, pc := range due {
				eng.fire(pc)
			}
			progress = true
		}
		if eng.err != nil {
			return nil, eng.err
		}
		// 4. Idle until the earliest pending event.
		if !progress && eng.done < len(templates) {
			if err := eng.idle(); err != nil {
				return nil, err
			}
		}
	}

	for _, o := range eng.outs {
		if o != nil {
			eng.rep.Outcomes = append(eng.rep.Outcomes, o)
		}
	}
	for _, c := range eng.skips {
		if c != nil {
			eng.rep.Skips = append(eng.rep.Skips, c)
		}
	}
	eng.rep.Phases = d.phases
	return eng.rep, nil
}

// idle waits for the earliest pending event, a case's deadline or a
// delivery the link holds back: a simulated clock jumps to it, and on the
// wall clock a blocking recv waits, so an early capture wakes the loop.
func (eng *engine) idle() error {
	wake := eng.nextDue()
	if t := nextDelivery(eng.d.Link); !t.IsZero() && (wake.IsZero() || t.Before(wake)) {
		wake = t
	}
	switch {
	case wake.IsZero(): // an in-flight case always holds a deadline
		return errors.New("driver: engine idle with no pending event")
	case eng.clk != nil:
		eng.clk.advance(wake)
		return nil
	}
	// Some links report "nothing" immediately instead of honouring the
	// timeout; sleep a bounded slice then so the idle wait never degrades
	// into a spin.
	if wait := time.Until(wake); wait > 0 && !eng.drain(wait) {
		time.Sleep(min(time.Until(wake), time.Millisecond))
	}
	return nil
}

func (eng *engine) getPcase() *pcase {
	if n := len(eng.free); n > 0 {
		pc := eng.free[n-1]
		eng.free = eng.free[:n-1]
		return pc
	}
	pc := &pcase{}
	eng.cases = append(eng.cases, pc)
	return pc
}

func (eng *engine) putPcase(pc *pcase) {
	pc.tmpl, pc.cc, pc.cur, pc.last = nil, nil, nil, nil
	pc.state = psIdle
	eng.free = append(eng.free, pc)
}

// admit tops the window up from templates[next:] and returns how many
// templates it took. It runs in stages, each timed by one clock reading:
// concretize the burst, then send it, then open the capture windows. A
// window opens from the engine clock's reading after the last send, so
// none closes earlier than if each case read the clock after its own send.
func (eng *engine) admit(templates []*sym.Template, next, window int) (int, error) {
	d := eng.d
	d.startClock()
	burst := eng.burst[:0]
	i := next
	for ; i < len(templates) && (eng.rep.BreakerTripped || eng.inflight+len(burst) < window); i++ {
		c, cc, err := d.concretizeFast(templates[i], d.allocID())
		switch {
		case err != nil:
			return 0, err
		case c.SkipReason != "":
			eng.skips[i] = c
			eng.rep.Skipped++
			eng.done++
		case eng.rep.BreakerTripped:
			eng.shortCircuit(i, c)
		default:
			pc := eng.getPcase()
			pc.idx, pc.tmpl, pc.cc, pc.cur = i, templates[i], cc, c
			burst = append(burst, pc)
		}
	}
	start := d.lap(&d.phases.Concretize)
	deadline := eng.clk.now().Add(d.caseBudget())
	sent := burst[:0]
	for _, pc := range burst {
		if eng.rep.BreakerTripped { // a crash earlier in this burst tripped it
			eng.shortCircuit(pc.idx, pc.cur)
			eng.putPcase(pc)
			continue
		}
		pc.last = nil
		pc.attempt = 0
		pc.backoff = d.Backoff
		if pc.backoff <= 0 {
			pc.backoff = time.Millisecond
		}
		pc.start, pc.deadline = start, deadline
		pc.observed, pc.crashed = false, false
		eng.inflight++
		if eng.transmit(pc) {
			sent = append(sent, pc)
		}
	}
	d.lap(&d.phases.Send)
	now := eng.clk.now()
	for _, pc := range sent {
		eng.openWindow(pc, now)
	}
	clear(burst)
	eng.burst = burst[:0]
	return i - next, nil
}

// shortCircuit records a case as Lost without transmitting it: the crash
// breaker decided the target is gone, so burning the full retry budget
// per case would only stall the suite.
func (eng *engine) shortCircuit(idx int, c *Case) {
	eng.outs[idx] = &Outcome{Case: c, Verdict: VerdictLost, ShortCircuited: true, Absent: true}
	eng.rep.Lost++
	eng.rep.ShortCircuited++
	eng.done++
}

// transmit sends the case's current attempt. A send error fails the
// attempt immediately without a capture window and without running the
// checker. Link-level errors are attempt failures (retried), not run
// aborts: resilience against a noisy harness is the point.
func (eng *engine) transmit(pc *pcase) bool {
	c := pc.cur
	err := eng.d.Link.Send(c.Entry, c.Wire)
	if err != nil {
		o := &Outcome{Case: c}
		var ce *switchsim.CrashError
		if errors.As(err, &ce) {
			o.Crashed = true
			o.Mismatches = append(o.Mismatches, err.Error())
		} else {
			o.Mismatches = append(o.Mismatches, fmt.Sprintf("send failed: %v", err))
		}
		o.Absent = true
		eng.attemptDone(pc, o)
		return false
	}
	pc.seq = eng.seq
	eng.seq++
	return true
}

// openWindow opens a transmitted case's capture window as of now. On a
// synchronous link the window closes the instant it opens: a capture Send
// queued is read by the drain that precedes the due scan, or never.
func (eng *engine) openWindow(pc *pcase, now time.Time) {
	pc.state = psAwaiting
	pc.due = now
	if !eng.sync {
		pc.due = now.Add(eng.d.RecvTimeout)
		if pc.due.After(pc.deadline) {
			pc.due = pc.deadline
		}
	}
	eng.idMap[pc.cur.ID] = pc
}

// unwatch closes a case's capture window and removes its demux entry.
func (eng *engine) unwatch(pc *pcase) {
	delete(eng.idMap, pc.cur.ID)
	pc.state = psIdle
}

// drain pulls captures from the link and routes each to its case.
// timeout applies only to the first read (a block-until-event wait);
// subsequent reads never block, so one call empties the link. The drain
// is a batch of two stages — every capture received and decoded, then
// every one checked — so the stage clock is read once a stage, not once
// a capture; verdicts are recorded last, in arrival order.
func (eng *engine) drain(timeout time.Duration) bool {
	d := eng.d
	d.startClock()
	got := false
	var recvErr error
	for recvErr == nil {
		n, ok, err := d.Link.Recv(eng.recvBuf, timeout)
		timeout = 0
		if err != nil {
			recvErr = err
		} else if !ok {
			break
		} else {
			got = true
			eng.route(eng.recvBuf[:n])
		}
	}
	d.lap(&d.phases.Recv)
	for i := range eng.routed {
		r := &eng.routed[i]
		var got *capture
		if r.decoded {
			got = &r.got
		}
		eng.check(r.o, r.pc.cc, got)
	}
	d.lap(&d.phases.Check)
	for i, r := range eng.routed {
		eng.attemptDone(r.pc, r.o)
		eng.routed[i] = routed{}
	}
	eng.routed = eng.routed[:0]
	eng.wires, eng.slots, eng.order = eng.wires[:0], eng.slots[:0], eng.order[:0]
	if recvErr != nil {
		eng.chargeRecvError(recvErr)
		return true
	}
	return got
}

// route delivers one capture. ID-carrying captures go to their awaiting
// case (the paper's sender/receiver correlation) or are dropped as stale.
// Unidentifiable captures are charged to the oldest open window; the
// checker decides what they mean. The capture is decoded into the drain's
// arena and waits in eng.routed for the drain's check stage. Marshal puts
// the payload last, so a test capture's ID is its last 12 bytes' and no
// parse is needed to route it.
func (eng *engine) route(wire []byte) {
	id, ok := packet.PayloadID(wire[max(len(wire)-12, 0):])
	var pc *pcase
	if ok {
		pc = eng.idMap[id]
	} else {
		pc = eng.oldestAwaiting()
	}
	if pc == nil {
		return
	}
	eng.unwatch(pc)
	r := routed{pc: pc, o: &Outcome{Case: pc.cur}}
	if err := eng.decode(wire, &r.got); err != nil {
		r.o.Mismatches = append(r.o.Mismatches, fmt.Sprintf("output packet undecodable: %v", err))
	} else {
		r.decoded = true
		if oid, ok := packet.PayloadID(r.got.payload); !ok || oid != pc.cur.ID {
			r.o.Mismatches = append(r.o.Mismatches, fmt.Sprintf("output carries wrong ID (want %d)", pc.cur.ID))
		}
	}
	eng.routed = append(eng.routed, r)
}

// decode copies a capture into the drain's arena — the link may reuse
// its buffer before the check stage runs — and decodes it there.
func (eng *engine) decode(wire []byte, got *capture) error {
	w0 := len(eng.wires)
	eng.wires = append(eng.wires, wire...)
	s0 := len(eng.slots)
	eng.slots = slices.Grow(eng.slots, eng.nslots)[:s0+eng.nslots]
	got.wire, got.slots = eng.wires[w0:], eng.slots[s0:]
	if eng.dec == nil {
		clear(got.slots)
		got.payload = got.wire
		return nil
	}
	o0 := len(eng.order)
	var err error
	eng.order, got.payload, err = eng.dec.Decode(got.wire, got.slots, eng.order)
	got.order = eng.order[o0:]
	return err
}

// output builds a capture's Packet (nil for none).
func (eng *engine) output(got *capture) *packet.Packet {
	switch {
	case got == nil:
		return nil
	case eng.dec == nil:
		return &packet.Packet{Payload: append([]byte(nil), got.payload...)}
	}
	return eng.dec.Packet(got.wire, got.slots, got.order, got.payload)
}

// check fills the outcome's verdict from the capture's slots (got, nil
// when absent or undecodable) and the template's cached prediction cc:
// prediction comparison, sanity checks, checksum validation and spec
// expectations, per d.Checks. Output is built only for a spec to read or
// for an attempt that fails.
func (eng *engine) check(o *Outcome, cc *concretized, got *capture) {
	d := eng.d
	if d.Checks.Prediction {
		switch {
		case cc.exp == nil && !o.Absent:
			o.Mismatches = append(o.Mismatches, "predicted drop, but a packet was captured")
		case cc.exp != nil && o.Absent:
			o.Mismatches = append(o.Mismatches, "predicted forward, but no packet was captured")
		case cc.exp != nil && got != nil:
			o.Mismatches = d.diffSlots(o.Mismatches, cc.exp, got)
		}
	}

	if d.Checks.Sanity && got != nil {
		if _, ok := packet.PayloadID(got.payload); !ok {
			o.Mismatches = append(o.Mismatches, "output payload lacks the test ID (malformed emit)")
		}
		// A forwarded IPv4 packet must not leave with TTL 0 when it
		// arrived alive.
		if d.ttl.ok && got.slots[d.ttl.valid] == 1 && got.slots[d.ttl.slot] == 0 && cc.inTTLAlive {
			o.Mismatches = append(o.Mismatches, "forwarded IPv4 packet has TTL 0")
		}
	}

	if d.Checks.Checksums && got != nil {
		for i := range d.csPlans {
			pl := &d.csPlans[i]
			if got.slots[pl.valid] == 0 {
				continue
			}
			vals := d.csScratch[:0]
			for _, s := range pl.inSlots {
				vals = append(vals, got.slots[s])
			}
			d.csScratch = vals[:0]
			want := pl.w.Trunc(hashfn.Checksum(vals, pl.iw))
			if g := got.slots[pl.slot]; want != g {
				o.ChecksumErrors = append(o.ChecksumErrors,
					fmt.Sprintf("%s.%s = %#x, recomputed %#x", pl.header, pl.field, g, want))
			}
		}
	}

	if d.Checks.Specs && len(cc.specs) > 0 {
		o.Output = eng.output(got)
		for _, s := range cc.specs {
			o.Violations = append(o.Violations, s.Check(d.Prog, o.Case.Input, o.Output)...)
		}
	}

	o.Pass = len(o.Mismatches) == 0 && len(o.ChecksumErrors) == 0 && len(o.Violations) == 0
	if !o.Pass && o.Output == nil {
		o.Output = eng.output(got)
	}
}

// diffSlots appends the differences between a predicted output (exp) and
// a capture: each predicted header in declaration order, missing or
// field by field in name order, then each captured header the prediction
// lacks, in wire order.
func (d *Driver) diffSlots(out []string, exp []uint64, got *capture) []string {
	for i := range d.hdrs {
		h := &d.hdrs[i]
		if exp[h.valid] == 0 {
			continue
		}
		if got.slots[h.valid] == 0 {
			out = append(out, fmt.Sprintf("header %s missing from output", h.name))
			continue
		}
		for j, s := range h.slots {
			if gv, wv := got.slots[s], exp[s]; gv != wv {
				out = append(out, fmt.Sprintf("%s.%s = %d, predicted %d", h.name, h.fields[j], gv, wv))
			}
		}
	}
	for _, hi := range got.order {
		if h := &d.hdrs[hi]; exp[h.valid] == 0 {
			out = append(out, fmt.Sprintf("unexpected header %s in output", h.name))
		}
	}
	return out
}

func (eng *engine) oldestAwaiting() *pcase {
	var best *pcase
	for _, pc := range eng.cases {
		if pc.state == psAwaiting && (best == nil || pc.seq < best.seq) {
			best = pc
		}
	}
	return best
}

// chargeRecvError fails the oldest awaiting case's attempt with the link
// error, without running the checker.
func (eng *engine) chargeRecvError(err error) {
	pc := eng.oldestAwaiting()
	if pc == nil {
		return
	}
	eng.unwatch(pc)
	o := &Outcome{Case: pc.cur}
	o.Mismatches = append(o.Mismatches, fmt.Sprintf("recv failed: %v", err))
	o.Absent = true
	eng.attemptDone(pc, o)
}

// dueCases lists every case whose deadline is not after now in (due, seq)
// order, so the order cases finalize in — and with it the breaker's crash
// streak and the payload IDs retransmissions draw — is the same on every
// run. The list is eng.scratch: fire the cases before the next call. A
// case a firing reschedules waits for the next turn's list.
func (eng *engine) dueCases(now time.Time) []*pcase {
	eng.scratch = eng.scratch[:0]
	for _, pc := range eng.cases {
		if pc.state != psIdle && !pc.due.After(now) {
			eng.scratch = append(eng.scratch, pc)
		}
	}
	slices.SortFunc(eng.scratch, func(a, b *pcase) int {
		return cmp.Or(a.due.Compare(b.due), cmp.Compare(a.seq, b.seq))
	})
	return eng.scratch
}

// nextDue returns the earliest pending deadline, zero when none is.
func (eng *engine) nextDue() time.Time {
	var best time.Time
	for _, pc := range eng.cases {
		if pc.state != psIdle && (best.IsZero() || pc.due.Before(best)) {
			best = pc.due
		}
	}
	return best
}

// closeWindow ends an open capture window with no packet; the absent
// attempt still runs the checker (a predicted drop passes here).
func (eng *engine) closeWindow(pc *pcase) {
	eng.unwatch(pc)
	o := &Outcome{Case: pc.cur}
	o.Absent = true
	eng.check(o, pc.cc, nil)
	eng.attemptDone(pc, o)
}

// fire handles a timer expiry: an awaiting case's capture window closed,
// or a backoff elapsed and the case retransmits with a fresh payload ID.
func (eng *engine) fire(pc *pcase) {
	d := eng.d
	d.startClock()
	switch pc.state {
	case psAwaiting:
		eng.closeWindow(pc)
		d.lap(&d.phases.Check)
	case psBackoff:
		if !eng.clk.now().Before(pc.deadline) {
			eng.finalizeFail(pc)
			return
		}
		pc.backoff = doubled(pc.backoff)
		pc.attempt++
		nc, _, err := d.concretizeFast(pc.tmpl, d.allocID())
		if err != nil {
			eng.err = err
			return
		}
		d.lap(&d.phases.Concretize)
		if nc.SkipReason != "" {
			// A retransmission that no longer concretizes ends the case
			// with its last observed failure.
			eng.finalizeFail(pc)
			return
		}
		pc.cur = nc
		ok := eng.transmit(pc)
		d.lap(&d.phases.Send)
		if ok {
			eng.openWindow(pc, eng.clk.now())
		}
	}
}

// attemptDone is the retry state machine, one transition per completed
// attempt: pass → Pass/Flaky; fail → backoff and a fresh-ID retransmit
// (stale captures of the earlier attempt stay identifiable), until
// retries or the case deadline are exhausted.
func (eng *engine) attemptDone(pc *pcase, o *Outcome) {
	d := eng.d
	o.Attempts = pc.attempt + 1
	if !o.Absent {
		pc.observed = true
	}
	pc.crashed = pc.crashed || o.Crashed
	if o.Pass {
		o.Verdict = VerdictPass
		if pc.attempt > 0 {
			o.Verdict = VerdictFlaky
		}
		o.Crashed = pc.crashed
		eng.finalize(pc, o)
		return
	}
	pc.last = o
	now := eng.clk.now()
	if pc.attempt >= d.Retries || !now.Before(pc.deadline) {
		eng.finalizeFail(pc)
		return
	}
	pc.state = psBackoff
	pc.due = now.Add(pc.backoff)
	if pc.due.After(pc.deadline) {
		pc.due = pc.deadline
	}
}

// finalizeFail reports the last failed attempt once retries are
// exhausted: Lost when the target was never observed on a case that
// expected a capture, Fail otherwise.
func (eng *engine) finalizeFail(pc *pcase) {
	last := pc.last
	last.Crashed = pc.crashed
	if !pc.observed && !pc.crashed && last.Case.Expected != nil {
		last.Verdict = VerdictLost
	} else {
		last.Verdict = VerdictFail
	}
	eng.finalize(pc, last)
}

// finalize records a case's verdict in its template slot and recycles
// the engine state.
func (eng *engine) finalize(pc *pcase, o *Outcome) {
	eng.rep.CaseLatency.Observe(uint64(time.Since(pc.start)))
	eng.outs[pc.idx] = o
	if !eng.firstSet {
		eng.firstSet = true
		eng.rep.TimeToFirstVerdict = time.Since(eng.start)
	}
	eng.rep.Retransmissions += o.Attempts - 1
	switch o.Verdict {
	case VerdictPass:
		eng.rep.Passed++
	case VerdictFlaky:
		eng.rep.Flaky++
	case VerdictFail:
		eng.rep.Failed++
	case VerdictLost:
		eng.rep.Lost++
	}
	if o.Crashed && !o.Pass {
		eng.consecCrashes++
	} else {
		eng.consecCrashes = 0
	}
	if eng.d.BreakerThreshold > 0 && eng.consecCrashes >= eng.d.BreakerThreshold && !eng.rep.BreakerTripped {
		eng.rep.BreakerTripped = true
	}
	eng.done++
	eng.inflight--
	eng.putPcase(pc)
}
