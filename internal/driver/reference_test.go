package driver

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/hashfn"
	"repro/internal/packet"
	"repro/internal/switchsim"
	"repro/internal/sym"
)

// The reference: the lockstep send→recv loop the product ran at
// Window <= 1 until the engine (pipeline.go) took every window. One case
// is concretized, sent, awaited and decided before the next is touched —
// a blocking Recv per attempt, a sleep per backoff, no deadline scan, no
// demux map, no template cache — which is slow and obviously right. It
// runs on the engine's clock (clockOf): on a simulated one a wait
// advances the clock instead of blocking.
// Its checker is the one the product ran before it checked slots: it
// parses each capture into a Packet and compares field maps. It is the
// oracle the engine's reports are compared with at every window; it
// shares with the product only Concretize, Parse, SpecApplies, PayloadID,
// caseBudget and the clock (clockOf, nextDelivery). Only tests build one.
type lockstep struct {
	d *Driver
	// pending holds captures demultiplexed away from the in-flight case,
	// keyed by payload ID — requeued, not discarded.
	pending map[uint64][]byte
	// buf receives each capture before it is copied out to its own slice.
	buf []byte
	// fieldOrder holds each declared header's field names, sorted, for
	// deterministic mismatch rendering without per-diff sorting.
	fieldOrder map[string][]string
}

// maxPending bounds the requeue buffer; beyond it, stale captures are
// dropped (they can only belong to already-decided cases).
const maxPending = 1024

func newLockstep(d *Driver) *lockstep {
	l := &lockstep{d: d, pending: map[uint64][]byte{}, buf: make([]byte, 65536), fieldOrder: map[string][]string{}}
	for _, h := range d.Prog.Headers {
		names := make([]string, len(h.Fields))
		for i, f := range h.Fields {
			names[i] = f.Name
		}
		sort.Strings(names)
		l.fieldOrder[h.Name] = names
	}
	return l
}

// runTemplates is RunTemplates, one case fully decided before the next is
// sent. It fills every Report field a verdict shows in; Phases and
// TimeToFirstVerdict are timings and stay zero.
func (l *lockstep) runTemplates(templates []*sym.Template) (*Report, error) {
	d := l.d
	rep := &Report{Program: d.Prog.Name}
	consecCrashes := 0
	for _, t := range templates {
		c, err := d.Concretize(t, d.allocID())
		if err != nil {
			return nil, err
		}
		if c.SkipReason != "" {
			rep.Skipped++
			rep.Skips = append(rep.Skips, c)
			continue
		}
		if rep.BreakerTripped {
			o := &Outcome{Case: c, Verdict: VerdictLost, ShortCircuited: true, Absent: true}
			rep.Outcomes = append(rep.Outcomes, o)
			rep.Lost++
			rep.ShortCircuited++
			continue
		}
		o, err := l.runCase(c)
		if err != nil {
			return nil, err
		}
		rep.Outcomes = append(rep.Outcomes, o)
		rep.Retransmissions += o.Attempts - 1
		switch o.Verdict {
		case VerdictPass:
			rep.Passed++
		case VerdictFlaky:
			rep.Flaky++
		case VerdictFail:
			rep.Failed++
		case VerdictLost:
			rep.Lost++
		}
		if o.Crashed && !o.Pass {
			consecCrashes++
		} else {
			consecCrashes = 0
		}
		if d.BreakerThreshold > 0 && consecCrashes >= d.BreakerThreshold {
			rep.BreakerTripped = true
		}
	}
	return rep, nil
}

// runCase runs one case under a per-case deadline. The retry state
// machine: attempt → (pass → Pass/Flaky) | (fail → backoff, fresh-ID
// retransmit) until retries or the deadline are exhausted; then Fail when
// target behaviour was observed, Lost when it never was.
func (l *lockstep) runCase(c *Case) (*Outcome, error) {
	d := l.d
	clk := clockOf(d.Link)
	deadline := clk.now().Add(d.caseBudget())
	// The requeue buffer only ever holds captures for the in-flight case's
	// attempts; at case end everything left is stale.
	defer clear(l.pending)

	cur := c
	backoff := d.Backoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	var last *Outcome
	observed := false // some attempt captured target behaviour
	crashed := false  // some attempt surfaced a target panic
	for attempt := 0; ; attempt++ {
		o := l.runAttempt(cur, deadline)
		o.Attempts = attempt + 1
		if !o.Absent {
			observed = true
		}
		crashed = crashed || o.Crashed
		if o.Pass {
			o.Verdict = VerdictPass
			if attempt > 0 {
				o.Verdict = VerdictFlaky
			}
			o.Crashed = crashed
			return o, nil
		}
		last = o
		if attempt >= d.Retries || !clk.now().Before(deadline) {
			break
		}
		if wake := clk.now().Add(backoff); wake.Before(deadline) {
			waitUntil(clk, wake)
		} else {
			waitUntil(clk, deadline)
			break
		}
		backoff *= 2
		// Fresh payload ID per retransmission: stale captures from the
		// previous attempt stay identifiable and never pollute this one.
		nc, err := d.Concretize(c.Template, d.allocID())
		if err != nil {
			return nil, err
		}
		if nc.SkipReason != "" {
			break
		}
		cur = nc
	}
	last.Crashed = crashed
	if !observed && !crashed && last.Case.Expected != nil {
		last.Verdict = VerdictLost
	} else {
		last.Verdict = VerdictFail
	}
	return last, nil
}

// runAttempt performs one transmission and capture. Link-level errors are
// attempt failures (retried), not run aborts.
func (l *lockstep) runAttempt(c *Case, deadline time.Time) *Outcome {
	d := l.d
	o := &Outcome{Case: c}
	if err := d.Link.Send(c.Entry, c.Wire); err != nil {
		var ce *switchsim.CrashError
		if errors.As(err, &ce) {
			o.Crashed = true
			o.Mismatches = append(o.Mismatches, err.Error())
		} else {
			o.Mismatches = append(o.Mismatches, fmt.Sprintf("send failed: %v", err))
		}
		o.Absent = true
		return o
	}

	// Receive: match by payload ID, requeueing unrelated captures instead
	// of discarding or — worse — charging them to this case.
	wire, got, err := l.recvMatching(c.ID, deadline)
	if err != nil {
		o.Mismatches = append(o.Mismatches, fmt.Sprintf("recv failed: %v", err))
		o.Absent = true
		return o
	}
	if got {
		out, perr := l.decode(wire)
		if perr != nil {
			o.Mismatches = append(o.Mismatches, fmt.Sprintf("output packet undecodable: %v", perr))
		} else {
			if id, ok := out.ID(); !ok || id != c.ID {
				o.Mismatches = append(o.Mismatches, fmt.Sprintf("output carries wrong ID (want %d)", c.ID))
			}
			o.Output = out
		}
	} else {
		o.Absent = true
	}
	l.check(o)
	return o
}

// recvMatching reads captures until one carries the wanted payload ID or
// the window closes, at the latest at the case's deadline. Captures with
// other IDs are requeued for whoever awaits them; captures with no
// identifiable ID are delivered to the in-flight case (the checker decides
// what they mean).
func (l *lockstep) recvMatching(id uint64, deadline time.Time) ([]byte, bool, error) {
	if w, ok := l.pending[id]; ok {
		delete(l.pending, id)
		return w, true, nil
	}
	clk := clockOf(l.d.Link)
	end := clk.now().Add(l.d.RecvTimeout)
	if deadline.Before(end) {
		end = deadline
	}
	for {
		remaining := end.Sub(clk.now())
		if remaining <= 0 {
			return nil, false, nil
		}
		n, got, err := l.d.Link.Recv(l.buf, remaining)
		if err != nil {
			return nil, false, err
		}
		if !got {
			if clk == nil {
				return nil, false, nil
			}
			// Nothing arrives on a simulated clock by waiting: move it
			// to the link's next delivery, or to the window's close.
			next := nextDelivery(l.d.Link)
			if next.IsZero() || next.After(end) {
				next = end
			}
			clk.advance(next)
			continue
		}
		wire := slices.Clone(l.buf[:n])
		got2, ok2 := packet.PayloadID(wire[max(len(wire)-12, 0):])
		if !ok2 || got2 == id {
			return wire, true, nil
		}
		if len(l.pending) < maxPending {
			if _, dup := l.pending[got2]; !dup {
				l.pending[got2] = wire
			}
		}
	}
}

// waitUntil sleeps until t on the wall clock (clk nil) and advances a
// simulated one to t.
func waitUntil(clk *simClock, t time.Time) {
	if clk == nil {
		time.Sleep(time.Until(t))
		return
	}
	clk.advance(t)
}

// decode re-parses a captured packet using the entry parser of the first
// pipeline (the harness's capture decoder).
func (l *lockstep) decode(wire []byte) (*packet.Packet, error) {
	d := l.d
	pl := d.Prog.Pipeline(d.entryPipeline(0))
	if pl == nil || pl.Parser == "" {
		return &packet.Packet{Payload: wire}, nil
	}
	return packet.Parse(d.Prog, pl.Parser, wire)
}

// check fills the outcome's verdict: prediction comparison, checksum
// validation, sanity checks and spec expectations, per d.Checks.
func (l *lockstep) check(o *Outcome) {
	d := l.d
	c := o.Case

	// 1. Compare against the symbolic prediction.
	if d.Checks.Prediction {
		switch {
		case c.Expected == nil && !o.Absent:
			o.Mismatches = append(o.Mismatches, "predicted drop, but a packet was captured")
		case c.Expected != nil && o.Absent:
			o.Mismatches = append(o.Mismatches, "predicted forward, but no packet was captured")
		case c.Expected != nil && o.Output != nil:
			o.Mismatches = append(o.Mismatches, l.diffPackets(c.Expected, o.Output)...)
		}
	}

	// 1b. Universal sanity checks.
	if d.Checks.Sanity && o.Output != nil {
		if _, ok := o.Output.ID(); !ok {
			o.Mismatches = append(o.Mismatches, "output payload lacks the test ID (malformed emit)")
		}
		// A forwarded IPv4 packet must not leave with TTL 0 when it
		// arrived alive.
		if outTTL, ok := o.Output.Field("ipv4", "ttl"); ok && outTTL == 0 {
			if inTTL, ok := c.Input.Field("ipv4", "ttl"); ok && inTTL > 0 {
				o.Mismatches = append(o.Mismatches, "forwarded IPv4 packet has TTL 0")
			}
		}
	}

	// 2. Validate checksums on the captured packet.
	if d.Checks.Checksums && o.Output != nil {
		for i := range d.csPlans {
			pl := &d.csPlans[i]
			at := slices.IndexFunc(o.Output.Headers, func(h packet.Header) bool { return h.Name == pl.header })
			if at < 0 {
				continue
			}
			fields := o.Output.Headers[at].Fields
			var vals []uint64
			for _, f := range d.Prog.Header(pl.header).Fields {
				if f.Name != pl.field {
					vals = append(vals, fields[f.Name])
				}
			}
			want := pl.w.Trunc(hashfn.Checksum(vals, pl.iw))
			if got := fields[pl.field]; want != got {
				o.ChecksumErrors = append(o.ChecksumErrors,
					fmt.Sprintf("%s.%s = %#x, recomputed %#x", pl.header, pl.field, got, want))
			}
		}
	}

	// 3. Evaluate intent specs whose assumptions hold for this input.
	if d.Checks.Specs {
		for _, s := range d.Specs {
			if !d.SpecApplies(s, c.Input) {
				continue
			}
			o.Violations = append(o.Violations, s.Check(d.Prog, c.Input, o.Output)...)
		}
	}

	o.Pass = len(o.Mismatches) == 0 && len(o.ChecksumErrors) == 0 && len(o.Violations) == 0
}

// diffPackets compares predicted and observed packets field by field.
// Fields diff in sorted order so a failing case reports the same
// mismatch list on every run. The sorted order per declared header is
// precomputed in newLockstep; only undeclared headers sort per call.
func (l *lockstep) diffPackets(want, got *packet.Packet) []string {
	var out []string
	for _, wh := range want.Headers {
		if !got.Has(wh.Name) {
			out = append(out, fmt.Sprintf("header %s missing from output", wh.Name))
			continue
		}
		fields := l.fieldOrder[wh.Name]
		if len(fields) != len(wh.Fields) {
			fields = make([]string, 0, len(wh.Fields))
			for f := range wh.Fields {
				fields = append(fields, f)
			}
			sort.Strings(fields)
		}
		for _, f := range fields {
			wv := wh.Fields[f]
			gv, _ := got.Field(wh.Name, f)
			if gv != wv {
				out = append(out, fmt.Sprintf("%s.%s = %d, predicted %d", wh.Name, f, gv, wv))
			}
		}
	}
	for _, gh := range got.Headers {
		if !want.Has(gh.Name) {
			out = append(out, fmt.Sprintf("unexpected header %s in output", gh.Name))
		}
	}
	return out
}
