package driver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/switchsim"
	"repro/internal/sym"
)

// The reference: the lockstep send→recv loop the product ran at
// Window <= 1 until the engine (pipeline.go) took every window. One case
// is concretized, sent, awaited and decided before the next is touched —
// a blocking Recv per attempt, a time.After per backoff, no timer wheel,
// no demux map, no template cache — which is slow and obviously right. It
// is the oracle the engine's reports are compared with at every window;
// it shares with the product only what is not scheduling: Concretize, the
// checker, wireID and caseBudget. Only tests build one.
type lockstep struct {
	d *Driver
	// pending holds captures demultiplexed away from the in-flight case,
	// keyed by payload ID — requeued, not discarded.
	pending map[uint64][]byte
}

// maxPending bounds the requeue buffer; beyond it, stale captures are
// dropped (they can only belong to already-decided cases).
const maxPending = 1024

func newLockstep(d *Driver) *lockstep {
	return &lockstep{d: d, pending: map[uint64][]byte{}}
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
	ctx, cancel := context.WithTimeout(context.Background(), d.caseBudget())
	defer cancel()
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
		o := l.runAttempt(ctx, cur)
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
		if attempt >= d.Retries || ctx.Err() != nil {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
		if ctx.Err() != nil {
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
func (l *lockstep) runAttempt(ctx context.Context, c *Case) *Outcome {
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
	wire, got, err := l.recvMatching(ctx, c.ID)
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
	d.check(o)
	return o
}

// recvMatching reads captures until one carries the wanted payload ID or
// the window closes. Captures with other IDs are requeued for whoever
// awaits them; captures with no identifiable ID are delivered to the
// in-flight case (the checker decides what they mean).
func (l *lockstep) recvMatching(ctx context.Context, id uint64) ([]byte, bool, error) {
	if w, ok := l.pending[id]; ok {
		delete(l.pending, id)
		return w, true, nil
	}
	deadline := time.Now().Add(l.d.RecvTimeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
		deadline = cd
	}
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, false, nil
		}
		wire, got, err := l.d.Link.Recv(remaining)
		if err != nil {
			return nil, false, err
		}
		if !got {
			return nil, false, nil
		}
		got2, ok2 := wireID(wire)
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
