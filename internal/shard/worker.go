package shard

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// Handler is the exploration side of a worker subprocess. The shard
// package owns the protocol; the root package owns rebuilding systems
// and running units, so the two meet at this interface.
type Handler interface {
	// Init rebuilds the system from the Hello and reports what the
	// worker computed. Init must NOT error on fingerprint or digest
	// mismatch — it reports its own values and the coordinator decides;
	// an error here means the worker cannot function at all (unparseable
	// program, journal unopenable) and aborts the process.
	Init(h *Hello) (*Ready, error)
	// RunUnit explores one unit, journaling locally, and returns its
	// completion record. heartbeat must be called with the cumulative
	// completed-path count as exploration progresses (every path is
	// fine; the serve loop rate-limits the wire traffic). An error marks
	// the unit failed without killing the worker.
	RunUnit(index int, heartbeat func(paths uint64)) (*Done, error)
}

// MetricsSource is an optional Handler extension: when implemented,
// Serve attaches the handler's cumulative registry delta to Progress
// heartbeats and Fail frames, feeding the coordinator's live fleet
// view. (Per-unit deltas on Done frames are the handler's own job — it
// snapshots around the unit it runs.)
type MetricsSource interface {
	MetricsDelta() *obs.Snapshot
}

// Serve speaks the worker protocol over (r, w) until Shutdown, EOF, or
// a fatal error. It is single-threaded: heartbeats are emitted from
// within RunUnit via the callback, so no writer lock is needed.
func Serve(r io.Reader, w io.Writer, h Handler) error {
	env, err := ReadFrame(r)
	if err != nil {
		return fmt.Errorf("shard worker: reading hello: %w", err)
	}
	if env.Kind != KindHello || env.Hello == nil {
		return fmt.Errorf("shard worker: expected hello, got frame kind %d", env.Kind)
	}
	hello := env.Hello
	ready, err := h.Init(hello)
	if err != nil {
		return fmt.Errorf("shard worker: init: %w", err)
	}
	if err := WriteFrame(w, &Envelope{Kind: KindReady, Ready: ready}); err != nil {
		return err
	}
	hbEvery := time.Duration(hello.Opts.HeartbeatNS)
	if hbEvery <= 0 {
		hbEvery = 250 * time.Millisecond
	}
	src, _ := h.(MetricsSource)
	delta := func() *obs.Snapshot {
		if src == nil {
			return nil
		}
		return src.MetricsDelta()
	}
	for {
		env, err := ReadFrame(r)
		if err == io.EOF {
			return nil // coordinator closed the pipe: clean exit
		}
		if err != nil {
			return fmt.Errorf("shard worker: %w", err)
		}
		switch env.Kind {
		case KindShutdown:
			return nil
		case KindAssign:
			a := env.Assign
			if a == nil {
				return fmt.Errorf("shard worker: empty assign frame")
			}
			lastBeat := time.Now()
			heartbeat := func(paths uint64) {
				if now := time.Now(); now.Sub(lastBeat) >= hbEvery {
					lastBeat = now
					// A failed heartbeat write means the coordinator is
					// gone; the subsequent Done write or read will fail
					// the loop, so ignore the error here.
					_ = WriteFrame(w, &Envelope{Kind: KindProgress, Progress: &Progress{Index: a.Index, Paths: paths, Metrics: delta()}})
				}
			}
			done, err := h.RunUnit(a.Index, heartbeat)
			if err != nil {
				if werr := WriteFrame(w, &Envelope{Kind: KindFail, Fail: &Fail{Index: a.Index, Key: a.Key, Msg: err.Error(), Metrics: delta()}}); werr != nil {
					return werr
				}
				continue
			}
			if err := WriteFrame(w, &Envelope{Kind: KindDone, Done: done}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("shard worker: unexpected frame kind %d", env.Kind)
		}
	}
}
