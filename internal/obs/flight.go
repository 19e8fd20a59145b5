package obs

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
)

// The flight recorder: a fixed-size lock-free ring of structured events
// the process keeps in memory, served at /flight. Every event is a 64-byte
// slot written with plain atomic stores.
//
// The append path is wait-free and allocation-free: one atomic
// fetch-add to claim a sequence number, six atomic stores to fill the
// slot, and a final store of seq+1 that publishes it (a zero seq word
// marks a slot as unwritten or in-flight). Readers run a seqlock-style
// validation: load the seq word, copy the slot, re-load the seq word,
// and discard the record if the two reads disagree or the sequence does
// not map to this slot index.

// FlightKind identifies the event type of one flight-recorder slot.
type FlightKind uint32

// Flight-recorder event kinds. The A/B/C payload words are
// kind-specific; the conventional meanings are noted per kind.
const (
	FlightNone FlightKind = iota
	// Journal activity. A = record count where meaningful.
	FlightJournalOpen
	FlightJournalSync
	// FlightStoreCommit: a store transaction committed. A = txid, B = the file's bytes after it.
	FlightStoreCommit
	// FlightBreakerTrip: the driver's target-crash circuit breaker fired.
	// A = consecutive losses.
	FlightBreakerTrip
	// FlightBudgetExhausted: a solver query was cut off by its budget.
	FlightBudgetExhausted
	// FlightPanic: a recovered (or re-raised) panic. A = path depth where known.
	FlightPanic

	flightKindCount // sentinel
)

var flightKindNames = [...]string{
	FlightNone:            "none",
	FlightJournalOpen:     "journal_open",
	FlightJournalSync:     "journal_sync",
	FlightStoreCommit:     "store_commit",
	FlightBreakerTrip:     "breaker_trip",
	FlightBudgetExhausted: "budget_exhausted",
	FlightPanic:           "panic",
}

// String returns the stable wire name of the kind.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return fmt.Sprintf("kind_%d", uint32(k))
}

// MarshalJSON encodes the kind as its stable name.
func (k FlightKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// FlightEvent is one decoded flight-recorder slot.
type FlightEvent struct {
	Seq    uint64     `json:"seq"`
	UnixNS int64      `json:"unix_ns"`
	Kind   FlightKind `json:"kind"`
	A      uint64     `json:"a,omitempty"`
	B      uint64     `json:"b,omitempty"`
	C      uint64     `json:"c,omitempty"`
}

// Slot geometry: each slot is 64 bytes (8 words), one cache line, so
// concurrent appenders touching adjacent slots do not false-share.
const (
	flightSlotWords = 8

	// Slot word indexes. fsSeq holds seq+1 and is stored last (release):
	// zero means unwritten or in-flight.
	fsSeq  = 0
	fsTime = 1
	fsKind = 2
	fsA    = 3
	fsB    = 4
	fsC    = 5
)

// flightSlots is the process recorder's ring size: 256 events × 64 bytes
// = 16 KiB.
const flightSlots = 256

// FlightRing is a fixed-size lock-free event ring. The zero value is not
// usable; construct with NewFlightRing.
type FlightRing struct {
	next  atomic.Uint64 // next sequence number; the fetch-add claim point
	slots uint64
	words []uint64 // slots × flightSlotWords
}

// NewFlightRing returns a ring with the given slot count (rounded up to 1).
func NewFlightRing(slots int) *FlightRing {
	if slots < 1 {
		slots = 1
	}
	return &FlightRing{slots: uint64(slots), words: make([]uint64, slots*flightSlotWords)}
}

// Record appends one event. Wait-free, zero allocations: safe on any
// hot path. Concurrent appends that lap the ring may overwrite each
// other's slots — the recorder is deliberately lossy-oldest.
func (r *FlightRing) Record(kind FlightKind, a, b, c uint64) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	seq := r.next.Add(1) - 1
	s := int(seq%r.slots) * flightSlotWords
	// Invalidate, fill, publish. The final store of seq+1 is what makes
	// the slot visible; a reader that observes any other seq word (0, or
	// a different lap) discards the slot.
	atomic.StoreUint64(&r.words[s+fsSeq], 0)
	atomic.StoreUint64(&r.words[s+fsTime], uint64(now))
	atomic.StoreUint64(&r.words[s+fsKind], uint64(kind))
	atomic.StoreUint64(&r.words[s+fsA], a)
	atomic.StoreUint64(&r.words[s+fsB], b)
	atomic.StoreUint64(&r.words[s+fsC], c)
	atomic.StoreUint64(&r.words[s+fsSeq], seq+1)
}

// Len returns the number of events ever recorded (not the retained count).
func (r *FlightRing) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Events decodes the currently-retained events in sequence order,
// skipping slots torn by a concurrent appender or overwritten by a later
// lap: each slot is re-validated after copying (seqlock read).
func (r *FlightRing) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	next := r.next.Load()
	out := make([]FlightEvent, 0, r.slots)
	lo := uint64(0)
	if next > r.slots {
		lo = next - r.slots
	}
	for seq := lo; seq < next; seq++ {
		s := int(seq%r.slots) * flightSlotWords
		if atomic.LoadUint64(&r.words[s+fsSeq]) != seq+1 {
			continue // unwritten, in-flight, or overwritten by a later lap
		}
		ev := FlightEvent{
			Seq:    seq,
			UnixNS: int64(atomic.LoadUint64(&r.words[s+fsTime])),
			Kind:   FlightKind(atomic.LoadUint64(&r.words[s+fsKind])),
			A:      atomic.LoadUint64(&r.words[s+fsA]),
			B:      atomic.LoadUint64(&r.words[s+fsB]),
			C:      atomic.LoadUint64(&r.words[s+fsC]),
		}
		if atomic.LoadUint64(&r.words[s+fsSeq]) != seq+1 {
			continue // torn by a concurrent appender mid-copy
		}
		out = append(out, ev)
	}
	return out
}

// flight is the process-wide recorder every RecordFlight call appends to,
// so library code can record unconditionally.
var flight = NewFlightRing(flightSlots)

// Flight returns the process-wide flight recorder.
func Flight() *FlightRing { return flight }

// RecordFlight appends one event to the process-wide recorder.
// Wait-free, zero allocations.
func RecordFlight(kind FlightKind, a, b, c uint64) { flight.Record(kind, a, b, c) }
