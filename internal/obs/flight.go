package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// The crash flight recorder: a fixed-size lock-free ring of structured
// events that survives SIGKILL. Every event is a 64-byte slot written
// with plain atomic stores into a shared-memory region — either a heap
// buffer (the in-process default) or an mmap'd MAP_SHARED file. Because
// mmap'd stores land in the kernel page cache immediately, a worker
// killed with SIGKILL still leaves its last ringSlots events readable by
// the coordinator from the file, with no syncs on the append path.
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
	// FlightUnitStart/Done/Fail: a shard worker began/finished/failed a
	// frontier unit. A = unit index, B = paths explored (Done), C = unit key.
	FlightUnitStart
	FlightUnitDone
	FlightUnitFail
	// Lease lifecycle on the coordinator. A = unit index, B = worker gen.
	FlightLeaseIssued
	FlightLeaseExpired
	FlightLeaseCompleted
	// FlightQuarantine: a unit hit MaxAssign failures. A = unit index.
	FlightQuarantine
	// Worker supervision. A = worker gen, B = slot id.
	FlightWorkerSpawn
	FlightWorkerDead
	// FlightChaosKill: an injected SIGKILL. A = worker gen, B = completed units.
	FlightChaosKill
	// Journal activity. A = record count where meaningful.
	FlightJournalOpen
	FlightJournalSync
	// FlightJournalCompact is no longer recorded; it keeps its number
	// because a flight file records kinds by number.
	FlightJournalCompact
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
	FlightUnitStart:       "unit_start",
	FlightUnitDone:        "unit_done",
	FlightUnitFail:        "unit_fail",
	FlightLeaseIssued:     "lease_issued",
	FlightLeaseExpired:    "lease_expired",
	FlightLeaseCompleted:  "lease_completed",
	FlightQuarantine:      "quarantine",
	FlightWorkerSpawn:     "worker_spawn",
	FlightWorkerDead:      "worker_dead",
	FlightChaosKill:       "chaos_kill",
	FlightJournalOpen:     "journal_open",
	FlightJournalSync:     "journal_sync",
	FlightJournalCompact:  "journal_compact",
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

// UnmarshalJSON accepts both the stable name and a bare integer (older
// or foreign encoders).
func (k *FlightKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		for i, n := range flightKindNames {
			if n == s {
				*k = FlightKind(i)
				return nil
			}
		}
		*k = FlightNone
		return nil
	}
	var n uint32
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	*k = FlightKind(n)
	return nil
}

// FlightEvent is one decoded flight-recorder slot.
type FlightEvent struct {
	Seq    uint64     `json:"seq"`
	UnixNS int64      `json:"unix_ns"`
	Kind   FlightKind `json:"kind"`
	A      uint64     `json:"a,omitempty"`
	B      uint64     `json:"b,omitempty"`
	C      uint64     `json:"c,omitempty"`
}

// Ring geometry. Both the header and each slot are 64 bytes (8 words):
// one cache line, so concurrent appenders touching adjacent slots do not
// false-share, and the file layout is trivially versionable.
const (
	flightMagic     = 0x314c_465f_5349454d // "MEIS_FL1" little-endian
	flightHdrWords  = 8
	flightSlotWords = 8

	// Header word indexes.
	fhMagic = 0
	fhSlots = 1
	fhSeq   = 2 // next sequence number; atomic fetch-add claim point
	fhPID   = 3
	fhStart = 4 // process start, unix ns

	// Slot word indexes. fsSeq holds seq+1 and is stored last (release):
	// zero means unwritten or in-flight.
	fsSeq  = 0
	fsTime = 1
	fsKind = 2
	fsA    = 3
	fsB    = 4
	fsC    = 5
)

// DefaultFlightSlots is the ring size used when none is specified: 256
// events × 64 bytes = a 16 KiB file plus the header.
const DefaultFlightSlots = 256

// FlightRing is a fixed-size lock-free event ring over a word-addressed
// shared buffer. The zero value is not usable; construct with
// NewFlightRing or OpenFlightFile.
type FlightRing struct {
	words []uint64 // header + slots, 8-byte aligned by construction
	slots uint64
	f     *os.File // nil for heap-backed rings
	unmap func()   // releases the mapping; nil for heap-backed rings
}

// NewFlightRing returns a heap-backed ring with the given slot count
// (rounded up to 1).
func NewFlightRing(slots int) *FlightRing {
	if slots < 1 {
		slots = 1
	}
	r := &FlightRing{
		words: make([]uint64, flightHdrWords+slots*flightSlotWords),
		slots: uint64(slots),
	}
	r.initHeader()
	return r
}

func (r *FlightRing) initHeader() {
	r.words[fhMagic] = flightMagic
	r.words[fhSlots] = r.slots
	r.words[fhPID] = uint64(os.Getpid())
	r.words[fhStart] = uint64(time.Now().UnixNano())
}

// Record appends one event. Wait-free, zero allocations: safe on any
// hot path. Concurrent appends that lap the ring may overwrite each
// other's slots — the recorder is deliberately lossy-oldest.
func (r *FlightRing) Record(kind FlightKind, a, b, c uint64) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	seq := atomic.AddUint64(&r.words[fhSeq], 1) - 1
	s := flightHdrWords + int(seq%r.slots)*flightSlotWords
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
	return atomic.LoadUint64(&r.words[fhSeq])
}

// Events decodes the currently-retained events in sequence order,
// skipping torn or overwritten slots.
func (r *FlightRing) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	return decodeFlightWords(r.words, true)
}

// Close releases a file-backed ring's mapping and file handle. Heap
// rings are no-ops. The file itself is left in place for harvesting.
func (r *FlightRing) Close() error {
	if r == nil {
		return nil
	}
	if r.unmap != nil {
		r.unmap()
		r.unmap = nil
		r.words = nil
	}
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

// decodeFlightWords extracts valid events from a header+slots word
// buffer. With live=true, each slot is re-validated after copying
// (seqlock read) to drop records torn by a concurrent appender; for
// harvested files the buffer is a private copy and the re-check is
// vacuous but harmless.
func decodeFlightWords(words []uint64, live bool) []FlightEvent {
	if len(words) < flightHdrWords || words[fhMagic] != flightMagic {
		return nil
	}
	slots := words[fhSlots]
	if slots == 0 || len(words) < flightHdrWords+int(slots)*flightSlotWords {
		return nil
	}
	next := atomic.LoadUint64(&words[fhSeq])
	out := make([]FlightEvent, 0, slots)
	lo := uint64(0)
	if next > slots {
		lo = next - slots
	}
	for seq := lo; seq < next; seq++ {
		s := flightHdrWords + int(seq%slots)*flightSlotWords
		got := atomic.LoadUint64(&words[s+fsSeq])
		if got != seq+1 {
			continue // unwritten, in-flight, or overwritten by a later lap
		}
		ev := FlightEvent{
			Seq:    seq,
			UnixNS: int64(atomic.LoadUint64(&words[s+fsTime])),
			Kind:   FlightKind(atomic.LoadUint64(&words[s+fsKind])),
			A:      atomic.LoadUint64(&words[s+fsA]),
			B:      atomic.LoadUint64(&words[s+fsB]),
			C:      atomic.LoadUint64(&words[s+fsC]),
		}
		if live && atomic.LoadUint64(&words[s+fsSeq]) != seq+1 {
			continue // torn by a concurrent appender mid-copy
		}
		out = append(out, ev)
	}
	return out
}

// flightCurrent is the process-wide recorder every RecordFlight call
// appends to. It defaults to a heap ring so library code can record
// unconditionally; OpenFlightFile swaps in a file-backed ring.
var flightCurrent atomic.Pointer[FlightRing]

func init() { flightCurrent.Store(NewFlightRing(DefaultFlightSlots)) }

// Flight returns the process-wide flight recorder.
func Flight() *FlightRing { return flightCurrent.Load() }

// RecordFlight appends one event to the process-wide recorder.
// Wait-free, zero allocations.
func RecordFlight(kind FlightKind, a, b, c uint64) { flightCurrent.Load().Record(kind, a, b, c) }

// OpenFlightFile creates (truncating) a file-backed flight recorder at
// path and installs it as the process-wide recorder, so every
// subsequent RecordFlight survives SIGKILL via the kernel page cache.
// On platforms without mmap the recorder stays heap-backed and is
// flushed to the file only on Close — crash events are then best-effort.
func OpenFlightFile(path string, slots int) (*FlightRing, error) {
	if slots < 1 {
		slots = DefaultFlightSlots
	}
	r, err := openFlightFile(path, slots)
	if err != nil {
		return nil, err
	}
	flightCurrent.Store(r)
	return r, nil
}

// ReadFlightFile decodes a flight-recorder file written by another
// (possibly dead) process. The file is read into a private buffer, so a
// still-live writer can only cause individual slots to be skipped, never
// a torn decode.
func ReadFlightFile(path string) ([]FlightEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < flightHdrWords*8 {
		return nil, fmt.Errorf("obs: flight file %s: short (%d bytes)", path, len(data))
	}
	words := make([]uint64, len(data)/8)
	for i := range words {
		words[i] = leUint64(data[i*8:])
	}
	evs := decodeFlightWords(words, false)
	if evs == nil && words[fhMagic] != flightMagic {
		return nil, fmt.Errorf("obs: flight file %s: bad magic", path)
	}
	return evs, nil
}

func leUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
