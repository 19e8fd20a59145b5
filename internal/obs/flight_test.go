package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestFlightRingRecordAndEvents(t *testing.T) {
	r := NewFlightRing(8)
	r.Record(FlightJournalOpen, 1, 10, 0)
	r.Record(FlightJournalSync, 2, 0, 0)
	r.Record(FlightStoreCommit, 1, 10, 7)
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Events = %d records, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.UnixNS == 0 {
			t.Fatalf("event %d has zero timestamp", i)
		}
	}
	if evs[0].Kind != FlightJournalOpen || evs[0].A != 1 || evs[0].B != 10 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[2].Kind != FlightStoreCommit || evs[2].C != 7 {
		t.Fatalf("event 2 = %+v", evs[2])
	}
}

// TestFlightRingLapKeepsNewest: the ring is lossy-oldest; after writing
// past capacity, only the last `slots` events remain, still in order.
func TestFlightRingLapKeepsNewest(t *testing.T) {
	r := NewFlightRing(4)
	for i := uint64(0); i < 11; i++ {
		r.Record(FlightStoreCommit, i, 0, 0)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		want := uint64(7 + i)
		if ev.Seq != want || ev.A != want {
			t.Fatalf("event %d = seq %d a %d, want %d", i, ev.Seq, ev.A, want)
		}
	}
}

// TestFlightRecordZeroAllocs: the append path must be safe for solver
// and journal hot paths — zero heap allocations per event.
func TestFlightRecordZeroAllocs(t *testing.T) {
	r := NewFlightRing(64)
	allocs := testing.AllocsPerRun(200, func() {
		r.Record(FlightBudgetExhausted, 1, 2, 3)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", allocs)
	}
}

// TestFlightRingConcurrent hammers Record from many goroutines (the
// -race build checks the seqlock discipline) and then decodes: every
// surviving event must be untorn and within the last `slots` sequences.
func TestFlightRingConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2000
		slots      = 128
	)
	r := NewFlightRing(slots)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Record(FlightKind(1+(i%int(flightKindCount-1))), uint64(g), uint64(i), 0)
				if i%64 == 0 {
					r.Events() // concurrent reads exercise the re-check path
				}
			}
		}(g)
	}
	wg.Wait()
	total := uint64(goroutines * perG)
	if got := r.Len(); got != total {
		t.Fatalf("Len = %d, want %d", got, total)
	}
	evs := r.Events()
	if len(evs) == 0 {
		t.Fatal("no events decoded after hammer")
	}
	prev := uint64(0)
	for i, ev := range evs {
		if ev.Seq < total-slots || ev.Seq >= total {
			t.Fatalf("event %d has out-of-window seq %d", i, ev.Seq)
		}
		if i > 0 && ev.Seq <= prev {
			t.Fatalf("events out of order: seq %d after %d", ev.Seq, prev)
		}
		prev = ev.Seq
		if ev.Kind == FlightNone || ev.Kind >= flightKindCount {
			t.Fatalf("event %d decoded with invalid kind %d", i, ev.Kind)
		}
	}
}

// TestFlightKindJSONRoundTrip: /flight encodes every kind as its own
// stable name, and a decoded event list reads the names back.
func TestFlightKindJSONRoundTrip(t *testing.T) {
	r := NewFlightRing(int(flightKindCount))
	seen := map[string]bool{}
	for k := FlightNone; k < flightKindCount; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(data)] || string(data) != `"`+k.String()+`"` {
			t.Fatalf("kind %d encodes as %s", k, data)
		}
		seen[string(data)] = true
		r.Record(k, uint64(k), 0, 0)
	}
	data, err := json.Marshal(r.Events())
	if err != nil {
		t.Fatal(err)
	}
	var back []struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != int(flightKindCount) || back[int(FlightPanic)].Kind != "panic" {
		t.Fatalf("events round-tripped to %+v", back)
	}
}

// TestRecordFlightNilSafety: a nil ring and the package default must
// both absorb records without panicking.
func TestRecordFlightNilSafety(t *testing.T) {
	var r *FlightRing
	r.Record(FlightPanic, 0, 0, 0)
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil ring not inert")
	}
	RecordFlight(FlightPanic, 1, 2, 3) // default heap ring
	if Flight() == nil {
		t.Fatal("no process-wide recorder installed")
	}
}
