package meissa

import (
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/programs"
	"repro/internal/regress"
)

// raceEnabled is set in a build with the race detector (race_test.go).
var raceEnabled bool

// TestWarmStartAllocsPerRecord counts what a store-backed warm start
// allocates before it explores — the store-open phase (the store read and
// indexed) and the store-warm phase (the family's table put into the run's
// journal) — per record warmed, with no clock in the assertion. The table
// keeps each record's frame where Open read it, so a record costs a map
// slot and no allocation of its own: gw-2/set-4 warms 868 records for
// 2.87 allocations a record, nearly all of them the start's fixed cost
// (the family fingerprint, the rules text rendered once). Decoding every
// record at Open and copying the records into the journal took 12.2. One
// allocation more per record crosses the ceiling.
func TestWarmStartAllocsPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("gw-2/set-4 generation")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates (3.90 a record)")
	}
	p := programs.GW(2, programs.Set4)
	opts := DefaultOptions()
	opts.Parallelism = 1
	opts.StorePath = filepath.Join(t.TempDir(), "verdicts.store")
	sys, err := New(p.Prog, p.Rules, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Generate(); err != nil { // the cold run populates the store
		t.Fatal(err)
	}
	initC, err := sys.commonAssumes()
	if err != nil {
		t.Fatal(err)
	}
	var warmed uint64
	perStart := testing.AllocsPerRun(5, func() {
		stc, err := sys.openStoreCtx(initC) // store-open
		if err != nil {
			t.Fatal(err)
		}
		defer stc.st.Close()
		b, err := stc.warm(sys, initC, nil) // store-warm
		if err != nil {
			t.Fatal(err)
		}
		journal.New().Adopt(b.table, b.match)
		warmed = uint64(regress.Retain(b.table, b.match).Retained)
	})
	if warmed == 0 {
		t.Fatal("the warm start warmed no records")
	}
	perRecord := perStart / float64(warmed)
	t.Logf("%.0f allocations per warm start, %.2f per record over %d records", perStart, perRecord, warmed)
	if perRecord > 3.5 {
		t.Errorf("%.2f allocations per record warmed, ceiling 3.5", perRecord)
	}
}
