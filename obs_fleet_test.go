package meissa_test

import (
	"fmt"
	"regexp"
	"testing"
	"time"

	meissa "repro"
	"repro/internal/obs"
)

// registryDelta brackets fn with snapshots of the process registry and
// returns what fn added. Metric tests must diff, not read absolutes:
// the registry is process-global and other tests contribute to it.
func registryDelta(t *testing.T, fn func()) *obs.Snapshot {
	t.Helper()
	pre := obs.Default().Snapshot()
	fn()
	return obs.Default().Snapshot().Delta(pre)
}

// solverCounters are the identity-checked keys: every solver query in a
// sharded run happens either in the coordinator process (split +
// journal-replay merge) or inside a worker's accepted unit delta.
var solverCounters = []string{"smt.queries_sat", "smt.queries_unsat", "smt.queries_unknown"}

// TestFleetMetricsIdentity is the differential accounting test for the
// cross-process metric merge: on the same program,
//
//	sequential counter == sharded coordinator delta + fleet merged counter
//
// must hold exactly for the solver query counters — sharding may move
// work between processes but can neither lose nor invent a query.
func TestFleetMetricsIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*meissa.Options)
	}{
		{name: "Router"},
		{name: "gw-1", mod: func(o *meissa.Options) {
			// The chaos variant of the identity: kills mid-unit must not
			// leak partial work into the merge (mirrors
			// TestShardedSurvivesWorkerKills). The 10ms path sleep keeps
			// units slow enough that the seeded kills land on workers that
			// finished booting — a kill during subprocess startup leaves
			// nothing to harvest and nothing mid-flight to account for.
			o.ShardChaosKills = 2
			o.ShardChaosSeed = 1
			o.ShardPathSleep = 10 * time.Millisecond
			o.LeaseTimeout = 2 * time.Second
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := corpusProgram(t, tc.name)

			var seq *meissa.GenResult
			seqDelta := registryDelta(t, func() { seq = generateAt(t, p, false, 1) })

			var sh *meissa.GenResult
			shardDelta := registryDelta(t, func() { sh = generateSharded(t, p, tc.mod) })

			if sh.Shard == nil || sh.Shard.Fallback {
				t.Fatalf("run did not shard: %+v", sh.Shard)
			}
			fleet := sh.Fleet
			if fleet == nil {
				t.Fatal("sharded run produced no fleet report")
			}
			if err := fleet.Validate(); err != nil {
				t.Fatalf("fleet identity (merged == Σ workers) violated: %v", err)
			}
			if sh.TraceID == "" || fleet.TraceID != sh.TraceID {
				t.Fatalf("trace not propagated: run %q fleet %q", sh.TraceID, fleet.TraceID)
			}

			merged := fleet.Merged
			if merged == nil {
				t.Fatal("fleet has no merged snapshot")
			}
			for _, key := range solverCounters {
				want := seqDelta.Counters[key]
				got := shardDelta.Counters[key] + merged.Counters[key]
				if got != want {
					t.Errorf("%s: sequential %d != coordinator %d + fleet merged %d",
						key, want, shardDelta.Counters[key], merged.Counters[key])
				}
			}
			// The coordinator's merge replay re-walks exactly the tree the
			// one-runner run explored; on top of that the coordinator pays
			// the SplitFrontier prefix walk, which the fleet report itemizes.
			var splitPaths uint64
			if fleet.Split != nil {
				splitPaths = fleet.Split.Counters["sym.paths_explored"]
			}
			if sq, cq := seqDelta.Counters["sym.paths_explored"], shardDelta.Counters["sym.paths_explored"]; sq+splitPaths != cq {
				t.Errorf("sym.paths_explored: sequential %d + split %d != sharded coordinator %d", sq, splitPaths, cq)
			}

			// Every accepted unit completion left one span named w<id>/u<idx>
			// under the run's trace.
			spanName := regexp.MustCompile(`^w\d+/u\d+$`)
			for _, sp := range merged.Spans {
				if !spanName.MatchString(sp.Path) {
					t.Errorf("merged span %q does not match w<worker>/u<unit>", sp.Path)
				}
			}
			if len(merged.Spans) == 0 {
				t.Error("no unit spans in the fleet merge")
			}

			// Unit coverage: the accepted units across workers are exactly the
			// completed frontier.
			units := 0
			for _, w := range fleet.Workers {
				units += len(w.Units)
			}
			if units != sh.Shard.UnitsCompleted {
				t.Errorf("fleet unit coverage %d != shard units_completed %d", units, sh.Shard.UnitsCompleted)
			}

			// Chaos runs: killed workers must leave a harvested flight
			// recording — the crash timeline a SIGKILL cannot erase.
			if tc.mod != nil {
				killed := 0
				for _, w := range fleet.Workers {
					if w.Killed {
						killed++
						if !w.Died {
							t.Errorf("worker %d killed but not marked died", w.Worker)
						}
						if len(w.Flight) == 0 {
							t.Errorf("killed worker %d has no harvested flight events", w.Worker)
						}
						for _, ev := range w.Flight {
							if ev.Kind == obs.FlightNone {
								t.Errorf("worker %d flight event with invalid kind: %+v", w.Worker, ev)
							}
						}
					}
				}
				if killed == 0 {
					t.Error("chaos run recorded no killed workers")
				}
			}

			// The full v2 report — fleet section included — validates.
			rep := sh.Report("gen", p.Prog.Name, 1)
			if rep.Schema != obs.ReportSchema {
				t.Fatalf("report schema = %q", rep.Schema)
			}
			if err := rep.Validate(); err != nil {
				t.Fatalf("sharded run report invalid: %v", err)
			}
			_ = seq // output equivalence is covered by TestShardedMatchesSequential
		})
	}
}

// TestFleetWorkerFlightTimeline checks the harvested timeline of a
// killed worker reads like a real execution: a journal open, then unit
// lifecycle events in seq order with sane timestamps.
func TestFleetWorkerFlightTimeline(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	sh := generateSharded(t, p, func(o *meissa.Options) {
		o.ShardChaosKills = 2
		o.ShardChaosSeed = 1
		// Slow units so the kills hit workers that are past Init (and so
		// have at least a journal-open event in their flight file).
		o.ShardPathSleep = 10 * time.Millisecond
		o.LeaseTimeout = 2 * time.Second
	})
	if sh.Fleet == nil {
		t.Fatal("no fleet report")
	}
	checked := 0
	for _, w := range sh.Fleet.Workers {
		if len(w.Flight) == 0 {
			continue
		}
		checked++
		var prevSeq uint64
		var prevNS int64
		for i, ev := range w.Flight {
			if i > 0 && ev.Seq <= prevSeq {
				t.Errorf("worker %d flight seqs not increasing: %d after %d", w.Worker, ev.Seq, prevSeq)
			}
			if ev.UnixNS < prevNS {
				t.Errorf("worker %d flight timestamps regress at seq %d", w.Worker, ev.Seq)
			}
			prevSeq, prevNS = ev.Seq, ev.UnixNS
			if s := ev.Kind.String(); s == "" || s == fmt.Sprintf("kind_%d", uint32(ev.Kind)) {
				t.Errorf("worker %d event kind %d has no symbolic name", w.Worker, ev.Kind)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no worker carried a flight recording")
	}
}
