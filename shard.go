package meissa

// Multi-process sharded exploration: the coordinator side (called from
// Generate when Options.ShardWorkers > 1) and the worker side (the
// hidden `meissa work` subcommand).
//
// The wire never carries expression trees or solver state. The
// coordinator ships the *printed* program, rules and specs plus the
// verdict-affecting options; each worker re-parses, re-summarizes and
// re-splits the frontier itself, then proves it arrived at the same
// world by echoing the system fingerprint, frontier digest and unit
// count in its Ready frame. Journal keys are content-based (position in
// the path sequence, node content hashes), so a verdict journaled by
// any worker answers the coordinator's replay exactly as if it had been
// solved in-process — which is what makes the merged run byte-identical
// to a sequential one.

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/cfg"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/rules"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/summary"
	"repro/internal/sym"
)

const (
	// shardMaxAssign is K: a unit whose leases failed this many times is
	// quarantined and its subtree degraded to Unknown in the merge replay.
	shardMaxAssign = 3
	// shardWidthPerWorker sizes the frontier relative to the fleet so
	// lease reassignment has slack without making units trivially small.
	shardWidthPerWorker = 8
)

// shardPlan decides whether this run shards. The second return is the
// logged fallback reason when sharding was requested but an option
// combination makes it unsound or pointless; regression says the run
// starts from a regression baseline's verdicts.
func (s *System) shardPlan(regression bool) (bool, string) {
	if s.Opts.ShardWorkers <= 1 {
		return false, ""
	}
	switch {
	case s.Opts.MaxPaths > 0:
		return false, "MaxPaths is a cooperative global budget that cannot be enforced across processes"
	case s.Opts.Deadline > 0:
		return false, "Deadline is a global wall-clock budget that cannot be enforced across processes"
	case regression || s.Opts.Resume:
		return false, "resume/rebase journals already hold prior verdicts; sharding would re-solve them"
	case s.Opts.PathHook != nil:
		return false, "PathHook cannot cross the process boundary"
	}
	return true, ""
}

// wireOptions projects the verdict-affecting options for shipping to
// workers. Anything not in here must not change verdicts, or the worker
// fingerprint check will (correctly) retire every worker.
func (s *System) wireOptions(width int) shard.WireOptions {
	return shard.WireOptions{
		CodeSummary:          s.Opts.CodeSummary,
		UsePreconditions:     s.Opts.UsePreconditions,
		EarlyTermination:     s.Opts.EarlyTermination,
		IncrementalSolving:   s.Opts.IncrementalSolving,
		Strict:               s.Opts.Strict,
		SolverSearchBudget:   s.Opts.SolverSearchBudget,
		SolverCheckTimeoutNS: int64(s.Opts.SolverCheckTimeout),
		SolverOverheadNS:     int64(s.Opts.SolverOverhead),
		FrontierWidth:        width,
		PathSleepNS:          int64(s.Opts.ShardPathSleep),
		PoisonUnit:           s.Opts.ShardPoisonUnit,
	}
}

// optionsFromWire is the worker-side inverse of wireOptions.
func optionsFromWire(w shard.WireOptions) Options {
	return Options{
		CodeSummary:        w.CodeSummary,
		UsePreconditions:   w.UsePreconditions,
		EarlyTermination:   w.EarlyTermination,
		IncrementalSolving: w.IncrementalSolving,
		Strict:             w.Strict,
		SolverSearchBudget: w.SolverSearchBudget,
		SolverCheckTimeout: time.Duration(w.SolverCheckTimeoutNS),
		SolverOverhead:     time.Duration(w.SolverOverheadNS),
		Parallelism:        1,
	}
}

// defaultWorkerCommand re-executes the current binary with the hidden
// `work` subcommand. Binaries that are not the meissa CLI (library
// embedders, tests) must set Options.WorkerCommand; if they don't, the
// spawned processes fail the protocol and the run falls back in-process.
func defaultWorkerCommand() *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	return exec.Command(exe, "work")
}

// shardedFinalPass replaces the final in-process sym.Explore: split the
// frontier (journaling the splitter's own checks), farm the units to
// supervised worker subprocesses, merge their journaled verdicts, then
// re-run the full exploration against the merged journal. The replay
// answers every journaled interaction by lookup, so its output is
// byte-identical to a sequential run; units quarantined by supervision
// degrade to Unknown templates instead of being lost.
//
// *fresh is every record appended to j so far and keeps growing through
// j's mirror: the merged records reach the replay's lookups by being
// seeded from it between the two explorations.
func (s *System) shardedFinalPass(fcfg sym.Config, j *journal.Journal, fresh *[]journal.Record, fp uint64, res *GenResult) (*sym.Result, error) {
	width := shardWidthPerWorker * s.Opts.ShardWorkers
	// Bracket the split with registry snapshots: the delta is the
	// coordinator's above-frontier share of exploration work, reported as
	// Fleet.Split so Split + Merged reproduces a sequential final pass.
	preSplit := obs.Default().Snapshot()
	fr, err := sym.SplitFrontier(fcfg, width)
	if err != nil {
		return nil, fmt.Errorf("meissa: split frontier: %w", err)
	}
	splitDelta := obs.Default().Snapshot().Delta(preSplit)
	rep := &obs.ShardReport{Workers: s.Opts.ShardWorkers, MaxAssign: shardMaxAssign, Units: len(fr.Units)}
	res.Shard = rep
	quarantined := map[uint64]bool{}

	if len(fr.Units) > 0 {
		units := make([]shard.LeaseUnit, len(fr.Units))
		for i, u := range fr.Units {
			units[i] = shard.LeaseUnit{Index: u.Index, Key: u.Key}
		}
		hello := &shard.Hello{
			Fingerprint:    fp,
			FrontierDigest: fr.Digest(),
			NumUnits:       len(fr.Units),
			Program:        p4.Print(s.Prog),
			Rules:          s.Rules.String(),
			Specs:          spec.Print(s.Specs),
			Opts:           s.wireOptions(width),
		}
		command := s.Opts.WorkerCommand
		if command == nil {
			command = defaultWorkerCommand
		}
		var transport shard.Transport
		var listenErr error
		if s.Opts.ShardListen != "" {
			lt, lerr := shard.NewListenerTransport(s.Opts.ShardListen)
			if lerr != nil {
				listenErr = lerr
			} else {
				transport = lt
				obs.Infof("meissa: %s: listening for remote shard workers on %s", s.Prog.Name, lt.Addr())
			}
		}
		workDir, derr := os.MkdirTemp("", "meissa-workers-")
		if derr == nil && listenErr == nil {
			defer os.RemoveAll(workDir)
		}
		if listenErr != nil {
			rep.Fallback, rep.FallbackReason = true, fmt.Sprintf("remote worker listener: %v", listenErr)
			obs.Warnf("meissa: %s: %s; falling back to in-process exploration", s.Prog.Name, rep.FallbackReason)
		} else if derr != nil {
			if transport != nil {
				transport.Close()
			}
			rep.Fallback, rep.FallbackReason = true, fmt.Sprintf("worker journal dir: %v", derr)
			obs.Warnf("meissa: %s: %s; falling back to in-process exploration", s.Prog.Name, rep.FallbackReason)
		} else {
			obs.Progressf("meissa: %s: sharding final pass: %d units across %d worker processes",
				s.Prog.Name, len(units), s.Opts.ShardWorkers)
			rres, rerr := shard.Run(&shard.Config{
				Hello:     hello,
				Units:     units,
				Workers:   s.Opts.ShardWorkers,
				Command:   command,
				Transport: transport,
				JournalPath: func(gen int) string {
					return filepath.Join(workDir, fmt.Sprintf("worker-gen%d.journal", gen))
				},
				FlightPath: func(gen int) string {
					return filepath.Join(workDir, fmt.Sprintf("worker-gen%d.flight", gen))
				},
				TraceID:      res.TraceID,
				Merge:        j.Append,
				Fingerprint:  fp,
				LeaseTimeout: s.Opts.LeaseTimeout,
				MaxAssign:    shardMaxAssign,
				ChaosKills:   s.Opts.ShardChaosKills,
				ChaosSeed:    s.Opts.ShardChaosSeed,
			})
			if rres != nil {
				ctr := rres.Counters
				rep.UnitsCompleted = int(ctr.Completed)
				rep.UnitsQuarantined = int(ctr.Quarantined)
				rep.LeasesIssued = ctr.Issued
				rep.LeasesCompleted = ctr.Completed
				rep.LeasesExpired = ctr.Expired
				rep.LeasesSuperseded = ctr.Superseded
				rep.LeasesReassigned = ctr.Reassigned
				rep.WorkerRestarts = rres.WorkerRestarts
				rep.CorruptFrames = rres.CorruptFrames
				rep.KillsInjected = rres.KillsInjected
				rep.RecordsMerged = rres.MergedRecords
				rep.RecordsDuplicate = rres.DuplicateRecs
				rep.RecordsHarvested = rres.HarvestedRecs
				for _, k := range rres.QuarantinedKeys {
					quarantined[k] = true
				}
				if rres.Fleet != nil {
					rres.Fleet.Split = splitDelta
					res.Fleet = rres.Fleet
				}
			}
			switch {
			case rerr == shard.ErrNoWorkers:
				// Everything merged before the fleet collapsed (plus the
				// harvest of dead workers' journals) is already in the
				// journal; the replay below re-solves only the remainder.
				rep.Fallback, rep.FallbackReason = true, "no usable worker subprocesses"
				obs.Warnf("meissa: %s: %s; falling back to in-process exploration (%d merged records kept)",
					s.Prog.Name, rep.FallbackReason, rep.RecordsMerged)
			case rerr != nil:
				return nil, fmt.Errorf("meissa: shard run: %w", rerr)
			}
		}
	}

	// Between the split and the replay the index may change: everything the
	// run journaled so far — summaries, the split's own checks, the merged
	// unit records — becomes answerable.
	for _, r := range *fresh {
		j.Seed(r)
	}

	rcfg := fcfg
	if len(quarantined) > 0 {
		rcfg.Options.Quarantined = quarantined
	}
	exp, err := sym.Explore(rcfg)
	if err != nil {
		return nil, err
	}
	rep.DegradedTemplates = exp.Degraded
	return exp, nil
}

// ServeShardWorker runs the worker side of the sharded exploration
// protocol over (in, out) until shutdown or EOF: the body of the hidden
// `meissa work` subcommand, also invoked directly by test binaries.
func ServeShardWorker(in io.Reader, out io.Writer) error {
	h := &shardWorkerHandler{}
	defer h.close()
	return shard.Serve(in, out, h)
}

// shardWorkerHandler rebuilds the system described by the Hello frame
// and explores assigned units, journaling verdicts locally and shipping
// them in Done frames.
type shardWorkerHandler struct {
	fr        *sym.Frontier
	runner    *sym.Runner
	j         *journal.Journal
	buf       []journal.Record
	paths     uint64
	hb        func(uint64)
	pathSleep time.Duration
	poison    int
	worker    int           // incarnation id from Hello, tags span paths
	initSnap  *obs.Snapshot // registry state at end of Init, MetricsDelta baseline
}

func (h *shardWorkerHandler) close() {
	if h.j != nil {
		h.j.Close()
	}
}

func (h *shardWorkerHandler) Init(hello *shard.Hello) (*shard.Ready, error) {
	h.worker = hello.Worker
	if hello.FlightPath != "" {
		// Switch the flight recorder onto its mmapped per-process file
		// before any instrumented subsystem runs, so even an Init-time
		// crash leaves a harvestable event trail.
		if _, err := obs.OpenFlightFile(hello.FlightPath, obs.DefaultFlightSlots); err != nil {
			return nil, fmt.Errorf("worker flight file: %w", err)
		}
	}
	prog, err := p4.Parse(hello.Program)
	if err != nil {
		return nil, fmt.Errorf("parse program: %w", err)
	}
	rs, err := rules.Parse(hello.Rules)
	if err != nil {
		return nil, fmt.Errorf("parse rules: %w", err)
	}
	specs, err := spec.Parse(hello.Specs)
	if err != nil {
		return nil, fmt.Errorf("parse specs: %w", err)
	}
	sys, err := New(prog, rs, specs, optionsFromWire(hello.Opts))
	if err != nil {
		return nil, err
	}
	initC, err := sys.commonAssumes()
	if err != nil {
		return nil, err
	}
	g, err := cfg.Build(sys.Prog, sys.Rules)
	if err != nil {
		return nil, fmt.Errorf("build CFG: %w", err)
	}
	// The same derivation as the coordinator's Generate; its verdict table
	// stays on the coordinator, the unit runner below journals to h.j.
	sumOpts, fcfg := sys.passConfigs(g, initC, nil)
	if sys.Opts.CodeSummary {
		if _, err := summary.Summarize(g, sumOpts); err != nil {
			return nil, fmt.Errorf("summarize: %w", err)
		}
	}
	fr, err := sym.SplitFrontier(fcfg, hello.Opts.FrontierWidth)
	if err != nil {
		return nil, fmt.Errorf("split frontier: %w", err)
	}
	h.fr = fr
	fp := sys.fingerprint(initC)

	// Journal verdicts locally so a crash after solving but before the
	// Done frame still contributes work via the coordinator's harvest.
	h.j, err = journal.Open(hello.JournalPath, fp, false)
	if err != nil {
		return nil, fmt.Errorf("worker journal: %w", err)
	}
	h.j.SetMirror(func(r journal.Record) { h.buf = append(h.buf, r) })
	h.pathSleep = time.Duration(hello.Opts.PathSleepNS)
	h.poison = hello.Opts.PoisonUnit

	runnerOpts := fcfg.Options
	runnerOpts.Journal = h.j
	runnerOpts.PathHook = func(path []cfg.NodeID) {
		h.paths++
		if h.pathSleep > 0 {
			time.Sleep(h.pathSleep)
		}
		if h.hb != nil {
			h.hb(h.paths)
		}
	}
	h.runner = fr.NewRunner(runnerOpts)
	// Everything above (parse, summarize, split) is setup shared by all
	// units; snapshotting here keeps it out of every per-unit delta so the
	// coordinator folds only actual unit work.
	h.initSnap = obs.Default().Snapshot()
	return &shard.Ready{Fingerprint: fp, FrontierDigest: fr.Digest(), NumUnits: len(fr.Units)}, nil
}

// MetricsDelta reports the cumulative registry delta since Init for
// Progress/Fail frames (live fleet view only; never folded into the
// merged report — per-unit deltas on Done frames carry the folded work).
func (h *shardWorkerHandler) MetricsDelta() *obs.Snapshot {
	if h.initSnap == nil {
		return nil
	}
	return obs.Default().Snapshot().Delta(h.initSnap)
}

func (h *shardWorkerHandler) RunUnit(index int, heartbeat func(paths uint64)) (*shard.Done, error) {
	if h.runner == nil {
		return nil, fmt.Errorf("worker not initialized")
	}
	if index < 0 || index >= len(h.fr.Units) {
		return nil, fmt.Errorf("unit index %d out of range [0,%d)", index, len(h.fr.Units))
	}
	if h.poison > 0 && index == h.poison-1 {
		// The injected poison unit: die as a crashed worker would, not as
		// a clean protocol error. The flight event is the last thing the
		// mmapped ring sees, so harvest shows what the worker was doing.
		obs.RecordFlight(obs.FlightUnitStart, uint64(h.worker), uint64(index), 0)
		os.Exit(3)
	}
	obs.RecordFlight(obs.FlightUnitStart, uint64(h.worker), uint64(index), 0)
	h.buf = h.buf[:0]
	h.paths = 0
	h.hb = heartbeat
	// The unit delta is bracketed by snapshots: everything between pre and
	// post — exploration, solver queries, journal sync — is attributed to
	// this unit and folded exactly once by the coordinator.
	pre := obs.Default().Snapshot()
	span := obs.Begin(fmt.Sprintf("w%d/u%d", h.worker, index))
	res, err := h.runner.Explore(index)
	span.End()
	h.hb = nil
	if err != nil {
		obs.RecordFlight(obs.FlightUnitFail, uint64(h.worker), uint64(index), 0)
		return nil, err
	}
	// Durable before claimed: the Done frame promises these records are
	// harvestable even if this process dies immediately after.
	if err := h.j.Sync(); err != nil {
		obs.RecordFlight(obs.FlightUnitFail, uint64(h.worker), uint64(index), 0)
		return nil, fmt.Errorf("sync worker journal: %w", err)
	}
	delta := obs.Default().Snapshot().Delta(pre)
	obs.RecordFlight(obs.FlightUnitDone, uint64(h.worker), uint64(index), res.PathsExplored)
	u := h.fr.Units[index]
	recs := make([]journal.Record, len(h.buf))
	copy(recs, h.buf)
	return &shard.Done{
		Index:     index,
		Key:       u.Key,
		Paths:     res.PathsExplored,
		Templates: uint64(len(res.Templates)),
		Records:   recs,
		Metrics:   delta,
	}, nil
}
