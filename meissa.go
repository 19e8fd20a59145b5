// Package meissa is a from-scratch reproduction of "Meissa: Scalable
// Network Testing for Programmable Data Planes" (SIGCOMM 2022): a testing
// system for multi-switch multi-pipeline data plane programs that achieves
// 100% path coverage through a domain-specific code summary technique.
//
// The pipeline mirrors Figure 2 of the paper:
//
//	LPI spec + P4 program + table rules
//	    → control flow graph        (internal/cfg)
//	    → code summary              (internal/summary)
//	    → test case templates       (internal/sym)
//	    → test driver               (internal/driver)
//	    → test report
//
// Quick start:
//
//	prog := p4.MustParse(src)
//	sys, _ := meissa.New(prog, ruleSet, specs, meissa.DefaultOptions())
//	gen, _ := sys.Generate()
//	target, _ := switchsim.Compile(prog, ruleSet, nil)
//	report, _ := sys.Test(driver.NewLoopback(target), gen)
//	fmt.Println(report.Summary())
package meissa

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/cfg"
	"repro/internal/driver"
	"repro/internal/expr"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/regress"
	"repro/internal/rules"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/summary"
	"repro/internal/switchsim"
	"repro/internal/sym"
)

// Options configure the system.
type Options struct {
	// CodeSummary enables the paper's core technique (§3.3). Disabling it
	// runs the basic framework (Algorithm 1) over the whole program — the
	// "w/o code summary" configuration of Fig. 11/12.
	CodeSummary bool
	// UsePreconditions toggles inter-pipeline public pre-condition
	// filtering within code summary (ablation).
	UsePreconditions bool
	// EarlyTermination toggles §3.2 path pruning (ablation).
	EarlyTermination bool
	// IncrementalSolving toggles solver push/pop state reuse (ablation).
	IncrementalSolving bool
	// Parallelism is the exploration worker count, applied to both the
	// within-pipeline summarization runs and the final generation pass,
	// and the only way a generation runs in parallel: 0 uses GOMAXPROCS;
	// at 1 the frontier is the root alone, explored on the caller's
	// goroutine (Algorithm 1 as one DFS, the paper-faithful ablation
	// baseline); N > 1 splits the DFS frontier across N in-process
	// runners, each with a solver of its own, sharing only the path budget,
	// the read-only plan and the run's verdict table. Templates, solver
	// checks and path counts are identical at any setting.
	Parallelism int
	// MaxPaths caps DFS descents per exploration (0 = unlimited); the
	// paper harness runs every tool under it (baselines.Budget).
	MaxPaths uint64
	// SolverOverhead adds a fixed per-check solver cost, emulating
	// out-of-process SMT solvers (ablation only; see smt.Options).
	SolverOverhead time.Duration
	// SolverSearchBudget overrides the per-query backtracking-step budget
	// (0 keeps the smt default). Exhaustion yields Unknown, never Unsat:
	// the affected path is conservatively kept, so budget-limited runs
	// generate a superset of the unlimited run's templates.
	SolverSearchBudget int
	// Strict disables per-path panic isolation: a panic anywhere in
	// exploration aborts the process (fail-fast debugging mode). The
	// default recovers per-path panics into GenResult.PathErrors and
	// keeps exploring.
	Strict bool
	// Checkpoint, when non-empty, names a journal file making generation
	// crash-safe: every solver verdict is journaled before use and reaches
	// the file with the batch of appends it completes, so a run killed
	// mid-exploration can Resume and re-solve at most the last batch's
	// verdicts (internal/journal's batchFrames). A run whose checkpoint
	// could not be written whole returns the error. A run that completes —
	// halts on no MaxPaths and recovers no path — ends the file with its
	// template list, which makes it a baseline Regress can read.
	Checkpoint string
	// Resume loads the Checkpoint journal written by an interrupted run
	// of the same program/rules/options and answers journaled solver
	// interactions from it. The journal's fingerprint must match; a
	// mismatched journal is an error, not silent corruption. Requires
	// Checkpoint. The resumed journal already holds whatever the
	// interrupted run warmed from a store, so a Resume does not warm again.
	Resume bool
	// PathHook, when non-nil, is invoked on every completed path descent
	// before its verdict is decided. Fault-injection hook for crash-safety
	// tests; nil in production.
	PathHook func(path []cfg.NodeID)
	// StorePath, when non-empty, names a disk-backed verdict store file
	// (internal/store) the run opens (and creates on first use), warms
	// from, commits to and closes before returning — the `gen -store` /
	// `regress -store` CLI path. A prior run of the same program family
	// answers journaled solver interactions without re-solving. The warm
	// start writes nothing: under a stored rule set that differs from this
	// run's it keeps in memory only the records the delta leaves valid. The
	// run's one transaction at the end retires the rest, installs the new
	// rules and commits the run's own verdicts and, when the run completes,
	// its template list, which Regress reads as the baseline's.
	StorePath string
	// StoreWait bounds how long opening StorePath waits for the store's
	// advisory lock while another run holds it, retrying until the
	// deadline before failing with store.ErrStoreBusy. Zero makes exactly
	// one attempt — the `-store-wait` CLI flag.
	StoreWait time.Duration
}

// DefaultOptions is the full Meissa configuration.
func DefaultOptions() Options {
	return Options{
		CodeSummary:        true,
		UsePreconditions:   true,
		EarlyTermination:   true,
		IncrementalSolving: true,
	}
}

// System is a data plane program under test.
type System struct {
	Prog  *p4.Program
	Rules *rules.Set
	Specs []*spec.Spec
	Opts  Options
}

// New validates the program and binds the rule set to it: a rule set the
// program cannot mean fails here, not in generation. Either error leads
// with the position it names.
func New(prog *p4.Program, rs *rules.Set, specs []*spec.Spec, opts Options) (*System, error) {
	if err := p4.Check(prog); err != nil {
		return nil, err
	}
	if rs == nil {
		rs = rules.NewSet()
	}
	if _, err := rules.Bind(prog, rs); err != nil {
		return nil, err
	}
	return &System{Prog: prog, Rules: rs, Specs: specs, Opts: opts}, nil
}

// GenResult is the output of test case generation.
type GenResult struct {
	// Templates are the generated test case templates, one per valid
	// path (full path coverage, §3.4).
	Templates []*sym.Template
	// Graph is the (possibly summarized) CFG.
	Graph *cfg.Graph
	// SummaryStats holds per-pipeline summarization statistics; nil when
	// code summary is disabled.
	SummaryStats *summary.Stats
	// Counts sums what every phase's explorations counted: the
	// summarization passes, then the final pass. Its SMT is the full
	// aggregated solver statistics; PathErrors keeps sym's cap over the
	// whole generation.
	sym.Counts
	// FinalPathsExplored counts DFS descents of the final template
	// generation pass alone (excluding summarization work).
	FinalPathsExplored uint64
	// FinalMallocs and FinalAllocBytes are the process's heap allocation
	// count and volume over the final pass, so a report shows what a path
	// costs without a benchmark harness. Measured only when the pass runs
	// sequentially, and zero otherwise. The counters are the process's:
	// they are the pass's own while nothing else in the process allocates.
	FinalMallocs, FinalAllocBytes uint64
	// Parallelism is the worker count the final pass explored with:
	// Options.Parallelism, GOMAXPROCS where that is 0 or below.
	Parallelism int
	// SMTCalls is SMT.Checks, the solver checks across all phases (Fig.
	// 11b unit), the same at any Parallelism.
	SMTCalls uint64
	// PossiblePathsLog10Before/After record the whole-graph possible-path
	// counts (Fig. 11c unit).
	PossiblePathsLog10Before float64
	PossiblePathsLog10After  float64
	// Duration is the wall-clock generation time (Fig. 9/10 unit).
	Duration time.Duration
	// JournalLoaded counts the records the run started with: recovered
	// from the Checkpoint on a Resume, warmed from the store, retained
	// from a regression baseline. JournalAppended counts the verdicts it
	// derived live and journaled. Both are zero for a run with no
	// checkpoint, store or regression baseline, which keeps no verdict
	// table.
	JournalAppended uint64
	JournalLoaded   uint64
	// Rebase accounts for what a run retained of its baseline under its
	// rules: a regression's checkpoint, or a store warm start's family (nil
	// for any other run).
	Rebase *obs.RebaseStats
	// Phases records the wall-clock duration of each generation phase, in
	// execution order: "cfg"; "store-open" when the run opened its
	// StorePath; whichever of "journal-load" (a resumed checkpoint),
	// "rebase" (a regression's checkpoint baseline) and "store-warm" gave
	// the run its starting verdicts; "summary" when code summary ran;
	// "sym"; "store-commit".
	Phases []obs.PhaseDur
	// Store is the durable verdict-store activity summary; nil unless
	// Options.StorePath was set.
	Store *obs.StoreReport
}

// Generate builds the CFG, applies code summary when enabled, and runs
// the final template generation (Algorithm 2 line 27 / Algorithm 1).
func (s *System) Generate() (*GenResult, error) { return s.generate(nil) }

// generate is Generate, for a regression when reg is set: its baseline,
// which Regress read from a checkpoint, or which the store's warm start
// reads into it.
//
// A run that persists or reuses verdicts keeps ONE verdict table, the
// journal's, which exploration reads. Sources fill it, and only before the
// first exploration: the Checkpoint file on a Resume (indexed), a
// regression's checkpoint baseline or a store snapshot's family (shared,
// not copied, a rule delta's invalidated records reading as misses).
// Sinks take what the run derives, each verdict framed once: the
// Checkpoint file, in batches of appends journaled before use, and the
// store, in one transaction at the end that writes the frames the journal
// kept. A run that completes ends each sink with its template list, framed
// once too. The table never changes once the first exploration starts: the
// run's own appends do not enter it.
func (s *System) generate(reg *baseline) (out *GenResult, err error) {
	start := time.Now()
	if err := refuse(call{opts: s.Opts}); err != nil {
		return nil, err
	}
	res := &GenResult{}
	// phase times f as one phase of the generation.
	phase := func(name string, f func() error) error {
		t := time.Now()
		err := f()
		res.Phases = append(res.Phases, obs.PhaseDur{Name: name, NS: int64(time.Since(t))})
		return err
	}

	var g *cfg.Graph
	if err := phase("cfg", func() (err error) { g, err = cfg.Build(s.Prog, s.Rules); return }); err != nil {
		return nil, err
	}
	res.Graph = g
	res.PossiblePathsLog10Before = g.PossiblePathsLog10()
	obs.Progressf("meissa: %s: CFG built in %v (10^%.1f possible paths)",
		s.Prog.Name, res.Phases[0].Dur(), res.PossiblePathsLog10Before)

	// Assume clauses of all specs that share identical assumptions scope
	// generation; with multiple differing specs, generation stays
	// unscoped and the checker applies each spec to matching inputs.
	initC, err := s.commonAssumes()
	if err != nil {
		return nil, err
	}
	var stc *storeCtx
	if s.Opts.StorePath != "" {
		// Opening a StorePath reads and indexes its log: the part of a
		// store-backed run's time that the store's size sets, whatever the
		// run reads.
		if err := phase("store-open", func() (err error) { stc, err = s.openStoreCtx(initC); return }); err != nil {
			return nil, err
		}
		defer stc.st.Close()
	}
	// The run's identity, which a checkpoint file is checked against and a
	// completed run's template list is keyed by. The plain path does not pay
	// for it.
	var fp uint64
	if s.Opts.Checkpoint != "" || stc != nil {
		fp = s.fingerprint(initC)
	}

	// The starting verdicts, read before the Checkpoint is opened, so that a
	// refused baseline leaves no file: a regression's checkpoint baseline,
	// else a store warm start, which a Resume skips: its journal holds them
	// already. Either is adopted as it is, the records a rule delta
	// invalidates reading as misses, and a named Checkpoint receives each
	// adopted verdict the run uses where a cold run would append it.
	base := reg
	if reg != nil || stc != nil && !s.Opts.Resume {
		name := "rebase"
		if stc != nil {
			name = "store-warm"
		}
		err := phase(name, func() (err error) {
			if stc != nil {
				if base, err = stc.warm(s, initC, reg); err != nil {
					return err
				}
			}
			if base != nil {
				res.Rebase = regress.Retain(base.table, base.match)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if st := res.Rebase; st != nil {
			if stc != nil {
				stc.rep.Warmed = uint64(st.Retained)
			}
			obs.Progressf("meissa: %s: %s: %d/%d verdicts retained (%d invalidated)", s.Prog.Name, name, st.Retained, st.Baseline, st.Invalidated)
		}
	}

	// The verdict table: the Checkpoint journal when one is named, else —
	// for a run with a baseline or a store, both of which go through the
	// table — a journal with no file behind it.
	var j *journal.Journal
	switch {
	case s.Opts.Resume:
		err = phase("journal-load", func() (err error) { j, err = journal.Open(s.Opts.Checkpoint, fp, true); return })
		if err == nil {
			obs.Progressf("meissa: %s: resume: %d journaled verdicts loaded", s.Prog.Name, j.Loaded())
		}
	case s.Opts.Checkpoint != "":
		j, err = journal.Open(s.Opts.Checkpoint, fp, false)
	case base != nil || stc != nil:
		j = journal.New()
	}
	if err != nil {
		return nil, err
	}
	if j != nil {
		// Close writes the checkpoint's last batch: a run whose checkpoint
		// lacks verdicts it derived says so.
		defer func() {
			if cerr := j.Close(); cerr != nil && err == nil {
				out, err = nil, cerr
			}
		}()
		if stc != nil {
			j.KeepFresh() // what this run derives, for the store commit
		}
		if base != nil {
			j.Adopt(base.table, base.match)
		}
	}

	sumOpts, fcfg := s.passConfigs(g, initC, j)
	if s.Opts.CodeSummary {
		var stats *summary.Stats
		if err := phase("summary", func() (err error) { stats, err = summary.Summarize(g, sumOpts); return }); err != nil {
			return nil, err
		}
		res.SummaryStats = stats
		res.Counts.Add(stats.Counts)
		obs.Progressf("meissa: %s: summary done in %v (%d paths, %d solver checks)",
			s.Prog.Name, res.Phases[len(res.Phases)-1].Dur(), stats.PathsExplored, stats.SMT.Checks)
	}

	var exp *sym.Result
	res.Parallelism = fcfg.Options.Workers()
	err = phase("sym", func() (err error) {
		objs0, bytes0 := heapAllocs()
		exp, err = sym.Explore(fcfg)
		if res.Parallelism == 1 {
			objs1, bytes1 := heapAllocs()
			res.FinalMallocs, res.FinalAllocBytes = objs1-objs0, bytes1-bytes0
		}
		return
	})
	if err != nil {
		return nil, err
	}
	res.Templates = exp.Templates
	res.Counts.Add(exp.Counts)
	res.FinalPathsExplored = exp.PathsExplored
	res.SMTCalls = res.SMT.Checks
	res.PossiblePathsLog10After = g.PossiblePathsLog10()
	if j != nil {
		res.JournalAppended = j.Appended()
		res.JournalLoaded = uint64(j.Loaded())
		if res.Rebase != nil {
			res.JournalLoaded += uint64(res.Rebase.Retained)
		}
	}
	// A completed run's sinks receive its template list, which a regression
	// from them reads instead of exploring under the old rules again. A run
	// that halted on MaxPaths, or skipped a subtree that panicked, has no
	// complete list to give.
	var list []byte
	if (s.Opts.Checkpoint != "" || stc != nil) && !res.Truncated && res.Recovered == 0 {
		keys := make([]uint64, len(exp.Templates))
		for i, t := range exp.Templates {
			keys[i] = t.PathKey
		}
		list = j.Complete(fp, keys)
	}
	if stc != nil {
		err := phase("store-commit", func() error {
			t := j.Fresh()
			if s.Opts.Resume {
				// The resumed checkpoint's records were journaled by a run
				// that died before its commit.
				t = journal.Merge(j.Table(), t)
			}
			return stc.commit(s, t, list)
		})
		if err != nil {
			return nil, err
		}
		res.Store = stc.report()
	}
	res.Duration = time.Since(start)
	obs.Progressf("meissa: %s: generation done in %v (%d templates, %d paths, %d solver checks)",
		s.Prog.Name, res.Duration, len(res.Templates), res.PathsExplored, res.SMTCalls)
	return res, nil
}

// passConfigs derives what a generation explores under from the system's
// options: the summarization's options and the final pass's
// configuration, both reading and writing the verdict table j (nil for
// none).
func (s *System) passConfigs(g *cfg.Graph, initC []expr.Bool, j *journal.Journal) (summary.Options, sym.Config) {
	symOpts := sym.Options{
		EarlyTermination: s.Opts.EarlyTermination,
		Solver:           s.solverOptions(),
		SolverSet:        true,
		Parallelism:      s.Opts.Parallelism,
		MaxPaths:         s.Opts.MaxPaths,
		Strict:           s.Opts.Strict,
		PathHook:         s.Opts.PathHook,
		Journal:          j,
	}
	sumOpts := summary.Options{
		Sym:              symOpts,
		UsePreconditions: s.Opts.UsePreconditions,
		InitConstraints:  initC,
	}
	symOpts.WantModels = true
	return sumOpts, sym.Config{
		Graph:           g,
		Start:           cfg.None,
		InitConstraints: initC,
		Options:         symOpts,
	}
}

// heapAllocs reads the process's cumulative heap allocation count and
// volume (runtime.MemStats' Mallocs and TotalAlloc) without stopping the
// world, which ReadMemStats does.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// sourcePhases are the phases that fill a run's verdict table.
var sourcePhases = map[string]bool{"journal-load": true, "rebase": true, "store-open": true, "store-warm": true}

// Report builds the machine-readable run report (obs.ReportSchema) for
// this generation: phase durations, path counts before/after summary
// reduction, the solver outcome histogram and latency, and journal
// activity. The caller may extend it (the test subcommand adds the driver
// section) before writing it out.
func (g *GenResult) Report(command, program string) *obs.Report {
	rep := &obs.Report{
		Schema:      obs.ReportSchema,
		Command:     command,
		Program:     program,
		Parallelism: g.Parallelism,
		WallNS:      int64(g.Duration),
		Phases:      g.Phases,
		Paths: &obs.PathReport{
			Explored:            g.PathsExplored,
			FinalExplored:       g.FinalPathsExplored,
			FinalMallocs:        g.FinalMallocs,
			FinalAllocBytes:     g.FinalAllocBytes,
			Pruned:              g.PrunedPaths,
			Frames:              g.Frames,
			RowFrames:           g.RowFrames,
			Templates:           len(g.Templates),
			PossibleLog10Before: g.PossiblePathsLog10Before,
			PossibleLog10After:  g.PossiblePathsLog10After,
			Truncated:           g.Truncated,
			Recovered:           g.Recovered,
		},
		Solver: obs.NewSolverReport(g.SMT.Checks, g.SMT.SatResults, g.SMT.UnsatResults,
			g.SMT.Unknowns, g.SMT.BudgetExhausted, g.Duration),
		Journal: &obs.JournalReport{
			Appended: g.JournalAppended,
			Loaded:   g.JournalLoaded,
			Hits:     g.JournalHits,
		},
	}
	for _, p := range g.Phases {
		if sourcePhases[p.Name] {
			rep.Journal.SourceNS += p.NS
		}
	}
	if g.JournalHits > 0 {
		rep.Journal.BreakevenNSPerQuery = float64(rep.Journal.SourceNS) / float64(g.JournalHits)
	}
	rep.Solver.TruncatedUnknown = g.SMT.TruncatedUnknown
	rep.Solver.Propagations = g.SMT.Propagations
	if g.SMT.Latency.Count > 0 {
		rep.Solver.LatencyNS = &g.SMT.Latency
		rep.Solver.LatencyQuantiles = g.SMT.Latency.SummaryQuantiles()
	}
	rep.Store = g.Store
	return rep
}

func (s *System) solverOptions() smt.Options {
	o := smt.DefaultOptions()
	o.Incremental = s.Opts.IncrementalSolving
	o.PerCheckOverhead = s.Opts.SolverOverhead
	if s.Opts.SolverSearchBudget > 0 {
		o.SearchBudget = s.Opts.SolverSearchBudget
	}
	return o
}

// fingerprint digests everything that determines solver verdicts — the
// program, the rules, the generation-scoping assume clauses, and the
// verdict-affecting options — into the checkpoint journal's identity.
// Parallelism and MaxPaths are deliberately excluded: they
// change how much gets explored, never what any query's verdict is, so a
// journal written at one setting resumes correctly at another.
func (s *System) fingerprint(initC []expr.Bool) uint64 {
	return s.identity(initC, s.Rules.String())
}

// identity digests the program, rulesText, the assume clauses and the
// verdict-affecting options. It is the one writer of both of a system's
// identities — the checkpoint fingerprint, which passes the rules, and the
// store family (storeCtx.fam), which passes none — so the two cannot
// drift apart in what they take an option to be.
func (s *System) identity(initC []expr.Bool, rulesText string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, p4.Print(s.Prog))
	io.WriteString(h, rulesText)
	for _, b := range initC {
		io.WriteString(h, b.String())
		io.WriteString(h, "\n")
	}
	so := s.solverOptions()
	// ct=0 is where a per-query wall-clock timeout was written; the literal
	// keeps the identities of checkpoints and stores made before it went.
	fmt.Fprintf(h, "|cs=%v pre=%v et=%v inc=%v sb=%d ct=0 cpv=%d",
		s.Opts.CodeSummary, s.Opts.UsePreconditions, s.Opts.EarlyTermination,
		s.Opts.IncrementalSolving, so.SearchBudget, so.CandidatesPerVar)
	return h.Sum64()
}

// Fingerprint returns the system's checkpoint-journal identity: the
// digest of the program, rules, generation-scoping assume clauses, and
// verdict-affecting options.
func (s *System) Fingerprint() (uint64, error) {
	initC, err := s.commonAssumes()
	if err != nil {
		return 0, err
	}
	return s.fingerprint(initC), nil
}

// commonAssumes translates spec assume clauses shared by every spec.
func (s *System) commonAssumes() ([]expr.Bool, error) {
	if len(s.Specs) == 0 {
		return nil, nil
	}
	first, err := s.Specs[0].AssumeConstraints(s.Prog)
	if err != nil {
		return nil, err
	}
	if len(s.Specs) == 1 {
		return first, nil
	}
	keep := make(map[string]bool, len(first))
	for _, b := range first {
		keep[b.String()] = true
	}
	for _, sp := range s.Specs[1:] {
		bs, err := sp.AssumeConstraints(s.Prog)
		if err != nil {
			return nil, err
		}
		have := map[string]bool{}
		for _, b := range bs {
			have[b.String()] = true
		}
		for k := range keep {
			if !have[k] {
				delete(keep, k)
			}
		}
	}
	var out []expr.Bool
	for _, b := range first {
		if keep[b.String()] {
			out = append(out, b)
		}
	}
	return out, nil
}

// NewDriver builds the system's test driver over a link, for callers
// that tune resilience knobs (Retries, CaseTimeout, RecvTimeout, Backoff)
// before running the suite.
func (s *System) NewDriver(link driver.Link, gen *GenResult) *driver.Driver {
	return driver.New(s.Prog, gen.Graph, link, s.Specs)
}

// Test runs the generated templates against a target over the link and
// returns the report.
func (s *System) Test(link driver.Link, gen *GenResult) (*driver.Report, error) {
	return s.NewDriver(link, gen).RunTemplates(gen.Templates)
}

// TestTarget compiles nothing — it wires a loopback link to the given
// target and runs the full test suite.
func (s *System) TestTarget(target *switchsim.Target, gen *GenResult) (*driver.Report, error) {
	return s.Test(driver.NewLoopback(target), gen)
}

// Localize produces the §7 bug-localization trace for a failing outcome:
// the symbolic path (executed actions, hit table rules, branching) from
// the template, side by side with the target's physical trace when the
// link captured one.
func Localize(gen *GenResult, o *driver.Outcome, target *switchsim.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Bug localization for test case %d ===\n", o.Case.ID)
	if len(o.Mismatches) > 0 {
		b.WriteString("prediction mismatches (likely NON-CODE bug — compiled target diverges from source semantics):\n")
		for _, m := range o.Mismatches {
			fmt.Fprintf(&b, "  - %s\n", m)
		}
	}
	if len(o.Violations) > 0 {
		b.WriteString("intent violations (code bug if prediction matches output, else non-code):\n")
		for _, v := range o.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	if len(o.ChecksumErrors) > 0 {
		b.WriteString("checksum errors:\n")
		for _, c := range o.ChecksumErrors {
			fmt.Fprintf(&b, "  - %s\n", c)
		}
	}
	b.WriteString("symbolic trace (source semantics):\n")
	for _, id := range o.Case.Template.Path {
		n := gen.Graph.Node(id)
		if n.Comment == "" || n.ID != id {
			continue // a summary row prints once, at its own ID
		}
		fmt.Fprintf(&b, "  %s: %s\n", n.Comment, n.StmtString())
	}
	if target != nil {
		b.WriteString("physical trace (compiled target):\n")
		for _, line := range target.Trace {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}
