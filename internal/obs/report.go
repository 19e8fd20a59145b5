package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// ReportSchema versions the machine-readable run report written by
// `meissa ... -metrics-out`; bump it on any incompatible change. v2
// added the latency quantiles; v3 dropped solver.total_queries (always
// solved) and took in a regression's accounting as the regress section.
// It is the one schema the reader accepts.
const ReportSchema = "meissa.run-report/v3"

// Report is one run's machine-readable result: everything the paper's
// evaluation section (§5/§8) measures from a single invocation — phase
// wall-clock, path counts before/after summary reduction, solver query
// behaviour, journal and driver activity. The schema is append-only
// within a version: consumers must tolerate new optional fields.
type Report struct {
	Schema      string `json:"schema"`
	Command     string `json:"command,omitempty"` // gen | test | regress
	Program     string `json:"program,omitempty"`
	RuleSet     string `json:"rule_set,omitempty"`
	Parallelism int    `json:"parallelism"` // the workers the run explored with: GOMAXPROCS for a requested 0
	// WallNS is the run's end-to-end wall-clock (generation; plus driving
	// for `test` runs; a regression's baseline read, rule diff and
	// generation for `regress` runs).
	WallNS int64 `json:"wall_ns"`
	// Phases lists per-phase wall-clock in execution order
	// (parse/typecheck/cfg/summary/sym/testgen/drive as applicable).
	Phases []PhaseDur `json:"phases"`
	// Paths reports exploration volume and summary reduction.
	Paths *PathReport `json:"paths,omitempty"`
	// Solver reports query counts by outcome plus the latency histogram.
	Solver *SolverReport `json:"solver,omitempty"`
	// Journal reports checkpoint activity (zeros when not checkpointing).
	Journal *JournalReport `json:"journal,omitempty"`
	// Driver reports test execution results (nil for gen-only runs).
	Driver *DriverReport `json:"driver,omitempty"`
	// Store reports durable verdict-store activity (nil unless the run
	// was store-backed).
	Store *StoreReport `json:"store,omitempty"`
	// Regress reports a regression's accounting (nil unless the run was
	// one).
	Regress *RegressReport `json:"regress,omitempty"`
}

// PhaseDur is one phase of a run and its wall-clock.
type PhaseDur struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// Dur returns the phase's duration.
func (p PhaseDur) Dur() time.Duration { return time.Duration(p.NS) }

// PathReport is the exploration-volume section.
type PathReport struct {
	// Explored counts DFS descents across all phases; FinalExplored is the
	// final template-generation pass alone.
	Explored      uint64 `json:"explored"`
	FinalExplored uint64 `json:"final_explored"`
	// FinalMallocs/FinalAllocBytes are the heap allocation count and
	// volume of the final pass (deltas of the process's allocation
	// counters around it; only measured when it ran sequentially).
	// Divided by FinalExplored they are the per-path allocation cost.
	FinalMallocs    uint64 `json:"final_mallocs,omitempty"`
	FinalAllocBytes uint64 `json:"final_alloc_bytes,omitempty"`
	// Pruned counts prefixes cut by early termination.
	Pruned uint64 `json:"pruned"`
	// Frames counts the dfs frames all explorations entered; divided by
	// Explored it is what a descent costs in graph steps. RowFrames counts
	// those of them that ran a summary row.
	Frames    uint64 `json:"frames,omitempty"`
	RowFrames uint64 `json:"row_frames,omitempty"`
	// Templates is the emitted test case template count.
	Templates int `json:"templates"`
	// PossibleLog10Before/After are the whole-graph possible-path counts
	// before and after code summary (Fig. 11c unit); their difference is
	// the summary reduction ratio in decades.
	PossibleLog10Before float64 `json:"possible_log10_before"`
	PossibleLog10After  float64 `json:"possible_log10_after"`
	Truncated           bool    `json:"truncated,omitempty"`
	Recovered           uint64  `json:"recovered,omitempty"`
}

// SolverReport is the solver-behaviour section. The outcome histogram has
// the four buckets the evaluation cares about; QueriesPerSec is derived
// from Solved and the run's wall-clock by NewSolverReport.
type SolverReport struct {
	// Solved counts queries the solver actually ran (the paper's "SMT
	// calls"); a query answered from a verdict table is a journal hit.
	Solved uint64 `json:"solved"`
	// Outcomes buckets every query: sat / unsat / unknown (solved), plus
	// budget_exhausted (the subset of unknown cut off by per-query
	// budgets).
	Outcomes map[string]uint64 `json:"outcomes"`
	// QueriesPerSec is Solved normalized by the run wall-clock.
	QueriesPerSec float64 `json:"queries_per_sec"`
	// TruncatedUnknown is the part of Outcomes["unknown"] from searches
	// that found no model after cutting a candidate list short, where an
	// Unsat would not be a proof (smt.Stats.TruncatedUnknown). Counted on
	// live queries only; a verdict answered from a journal or store is not
	// re-derived.
	TruncatedUnknown uint64 `json:"truncated_unknown,omitempty"`
	// Propagations counts the domain propagations the solvers ran
	// (smt.Stats.Propagations): what asserting the path conditions cost.
	// The executor asserts a condition only for a query the journal cannot
	// answer, so a run answered wholly from a store or checkpoint makes 0.
	// At Parallelism > 1 it depends on the schedule, how the runners' work
	// interleaves: two runs of one input may differ by a few.
	Propagations uint64 `json:"propagations"`
	// LatencyNS is the run's per-query latency histogram (log2 buckets,
	// smt.Stats.Latency): one sample a solved query, so its count is
	// Solved.
	LatencyNS *Histogram `json:"latency_ns,omitempty"`
	// LatencyQuantiles summarizes LatencyNS as p50/p90/p99 (ns), derived
	// from the log2 buckets at report-build time (v2).
	LatencyQuantiles *Quantiles `json:"latency_quantiles,omitempty"`
}

// Outcome bucket names, fixed by the schema.
const (
	OutcomeSat             = "sat"
	OutcomeUnsat           = "unsat"
	OutcomeUnknown         = "unknown"
	OutcomeBudgetExhausted = "budget_exhausted"
)

// requiredOutcomes lists the buckets a valid report must carry (even when
// zero).
var requiredOutcomes = []string{
	OutcomeSat, OutcomeUnsat, OutcomeUnknown, OutcomeBudgetExhausted,
}

// JournalReport is the verdict-table section.
type JournalReport struct {
	// Appended counts records written by this run; Loaded counts records
	// the run started with; Hits counts solver interactions answered from
	// the table instead of re-solved.
	Appended uint64 `json:"appended"`
	Loaded   uint64 `json:"loaded"`
	Hits     uint64 `json:"hits"`
	// SourceNS is what filling the table cost: the run's journal-load,
	// rebase, store-open and store-warm phases summed.
	SourceNS int64 `json:"source_ns,omitempty"`
	// BreakevenNSPerQuery is SourceNS / Hits: the solver cost per query
	// above which this run's reuse paid for itself.
	BreakevenNSPerQuery float64 `json:"breakeven_ns_per_query,omitempty"`
}

// DriverReport is the test-execution section.
type DriverReport struct {
	Passed          int `json:"passed"`
	Failed          int `json:"failed"`
	Skipped         int `json:"skipped"`
	Flaky           int `json:"flaky"`
	Lost            int `json:"lost"`
	Retransmissions int `json:"retransmissions"`
	// TimeToFirstTestNS is the wall-clock from process start to the first
	// case verdict — the paper-style responsiveness metric.
	TimeToFirstTestNS int64 `json:"time_to_first_test_ns,omitempty"`
	// VerdictsPerSec is drive throughput: verdicted cases
	// (passed+failed+flaky+lost) per second of driving. CLI runs derive
	// it from the run's own drive phase; bench runs measure a sustained
	// regime (suite tiled to fill the window, repeated to amortize setup).
	VerdictsPerSec float64 `json:"verdicts_per_sec,omitempty"`
	// Window is the driver's in-flight case limit (1 = one at a time).
	Window int `json:"window,omitempty"`
	// BreakerTripped reports the target-crash circuit breaker fired;
	// ShortCircuited counts the cases recorded as Lost without
	// transmission after the trip (a subset of Lost).
	BreakerTripped bool `json:"breaker_tripped,omitempty"`
	ShortCircuited int  `json:"short_circuited,omitempty"`
	// Link counts injected link faults (zeros on clean links).
	Link *LinkReport `json:"link,omitempty"`
	// CaseLatencyQuantiles summarizes the drive's per-case latency
	// (driver.Report.CaseLatency) as p50/p90/p99 (ns) (v2).
	CaseLatencyQuantiles *Quantiles `json:"case_latency_quantiles,omitempty"`
	// Phases is where the drive's wall-clock went, stage by stage; what
	// the stages leave of the drive phase is timer, idle and bookkeeping.
	Phases *DrivePhases `json:"phases,omitempty"`
	// Target is the work the target under test counted while driven
	// (in-process targets only: the driver cannot see inside a remote one).
	Target *TargetReport `json:"target,omitempty"`
}

// DrivePhases is driver.Phases in nanoseconds.
type DrivePhases struct {
	ConcretizeNS int64 `json:"concretize_ns"`
	SendNS       int64 `json:"send_ns"`
	RecvNS       int64 `json:"recv_ns"`
	CheckNS      int64 `json:"check_ns"`
}

// TargetReport is the switchsim target's own account of a drive: exact
// counts kept by its machine, no clock involved.
type TargetReport struct {
	Packets      uint64 `json:"packets"`
	Instructions uint64 `json:"instructions"`
	Drops        uint64 `json:"drops"`
	// Tables lists every table that was applied, by probes, most first.
	Tables []TargetTable `json:"tables,omitempty"`
}

// TargetTable is one table's lookups. Probes is the priority depth of
// the hit rows — i+1 for a hit on row i, every row for a miss — a property
// of the program and the rules, not a count of rows the target examined.
type TargetTable struct {
	Name     string `json:"name"`
	Applies  uint64 `json:"applies"`
	Probes   uint64 `json:"probes"`
	Hits     uint64 `json:"hits"`
	Defaults uint64 `json:"defaults"`
}

// StoreReport is the durable verdict-store section: what the run pulled
// out of the store before exploring and what it committed back after.
// Its accounting identities are validated: a warm start's records are
// among those the run started with (journal.loaded >= warmed) and are
// read via a snapshot (snapshot_reads > 0), committed records ride at
// least one store transaction, and a transaction leaves a file with bytes
// in it.
type StoreReport struct {
	// Path is the store file.
	Path string `json:"path,omitempty"`
	// Warmed counts records the store put into the run's verdict table
	// before exploration.
	Warmed uint64 `json:"warmed"`
	// Invalidated counts records retired by rule-delta reconciliation.
	Invalidated uint64 `json:"invalidated,omitempty"`
	// Committed counts new records folded into the store by this run;
	// Duplicates counts the run's records the store already held — the
	// warmed ones, and any other found byte-identical at commit (a
	// fully-warmed re-run is all duplicates).
	Committed  uint64 `json:"committed"`
	Duplicates uint64 `json:"duplicates,omitempty"`
	// Engine activity for this run: transactions committed, bytes of
	// uncommitted tail the run's own open of the store dropped (crash
	// recovery; zero when the caller owns the open store), records read
	// through snapshots, records tested against retired tags (at the
	// run's own open, each record a tombstone follows once, and by the
	// commit's invalidation), and the store file's size when the run
	// ended.
	Commits       uint64 `json:"commits"`
	TailDiscarded uint64 `json:"tail_discarded,omitempty"`
	SnapshotReads uint64 `json:"snapshot_reads,omitempty"`
	TagTests      uint64 `json:"tag_tests,omitempty"`
	FileBytes     uint64 `json:"file_bytes,omitempty"`
}

// RegressReport is a regression's section: the rule delta that drove the
// run, what its baseline left it, the template delta and where its solver
// answers came from. Its accounting identities are validated, and
// Report.Validate holds the two counts it repeats to their sections.
type RegressReport struct {
	Delta     *DeltaReport    `json:"delta"`
	Rebase    *RebaseStats    `json:"rebase"`
	Templates *TemplateReport `json:"templates"`
	Queries   *QueryReport    `json:"queries"`
}

// DeltaReport summarizes the rule-set delta that drove the run.
type DeltaReport struct {
	TablesChanged   []string `json:"tables_changed"`
	EntriesAdded    int      `json:"entries_added"`
	EntriesRemoved  int      `json:"entries_removed"`
	EntriesModified int      `json:"entries_modified"`
}

// RebaseStats accounts for what a baseline leaves an incremental run.
type RebaseStats struct {
	// Baseline is the number of verdict records in the source journal
	// (deduplicated).
	Baseline int `json:"baseline_records"`
	// Retained records still answer the incremental run: their dependency
	// tags avoid every invalidated branch, so the run reads them without
	// re-solving.
	Retained int `json:"retained"`
	// Invalidated records crossed a changed table branch: the run's
	// lookups miss them.
	Invalidated int `json:"invalidated"`
}

// TemplateReport compares the baseline and incremental template sets by
// their content-based path keys (sym.Template.PathKey, multiset
// semantics: a path key appearing twice counts twice).
type TemplateReport struct {
	// Baseline / Current are the template counts of the two runs.
	Baseline int `json:"baseline"`
	Current  int `json:"current"`
	// Added templates exist only under the new rules; Retired only under
	// the old; Unchanged under both. Added+Unchanged == Current and
	// Retired+Unchanged == Baseline.
	Added     int `json:"added"`
	Retired   int `json:"retired"`
	Unchanged int `json:"unchanged"`
}

// QueryReport accounts for the incremental run's solver work: what was
// solved live (solver.solved) against what the baseline's verdicts
// answered (journal.hits). The perf gate of incremental regression is
// Live being a small fraction of the two.
type QueryReport struct {
	Live        uint64 `json:"live"`
	JournalHits uint64 `json:"journal_hits"`
	// Reuse = JournalHits / (Live + JournalHits), 0 when both are 0.
	Reuse float64 `json:"reuse"`
}

// NewQueryReport derives the query section from raw counts.
func NewQueryReport(live, journalHits uint64) *QueryReport {
	q := &QueryReport{Live: live, JournalHits: journalHits}
	if n := live + journalHits; n > 0 {
		q.Reuse = float64(journalHits) / float64(n)
	}
	return q
}

// Validate checks the section's own accounting identities.
func (g *RegressReport) Validate() error {
	if g.Delta == nil || g.Rebase == nil || g.Templates == nil || g.Queries == nil {
		return fmt.Errorf("obs: regress section missing a required part")
	}
	if b := g.Rebase; b.Retained+b.Invalidated != b.Baseline {
		return fmt.Errorf("obs: regress rebase %d retained + %d invalidated != %d baseline records",
			b.Retained, b.Invalidated, b.Baseline)
	}
	t := g.Templates
	if t.Added+t.Unchanged != t.Current {
		return fmt.Errorf("obs: regress templates added %d + unchanged %d != current %d",
			t.Added, t.Unchanged, t.Current)
	}
	if t.Retired+t.Unchanged != t.Baseline {
		return fmt.Errorf("obs: regress templates retired %d + unchanged %d != baseline %d",
			t.Retired, t.Unchanged, t.Baseline)
	}
	return nil
}

// LinkReport mirrors driver.LinkStats.
type LinkReport struct {
	Dropped    uint64 `json:"dropped"`
	Duplicated uint64 `json:"duplicated"`
	Reordered  uint64 `json:"reordered"`
	Corrupted  uint64 `json:"corrupted"`
	Delayed    uint64 `json:"delayed"`
}

// NewSolverReport builds the solver section from raw counts, deriving
// the rate.
func NewSolverReport(solved, sat, unsat, unknown, budgetExhausted uint64, wall time.Duration) *SolverReport {
	r := &SolverReport{
		Solved: solved,
		Outcomes: map[string]uint64{
			OutcomeSat:             sat,
			OutcomeUnsat:           unsat,
			OutcomeUnknown:         unknown,
			OutcomeBudgetExhausted: budgetExhausted,
		},
	}
	if wall > 0 {
		r.QueriesPerSec = float64(r.Solved) / wall.Seconds()
	}
	return r
}

// Validate checks a report's structural invariants: the CI metrics-smoke
// gate and the trajectory importer both run it before trusting a file.
func (r *Report) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("obs: report schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.WallNS <= 0 {
		return fmt.Errorf("obs: report wall_ns = %d, want > 0", r.WallNS)
	}
	if len(r.Phases) == 0 {
		return fmt.Errorf("obs: report has no phases")
	}
	seen := map[string]bool{}
	for _, p := range r.Phases {
		if p.Name == "" {
			return fmt.Errorf("obs: phase with empty name")
		}
		if p.NS <= 0 {
			return fmt.Errorf("obs: phase %q duration = %dns, want > 0", p.Name, p.NS)
		}
		seen[p.Name] = true
	}
	if r.Paths != nil {
		for _, req := range []string{"cfg", "sym"} {
			if !seen[req] {
				return fmt.Errorf("obs: generation report missing phase %q", req)
			}
		}
		if r.Paths.Explored == 0 {
			return fmt.Errorf("obs: paths.explored = 0")
		}
		if r.Paths.Templates == 0 && !r.Paths.Truncated {
			return fmt.Errorf("obs: paths.templates = 0 on an untruncated run")
		}
		if r.Paths.PossibleLog10After > r.Paths.PossibleLog10Before {
			return fmt.Errorf("obs: possible paths grew after summary (%.2f -> %.2f)",
				r.Paths.PossibleLog10Before, r.Paths.PossibleLog10After)
		}
	}
	if r.Solver != nil {
		o := r.Solver.Outcomes
		if o == nil {
			return fmt.Errorf("obs: solver.outcomes missing")
		}
		for _, k := range requiredOutcomes {
			if _, ok := o[k]; !ok {
				return fmt.Errorf("obs: solver.outcomes missing bucket %q", k)
			}
		}
		if got := o[OutcomeSat] + o[OutcomeUnsat] + o[OutcomeUnknown]; got != r.Solver.Solved {
			return fmt.Errorf("obs: solver outcomes sum %d != solved %d", got, r.Solver.Solved)
		}
		if o[OutcomeBudgetExhausted] > o[OutcomeUnknown] {
			return fmt.Errorf("obs: budget_exhausted %d > unknown %d",
				o[OutcomeBudgetExhausted], o[OutcomeUnknown])
		}
		if r.Solver.TruncatedUnknown > o[OutcomeUnknown] {
			return fmt.Errorf("obs: truncated_unknown %d > unknown %d", r.Solver.TruncatedUnknown, o[OutcomeUnknown])
		}
		// A full-journal resume legitimately answers every solver
		// interaction from the checkpoint, leaving zero live queries.
		if r.Paths != nil && r.Solver.Solved == 0 && (r.Journal == nil || r.Journal.Hits == 0) {
			return fmt.Errorf("obs: solver.solved = 0 on a generation run with no journal hits")
		}
	}
	if j := r.Journal; j != nil && (j.SourceNS < 0 || j.BreakevenNSPerQuery < 0) {
		return fmt.Errorf("obs: journal source_ns %d, breakeven_ns_per_query %g: want >= 0", j.SourceNS, j.BreakevenNSPerQuery)
	}
	if r.Driver != nil {
		if n := r.Driver.Passed + r.Driver.Failed + r.Driver.Flaky + r.Driver.Lost + r.Driver.Skipped; n == 0 {
			return fmt.Errorf("obs: driver report with zero cases")
		}
		if r.Driver.ShortCircuited > r.Driver.Lost {
			return fmt.Errorf("obs: driver short_circuited %d > lost %d", r.Driver.ShortCircuited, r.Driver.Lost)
		}
		if r.Driver.ShortCircuited > 0 && !r.Driver.BreakerTripped {
			return fmt.Errorf("obs: driver short-circuited %d cases without the breaker tripping", r.Driver.ShortCircuited)
		}
	}
	if st := r.Store; st != nil {
		if st.Warmed > 0 {
			// Warm-start records are part of what the run started with and
			// leave the store through a snapshot read.
			var loaded uint64
			if r.Journal != nil {
				loaded = r.Journal.Loaded
			}
			if loaded < st.Warmed {
				return fmt.Errorf("obs: store warmed %d records but journal loaded %d", st.Warmed, loaded)
			}
			if st.SnapshotReads == 0 {
				return fmt.Errorf("obs: store warmed %d records with zero snapshot reads", st.Warmed)
			}
		}
		if st.Committed+st.Invalidated > 0 && st.Commits == 0 {
			return fmt.Errorf("obs: store committed/invalidated records without a store transaction")
		}
		if st.Commits > 0 && st.FileBytes == 0 {
			return fmt.Errorf("obs: store committed %d transactions into a file of no bytes", st.Commits)
		}
	}
	if g := r.Regress; g != nil {
		if err := g.Validate(); err != nil {
			return err
		}
		// The section repeats two counts of others: it must repeat them.
		if r.Solver == nil || g.Queries.Live != r.Solver.Solved {
			return fmt.Errorf("obs: regress queries.live %d != solver.solved", g.Queries.Live)
		}
		if r.Journal == nil || g.Queries.JournalHits != r.Journal.Hits {
			return fmt.Errorf("obs: regress queries.journal_hits %d != journal.hits", g.Queries.JournalHits)
		}
	}
	return nil
}

// ParseReport decodes and validates a serialized report.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: parse report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
