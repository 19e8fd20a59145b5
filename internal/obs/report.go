package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// ReportSchema versions the machine-readable run report written by
// `meissa ... -metrics-out`; bump it on any incompatible change. v2
// added the latency quantiles. It is the one schema the reader accepts;
// what a v2 writer once emitted and this build no longer knows (the
// shard, fleet and daemon sections, the trace_id field) is ignored on
// read.
const ReportSchema = "meissa.run-report/v2"

// Report is one run's machine-readable result: everything the paper's
// evaluation section (§5/§8) measures from a single invocation — phase
// wall-clock, path counts before/after summary reduction, solver query
// behaviour, journal and driver activity. The schema is append-only
// within a version: consumers must tolerate new optional fields.
type Report struct {
	Schema      string `json:"schema"`
	Command     string `json:"command,omitempty"` // gen | test | regress | bench
	Program     string `json:"program,omitempty"`
	RuleSet     string `json:"rule_set,omitempty"`
	Parallelism int    `json:"parallelism"`
	// WallNS is the run's end-to-end wall-clock (generation; plus driving
	// for `test` runs).
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
	// Registry carries the process metric snapshot (optional; CLI runs
	// attach it so one file holds both the curated report and the raw
	// latency distributions and phases).
	Registry *Snapshot `json:"registry,omitempty"`
}

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
	// Explored it is what a descent costs in graph steps.
	Frames uint64 `json:"frames,omitempty"`
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
// from TotalQueries and WallNS by NewSolverReport.
type SolverReport struct {
	// TotalQueries is every satisfiability question asked. A new report
	// has TotalQueries = Solved; one of an earlier release that ran a
	// cross-worker verdict memo may add a legacy cache_hit bucket.
	TotalQueries uint64 `json:"total_queries"`
	// Solved counts queries the solver actually ran (the paper's "SMT
	// calls").
	Solved uint64 `json:"solved"`
	// Outcomes buckets every query: sat / unsat / unknown (solved), plus
	// budget_exhausted (the subset of unknown cut off by per-query
	// budgets).
	Outcomes map[string]uint64 `json:"outcomes"`
	// QueriesPerSec is TotalQueries normalized by the run wall-clock.
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
	// LatencyNS is the per-query latency histogram (log2 buckets).
	LatencyNS *HistogramSnapshot `json:"latency_ns,omitempty"`
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
	// legacyCacheHit is the bucket of queries an earlier release answered
	// from its cross-worker verdict memo. No new report has it; an old
	// one that does still validates.
	legacyCacheHit = "cache_hit"
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
	// CaseLatencyQuantiles summarizes driver.case_latency_ns as
	// p50/p90/p99 (ns) (v2).
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

// LinkReport mirrors driver.LinkStats.
type LinkReport struct {
	Dropped    uint64 `json:"dropped"`
	Duplicated uint64 `json:"duplicated"`
	Reordered  uint64 `json:"reordered"`
	Corrupted  uint64 `json:"corrupted"`
	Delayed    uint64 `json:"delayed"`
}

// NewSolverReport builds the solver section from raw counts, deriving
// TotalQueries and the rate.
func NewSolverReport(solved, sat, unsat, unknown, budgetExhausted uint64, wall time.Duration) *SolverReport {
	r := &SolverReport{
		TotalQueries: solved,
		Solved:       solved,
		Outcomes: map[string]uint64{
			OutcomeSat:             sat,
			OutcomeUnsat:           unsat,
			OutcomeUnknown:         unknown,
			OutcomeBudgetExhausted: budgetExhausted,
		},
	}
	if wall > 0 {
		r.QueriesPerSec = float64(r.TotalQueries) / wall.Seconds()
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
		if r.Solver.TotalQueries != r.Solver.Solved+o[legacyCacheHit] {
			return fmt.Errorf("obs: solver total_queries %d != solved %d + cache_hit %d",
				r.Solver.TotalQueries, r.Solver.Solved, o[legacyCacheHit])
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
		if r.Paths != nil && r.Solver.TotalQueries == 0 && (r.Journal == nil || r.Journal.Hits == 0) {
			return fmt.Errorf("obs: solver.total_queries = 0 on a generation run with no journal hits")
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
