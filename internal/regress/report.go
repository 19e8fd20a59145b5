package regress

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs"
)

// Schema versions the machine-readable incremental-regression report
// written by `meissa regress -report`. Bump on any incompatible change.
const Schema = "meissa.regress-report/v1"

// DeltaReport summarizes the rule-set delta that drove the run.
type DeltaReport struct {
	TablesChanged   []string `json:"tables_changed"`
	EntriesAdded    int      `json:"entries_added"`
	EntriesRemoved  int      `json:"entries_removed"`
	EntriesModified int      `json:"entries_modified"`
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

// QueryReport accounts for solver work in the incremental run: what was
// actually solved live versus answered from the baseline's verdicts. The
// perf gate of incremental regression is Live being a small fraction of
// Total.
type QueryReport struct {
	// Live counts queries the incremental run's solver actually ran.
	Live uint64 `json:"live"`
	// JournalHits counts solver interactions answered from the baseline's
	// retained verdicts.
	JournalHits uint64 `json:"journal_hits"`
	// Avoided = JournalHits; Total = Live + Avoided.
	Avoided uint64 `json:"avoided"`
	Total   uint64 `json:"total"`
	// Reuse = Avoided / Total (0 when Total is 0).
	Reuse float64 `json:"reuse"`
}

// Report is the machine-readable result of one incremental regression
// run. The embedded Run is the incremental generation's ordinary run
// report, so one file carries both the regression accounting and the
// full phase/solver/journal detail.
type Report struct {
	Schema  string `json:"schema"`
	Program string `json:"program,omitempty"`
	RuleSet string `json:"rule_set,omitempty"`
	// WallNS is the end-to-end regress wall-clock: the baseline read, the
	// rule diff and the incremental generation.
	WallNS    int64           `json:"wall_ns"`
	Delta     *DeltaReport    `json:"delta"`
	Journal   *RebaseStats    `json:"journal"`
	Templates *TemplateReport `json:"templates"`
	Queries   *QueryReport    `json:"queries"`
	Run       *obs.Report     `json:"run,omitempty"`
}

// NewQueryReport derives the query section from raw counts.
func NewQueryReport(live, journalHits uint64) *QueryReport {
	q := &QueryReport{
		Live:        live,
		JournalHits: journalHits,
		Avoided:     journalHits,
	}
	q.Total = q.Live + q.Avoided
	if q.Total > 0 {
		q.Reuse = float64(q.Avoided) / float64(q.Total)
	}
	return q
}

// Validate checks the report's structural invariants; the CI
// regress-smoke gate runs it before trusting a file.
func (r *Report) Validate() error { return r.validate(0) }

// validate is Validate for a report whose avoided queries include
// cacheHits answered from a cross-worker verdict memo, which only reports
// of earlier releases count.
func (r *Report) validate(cacheHits uint64) error {
	if r.Schema != Schema {
		return fmt.Errorf("regress: report schema %q, want %q", r.Schema, Schema)
	}
	if r.WallNS <= 0 {
		return fmt.Errorf("regress: report wall_ns = %d, want > 0", r.WallNS)
	}
	if r.Delta == nil || r.Journal == nil || r.Templates == nil || r.Queries == nil {
		return fmt.Errorf("regress: report missing a required section")
	}
	j := r.Journal
	if j.Retained+j.Invalidated != j.Baseline {
		return fmt.Errorf("regress: journal accounting %d+%d != baseline %d",
			j.Retained, j.Invalidated, j.Baseline)
	}
	t := r.Templates
	if t.Added+t.Unchanged != t.Current {
		return fmt.Errorf("regress: templates added %d + unchanged %d != current %d",
			t.Added, t.Unchanged, t.Current)
	}
	if t.Retired+t.Unchanged != t.Baseline {
		return fmt.Errorf("regress: templates retired %d + unchanged %d != baseline %d",
			t.Retired, t.Unchanged, t.Baseline)
	}
	q := r.Queries
	if q.Avoided != q.JournalHits+cacheHits {
		return fmt.Errorf("regress: queries avoided %d != journal %d + cache %d",
			q.Avoided, q.JournalHits, cacheHits)
	}
	if q.Total != q.Live+q.Avoided {
		return fmt.Errorf("regress: queries total %d != live %d + avoided %d",
			q.Total, q.Live, q.Avoided)
	}
	if r.Run != nil {
		if err := r.Run.Validate(); err != nil {
			return fmt.Errorf("regress: embedded run report: %w", err)
		}
	}
	return nil
}

// ParseReport decodes and validates a serialized regress report,
// including one of an earlier release that counted queries.cache_hits.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	var legacy struct {
		Queries struct {
			CacheHits uint64 `json:"cache_hits"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("regress: parse report: %w", err)
	}
	if err := json.Unmarshal(data, &legacy); err != nil {
		return nil, fmt.Errorf("regress: parse report: %w", err)
	}
	if err := r.validate(legacy.Queries.CacheHits); err != nil {
		return nil, err
	}
	return &r, nil
}
