package meissa

import (
	"errors"
	"io/fs"
	"os"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/rulediff"
	"repro/internal/rules"
	"repro/internal/spec"
)

// RegressInput names everything an incremental regression run needs: the
// program, the rule set the baseline was generated under, the updated rule
// set, and the baseline: a checkpoint or a verdict store.
type RegressInput struct {
	Prog     *p4.Program
	OldRules *rules.Set
	NewRules *rules.Set
	Specs    []*spec.Spec
	// Opts configures the incremental generation; its verdict-affecting
	// options must be the baseline's. Resume is ignored. StorePath names the
	// baseline when Baseline is unset: the store's family, whose stored rules
	// are the old ones, and which the run commits its update to. Checkpoint
	// is optional: it receives the verdicts the run uses (and must differ
	// from Baseline); unset, the run keeps them in memory.
	Opts Options
	// Baseline is the checkpoint of a completed run of Prog under OldRules
	// (same verdict-affecting options): one that ends with the run's
	// template list. It is never modified. Set it or Opts.StorePath, not
	// both.
	Baseline string
	// Program / RuleSet label the report.
	Program string
	RuleSet string
}

// RegressResult is the output of one incremental regression run.
type RegressResult struct {
	// Delta is the canonical rule diff that drove the invalidation.
	Delta *rulediff.Delta
	// BaselineGen is the baseline load: its Duration and its one
	// "journal-load" phase time reading the baseline's verdicts and template
	// list (a store's: the warm start). It holds no templates. Only the
	// benchmark harness reads it; ROADMAP item 1 deletes it.
	BaselineGen *GenResult
	// Gen is the incremental generation under NewRules. Its templates are
	// byte-identical to a cold full run on NewRules.
	Gen *GenResult
	// Run is the validated run report: the incremental generation's
	// sections, and the regression's own in Run.Regress.
	Run *obs.Report
	// Report is Run.Regress. Only the benchmark harness needs it; ROADMAP
	// item 1 deletes it.
	Report *obs.RegressReport
}

// baseline is what a run starts from besides its own Checkpoint: a
// completed run's table of verdicts, adopted as it is, and the delta from
// that run's rules to this one's, whose filter match makes a record it
// invalidates a miss. The table's template list is the baseline's
// templates. Regress fills it from a checkpoint; a store's warm start fills
// it from one snapshot.
type baseline struct {
	table *journal.Table
	match func(tag []byte) bool // nil matches no tag
	delta *rulediff.Delta
	// old, when set, is the rules a store baseline must hold: OldRules.
	old *rules.Set
}

// Regress runs rule-diff-driven incremental regression testing:
//
//  1. read the baseline — a checkpoint, indexed once and read-only, or the
//     store's family, by the warm start every store-backed generation
//     makes — with the template list its run completed with, and diff its
//     rules to NewRules canonically (internal/rulediff);
//  2. run the incremental generation over the baseline's records as they
//     are, a record whose dependency tags the delta invalidates being a
//     miss; Checkpoint receives each verdict the run uses, answered or
//     solved, where a cold run on NewRules appends it, and a store receives
//     the update in one commit;
//  3. compare the baseline's template list with the new templates by
//     content-based path key and emit the regress report.
//
// A baseline without a template list under its rules — an interrupted or
// halted run's checkpoint, a store whose last commit installed its rules
// without a completed run — is refused with the way out: complete it with
// `meissa gen -checkpoint FILE -resume`, or a completed `meissa gen -store
// FILE`. So are a store with no family and OldRules that are not the
// stored ones (OldRules is optional with a store). Every refusal is a
// *Refusal and comes before anything is written.
//
// Correctness is machine-checkable: the incremental generation's
// templates are byte-identical to a cold full run on NewRules (journal
// records are content-keyed, so a retained verdict can only answer a
// walk whose content matches the walk that produced it), and at
// Parallelism 1 so is Checkpoint. The store's commit retires the
// invalidated records, adds what the run derived and installs the new
// rules and template list together, so a crash leaves it serving the old
// baseline or the new one. A regression killed part-way leaves in
// Checkpoint only the verdicts it had used; the baseline is untouched, so
// running the regression again is the way out, and a resume of Checkpoint
// the fallback, which solves the rest again.
func Regress(in RegressInput) (*RegressResult, error) {
	opts := in.Opts
	opts.Resume = false
	if err := refuse(call{opts: opts, regress: true, baseline: in.Baseline, oldRules: in.OldRules != nil}); err != nil {
		return nil, err
	}
	start := time.Now()

	sys, err := New(in.Prog, in.NewRules, in.Specs, opts)
	if err != nil {
		return nil, err
	}
	base := &baseline{old: in.OldRules}
	var load time.Duration
	if in.Baseline != "" {
		initC, err := sys.commonAssumes()
		if err != nil {
			return nil, err
		}
		fp := sys.identity(initC, in.OldRules.String())
		t := time.Now()
		base.table, err = journal.ReadTable(in.Baseline, fp)
		load = time.Since(t)
		if err != nil {
			return nil, err
		}
		if !isList(base.table.Templates(), fp) {
			return nil, &Refusal{in.Baseline, "holds no template list: it is not a completed run's checkpoint",
				"complete it with `meissa gen -checkpoint " + in.Baseline + " -resume`"}
		}
		base.delta = rulediff.Diff(in.OldRules, in.NewRules)
		base.match = rulediff.Matcher(base.delta.InvalidTags())
	} else if _, err := os.Stat(opts.StorePath); errors.Is(err, fs.ErrNotExist) {
		// Refused before the store is opened, which would create it.
		return nil, &Refusal{opts.StorePath, "holds no baseline for this program family", "run gen with the store first"}
	}
	gen, err := sys.generate(base)
	if err != nil {
		return nil, err
	}
	if in.Baseline == "" {
		for _, p := range gen.Phases {
			if p.Name == "store-warm" {
				load = p.Dur()
			}
		}
	}
	baseGen := &GenResult{Duration: load, Phases: []obs.PhaseDur{{Name: "journal-load", NS: int64(load)}}}
	delta := base.delta
	obs.Progressf("regress: %d tables changed", len(delta.Tables))

	// --- Template delta by content-based path key (multiset) ---
	keys := base.table.Templates().PathKeys()
	nBase, baseKeys := len(keys), make(map[uint64]int, len(keys))
	for _, k := range keys {
		baseKeys[k]++
	}
	unchanged := 0
	for _, t := range gen.Templates {
		if baseKeys[t.PathKey] > 0 {
			baseKeys[t.PathKey]--
			unchanged++
		}
	}
	tr := &obs.TemplateReport{
		Baseline:  nBase,
		Current:   len(gen.Templates),
		Added:     len(gen.Templates) - unchanged,
		Retired:   nBase - unchanged,
		Unchanged: unchanged,
	}

	added, removed, modified := delta.Counts()
	q := obs.NewQueryReport(gen.SMTCalls, gen.JournalHits)
	rep := gen.Report("regress", in.Program)
	rep.RuleSet = in.RuleSet
	rep.WallNS = int64(time.Since(start))
	rep.Regress = &obs.RegressReport{
		Delta: &obs.DeltaReport{
			TablesChanged:   delta.ChangedTables(),
			EntriesAdded:    added,
			EntriesRemoved:  removed,
			EntriesModified: modified,
		},
		Rebase:    gen.Rebase,
		Templates: tr,
		Queries:   q,
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	obs.Progressf("regress: done in %v: %d/%d templates unchanged, %d added, %d retired; %.0f%% queries avoided",
		time.Since(start), tr.Unchanged, tr.Current, tr.Added, tr.Retired, 100*q.Reuse)
	return &RegressResult{Delta: delta, BaselineGen: baseGen, Gen: gen, Run: rep, Report: rep.Regress}, nil
}

// isList reports whether l is the template list of the run fp identifies.
func isList(l journal.Entry, fp uint64) bool {
	return l.Frame() != nil && l.Key() == fp
}
