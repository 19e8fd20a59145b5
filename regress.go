package meissa

import (
	"fmt"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/regress"
	"repro/internal/rulediff"
	"repro/internal/rules"
	"repro/internal/spec"
)

// RegressInput names everything an incremental regression run needs: the
// program, the rule set the baseline journal was generated under, the
// updated rule set, and the baseline journal itself.
type RegressInput struct {
	Prog     *p4.Program
	OldRules *rules.Set
	NewRules *rules.Set
	Specs    []*spec.Spec
	// Opts configures both the baseline replay and the incremental
	// generation. Checkpoint is required: it receives the rebased journal
	// (and must differ from Baseline). Resume is ignored, and a store is
	// rejected: RegressStore is the store-backed regression.
	Opts Options
	// Baseline is the checkpoint journal of a completed run of Prog under
	// OldRules (same verdict-affecting options). It is never modified.
	Baseline string
	// Program / RuleSet label the report.
	Program string
	RuleSet string
}

// RegressResult is the output of one incremental regression run.
type RegressResult struct {
	// Delta is the canonical rule diff that drove the invalidation.
	Delta *rulediff.Delta
	// BaselineGen is the baseline replay under OldRules: journal-answered
	// re-derivation of the baseline's templates (near-zero live queries).
	BaselineGen *GenResult
	// Gen is the incremental generation under NewRules. Its templates are
	// byte-identical to a cold full run on NewRules.
	Gen *GenResult
	// Report is the validated machine-readable regression report.
	Report *regress.Report
}

// Regress runs rule-diff-driven incremental regression testing:
//
//  1. diff OldRules → NewRules canonically (internal/rulediff);
//  2. index the baseline journal — once, read-only — and replay it under
//     OldRules to recover the baseline template set without re-solving;
//  3. rebase the indexed records onto NewRules — dropping exactly those
//     whose dependency tags the delta invalidates, writing the rest to
//     Checkpoint — and run the incremental generation from them;
//  4. compare the two template sets by content-based path key and emit
//     the regress report.
//
// Correctness is machine-checkable: the incremental generation's
// templates are byte-identical to a cold full run on NewRules (journal
// records are content-keyed, so a retained verdict can only answer a
// walk whose content matches the walk that produced it).
func Regress(in RegressInput) (*RegressResult, error) {
	switch {
	case in.Baseline == "":
		return nil, fmt.Errorf("meissa: regress: missing Baseline journal")
	case in.Opts.Checkpoint == "":
		return nil, fmt.Errorf("meissa: regress: missing Checkpoint (rebased journal path)")
	case in.Opts.Checkpoint == in.Baseline:
		return nil, fmt.Errorf("meissa: regress: Checkpoint must differ from Baseline")
	case in.Opts.StorePath != "":
		// Each of the two generations would reconcile and commit half the
		// update.
		return nil, fmt.Errorf("meissa: regress: StorePath not allowed (use RegressStore)")
	}
	return regressFrom(in, nil, func(fp uint64) (*journal.Table, error) {
		return journal.ReadTable(in.Baseline, fp)
	})
}

// verdictSource hands a generation its starting verdicts from somewhere
// other than its own Checkpoint file or Options.StorePath: the plumbing
// between a regression and the two generations it runs. It sets either
// fill or stc.
type verdictSource struct {
	// phase names fill in GenResult.Phases.
	phase string
	// fill puts the verdicts into the generation's table.
	fill func(j *journal.Journal, res *GenResult) error
	// stc is RegressStore's store context: the generation warms from it and
	// commits to it as it would to its own StorePath.
	stc *storeCtx
}

// regressFrom is Regress over any baseline: load yields the table of a
// completed run under OldRules, journaled under the fingerprint it is
// given. It is called once, inside the baseline replay, whose Phases
// account for it. With stc the incremental generation is a store-backed
// one over it, which retains from the store's own table; without, it
// retains from the loaded baseline.
func regressFrom(in RegressInput, stc *storeCtx, load func(fp uint64) (*journal.Table, error)) (*RegressResult, error) {
	start := time.Now()
	span := obs.Begin("regress")
	defer span.End()

	delta := rulediff.Diff(in.OldRules, in.NewRules)
	invalid := delta.InvalidTags()
	obs.Progressf("regress: %d tables changed, %d invalidated tags", len(delta.Tables), len(invalid))

	// --- Baseline replay (old rules, the baseline answers everything) ---
	replayOpts := in.Opts
	replayOpts.Checkpoint, replayOpts.Resume = "", false
	oldSys, err := New(in.Prog, in.OldRules, in.Specs, replayOpts)
	if err != nil {
		return nil, err
	}
	srcFP, err := oldSys.Fingerprint()
	if err != nil {
		return nil, err
	}
	// The loaded baseline serves both generations, shared, and is released
	// by the second before it explores.
	var base *journal.Table
	baseGen, err := oldSys.generate(&verdictSource{phase: "journal-load", fill: func(j *journal.Journal, _ *GenResult) error {
		var err error
		if base, err = load(srcFP); err != nil {
			return err
		}
		return j.Adopt(base)
	}})
	if err != nil {
		return nil, fmt.Errorf("meissa: regress: baseline replay: %w", err)
	}

	// --- Incremental generation (new rules, retained verdicts) ---
	incrOpts := in.Opts
	incrOpts.Resume = false
	newSys, err := New(in.Prog, in.NewRules, in.Specs, incrOpts)
	if err != nil {
		return nil, err
	}
	incr := &verdictSource{stc: stc}
	if stc == nil {
		incr = &verdictSource{phase: "rebase", fill: func(j *journal.Journal, res *GenResult) error {
			kept, st := regress.Retain(base, rulediff.Matcher(invalid))
			base, res.Rebase = nil, st
			obs.Progressf("regress: rebase: %d/%d baseline verdicts retained (%d invalidated)",
				st.Retained, st.Baseline, st.Invalidated)
			return j.Adopt(kept)
		}}
	}
	gen, err := newSys.generate(incr)
	if err != nil {
		return nil, fmt.Errorf("meissa: regress: incremental generation: %w", err)
	}

	// --- Template delta by content-based path key (multiset) ---
	baseKeys := map[uint64]int{}
	for _, t := range baseGen.Templates {
		baseKeys[t.PathKey]++
	}
	unchanged := 0
	for _, t := range gen.Templates {
		if baseKeys[t.PathKey] > 0 {
			baseKeys[t.PathKey]--
			unchanged++
		}
	}
	tr := &regress.TemplateReport{
		Baseline:  len(baseGen.Templates),
		Current:   len(gen.Templates),
		Added:     len(gen.Templates) - unchanged,
		Retired:   len(baseGen.Templates) - unchanged,
		Unchanged: unchanged,
	}

	added, removed, modified := delta.Counts()
	q := regress.NewQueryReport(gen.SMTCalls, gen.JournalHits)
	rep := &regress.Report{
		Schema:  regress.Schema,
		Program: in.Program,
		RuleSet: in.RuleSet,
		WallNS:  int64(time.Since(start)),
		Delta: &regress.DeltaReport{
			TablesChanged:   delta.ChangedTables(),
			EntriesAdded:    added,
			EntriesRemoved:  removed,
			EntriesModified: modified,
		},
		Journal:   gen.Rebase,
		Templates: tr,
		Queries:   q,
		Run:       gen.Report("regress", in.Program, in.Opts.Parallelism),
	}
	rep.Run.RuleSet = in.RuleSet
	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("meissa: regress: %w", err)
	}
	obs.Progressf("regress: done in %v: %d/%d templates unchanged, %d added, %d retired; %.0f%% queries avoided",
		time.Since(start), tr.Unchanged, tr.Current, tr.Added, tr.Retired, 100*q.Reuse)
	return &RegressResult{Delta: delta, BaselineGen: baseGen, Gen: gen, Report: rep}, nil
}
