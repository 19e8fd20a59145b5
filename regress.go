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
// program, the rule set the baseline was generated under, the updated rule
// set, and the baseline checkpoint itself.
type RegressInput struct {
	Prog     *p4.Program
	OldRules *rules.Set
	NewRules *rules.Set
	Specs    []*spec.Spec
	// Opts configures the incremental generation; its verdict-affecting
	// options must be the baseline's. Checkpoint is required: it receives
	// the verdicts the run uses (and must differ from Baseline). Resume is
	// ignored, and a store is rejected: RegressStore is the store-backed
	// regression.
	Opts Options
	// Baseline is the checkpoint of a completed run of Prog under OldRules
	// (same verdict-affecting options): one that ends with the run's
	// template list. It is never modified.
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
	// list. It holds no templates. Only the benchmark harness reads it;
	// ROADMAP item 1 deletes it.
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
//  2. index the baseline checkpoint — once, read-only — and read from it
//     the template list its run completed with;
//  3. run the incremental generation over the indexed records as they
//     are, a record whose dependency tags the delta invalidates being a
//     miss; Checkpoint receives each verdict the run uses, answered or
//     solved, where a cold run on NewRules appends it;
//  4. compare the baseline's template list with the new templates by
//     content-based path key and emit the regress report.
//
// A baseline without a template list under OldRules' fingerprint — an
// interrupted or halted run's checkpoint — is refused with the way out:
// complete it with `meissa gen -checkpoint FILE -resume`.
//
// Correctness is machine-checkable: the incremental generation's
// templates are byte-identical to a cold full run on NewRules (journal
// records are content-keyed, so a retained verdict can only answer a
// walk whose content matches the walk that produced it), and at
// Parallelism 1 so is Checkpoint. A regression killed part-way leaves in
// Checkpoint only the verdicts it had used; the baseline is untouched, so
// running the regression again is the way out, and a resume of Checkpoint
// the fallback, which solves the rest again.
func Regress(in RegressInput) (*RegressResult, error) {
	switch {
	case in.Baseline == "":
		return nil, fmt.Errorf("meissa: regress: missing Baseline journal")
	case in.Opts.Checkpoint == "":
		return nil, fmt.Errorf("meissa: regress: missing Checkpoint (the incremental run's journal path)")
	case in.Opts.Checkpoint == in.Baseline:
		return nil, fmt.Errorf("meissa: regress: Checkpoint must differ from Baseline")
	case in.Opts.StorePath != "":
		// The generation would commit the update to a store whose baseline
		// it never read.
		return nil, fmt.Errorf("meissa: regress: StorePath not allowed (use RegressStore)")
	}
	return regressFrom(in, nil, func(fp uint64) (*journal.Table, journal.Entry, error) {
		t, err := journal.ReadTable(in.Baseline, fp)
		if err != nil {
			return nil, journal.Entry{}, err
		}
		if !isList(t.Templates(), fp) {
			return nil, journal.Entry{}, fmt.Errorf("baseline %s holds no template list: it is not a completed run's checkpoint "+
				"(complete it with `meissa gen -checkpoint %s -resume`)", in.Baseline, in.Baseline)
		}
		return t, t.Templates(), nil
	})
}

// isList reports whether l is the template list of the run fp identifies.
func isList(l journal.Entry, fp uint64) bool {
	return l.Frame() != nil && l.Key() == fp
}

// verdictSource hands a generation its starting verdicts from somewhere
// other than its own Checkpoint file or Options.StorePath: the plumbing
// between a regression and its generation. It sets either base or stc.
type verdictSource struct {
	// base is a regression's baseline table, which the generation adopts
	// under the filter match.
	base  *journal.Table
	match func(tag []byte) bool
	// stc is RegressStore's store context: the generation warms from it and
	// commits to it as it would to its own StorePath.
	stc *storeCtx
}

// regressFrom is Regress over any baseline: load yields the template list
// of a completed run under OldRules, keyed by the fingerprint it is given,
// and — without stc — the table of that run's verdicts, which the
// incremental generation adopts. With stc the incremental generation is a
// store-backed one over it, which adopts the store's own table.
func regressFrom(in RegressInput, stc *storeCtx, load func(fp uint64) (*journal.Table, journal.Entry, error)) (*RegressResult, error) {
	start := time.Now()
	span := obs.Begin("regress")
	defer span.End()

	delta := rulediff.Diff(in.OldRules, in.NewRules)
	invalid := delta.InvalidTags()
	obs.Progressf("regress: %d tables changed, %d invalidated tags", len(delta.Tables), len(invalid))

	// --- Baseline load (old rules: its verdicts and its template list) ---
	oldSys, err := New(in.Prog, in.OldRules, in.Specs, in.Opts)
	if err != nil {
		return nil, err
	}
	srcFP, err := oldSys.Fingerprint()
	if err != nil {
		return nil, err
	}
	loading := obs.Begin("regress/journal-load")
	base, list, err := load(srcFP)
	d := loading.End()
	if err != nil {
		return nil, fmt.Errorf("meissa: regress: %w", err)
	}
	baseGen := &GenResult{Duration: d, Phases: []obs.PhaseDur{{Name: "journal-load", NS: int64(d), Count: 1}}}
	keys := list.PathKeys()
	nBase, baseKeys := len(keys), make(map[uint64]int, len(keys))
	for _, k := range keys {
		baseKeys[k]++
	}

	// --- Incremental generation (new rules, retained verdicts) ---
	incrOpts := in.Opts
	incrOpts.Resume = false
	newSys, err := New(in.Prog, in.NewRules, in.Specs, incrOpts)
	if err != nil {
		return nil, err
	}
	gen, err := newSys.generate(&verdictSource{base: base, match: rulediff.Matcher(invalid), stc: stc})
	if err != nil {
		return nil, fmt.Errorf("meissa: regress: incremental generation: %w", err)
	}

	// --- Template delta by content-based path key (multiset) ---
	unchanged := 0
	for _, t := range gen.Templates {
		if baseKeys[t.PathKey] > 0 {
			baseKeys[t.PathKey]--
			unchanged++
		}
	}
	tr := &regress.TemplateReport{
		Baseline:  nBase,
		Current:   len(gen.Templates),
		Added:     len(gen.Templates) - unchanged,
		Retired:   nBase - unchanged,
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
