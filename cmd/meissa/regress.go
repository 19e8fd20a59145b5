package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	meissa "repro"
	"repro/internal/p4"
	"repro/internal/rulediff"
	"repro/internal/rules"
)

// cmdRegress runs rule-diff-driven incremental regression testing: given
// a verdict store a baseline run populated and an updated rule set, it
// re-explores only the paths the rule delta touches, commits the update
// back to the store and reports how much solver work the reuse avoided.
// The incremental output is byte-identical to a cold full run on the new
// rules (-o files diff clean against `meissa gen` on the same inputs).
func cmdRegress(args []string) error {
	fs := flag.NewFlagSet("regress", flag.ContinueOnError)
	gf := registerGenFlags(fs, "store", "store-wait", "o", "no-summary", "parallel")
	rulesNew := fs.String("rules-new", "", "updated rule set file")
	mutate := fs.Int("mutate", 0, "derive the new rules by bumping N action arguments of the old rules (instead of -rules-new)")
	checkpointPath := fs.String("checkpoint", "", "journal the incremental generation checkpoints to (default: none)")
	emitRules := fs.String("emit-rules", "", "write the effective new rule set to this file")
	verbose := fs.Bool("v", false, "print per-phase progress on stderr")
	ob := registerObsFlags(fs)
	prog, rs, specs, err := loadInputs(fs, args)
	if err != nil {
		return err
	}
	if *rulesNew != "" && *mutate != 0 {
		return fmt.Errorf("-rules-new and -mutate both name the new rules: give one")
	}
	if err := ob.activate(*verbose); err != nil {
		return err
	}
	if gf.store == "" {
		return fmt.Errorf("regress requires -store <file>")
	}
	if *rulesNew == "" && *mutate <= 0 {
		return fmt.Errorf("regress requires -rules-new <file> or -mutate N")
	}
	newRules, err := loadNewRules(prog, *rulesNew, *mutate, rs)
	if err != nil {
		return err
	}

	opts := gf.options()
	opts.Checkpoint = *checkpointPath
	// The store's committed rule set is the baseline (OldRules nil): the
	// store supplies the baseline verdicts and templates, and the
	// incremental result commits back atomically.
	res, err := meissa.Regress(meissa.RegressInput{
		Prog:     prog,
		NewRules: newRules,
		Specs:    specs,
		Opts:     opts,
		Program:  prog.Name,
	})
	if err != nil {
		return err
	}
	printRegress(res)
	if err := gf.writeTemplates(res.Gen.Templates); err != nil {
		return err
	}
	if err := ob.finish(res.Run); err != nil {
		return err
	}
	// Written once the regression has run: a refused one writes nothing.
	if *emitRules != "" {
		return os.WriteFile(*emitRules, []byte(newRules.String()), 0o644)
	}
	return nil
}

// loadNewRules resolves the updated rule set: an explicit file, or a
// deterministic -mutate N arg bump of the old rules.
func loadNewRules(prog *p4.Program, path string, mutate int, old *rules.Set) (*rules.Set, error) {
	if path != "" {
		return rules.ParseFile(path)
	}
	mutated, n := rulediff.MutateArgs(prog, old, mutate)
	if n == 0 {
		return nil, fmt.Errorf("-mutate %d changed no entries (no action arguments in the rule set)", mutate)
	}
	return mutated, nil
}

func printRegress(res *meissa.RegressResult) {
	rep := res.Run.Regress
	d := rep.Delta
	fmt.Printf("regress %s: %d table(s) changed (+%d -%d ~%d entries) in %v\n",
		res.Run.Program, len(d.TablesChanged), d.EntriesAdded, d.EntriesRemoved, d.EntriesModified,
		time.Duration(res.Run.WallNS).Round(time.Millisecond))
	j := rep.Rebase
	fmt.Printf("  journal: %d/%d baseline verdicts retained (%d invalidated)\n",
		j.Retained, j.Baseline, j.Invalidated)
	t := rep.Templates
	fmt.Printf("  templates: %d (%d unchanged, %d added, %d retired)\n",
		t.Current, t.Unchanged, t.Added, t.Retired)
	q := rep.Queries
	fmt.Printf("  queries: %d live, %d avoided (%.0f%% reuse)\n", q.Live, q.JournalHits, 100*q.Reuse)
}
