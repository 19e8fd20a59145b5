package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	meissa "repro"
	"repro/internal/obs"
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
	watch := fs.Bool("watch", false, "keep watching -rules-new and re-regress on every change")
	interval := fs.Duration("interval", 2*time.Second, "watch poll interval")
	maxFailures := fs.Int("max-failures", 10, "exit non-zero after N consecutive watch failures (0 = never)")
	verbose := fs.Bool("v", false, "print per-phase progress on stderr")
	ob := registerObsFlags(fs)
	prog, rs, specs, err := loadInputs(fs, args)
	if err != nil {
		return err
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
	if *watch && *rulesNew == "" {
		return fmt.Errorf("-watch requires -rules-new (the file to watch)")
	}
	newRules, err := loadNewRules(prog, *rulesNew, *mutate, rs)
	if err != nil {
		return err
	}

	opts := gf.options()
	opts.Checkpoint = *checkpointPath

	// runOnce regresses from old (nil: the store's committed rule set, which
	// old must be when set) to new: the store supplies the baseline verdicts
	// and templates, and the incremental result commits back atomically.
	// Each run writes its own report.
	runOnce := func(old, new *rules.Set) error {
		res, err := meissa.Regress(meissa.RegressInput{
			Prog:     prog,
			OldRules: old,
			NewRules: new,
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
		return ob.finish(res.Run)
	}

	// The store's committed rule set IS the baseline; don't guess from
	// -corpus/-r.
	if err := runOnce(nil, newRules); err != nil {
		return err
	}
	// Written once the regression has run: a refused one writes nothing.
	if *emitRules != "" {
		if err := os.WriteFile(*emitRules, []byte(newRules.String()), 0o644); err != nil {
			return err
		}
	}
	if !*watch {
		return nil
	}

	// Watch mode: every iteration reads the baseline from and commits back
	// to the store, and the rules it applied — the stored rules once it has
	// committed — become the next one's old rules.
	//
	// The loop must survive transient failures (rule file mid-write,
	// store on a flaky mount, ENOSPC): each failure prints a warning and
	// backs the poll off exponentially (capped at 30s or 16x the interval,
	// whichever is larger); any success resets the failure count and the
	// backoff. A run of *maxFailures consecutive failures means the world
	// is durably broken — exit non-zero rather than spin silently forever.
	curRules := newRules
	lastText := newRules.String()
	consecutive := 0
	delay := *interval
	maxDelay := 30 * time.Second
	if d := 16 * *interval; d > maxDelay {
		maxDelay = d
	}
	fail := func(format string, args ...any) error {
		consecutive++
		obs.Warnf(format, args...)
		if *maxFailures > 0 && consecutive >= *maxFailures {
			return fmt.Errorf("watch: %d consecutive failures, giving up (last: %s)",
				consecutive, fmt.Sprintf(format, args...))
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
		obs.Progressf("regress: watch: backing off to %v after %d consecutive failure(s)", delay, consecutive)
		return nil
	}
	ok := func() {
		consecutive = 0
		delay = *interval
	}
	obs.Infof("meissa: watching %s (poll %v; interrupt to stop)", *rulesNew, *interval)
	for {
		time.Sleep(delay)
		next, err := rules.ParseFile(*rulesNew)
		if err != nil {
			if ferr := fail("regress: watch: %v", err); ferr != nil {
				return ferr
			}
			continue
		}
		// The text is recorded once it has run, or needs no run: a file that
		// parses but fails to regress is tried again on every poll, and
		// counts as a failure each time, as a file that does not parse does.
		text := next.String()
		if text == lastText {
			ok() // unchanged since it last ran: a healthy world
			continue
		}
		if !curRules.Equal(next) { // else a cosmetic edit: canonically identical
			if err := runOnce(curRules, next); err != nil {
				if ferr := fail("regress: watch iteration failed: %v", err); ferr != nil {
					return ferr
				}
				continue
			}
			curRules = next
		}
		ok()
		lastText = text
	}
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
