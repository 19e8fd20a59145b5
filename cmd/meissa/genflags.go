package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	meissa "repro"
	"repro/internal/sym"
)

// genFlags are the generation flags the subcommands share. Each flag is
// defined once, in genFlagDefs, and a subcommand registers the ones it
// takes by name, so a flag reads the same wherever it appears.
type genFlags struct {
	noSummary    bool
	parallel     int
	strict       bool
	solverBudget int
	store        string
	storeWait    time.Duration
	out          string
}

var genFlagDefs = map[string]func(*flag.FlagSet, *genFlags){
	"no-summary": func(fs *flag.FlagSet, g *genFlags) {
		fs.BoolVar(&g.noSummary, "no-summary", false, "disable code summary (the basic framework; part of a checkpoint's and a store family's identity)")
	},
	"parallel": func(fs *flag.FlagSet, g *genFlags) {
		fs.IntVar(&g.parallel, "parallel", 0, "exploration workers (0 = GOMAXPROCS of the process that explores, 1 = sequential)")
	},
	"strict": func(fs *flag.FlagSet, g *genFlags) {
		fs.BoolVar(&g.strict, "strict", false, "fail fast on per-path panics instead of isolating them")
	},
	"solver-budget": func(fs *flag.FlagSet, g *genFlags) {
		fs.IntVar(&g.solverBudget, "solver-budget", 0, "per-query solver backtracking-step budget (0 = default)")
	},
	"store": func(fs *flag.FlagSet, g *genFlags) {
		fs.StringVar(&g.store, "store", "", "durable verdict store file: a run warm-starts from it and commits its verdicts back (regress and store: required; regress: the baseline)")
	},
	"store-wait": func(fs *flag.FlagSet, g *genFlags) {
		fs.DurationVar(&g.storeWait, "store-wait", 0, "bounded retry when the store is locked by another process (0 = fail fast)")
	},
	"o": func(fs *flag.FlagSet, g *genFlags) {
		fs.StringVar(&g.out, "o", "", "write the generated test cases to this file (deterministic format)")
	},
}

// registerGenFlags declares the named generation flags on fs.
func registerGenFlags(fs *flag.FlagSet, names ...string) *genFlags {
	g := &genFlags{}
	for _, name := range names {
		genFlagDefs[name](fs, g)
	}
	return g
}

// options are the library options the flags select; a flag the subcommand
// did not register leaves its default.
func (g *genFlags) options() meissa.Options {
	return meissa.Options{
		NoSummary:          g.noSummary,
		Parallelism:        g.parallel,
		Strict:             g.strict,
		SolverSearchBudget: g.solverBudget,
		StorePath:          g.store,
		StoreWait:          g.storeWait,
	}
}

// writeTemplates writes the test cases to the -o file, if one was named.
func (g *genFlags) writeTemplates(ts []*sym.Template) error {
	if g.out == "" {
		return nil
	}
	f, err := os.Create(g.out)
	if err != nil {
		return err
	}
	if err := meissa.WriteTemplates(f, ts); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  wrote %d test cases to %s\n", len(ts), g.out)
	return nil
}
