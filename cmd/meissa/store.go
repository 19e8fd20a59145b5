package main

import (
	"flag"
	"fmt"
	"time"

	meissa "repro"
	"repro/internal/obs"
)

// cmdStore manages the disk-backed verdict store:
//
//	meissa store info   -store FILE (-p prog.p4 [-r rules.txt] | -corpus NAME)
//	meissa store import -store FILE -journal FILE (-p ... | -corpus NAME)
//	meissa store export -store FILE -journal FILE (-p ... | -corpus NAME)
//
// import folds an existing checkpoint journal into the store (the
// journal→store migration for runs checkpointed before the store
// existed); export materializes the stored verdicts back out as a
// resume journal; info prints what the store holds for the program
// family. All three need the program/rules/options because store
// families and journal fingerprints are content-addressed.
func cmdStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: meissa store <info|import|export> -store FILE [flags]")
	}
	verb, rest := args[0], args[1:]
	fs := flag.NewFlagSet("store "+verb, flag.ContinueOnError)
	gf := registerGenFlags(fs, "store", "no-summary")
	journalPath := fs.String("journal", "", "checkpoint journal file (import source / export destination)")
	quiet := fs.Bool("quiet", false, "suppress progress and warning output on stderr")
	prog, rs, specs, _, err := loadInputs(fs, rest)
	if err != nil {
		return err
	}
	if *quiet {
		obs.SetLogLevel(obs.LevelQuiet)
	}
	if gf.store == "" {
		return fmt.Errorf("store %s requires -store <file>", verb)
	}
	sys, err := meissa.New(prog, rs, specs, gf.options())
	if err != nil {
		return err
	}

	switch verb {
	case "info":
		st, err := sys.StoreStatus()
		if err != nil {
			return err
		}
		fmt.Printf("store %s: %d bytes, txid %d\n", st.Path, st.FileBytes, st.Txid)
		fmt.Printf("  family %016x (journal fingerprint %016x)\n", st.Family, st.Fingerprint)
		if !st.Present {
			fmt.Println("  family not present (cold store for this program/options)")
			return nil
		}
		fmt.Printf("  records %d, rules hash %016x (%d bytes of rules text)\n",
			st.Records, st.RulesHash, len(st.Rules))
		return nil

	case "import":
		if *journalPath == "" {
			return fmt.Errorf("store import requires -journal <file>")
		}
		start := time.Now()
		rep, err := sys.StoreImport(*journalPath)
		if err != nil {
			return err
		}
		fmt.Printf("imported %s into %s in %v: %d records committed, %d duplicates skipped, %d invalidated\n",
			*journalPath, gf.store, time.Since(start).Round(time.Millisecond),
			rep.Committed, rep.Duplicates, rep.Invalidated)
		return nil

	case "export":
		if *journalPath == "" {
			return fmt.Errorf("store export requires -journal <file>")
		}
		start := time.Now()
		rep, err := sys.StoreExport(*journalPath)
		if err != nil {
			return err
		}
		fmt.Printf("exported %d records from %s to %s in %v (resume with: gen -checkpoint %s -resume)\n",
			rep.Warmed, gf.store, *journalPath, time.Since(start).Round(time.Millisecond), *journalPath)
		return nil

	default:
		return fmt.Errorf("unknown store verb %q (want info, import, or export)", verb)
	}
}
