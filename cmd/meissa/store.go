package main

import (
	"flag"
	"fmt"

	meissa "repro"
	"repro/internal/obs"
)

// cmdStore inspects the disk-backed verdict store:
//
//	meissa store info -store FILE (-p prog.p4 [-r rules.txt] | -corpus NAME)
//
// info prints what the store holds for the program family; it needs the
// program/rules/options because store families and journal fingerprints
// are content-addressed. A checkpoint and a store convert through
// generation: `gen -store S -checkpoint F` writes the stored verdicts
// into F, and `gen -checkpoint F -resume -store S` commits F's into S.
func cmdStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: meissa store info -store FILE [flags]")
	}
	verb, rest := args[0], args[1:]
	if verb != "info" {
		return fmt.Errorf("unknown store verb %q (want info)", verb)
	}
	fs := flag.NewFlagSet("store "+verb, flag.ContinueOnError)
	gf := registerGenFlags(fs, "store", "no-summary")
	quiet := fs.Bool("quiet", false, "suppress progress and warning output on stderr")
	prog, rs, specs, err := loadInputs(fs, rest)
	if err != nil {
		return err
	}
	if *quiet {
		obs.SetLogLevel(obs.LevelQuiet)
	}
	sys, err := meissa.New(prog, rs, specs, gf.options())
	if err != nil {
		return err
	}
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
}
