// Command meissa is the CLI front door to the testing system: it
// generates full-path-coverage test cases for a data plane program,
// optionally runs them against the reference software target (with
// optional injected compiler faults, for demonstrating non-code bug
// detection), regresses a rule update against a verdict store and reads
// run reports.
//
// Usage (what usage() prints; -corpus NAME, a built-in program with its
// rules, may stand for -p wherever -p is taken):
//
//	meissa gen  -p prog.p4 [-r rules.txt] [-s spec.lpi] [-no-summary] [-parallel N] [-v] [-quiet]
//	            [-checkpoint FILE [-resume]] [-store FILE [-store-wait D]] [-strict] [-solver-budget N]
//	            [-metrics-out report.json] [-pprof-addr host:port] [-o cases.txt]
//	meissa test -p prog.p4 [-r rules.txt] [-s spec.lpi] [-fault kind:arg[,..]] [-trace] [-parallel N]
//	            [-udp] [-retries N] [-case-timeout D] [-recv-timeout D] [-window N] [-breaker N] [-v] [-quiet]
//	            [-metrics-out report.json] [-pprof-addr host:port]
//	meissa regress -store FILE [-store-wait D] [-p prog.p4 | -corpus NAME]
//	            [-rules-new FILE | -mutate N] [-checkpoint FILE] [-emit-rules FILE]
//	            [-o cases.txt] [-parallel N] [-no-summary] [-v] [-quiet]
//	            [-metrics-out report.json] [-pprof-addr host:port]
//	meissa store info -store FILE (-p prog.p4 [-r rules.txt] | -corpus NAME)
//	meissa corpus
//	meissa dump -corpus <name>
//	meissa checkmetrics <report.json>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	meissa "repro"
	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/switchsim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "test":
		err = cmdTest(os.Args[2:])
	case "regress":
		err = cmdRegress(os.Args[2:])
	case "corpus":
		err = cmdCorpus()
	case "dump":
		err = cmdDump(os.Args[2:])
	case "checkmetrics":
		err = cmdCheckMetrics(os.Args[2:])
	case "store":
		err = cmdStore(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "meissa:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  meissa gen  -p prog.p4 [-r rules.txt] [-s spec.lpi] [-no-summary] [-parallel N] [-v] [-quiet]
              [-checkpoint FILE [-resume]] [-store FILE [-store-wait D]] [-strict] [-solver-budget N]
              [-metrics-out report.json] [-pprof-addr host:port] [-o cases.txt]
  meissa test -p prog.p4 [-r rules.txt] [-s spec.lpi] [-fault kind:arg[,..]] [-trace] [-parallel N]
              [-udp] [-retries N] [-case-timeout D] [-recv-timeout D] [-window N] [-breaker N] [-v] [-quiet]
              [-metrics-out report.json] [-pprof-addr host:port]
  meissa regress -store FILE [-store-wait D] [-p prog.p4 | -corpus NAME]
              [-rules-new FILE | -mutate N] [-checkpoint FILE] [-emit-rules FILE]
              [-o cases.txt] [-parallel N] [-no-summary] [-v] [-quiet]
              [-metrics-out report.json] [-pprof-addr host:port]
  meissa store info -store FILE (-p prog.p4 [-r rules.txt] | -corpus NAME)
  meissa corpus
  meissa dump -corpus <name>
  meissa checkmetrics <report.json>`)
}

// loadInputs reads the program, rule set and specs named by flags. -corpus
// names a built-in program and its rules instead of -p; -r replaces those
// rules (the regress smoke path: corpus program, mutated rule file) and -s
// adds specs either way. Each reader names its file in its errors; the
// rule set is bound to the program by meissa.New.
func loadInputs(fs *flag.FlagSet, args []string) (*p4.Program, *rules.Set, []*spec.Spec, error) {
	progPath := fs.String("p", "", "P4 program file")
	rulesPath := fs.String("r", "", "table rule set file")
	specPath := fs.String("s", "", "LPI intent spec file")
	corpusName := fs.String("corpus", "", "use a built-in corpus program and its rules instead of -p")
	if err := fs.Parse(args); err != nil {
		return nil, nil, nil, err
	}

	var prog *p4.Program
	var rs *rules.Set
	var err error
	switch {
	case *corpusName != "" && *progPath != "":
		return nil, nil, nil, fmt.Errorf("-p and -corpus both name a program: give one")
	case *corpusName != "":
		for _, p := range programs.All() {
			if p.Name == *corpusName {
				prog, rs = p.Prog, p.Rules
				break
			}
		}
		if prog == nil {
			return nil, nil, nil, fmt.Errorf("unknown corpus program %q", *corpusName)
		}
	case *progPath == "":
		return nil, nil, nil, fmt.Errorf("missing -p <program> (or -corpus <name>)")
	default:
		if prog, err = p4.ParseFile(*progPath); err == nil {
			err = p4.Check(prog)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		rs = rules.NewSet()
	}
	if *rulesPath != "" {
		if rs, err = rules.ParseFile(*rulesPath); err != nil {
			return nil, nil, nil, err
		}
	}
	var specs []*spec.Spec
	if *specPath != "" {
		if specs, err = spec.ParseFile(*specPath); err != nil {
			return nil, nil, nil, err
		}
	}
	return prog, rs, specs, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	gf := registerGenFlags(fs, "no-summary", "parallel", "strict", "solver-budget", "store", "store-wait", "o")
	verbose := fs.Bool("v", false, "print each template's constraints")
	checkpoint := fs.String("checkpoint", "", "journal file making generation crash-safe")
	resume := fs.Bool("resume", false, "resume from the -checkpoint journal of an interrupted run")
	ob := registerObsFlags(fs)
	prog, rs, specs, err := loadInputs(fs, args)
	if err != nil {
		return err
	}
	if err := ob.activate(*verbose); err != nil {
		return err
	}
	opts := gf.options()
	opts.Checkpoint = *checkpoint
	opts.Resume = *resume
	sys, err := meissa.New(prog, rs, specs, opts)
	if err != nil {
		return err
	}
	gen, err := sys.Generate()
	if err != nil {
		return err
	}
	fmt.Printf("program %s: %d test case templates in %v\n",
		prog.Name, len(gen.Templates), gen.Duration.Round(time.Millisecond))
	fmt.Printf("  possible paths: 10^%.1f -> 10^%.1f, SMT calls: %d\n",
		gen.PossiblePathsLog10Before, gen.PossiblePathsLog10After, gen.SMTCalls)
	if gen.SummaryStats != nil {
		for _, ps := range gen.SummaryStats.Pipelines {
			fmt.Printf("  pipeline %-12s valid paths %5d, public pre-conditions %d, summarized in %v",
				ps.Name, ps.ValidPaths, ps.PublicConstraints, ps.Dur.Round(time.Microsecond))
			if ps.Unknowns > 0 {
				fmt.Printf(", unknown verdicts %d (%d budget-exhausted)", ps.Unknowns, ps.BudgetExhausted)
			}
			fmt.Println()
		}
	}
	if gen.SMT.Unknowns > 0 {
		fmt.Printf("  unknown verdicts: %d (%d budget-exhausted); affected paths kept conservatively\n",
			gen.SMT.Unknowns, gen.SMT.BudgetExhausted)
	}
	if gen.JournalHits > 0 {
		fmt.Printf("  journal: %d solver interactions answered from checkpoint\n", gen.JournalHits)
	}
	if st := gen.Store; st != nil {
		fmt.Printf("  store: %d verdicts warmed, %d invalidated by rule delta, %d committed (%d duplicates)\n",
			st.Warmed, st.Invalidated, st.Committed, st.Duplicates)
	}
	if gen.Recovered > 0 {
		fmt.Printf("  WARNING: %d path(s) panicked and were skipped:\n", gen.Recovered)
		for _, pe := range gen.PathErrors {
			fmt.Printf("    %v\n", pe)
		}
	}
	if err := gf.writeTemplates(gen.Templates); err != nil {
		return err
	}
	if *verbose {
		for _, t := range gen.Templates {
			fmt.Printf("template %d (dropped=%v):\n", t.ID, t.Dropped)
			for _, c := range t.Constraints {
				fmt.Printf("  %s\n", c)
			}
		}
	}
	return ob.finish(gen.Report("gen", prog.Name))
}

// parseFaults parses -fault kind:arg[,kind:arg...].
func parseFaults(s string) (switchsim.Faults, error) {
	if s == "" {
		return nil, nil
	}
	var out switchsim.Faults
	for _, item := range strings.Split(s, ",") {
		kind, arg, _ := strings.Cut(item, ":")
		switch kind {
		case "setvalid":
			out = append(out, switchsim.SetValidNoOp{Header: arg})
		case "checksum":
			out = append(out, switchsim.ChecksumSkip{Header: arg})
		case "compare":
			out = append(out, switchsim.WrongCompare{})
		case "extract":
			out = append(out, switchsim.ExtractNoValidity{Header: arg})
		case "overlap":
			a, b, ok := strings.Cut(arg, "/")
			if !ok {
				return nil, fmt.Errorf("overlap fault wants a/b, got %q", arg)
			}
			out = append(out, switchsim.FieldOverlap{A: a, B: b})
		case "rules":
			out = append(out, switchsim.TableMissDefault{Table: arg})
		default:
			return nil, fmt.Errorf("unknown fault kind %q", kind)
		}
	}
	return out, nil
}

func cmdTest(args []string) error {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	faultSpec := fs.String("fault", "", "inject compiler faults: kind:arg[,kind:arg...]")
	trace := fs.Bool("trace", false, "print bug localization for the first failure")
	udp := fs.Bool("udp", false, "drive the target over a real UDP loopback socket")
	gf := registerGenFlags(fs, "parallel")
	retries := fs.Int("retries", 2, "retransmissions per case after the first attempt")
	caseTimeout := fs.Duration("case-timeout", 0, "per-case deadline across all attempts (0 = derived)")
	recvTimeout := fs.Duration("recv-timeout", 200*time.Millisecond, "per-attempt capture window")
	window := fs.Int("window", driver.DefaultWindow, "in-flight cases; 1 = one at a time")
	breaker := fs.Int("breaker", 0, "trip after N consecutive target-crashing cases; rest short-circuit to lost (0 = off)")
	verbose := fs.Bool("v", false, "print per-phase progress on stderr")
	ob := registerObsFlags(fs)
	prog, rs, specs, err := loadInputs(fs, args)
	if err != nil {
		return err
	}
	if *window < 1 {
		return fmt.Errorf("-window %d: want at least 1 in-flight case", *window)
	}
	if err := ob.activate(*verbose); err != nil {
		return err
	}
	faults, err := parseFaults(*faultSpec)
	if err != nil {
		return err
	}
	opts := gf.options()
	sys, err := meissa.New(prog, rs, specs, opts)
	if err != nil {
		return err
	}
	gen, err := sys.Generate()
	if err != nil {
		return err
	}
	target, err := switchsim.Compile(prog, rs, faults)
	if err != nil {
		return err
	}
	if len(faults) > 0 {
		fmt.Println("injected faults:")
		for _, d := range faults.Describe() {
			fmt.Println("  -", d)
		}
	}

	var link driver.Link
	var loop *driver.Loopback
	var sw *driver.UDPSwitch
	if *udp {
		sw, err = driver.ServeUDP(target, "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer sw.Close()
		l, err := driver.DialUDP(sw.Addr())
		if err != nil {
			return err
		}
		defer l.Close()
		link = l
		fmt.Println("switch under test on", sw.Addr())
	} else {
		loop = driver.NewLoopback(target)
		link = loop
	}

	d := sys.NewDriver(link, gen)
	d.Retries = *retries
	d.CaseTimeout = *caseTimeout
	d.RecvTimeout = *recvTimeout
	d.Window = *window
	d.BreakerThreshold = *breaker
	driveStart := time.Now()
	rep, err := d.RunTemplates(gen.Templates)
	driveDur := time.Since(driveStart)
	if err != nil {
		return err
	}
	fmt.Println(rep.Summary())
	if rep.BreakerTripped {
		fmt.Printf("crash circuit breaker tripped after %d consecutive target crashes: %d cases short-circuited to lost\n",
			*breaker, rep.ShortCircuited)
	}
	for _, c := range rep.Skips {
		fmt.Printf("SKIP case %d: %s\n", c.ID, c.SkipReason)
	}
	for _, o := range rep.Failures() {
		fmt.Printf("%s case %d (%d attempts):\n", strings.ToUpper(o.Verdict.String()), o.Case.ID, o.Attempts)
		for _, m := range o.Mismatches {
			fmt.Println("  mismatch:", m)
		}
		for _, c := range o.ChecksumErrors {
			fmt.Println("  checksum:", c)
		}
		for _, v := range o.Violations {
			fmt.Println("  intent:", v)
		}
	}
	if sw != nil && (sw.Crashes() > 0 || sw.Errors() > 0) {
		fmt.Printf("switch under test: %d target crashes, %d dropped, %d errors absorbed\n",
			sw.Crashes(), sw.Dropped(), sw.Errors())
	}
	if *trace && rep.Failed > 0 && loop != nil {
		fmt.Println()
		f := rep.Failures()[0]
		fmt.Println(meissa.Localize(gen, f, loop.Replay(f.Case.Entry, f.Case.Wire)))
	}
	orep := gen.Report("test", prog.Name)
	orep.WallNS = int64(gen.Duration + driveDur)
	orep.Phases = append(orep.Phases, obs.PhaseDur{Name: "drive", NS: int64(driveDur)})
	// The target's counters may be read once an in-process drive is over;
	// behind -udp the switch's workers own it.
	counted := target
	if loop == nil {
		counted = nil
	}
	orep.Driver = driverReport(rep, counted, gen.Duration+rep.TimeToFirstVerdict, driveDur, d.Window)
	if orep.Driver.Target != nil {
		fmt.Println(targetLine(orep.Driver.Target))
	}
	if err := ob.finish(orep); err != nil {
		return err
	}
	if rep.Failed > 0 || rep.Lost > 0 {
		os.Exit(1)
	}
	return nil
}

func cmdCorpus() error {
	fmt.Printf("%-10s %5s %6s %6s %9s  %s\n", "name", "LOC", "rules", "pipes", "switches", "description")
	for _, p := range programs.All() {
		fmt.Printf("%-10s %5d %6d %6d %9d  %s\n",
			p.Name, p.LOC(), p.Rules.LOC(), p.Pipes, p.Switches, p.Description)
	}
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ContinueOnError)
	name := fs.String("corpus", "", "corpus program name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, p := range programs.All() {
		if p.Name == *name {
			fmt.Println("// ---- program (normalized) ----")
			fmt.Println(p4.Print(p.Prog))
			fmt.Println("// ---- rules ----")
			fmt.Println(p.Rules.String())
			return nil
		}
	}
	return fmt.Errorf("unknown corpus program %q", *name)
}
