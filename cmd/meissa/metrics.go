package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/regress"
	"repro/internal/switchsim"
)

// obsFlags are the observability flags shared by gen, test and regress:
// -metrics-out, -pprof-addr, -quiet, and the verbosity hookup for -v.
// Progress output goes to stderr only, so the deterministic stdout the
// checkpoint/resume diff tests rely on is untouched at any setting.
type obsFlags struct {
	metricsOut string
	pprofAddr  string
	quiet      bool
	verbose    bool
}

func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write a machine-readable run report (JSON) to this file at exit")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve /debug/pprof and /metrics on this address")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress progress and warning output on stderr")
	return o
}

// activate applies the flags after parsing. verbose is passed by the
// caller because -v keeps its subcommand-specific stdout meaning (gen
// prints template constraints) on top of raising the stderr log level.
func (o *obsFlags) activate(verbose bool) error {
	o.verbose = verbose
	switch {
	case o.quiet:
		obs.SetLogLevel(obs.LevelQuiet)
	case verbose:
		obs.SetLogLevel(obs.LevelVerbose)
	}
	if o.pprofAddr != "" {
		addr, err := obs.ServeDebug(o.pprofAddr)
		if err != nil {
			return err
		}
		obs.Infof("meissa: debug server on http://%s", addr)
	}
	return nil
}

// finish emits the end-of-run observability: the stderr phase/latency
// table (verbose or metrics runs, unless -quiet) and, with -metrics-out,
// the validated JSON run report with the full registry snapshot attached,
// written atomically.
func (o *obsFlags) finish(rep *obs.Report) error {
	if o.metricsOut == "" && !o.verbose {
		return nil
	}
	snap := obs.Default().Snapshot()
	if obs.LogLevel() > obs.LevelQuiet {
		snap.WriteText(os.Stderr)
	}
	if o.metricsOut == "" {
		return nil
	}
	rep.Registry = snap
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("metrics report failed validation: %w", err)
	}
	if err := obs.WriteFileAtomic(o.metricsOut, rep); err != nil {
		return err
	}
	obs.Infof("meissa: wrote run report to %s", o.metricsOut)
	return nil
}

// driverReport builds the test-execution section from a driver report,
// the target's own counters (target is nil when the switch under test is
// behind a socket and its workers own it) and the optional shaken link.
// driveDur is the drive phase wall-clock and
// window the engine's in-flight window; together they yield the headline
// verdicts_per_sec throughput.
func driverReport(rep *driver.Report, target *switchsim.Target, shaken *driver.FaultyLink, firstVerdict, driveDur time.Duration, window int) *obs.DriverReport {
	d := &obs.DriverReport{
		Passed:            rep.Passed,
		Failed:            rep.Failed,
		Skipped:           rep.Skipped,
		Flaky:             rep.Flaky,
		Lost:              rep.Lost,
		Retransmissions:   rep.Retransmissions,
		TimeToFirstTestNS: int64(firstVerdict),
		Window:            window,
		BreakerTripped:    rep.BreakerTripped,
		ShortCircuited:    rep.ShortCircuited,
		Phases: &obs.DrivePhases{
			ConcretizeNS: int64(rep.Phases.Concretize),
			SendNS:       int64(rep.Phases.Send),
			RecvNS:       int64(rep.Phases.Recv),
			CheckNS:      int64(rep.Phases.Check),
		},
	}
	if target != nil {
		d.Target = targetReport(target.Stats())
	}
	if verdicts := rep.Passed + rep.Failed + rep.Flaky + rep.Lost; verdicts > 0 && driveDur > 0 {
		d.VerdictsPerSec = float64(verdicts) / driveDur.Seconds()
	}
	if h, ok := obs.Default().Snapshot().Histograms["driver.case_latency_ns"]; ok {
		d.CaseLatencyQuantiles = h.SummaryQuantiles()
	}
	if shaken != nil {
		st := shaken.Stats()
		d.Link = &obs.LinkReport{
			Dropped:    st.Dropped,
			Duplicated: st.Duplicated,
			Reordered:  st.Reordered,
			Corrupted:  st.Corrupted,
			Delayed:    st.Delayed,
		}
	}
	return d
}

// targetReport renders the target's counters, applied tables by probes
// (priority depth).
func targetReport(st switchsim.Stats) *obs.TargetReport {
	t := &obs.TargetReport{Packets: st.Packets, Instructions: st.Instructions, Drops: st.Drops}
	for _, ts := range st.Tables {
		if ts.Applies > 0 {
			t.Tables = append(t.Tables, obs.TargetTable(ts))
		}
	}
	sort.SliceStable(t.Tables, func(i, j int) bool { return t.Tables[i].Probes > t.Tables[j].Probes })
	return t
}

// targetLine is the one-line account `meissa test` prints of it.
func targetLine(t *obs.TargetReport) string {
	if t.Packets == 0 {
		return "target: no packets"
	}
	var probes uint64
	for _, tb := range t.Tables {
		probes += tb.Probes
	}
	n := float64(t.Packets)
	s := fmt.Sprintf("target: %d packets (%d dropped), %.1f instr/packet, %.1f probes/packet",
		t.Packets, t.Drops, float64(t.Instructions)/n, float64(probes)/n)
	for i, tb := range t.Tables {
		if i == 3 || tb.Probes == 0 {
			break
		}
		sep := ", "
		if i == 0 {
			sep = "; most probed: "
		}
		s += fmt.Sprintf("%s%s %.1f", sep, tb.Name, float64(tb.Probes)/n)
	}
	return s
}

// cmdCheckMetrics is the CI metrics-smoke gate: it parses a -metrics-out
// file, runs the schema validator, and prints the headline numbers. A
// missing file, schema mismatch, zero phase duration, or zero path count
// exits non-zero via the returned error.
func cmdCheckMetrics(args []string) error {
	fs := flag.NewFlagSet("checkmetrics", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: meissa checkmetrics <report.json>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	// Dispatch on the schema field: run reports and regress reports share
	// the checkmetrics entry point.
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	if head.Schema == regress.Schema {
		return checkRegressReport(data)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		return err
	}
	fmt.Printf("ok: %s %s (parallel %d) wall=%v\n",
		rep.Command, rep.Program, rep.Parallelism, time.Duration(rep.WallNS).Round(time.Millisecond))
	for _, p := range rep.Phases {
		fmt.Printf("  phase %-10s %v\n", p.Name, p.Dur().Round(time.Microsecond))
	}
	if rep.Paths != nil {
		fmt.Printf("  paths explored=%d pruned=%d templates=%d", rep.Paths.Explored, rep.Paths.Pruned, rep.Paths.Templates)
		if rep.Paths.Frames > 0 && rep.Paths.Explored > 0 {
			fmt.Printf(" frames=%d (%.1f/path)", rep.Paths.Frames, float64(rep.Paths.Frames)/float64(rep.Paths.Explored))
		}
		fmt.Printf(" (10^%.1f -> 10^%.1f)\n", rep.Paths.PossibleLog10Before, rep.Paths.PossibleLog10After)
		if n := float64(rep.Paths.FinalExplored); n > 0 {
			for _, p := range rep.Phases {
				if p.Name == "sym" {
					fmt.Printf("  sym final pass: %d paths, %.0f ns/path", rep.Paths.FinalExplored, float64(p.NS)/n)
					if rep.Paths.FinalMallocs > 0 {
						fmt.Printf(", %.2f mallocs/path, %.0f B/path",
							float64(rep.Paths.FinalMallocs)/n, float64(rep.Paths.FinalAllocBytes)/n)
					}
					fmt.Println()
				}
			}
		}
	}
	if rep.Solver != nil {
		fmt.Printf("  solver queries=%d solved=%d outcomes=%v truncated_unknown=%d propagations=%d\n",
			rep.Solver.TotalQueries, rep.Solver.Solved, rep.Solver.Outcomes, rep.Solver.TruncatedUnknown, rep.Solver.Propagations)
		if q := rep.Solver.LatencyQuantiles; q != nil {
			fmt.Printf("  solver latency %s\n", quantiles(q))
		}
	}
	if j := rep.Journal; j != nil && (j.Loaded > 0 || j.Appended > 0) {
		fmt.Printf("  journal appended=%d loaded=%d hits=%d source=%v breakeven=%.0f ns/query\n",
			j.Appended, j.Loaded, j.Hits, time.Duration(j.SourceNS).Round(time.Microsecond), j.BreakevenNSPerQuery)
	}
	if rep.Driver != nil {
		fmt.Printf("  driver pass=%d fail=%d flaky=%d lost=%d window=%d verdicts/s=%.0f\n",
			rep.Driver.Passed, rep.Driver.Failed, rep.Driver.Flaky, rep.Driver.Lost,
			rep.Driver.Window, rep.Driver.VerdictsPerSec)
		if q := rep.Driver.CaseLatencyQuantiles; q != nil {
			fmt.Printf("  driver case latency %s\n", quantiles(q))
		}
		if rep.Driver.BreakerTripped {
			fmt.Printf("  driver breaker tripped: %d cases short-circuited to lost\n", rep.Driver.ShortCircuited)
		}
		if ph := rep.Driver.Phases; ph != nil {
			fmt.Printf("  driver phases concretize=%v send=%v recv=%v check=%v\n",
				time.Duration(ph.ConcretizeNS).Round(time.Microsecond), time.Duration(ph.SendNS).Round(time.Microsecond),
				time.Duration(ph.RecvNS).Round(time.Microsecond), time.Duration(ph.CheckNS).Round(time.Microsecond))
		}
		if rep.Driver.Target != nil {
			fmt.Println(" ", targetLine(rep.Driver.Target))
		}
	}
	if st := rep.Store; st != nil {
		fmt.Printf("  store warmed=%d invalidated=%d committed=%d duplicates=%d\n",
			st.Warmed, st.Invalidated, st.Committed, st.Duplicates)
		fmt.Printf("  store txns=%d tail_discarded=%d snapshot_reads=%d tag_tests=%d file_bytes=%d\n",
			st.Commits, st.TailDiscarded, st.SnapshotReads, st.TagTests, st.FileBytes)
	}
	return nil
}

// quantiles renders a latency summary, in ns, as p50, p90 and p99.
func quantiles(q *obs.Quantiles) string {
	us := func(ns float64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	return fmt.Sprintf("p50=%v p90=%v p99=%v", us(q.P50), us(q.P90), us(q.P99))
}

// checkRegressReport validates and summarizes a meissa.regress-report/v1
// file (the CI regress-smoke gate).
func checkRegressReport(data []byte) error {
	rep, err := regress.ParseReport(data)
	if err != nil {
		return err
	}
	fmt.Printf("ok: regress %s wall=%v\n", rep.Program, time.Duration(rep.WallNS).Round(time.Millisecond))
	fmt.Printf("  delta tables=%v +%d -%d ~%d\n", rep.Delta.TablesChanged,
		rep.Delta.EntriesAdded, rep.Delta.EntriesRemoved, rep.Delta.EntriesModified)
	fmt.Printf("  journal retained=%d/%d invalidated=%d\n",
		rep.Journal.Retained, rep.Journal.Baseline, rep.Journal.Invalidated)
	fmt.Printf("  templates current=%d unchanged=%d added=%d retired=%d\n",
		rep.Templates.Current, rep.Templates.Unchanged, rep.Templates.Added, rep.Templates.Retired)
	fmt.Printf("  queries live=%d avoided=%d reuse=%.2f\n",
		rep.Queries.Live, rep.Queries.Avoided, rep.Queries.Reuse)
	return nil
}
