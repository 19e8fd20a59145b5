package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/p4"
)

// cmdServe runs the resident verification daemon: one process owning
// the verdict store and a registry of warm program families, answering
// load/gen/regress/status/unload requests over a line-delimited-JSON
// socket until SIGINT/SIGTERM drains it.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "tcp://127.0.0.1:7600", "listen address: unix://path, tcp://host:port, or host:port")
	gf := registerGenFlags(fs, "store", "store-wait")
	maxConcurrent := fs.Int("max-concurrent", 2, "concurrently executing requests")
	maxCoordinators := fs.Int("max-coordinators", 1, "concurrently executing shard coordinators")
	drain := fs.Duration("drain", 30*time.Second, "shutdown wait for in-flight requests")
	verbose := fs.Bool("v", false, "verbose stderr logging")
	ob := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if gf.store == "" {
		return fmt.Errorf("serve requires -store <file>")
	}
	if err := ob.activate(*verbose); err != nil {
		return err
	}
	d, err := daemon.New(daemon.Config{
		Addr:            *addr,
		StorePath:       gf.store,
		StoreWait:       gf.storeWait,
		MaxConcurrent:   *maxConcurrent,
		MaxCoordinators: *maxCoordinators,
		DrainTimeout:    *drain,
	})
	if err != nil {
		return err
	}
	if err := d.Listen(); err != nil {
		return err
	}
	fmt.Printf("meissa daemon on %s (store %s)\n", d.Addr(), gf.store)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		obs.Infof("meissa: %v: draining daemon", sig)
		if err := d.Shutdown(); err != nil {
			obs.Warnf("meissa: shutdown: %v", err)
		}
	}()
	return d.Serve()
}

// cmdClient talks to a running daemon: `meissa client <verb> -addr ...`
// with the verbs load, gen, regress, status, unload. gen and regress
// round-trip the same flags as the cold CLI, so a warm daemon answer
// can be diffed byte-for-byte against `meissa gen -o`.
func cmdClient(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: meissa client <load|gen|regress|status|unload> -addr ADDR ...")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "load":
		return clientLoad(rest)
	case "gen":
		return clientGen(rest)
	case "regress":
		return clientRegress(rest)
	case "status":
		return clientStatus(rest)
	case "unload":
		return clientUnload(rest)
	default:
		return fmt.Errorf("unknown client verb %q", verb)
	}
}

// dialFlags registers the flags every client verb shares.
func dialFlags(fs *flag.FlagSet) (addr, tenant, family *string, wait *time.Duration) {
	addr = fs.String("addr", "tcp://127.0.0.1:7600", "daemon address")
	tenant = fs.String("tenant", "", "fair-share tenant name (default \"default\")")
	family = fs.String("family", "", "loaded program family name")
	wait = fs.Duration("dial-wait", 5*time.Second, "retry dialing the daemon for this long")
	return
}

// do runs one request against the daemon and fails on a daemon-side
// error.
func do(addr string, wait time.Duration, req *daemon.Request) (*daemon.Response, error) {
	c, err := daemon.Dial(addr, wait)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("daemon: %s", resp.Error)
	}
	return resp, nil
}

func clientLoad(args []string) error {
	fs := flag.NewFlagSet("client load", flag.ContinueOnError)
	addr, tenant, family, wait := dialFlags(fs)
	prog, rs, specs, _, err := loadInputs(fs, args)
	if err != nil {
		return err
	}
	name := *family
	if name == "" {
		// A corpus program keeps its corpus name ("gw-1"), which differs
		// from the parsed program identifier ("gw_1").
		if f := fs.Lookup("corpus"); f != nil && f.Value.String() != "" {
			name = f.Value.String()
		}
	}
	req := &daemon.Request{
		Op:      daemon.OpLoad,
		Tenant:  *tenant,
		Family:  name,
		Program: p4.Print(prog),
		Rules:   rs.String(),
	}
	if len(specs) > 0 {
		// Ship the spec source verbatim; the daemon re-parses it.
		req.Specs = specSource(fs)
	}
	resp, err := do(*addr, *wait, req)
	if err != nil {
		return err
	}
	state := "loaded"
	if resp.Load.Replaced {
		state = "replaced"
	}
	fmt.Printf("%s family %s on %s\n", state, resp.Load.Family, *addr)
	return nil
}

// specSource re-reads the -s file so the daemon gets the exact text the
// cold CLI would parse. loadInputs already validated it.
func specSource(fs *flag.FlagSet) string {
	if f := fs.Lookup("s"); f != nil && f.Value.String() != "" {
		if data, err := os.ReadFile(f.Value.String()); err == nil {
			return string(data)
		}
	}
	return ""
}

func clientGen(args []string) error {
	fs := flag.NewFlagSet("client gen", flag.ContinueOnError)
	addr, tenant, family, wait := dialFlags(fs)
	gf := registerGenFlags(fs, "no-summary", "parallel", "strict", "solver-budget", "solver-timeout", "o")
	workers := fs.Int("workers", 0, "shard the final pass across N daemon-side worker subprocesses")
	rulesPath := fs.String("r", "", "rule set overriding the family's rules for this request")
	metricsOut := fs.String("metrics-out", "", "write the daemon's run report (JSON) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *family == "" {
		return fmt.Errorf("client gen requires -family")
	}
	req := &daemon.Request{
		Op:     daemon.OpGen,
		Tenant: *tenant,
		Family: *family,
		Gen: &daemon.GenParams{
			NoSummary:       gf.noSummary,
			Parallel:        gf.parallel,
			Strict:          gf.strict,
			SolverBudget:    gf.solverBudget,
			SolverTimeoutNS: int64(gf.solverTimeout),
			Workers:         *workers,
		},
	}
	if *rulesPath != "" {
		rs, err := readRules(*rulesPath)
		if err != nil {
			return err
		}
		req.Rules = rs.String()
	}
	resp, err := do(*addr, *wait, req)
	if err != nil {
		return err
	}
	g := resp.Gen
	heat := "cold"
	if g.WarmHit {
		heat = "warm"
	}
	fmt.Printf("family %s: %d test case templates in %v (%s: %d live solver calls, %d journal hits)\n",
		*family, g.NumTemplates, time.Duration(g.WallNS).Round(time.Millisecond), heat, g.SMTCalls, g.JournalHits)
	if err := gf.writeRendered(g.Templates, g.NumTemplates); err != nil {
		return err
	}
	if *metricsOut != "" {
		if g.Report == nil {
			return fmt.Errorf("daemon response carried no report")
		}
		if err := obs.WriteFileAtomic(*metricsOut, g.Report); err != nil {
			return err
		}
		fmt.Printf("  wrote run report to %s\n", *metricsOut)
	}
	return nil
}

func clientRegress(args []string) error {
	fs := flag.NewFlagSet("client regress", flag.ContinueOnError)
	addr, tenant, family, wait := dialFlags(fs)
	rulesNew := fs.String("rules-new", "", "updated rule set file")
	mutate := fs.Int("mutate", 0, "derive the new rules by bumping N action arguments of the base rules")
	emitRules := fs.String("emit-rules", "", "write the effective new rule set to this file")
	gf := registerGenFlags(fs, "no-summary", "parallel", "o")
	metricsOut := fs.String("metrics-out", "", "write the daemon's run report (JSON) to this file")
	// -mutate needs a base rule set: -corpus/-r supply it exactly like
	// the cold regress CLI.
	_, baseRules, _, _, err := loadInputs(fs, args)
	if err != nil {
		return err
	}
	if *family == "" {
		return fmt.Errorf("client regress requires -family")
	}
	if *rulesNew == "" && *mutate <= 0 {
		return fmt.Errorf("client regress requires -rules-new <file> or -mutate N")
	}
	newRules, err := loadNewRules(*rulesNew, *mutate, baseRules)
	if err != nil {
		return err
	}
	if *emitRules != "" {
		if err := os.WriteFile(*emitRules, []byte(newRules.String()), 0o644); err != nil {
			return err
		}
	}
	resp, err := do(*addr, *wait, &daemon.Request{
		Op:     daemon.OpRegress,
		Tenant: *tenant,
		Family: *family,
		Regress: &daemon.RegressParams{
			NewRules:  newRules.String(),
			NoSummary: gf.noSummary,
			Parallel:  gf.parallel,
		},
	})
	if err != nil {
		return err
	}
	r := resp.Regress
	fmt.Printf("family %s: rule update applied, %d test case templates current\n", *family, r.NumTemplates)
	if err := gf.writeRendered(r.Templates, r.NumTemplates); err != nil {
		return err
	}
	if *metricsOut != "" {
		if r.Report == nil {
			return fmt.Errorf("daemon response carried no report")
		}
		if err := obs.WriteFileAtomic(*metricsOut, r.Report); err != nil {
			return err
		}
		fmt.Printf("  wrote run report to %s\n", *metricsOut)
	}
	return nil
}

func clientStatus(args []string) error {
	fs := flag.NewFlagSet("client status", flag.ContinueOnError)
	addr, tenant, _, wait := dialFlags(fs)
	asJSON := fs.Bool("json", false, "print the raw status response as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := do(*addr, *wait, &daemon.Request{Op: daemon.OpStatus, Tenant: *tenant})
	if err != nil {
		return err
	}
	st := resp.Status
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Printf("daemon %s: up %v, %d requests (%d warm hits, %d store conflicts), %d in flight, %d queued\n",
		st.Addr, time.Duration(st.UptimeNS).Round(time.Second),
		st.RequestsServed, st.WarmHits, st.StoreConflicts, st.Inflight, st.QueueDepth)
	for _, f := range st.Families {
		fmt.Printf("  family %-12s gens=%d regresses=%d warm_hits=%d\n", f.Name, f.Gens, f.Regresses, f.WarmHits)
	}
	return nil
}

func clientUnload(args []string) error {
	fs := flag.NewFlagSet("client unload", flag.ContinueOnError)
	addr, tenant, family, wait := dialFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *family == "" {
		return fmt.Errorf("client unload requires -family")
	}
	resp, err := do(*addr, *wait, &daemon.Request{Op: daemon.OpUnload, Tenant: *tenant, Family: *family})
	if err != nil {
		return err
	}
	fmt.Printf("unloaded family %s\n", resp.Load.Family)
	return nil
}
