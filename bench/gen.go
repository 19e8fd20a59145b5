package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	meissa "repro"
	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/rules"
	"repro/internal/smt"
	"repro/internal/summary"
	"repro/internal/sym"
)

// input is one program × rule set the benchmark generates tests for,
// named as expected.json keys it.
type input struct {
	key   string
	build func() *programs.Program
}

func gwInput(n int, set programs.RuleScale) input {
	return input{key: fmt.Sprintf("gw-%d/%s", n, set), build: func() *programs.Program { return programs.GW(n, set) }}
}

// smallInputs are the 12 small inputs of Fig. 9/10.
func smallInputs() []input {
	ins := []input{
		{"Router", programs.Router}, {"mTag", programs.MTag},
		{"ACL", programs.ACL}, {"switch.p4", programs.SwitchP4},
	}
	for _, n := range []int{1, 2} {
		for _, set := range []programs.RuleScale{programs.Set1, programs.Set2, programs.Set3, programs.Set4} {
			ins = append(ins, gwInput(n, set))
		}
	}
	return ins
}

// expect is the checked output of generating tests for one input: what
// Generate must reproduce on every timed operation.
type expect struct {
	Templates int    `json:"templates"`
	SHA256    string `json:"sha256"`
	Paths     uint64 `json:"paths_explored"`
	Checks    uint64 `json:"solver_checks"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]expect, error) {
	m := map[string]expect{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

func digest(out []byte) string {
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:])
}

// compare reports how got departs from the expected output. Reused
// verdicts change how many solver checks a run makes, never its paths or
// templates, so callers on a reuse path pass checks=false.
func (e expect) compare(got expect, checks bool) error {
	if !checks {
		got.Checks = e.Checks
	}
	if got != e {
		return fmt.Errorf("output mismatch: got %+v, want %+v", got, e)
	}
	return nil
}

// seqOptions is the full Meissa configuration on one exploration worker.
func seqOptions() meissa.Options {
	o := meissa.DefaultOptions()
	o.Parallelism = 1
	return o
}

// generate is the plain generation operation: New, Generate and
// WriteTemplates, returning the result, the rendered templates and what
// the output check compares.
func generate(prog *p4.Program, rs *rules.Set, opts meissa.Options) (*meissa.GenResult, []byte, expect, error) {
	sys, err := meissa.New(prog, rs, nil, opts)
	if err != nil {
		return nil, nil, expect{}, err
	}
	gen, err := sys.Generate()
	if err != nil {
		return nil, nil, expect{}, err
	}
	var buf bytes.Buffer
	if err := meissa.WriteTemplates(&buf, gen.Templates); err != nil {
		return nil, nil, expect{}, err
	}
	out := buf.Bytes()
	got := expect{Templates: len(gen.Templates), SHA256: digest(out), Paths: gen.PathsExplored, Checks: gen.SMTCalls}
	return gen, out, got, nil
}

// layerVals holds per-layer measurements under the metric names of
// BENCHMARK.json: one traced operation's, whose times and counts add up
// over the operation's calls, or a whole run's, whose ratios finish
// derives.
type layerVals map[string]float64

func (v layerVals) addDur(name string, d time.Duration) { v[name] += d.Seconds() }

// addFileMB records the size of the file at path, if it is there.
func (v layerVals) addFileMB(name, path string) {
	if fi, err := os.Stat(path); err == nil {
		v[name] = float64(fi.Size()) / (1 << 20)
	}
}

// addLog10 adds a quantity given as its log10 to the one stored under
// name, also as a log10 (path counts overflow an integer).
func (v layerVals) addLog10(name string, x float64) {
	if cur, ok := v[name]; ok {
		x = math.Log10(math.Pow(10, cur) + math.Pow(10, x))
	}
	v[name] = x
}

var smtLatency = obs.GetHistogram("smt.query_latency_ns")

// addGenResult adds what a GenResult reports about the layers under
// Generate: phase times, path and solver counts, journal activity.
func (v layerVals) addGenResult(gen *meissa.GenResult) {
	for _, ph := range gen.Phases {
		switch ph.Name {
		case "cfg":
			v.addDur("cfg.build_s", ph.Dur())
		case "summary":
			v.addDur("summary.summarize_s", ph.Dur())
		case "sym":
			v.addDur("sym.explore_s", ph.Dur())
		}
	}
	v.addLog10("cfg.possible_paths_log10", gen.PossiblePathsLog10Before)
	v.addLog10("summary.possible_paths_log10_after", gen.PossiblePathsLog10After)
	if st := gen.SummaryStats; st != nil {
		v["summary.paths_explored"] += float64(st.PathsExplored)
		v["summary.smt_checks"] += float64(st.SMT.Checks)
		v["sym.paths_pruned"] += float64(gen.PrunedPaths - st.PrunedPaths)
	}
	v["sym.paths_explored"] += float64(gen.FinalPathsExplored)
	v["sym.templates"] += float64(len(gen.Templates))
	v.addSMT(gen.SMT)
	v["journal.hits"] += float64(gen.JournalHits)
}

func (v layerVals) addSMT(st smt.Stats) {
	v["smt.checks"] += float64(st.Checks)
	v["smt.cache_hits"] += float64(st.CacheHits)
	v["smt.unsat"] += float64(st.UnsatResults)
}

// finish derives the per-unit ratios from the accumulated sums and drops
// the helper sums that are not metrics themselves.
func (v layerVals) finish() {
	ratio := func(name, num, den string, scale float64) {
		if v[den] > 0 {
			v[name] = scale * v[num] / v[den]
		}
	}
	ratio("sym.ns_per_path", "sym.explore_s", "sym.paths_explored", 1e9)
	ratio("sym.mallocs_per_path", "sym.mallocs", "sym.paths_explored", 1)
	ratio("sym.alloc_bytes_per_path", "sym.alloc_bytes", "sym.paths_explored", 1)
	ratio("sym.par2_speedup", "sym.explore_s", "sym.explore_par2_s", 1)
	ratio("smt.ns_per_check", "smt.busy_s", "smt.checks", 1e9)
	ratio("smt.unsat_share", "smt.unsat", "smt.checks", 1)
	ratio("journal.ns_per_record_loaded", "journal.open_load_s", "journal.records", 1e9)
	ratio("driver.verdicts_per_s", "driver.verdicts", "driver.suite_s", 1)
	ratio("driver.ns_per_verdict", "driver.suite_s", "driver.verdicts", 1e9)
	ratio("switchsim.ns_per_packet", "switchsim.inject_s", "switchsim.packets", 1e9)
	ratio("packet.ns_per_parse", "packet.parse_s", "switchsim.packets", 1e9)
	if v["driver.suite_s"] > 0 {
		v["driver.other_s"] = v["driver.suite_s"] - v["switchsim.inject_s"]
	}
	if v["store.warm_gen_s"] > 0 {
		v["store.warm_overhead_s"] = v["store.warm_gen_s"] - v["journal.resume_gen_s"]
	}
	for _, helper := range []string{"sym.mallocs", "sym.alloc_bytes", "smt.unsat", "driver.verdicts", "switchsim.packets"} {
		delete(v, helper)
	}
}

// generateDecomposed is the traced generation operation: the pipeline
// Generate runs on its plain path — cfg.Build, summary.Summarize,
// sym.Explore with the options Generate derives from seqOptions — called
// layer by layer so each call is a span. It returns the summarized graph
// for side measurements.
func generateDecomposed(t *tracer, v layerVals, prog *p4.Program, rs *rules.Set) (*cfg.Graph, []byte, expect, error) {
	fail := func(err error) (*cfg.Graph, []byte, expect, error) { return nil, nil, expect{}, err }
	busy0 := smtLatency.Sum()

	d, err := t.do("p4.Check", func() error { return p4.Check(prog) })
	if err != nil {
		return fail(err)
	}
	v.addDur("p4.parse_check_s", d)

	var g *cfg.Graph
	d, err = t.do("cfg.Build", func() (err error) { g, err = cfg.Build(prog, rs); return })
	if err != nil {
		return fail(err)
	}
	v.addDur("cfg.build_s", d)
	v["cfg.nodes"] += float64(g.NodeCount())
	v.addLog10("cfg.possible_paths_log10", g.PossiblePathsLog10())

	symOpts := decomposedSymOptions()
	var stats *summary.Stats
	d, err = t.do("summary.Summarize", func() (err error) {
		stats, err = summary.Summarize(g, summary.Options{Sym: symOpts, UsePreconditions: true})
		return
	})
	if err != nil {
		return fail(err)
	}
	v.addDur("summary.summarize_s", d)
	v["summary.paths_explored"] += float64(stats.PathsExplored)
	v["summary.smt_checks"] += float64(stats.SMT.Checks)
	v.addLog10("summary.possible_paths_log10_after", g.PossiblePathsLog10())
	v.addSMT(stats.SMT)

	finalOpts := symOpts
	finalOpts.WantModels = true
	var exp *sym.Result
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err = t.do("sym.Explore", func() (err error) {
		exp, err = sym.Explore(sym.Config{Graph: g, Start: cfg.None, Options: finalOpts})
		return
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fail(err)
	}
	v.addDur("sym.explore_s", d)
	v["sym.paths_explored"] += float64(exp.PathsExplored)
	v["sym.paths_pruned"] += float64(exp.PrunedPaths)
	v["sym.templates"] += float64(len(exp.Templates))
	v["sym.mallocs"] += float64(m1.Mallocs - m0.Mallocs)
	v["sym.alloc_bytes"] += float64(m1.TotalAlloc - m0.TotalAlloc)
	v.addSMT(exp.SMT)

	var buf bytes.Buffer
	if _, err := t.do("meissa.WriteTemplates", func() error { return meissa.WriteTemplates(&buf, exp.Templates) }); err != nil {
		return fail(err)
	}
	v["smt.busy_s"] += float64(smtLatency.Sum()-busy0) / 1e9
	out := buf.Bytes()
	got := expect{
		Templates: len(exp.Templates), SHA256: digest(out),
		Paths:  stats.PathsExplored + exp.PathsExplored,
		Checks: stats.SMT.Checks + exp.SMT.Checks,
	}
	return g, out, got, nil
}

// decomposedSymOptions are the sym options Generate builds from
// seqOptions for its summarization passes (the final pass adds
// WantModels).
func decomposedSymOptions() sym.Options {
	return sym.Options{EarlyTermination: true, Solver: smt.DefaultOptions(), SolverSet: true, Parallelism: 1}
}

// explorePar2 repeats the final pass over an already summarized graph on
// two workers sharing a verdict cache, as Generate does at Parallelism 2.
// It is a side measurement outside the operation: with GOMAXPROCS=2 it
// shows what the second core buys, and nothing is gated on it.
func explorePar2(t *tracer, v layerVals, g *cfg.Graph, want int) error {
	opts := decomposedSymOptions()
	opts.WantModels = true
	opts.Parallelism = 2
	opts.Solver.Cache = smt.NewVerdictCache()
	var exp *sym.Result
	d, err := t.do("sym.Explore(par2)", func() (err error) {
		exp, err = sym.Explore(sym.Config{Graph: g, Start: cfg.None, Options: opts})
		return
	})
	if err != nil {
		return err
	}
	if len(exp.Templates) != want {
		return fmt.Errorf("sym.Explore at Parallelism=2: %d templates, want %d", len(exp.Templates), want)
	}
	v.addDur("sym.explore_par2_s", d)
	return nil
}
