package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	meissa "repro"
	"repro/internal/cfg"
	"repro/internal/driver"
	"repro/internal/journal"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/programs"
	"repro/internal/regress"
	"repro/internal/rulediff"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/switchsim"
	"repro/internal/sym"
)

// scale sizes the workloads. fullScale is what BENCHMARK.json measures;
// smokeScale runs the same code on inputs small enough for `go test`.
type scale struct {
	big   input   // the program the four gw-4 workloads run on
	small []input // the sweep's inputs
	tile  int     // how many copies of the suite the drive workload sends
}

func fullScale() scale {
	return scale{big: gwInput(4, programs.Set4), small: smallInputs(), tile: 20}
}

func smokeScale() scale {
	return scale{
		big:   gwInput(3, programs.Set1),
		small: []input{{"Router", programs.Router}, gwInput(1, programs.Set1), gwInput(2, programs.Set1)},
		tile:  2,
	}
}

// env is what a workload's setup gets: the seed its inputs derive from,
// a scratch directory of its own, the expected outputs, and whether this
// is the traced run (whose setup also takes the once-per-run per-layer
// measurements).
type env struct {
	seed     int64
	scratch  string
	sc       scale
	expected map[string]expect
	traced   bool
}

func (e *env) want(key string) (expect, error) {
	w, ok := e.expected[key]
	if !ok {
		return expect{}, fmt.Errorf("expected.json has no entry %q; run with -write-expected", key)
	}
	return w, nil
}

// bigInput builds the scale's big program and looks up its expected
// output.
func (e *env) bigInput() (*programs.Program, expect, error) {
	want, err := e.want(e.sc.big.key)
	if err != nil {
		return nil, expect{}, err
	}
	return e.sc.big.build(), want, nil
}

// runner is a workload after setup.
type runner interface {
	// op runs one operation and checks its output; an error fails it. It
	// marks the end of each of the operation's pieces on c, the same
	// pieces in the same order every time.
	op(c *clock) error
	// traced runs one operation under a root span named "op", adds its
	// per-layer values to v, checks its output, and returns the root.
	traced(t *tracer, v layerVals) (root int, err error)
	// side takes the measurements a traced run makes once, after its
	// operations: the layers the operation calls, called directly, each in
	// a root span of its own. It returns them with what setup measured.
	side(t *tracer) (layerVals, error)
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name string
	// warmups are untimed operations run at the end of setup. opSeconds is
	// the nominal time of one operation, which turns --seconds into the
	// number of timed operations (see timedOps). plainOps and tracedOps
	// are how many plain and how many traced operations the traced run
	// makes. The two workloads whose operation takes 5 to 8 s make one of
	// each, to keep the traced run near 30 s.
	warmups             int
	opSeconds           float64
	plainOps, tracedOps int
	setup               func(*env) (runner, error)
}

// timedOps is how many operations a timed run of `seconds` makes: as many
// nominal operations as fit, and at least two. The count is fixed by the
// arguments, not by a deadline, because op_s is built from minima, and a
// minimum over three operations lies below one over two: runs that a slow
// spell cut short would read higher for that alone.
func (w *workload) timedOps(seconds float64) int {
	return max(2, int(seconds/w.opSeconds))
}

func workloads() []*workload {
	return []*workload{
		{name: "gen-gw4-cold", warmups: 1, opSeconds: 2.5, plainOps: 2, tracedOps: 2, setup: setupCold},
		{name: "gen-small-sweep", warmups: 12, opSeconds: 0.2, plainOps: 10, tracedOps: 10, setup: setupSweep},
		{name: "regress-gw4-1entry", warmups: 0, opSeconds: 5, plainOps: 1, tracedOps: 1, setup: setupRegress},
		{name: "warm-gw4-store", warmups: 0, opSeconds: 3.75, plainOps: 1, tracedOps: 1, setup: setupWarm},
		{name: "drive-gw4-loopback", warmups: 1, opSeconds: 1.875, plainOps: 2, tracedOps: 2, setup: setupDrive},
	}
}

// onceVals holds what a workload's setup measured once for the run; it is
// the whole of side for a workload with no side measurements.
type onceVals struct{ vals layerVals }

func (o *onceVals) side(*tracer) (layerVals, error) {
	if o.vals == nil {
		o.vals = layerVals{}
	}
	return o.vals, nil
}

// ---- gen-gw4-cold ----

type coldGen struct {
	onceVals
	p    *programs.Program
	want expect
}

func setupCold(e *env) (runner, error) {
	p, want, err := e.bigInput()
	if err != nil {
		return nil, err
	}
	return &coldGen{p: p, want: want}, nil
}

func (w *coldGen) op(c *clock) error {
	_, _, got, err := generate(w.p.Prog, w.p.Rules, c.pieces(seqOptions()))
	if err != nil {
		return err
	}
	return w.want.compare(got, true)
}

func (w *coldGen) traced(t *tracer, v layerVals) (int, error) {
	root := t.begin("op")
	g, _, got, err := generateDecomposed(t, v, w.p.Prog, w.p.Rules)
	t.end(root)
	if err != nil {
		return root, err
	}
	if err := w.want.compare(got, true); err != nil {
		return root, fmt.Errorf("decomposed pipeline: %w", err)
	}
	return root, explorePar2(t, v, g, got.Templates)
}

// ---- gen-small-sweep ----

type sweepInput struct {
	key, progSrc, rulesSrc string
	want                   expect
}

// sweepGen holds the inputs in the order every pass of the run visits
// them, drawn once from the seed.
type sweepGen struct {
	onceVals
	inputs []sweepInput
}

func setupSweep(e *env) (runner, error) {
	w := &sweepGen{}
	small := slices.Clone(e.sc.small)
	rand.New(rand.NewSource(e.seed)).Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	for _, in := range small {
		want, err := e.want(in.key)
		if err != nil {
			return nil, err
		}
		p := in.build()
		w.inputs = append(w.inputs, sweepInput{key: in.key, progSrc: p.Source, rulesSrc: p.Rules.String(), want: want})
	}
	return w, nil
}

// pass visits every input once.
func (w *sweepGen) pass(f func(in *sweepInput) error) error {
	for i := range w.inputs {
		in := &w.inputs[i]
		if err := f(in); err != nil {
			return fmt.Errorf("%s: %w", in.key, err)
		}
	}
	return nil
}

// op makes one piece of each input.
func (w *sweepGen) op(c *clock) error {
	return w.pass(func(in *sweepInput) error {
		defer c.lap()
		prog, err := p4.Parse(in.progSrc)
		if err != nil {
			return err
		}
		rs, err := rules.Parse(in.rulesSrc)
		if err != nil {
			return err
		}
		_, _, got, err := generate(prog, rs, seqOptions())
		if err != nil {
			return err
		}
		return in.want.compare(got, true)
	})
}

func (w *sweepGen) traced(t *tracer, v layerVals) (int, error) {
	type summarized struct {
		g         *cfg.Graph
		templates int
	}
	var done []summarized
	root := t.begin("op")
	err := w.pass(func(in *sweepInput) error {
		var prog *p4.Program
		d, err := t.do("p4.Parse", func() (err error) { prog, err = p4.Parse(in.progSrc); return })
		if err != nil {
			return err
		}
		v.addDur("p4.parse_check_s", d)
		v["p4.source_lines"] += float64(strings.Count(in.progSrc, "\n"))
		var rs *rules.Set
		d, err = t.do("rules.Parse", func() (err error) { rs, err = rules.Parse(in.rulesSrc); return })
		if err != nil {
			return err
		}
		v.addDur("rules.parse_s", d)
		v["rules.entries"] += float64(rs.Len())
		g, _, got, err := generateDecomposed(t, v, prog, rs)
		if err != nil {
			return err
		}
		done = append(done, summarized{g, got.Templates})
		if err := in.want.compare(got, true); err != nil {
			return fmt.Errorf("decomposed pipeline: %w", err)
		}
		return nil
	})
	t.end(root)
	if err != nil {
		return root, err
	}
	for _, s := range done {
		if err := explorePar2(t, v, s.g, s.templates); err != nil {
			return root, err
		}
	}
	return root, nil
}

// ---- regress-gw4-1entry ----

type regressRun struct {
	onceVals
	p        *programs.Program
	newRules *rules.Set
	baseline string // checkpoint journal of the baseline generation
	baseFP   uint64
	refOut   []byte // cold generation on newRules: the reference output
	scratch  string
	n        int
}

// mutateEntry returns a canonical copy of s with the first action
// argument of one entry bumped. The entry is the idx-th (mod the table's
// size) of the table with the most entries that take an argument, the
// first such table in canonical order: where a rule update is likeliest
// to land, and one table so that every seed invalidates alike (on gw-4
// the 144 elastic-IP mappings of switch 1; entries of other tables
// invalidate between 0 and 46 176 of the 97 573 baseline records).
func mutateEntry(s *rules.Set, idx int64) (*rules.Set, error) {
	out := s.Canonical()
	var cands []*rules.Entry
	for _, t := range out.Tables() {
		var withArgs []*rules.Entry
		for _, e := range out.Entries(t) {
			if len(e.Args) > 0 {
				withArgs = append(withArgs, e)
			}
		}
		if len(withArgs) > len(cands) {
			cands = withArgs
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("rule set has no entry with an action argument")
	}
	i := idx % int64(len(cands))
	if i < 0 {
		i += int64(len(cands))
	}
	cands[i].Args[0]++
	return out, nil
}

func setupRegress(e *env) (runner, error) {
	p, want, err := e.bigInput()
	if err != nil {
		return nil, err
	}
	w := &regressRun{p: p, scratch: e.scratch, onceVals: onceVals{layerVals{}}}
	w.baseline = filepath.Join(e.scratch, "baseline.journal")
	opts := seqOptions()
	opts.Checkpoint = w.baseline
	start := time.Now()
	_, _, got, err := generate(w.p.Prog, w.p.Rules, opts)
	if err != nil {
		return nil, fmt.Errorf("baseline generation: %w", err)
	}
	w.vals.addDur("journal.checkpoint_gen_s", time.Since(start))
	if err := want.compare(got, true); err != nil {
		return nil, fmt.Errorf("baseline generation: %w", err)
	}
	sys, err := meissa.New(w.p.Prog, w.p.Rules, nil, seqOptions())
	if err != nil {
		return nil, err
	}
	if w.baseFP, err = sys.Fingerprint(); err != nil {
		return nil, err
	}
	if w.newRules, err = mutateEntry(w.p.Rules, e.seed); err != nil {
		return nil, err
	}
	if _, w.refOut, _, err = generate(w.p.Prog, w.newRules, seqOptions()); err != nil {
		return nil, fmt.Errorf("reference generation on the new rules: %w", err)
	}
	w.vals.addFileMB("journal.file_mb", w.baseline)
	return w, nil
}

// regress runs meissa.Regress against the baseline with a fresh
// checkpoint path and checks the incremental output against the cold
// reference.
func (w *regressRun) regress(c *clock) (*meissa.RegressResult, error) {
	w.n++
	opts := c.pieces(seqOptions())
	opts.Checkpoint = filepath.Join(w.scratch, fmt.Sprintf("rebased-%d.journal", w.n))
	defer os.Remove(opts.Checkpoint)
	res, err := meissa.Regress(meissa.RegressInput{
		Prog: w.p.Prog, OldRules: w.p.Rules, NewRules: w.newRules, Opts: opts,
		Baseline: w.baseline, Program: w.p.Name, RuleSet: "1entry",
	})
	if err != nil {
		return nil, err
	}
	if err := res.Report.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := meissa.WriteTemplates(&buf, res.Gen.Templates); err != nil {
		return nil, err
	}
	if !bytes.Equal(buf.Bytes(), w.refOut) {
		return nil, fmt.Errorf("incremental output differs from a cold generation on the new rules (%s vs %s)",
			digest(buf.Bytes()), digest(w.refOut))
	}
	return res, nil
}

func (w *regressRun) op(c *clock) error {
	_, err := w.regress(c)
	return err
}

func (w *regressRun) traced(t *tracer, v layerVals) (int, error) {
	busy0 := smtLatency.Sum()
	root := t.begin("op")
	res, err := w.regress(&clock{})
	t.end(root)
	if err != nil {
		return root, err
	}
	v["smt.busy_s"] += float64(smtLatency.Sum()-busy0) / 1e9
	gens := t.derive(root, []string{"baseline_replay(meissa.Generate)", "incremental(meissa.Generate)"},
		[]time.Duration{res.BaselineGen.Duration, res.Gen.Duration})
	derivePhases(t, gens[0], res.BaselineGen)
	derivePhases(t, gens[1], res.Gen)
	v.addGenResult(res.Gen)
	v.addDur("regress.baseline_replay_s", res.BaselineGen.Duration)
	v.addDur("journal.resume_gen_s", res.BaselineGen.Duration)
	v.addDur("regress.incremental_gen_s", res.Gen.Duration)
	v["regress.retained"] += float64(res.Gen.Rebase.Retained)
	v["regress.invalidated"] += float64(res.Gen.Rebase.Invalidated)
	v["regress.reuse_share"] = res.Report.Queries.Reuse
	return root, nil
}

// side calls the layers Regress calls directly: rulediff.Diff,
// regress.Rebase and journal.Open on the baseline.
func (w *regressRun) side(t *tracer) (layerVals, error) {
	v := w.vals
	var delta *rulediff.Delta
	d, _ := t.do("rulediff.Diff", func() error { delta = rulediff.Diff(w.p.Rules, w.newRules); return nil })
	v.addDur("rulediff.diff_s", d)
	invalid := delta.InvalidTags()
	v["rulediff.invalid_tags"] = float64(len(invalid))

	newSys, err := meissa.New(w.p.Prog, w.newRules, nil, seqOptions())
	if err != nil {
		return nil, err
	}
	newFP, err := newSys.Fingerprint()
	if err != nil {
		return nil, err
	}
	dst := filepath.Join(w.scratch, "rebase-direct.journal")
	defer os.Remove(dst)
	d, err = t.do("regress.Rebase", func() error {
		_, err := regress.Rebase(w.baseline, dst, w.baseFP, newFP, rulediff.Matcher(invalid))
		return err
	})
	if err != nil {
		return nil, err
	}
	v.addDur("regress.rebase_s", d)

	var j *journal.Journal
	d, err = t.do("journal.Open", func() (err error) { j, err = journal.Open(w.baseline, w.baseFP, true); return })
	if err != nil {
		return nil, err
	}
	v.addDur("journal.open_load_s", d)
	v["journal.records"] = float64(j.Loaded())
	return v, j.Close()
}

// derivePhases nests the phases a GenResult reports under its span.
func derivePhases(t *tracer, parent int, gen *meissa.GenResult) {
	names := make([]string, len(gen.Phases))
	durs := make([]time.Duration, len(gen.Phases))
	for i, ph := range gen.Phases {
		names[i], durs[i] = "generate/"+ph.Name, ph.Dur()
	}
	t.derive(parent, names, durs)
}

// ---- warm-gw4-store ----

type warmStore struct {
	onceVals
	p     *programs.Program
	want  expect
	store string
}

func (w *warmStore) options(c *clock) meissa.Options {
	o := c.pieces(seqOptions())
	o.StorePath = w.store
	return o
}

func setupWarm(e *env) (runner, error) {
	p, want, err := e.bigInput()
	if err != nil {
		return nil, err
	}
	w := &warmStore{p: p, want: want, store: filepath.Join(e.scratch, "verdicts.store"),
		onceVals: onceVals{layerVals{}}}
	start := time.Now()
	gen, _, got, err := generate(w.p.Prog, w.p.Rules, w.options(&clock{}))
	if err != nil {
		return nil, fmt.Errorf("cold store-backed generation: %w", err)
	}
	w.vals.addDur("store.cold_gen_s", time.Since(start))
	if err := want.compare(got, true); err != nil {
		return nil, fmt.Errorf("cold store-backed generation: %w", err)
	}
	w.vals["store.commits"] = float64(gen.Store.Commits)
	w.vals.addFileMB("store.file_mb", w.store)
	return w, nil
}

// warm runs one store-backed generation that must make no solver call.
func (w *warmStore) warm(c *clock) (*meissa.GenResult, error) {
	gen, _, got, err := generate(w.p.Prog, w.p.Rules, w.options(c))
	if err != nil {
		return nil, err
	}
	if gen.SMTCalls != 0 {
		return nil, fmt.Errorf("warm generation made %d solver calls, want 0", gen.SMTCalls)
	}
	return gen, w.want.compare(got, false)
}

func (w *warmStore) op(c *clock) error {
	_, err := w.warm(c)
	return err
}

func (w *warmStore) traced(t *tracer, v layerVals) (int, error) {
	root := t.begin("op")
	gen, err := w.warm(&clock{})
	d := t.end(root)
	if err != nil {
		return root, err
	}
	derivePhases(t, root, gen)
	v.addGenResult(gen)
	v.addDur("store.warm_gen_s", d)
	v["journal.records"] += float64(gen.JournalLoaded)
	return root, nil
}

// side measures what the store costs a warm generation over a plain
// journal: it exports the family's verdicts as a checkpoint journal,
// resumes a generation from that — the same replay without the store —
// and scans the family's records in a snapshot.
func (w *warmStore) side(t *tracer) (layerVals, error) {
	v := w.vals
	sys, err := meissa.New(w.p.Prog, w.p.Rules, nil, w.options(&clock{}))
	if err != nil {
		return nil, err
	}
	opts := seqOptions()
	opts.Checkpoint, opts.Resume = filepath.Join(filepath.Dir(w.store), "exported.journal"), true
	if _, err := t.do("meissa.StoreExport", func() error { _, err := sys.StoreExport(opts.Checkpoint); return err }); err != nil {
		return nil, err
	}
	v.addFileMB("journal.file_mb", opts.Checkpoint)
	var gen *meissa.GenResult
	var got expect
	d, err := t.do("meissa.Generate(resume)", func() (err error) {
		gen, _, got, err = generate(w.p.Prog, w.p.Rules, opts)
		return
	})
	if err != nil {
		return nil, fmt.Errorf("resumed generation: %w", err)
	}
	if gen.SMTCalls != 0 {
		return nil, fmt.Errorf("generation resumed from the exported journal made %d solver calls, want 0", gen.SMTCalls)
	}
	if err := w.want.compare(got, false); err != nil {
		return nil, fmt.Errorf("resumed generation: %w", err)
	}
	v.addDur("journal.resume_gen_s", d)

	status, err := sys.StoreStatus()
	if err != nil {
		return nil, err
	}
	v["store.records"] = float64(status.Records)
	st, err := store.Open(w.store, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	sn := st.Snapshot()
	defer sn.Close()
	d, err = t.do("store.Snapshot.Records", func() error {
		return sn.Records(status.Family, func(journal.Record) bool { return true })
	})
	v.addDur("store.snapshot_scan_s", d)
	return v, err
}

// ---- drive-gw4-loopback ----

type driveSuite struct {
	onceVals
	p     *programs.Program
	gen   *meissa.GenResult
	d     *driver.Driver
	tiled []*sym.Template
}

func setupDrive(e *env) (runner, error) {
	p, want, err := e.bigInput()
	if err != nil {
		return nil, err
	}
	w := &driveSuite{p: p, onceVals: onceVals{layerVals{}}}
	gen, _, got, err := generate(w.p.Prog, w.p.Rules, seqOptions())
	if err != nil {
		return nil, err
	}
	if err := want.compare(got, true); err != nil {
		return nil, err
	}
	w.gen = gen
	start := time.Now()
	if _, w.d, err = w.newDriver(); err != nil {
		return nil, err
	}
	w.vals.addDur("switchsim.compile_s", time.Since(start))
	for i := 0; i < e.sc.tile; i++ {
		w.tiled = append(w.tiled, gen.Templates...)
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(w.tiled), func(i, j int) { w.tiled[i], w.tiled[j] = w.tiled[j], w.tiled[i] })
	if !e.traced {
		return w, nil
	}

	// Traced run only: the same suite with one case in flight at a time,
	// on a target and driver of its own.
	_, lockstep, err := w.newDriver()
	if err != nil {
		return nil, err
	}
	lockstep.Window = 1
	start = time.Now()
	if _, _, err := w.run(lockstep, &clock{}); err != nil {
		return nil, fmt.Errorf("lockstep suite: %w", err)
	}
	w.vals.addDur("driver.lockstep_suite_s", time.Since(start))
	return w, nil
}

// newDriver compiles a fresh switchsim target and wires a driver to it
// over the in-process loopback link.
func (w *driveSuite) newDriver() (*switchsim.Target, *driver.Driver, error) {
	target, err := switchsim.Compile(w.p.Prog, w.p.Rules, nil)
	if err != nil {
		return nil, nil, err
	}
	return target, driver.New(w.p.Prog, w.gen.Graph, driver.NewLoopback(target), nil), nil
}

// run drives the tiled suite through d, one RunTemplates call and one
// piece per suite-sized slice of it; switchsim, an interpreter independent
// of the symbolic engine, must agree with every template. It returns how
// many verdicts and retransmissions the calls made together.
func (w *driveSuite) run(d *driver.Driver, c *clock) (verdicts, retransmissions int, err error) {
	n := len(w.gen.Templates)
	for lo := 0; lo < len(w.tiled); lo += n {
		rep, err := d.RunTemplates(w.tiled[lo : lo+n])
		c.lap()
		if err != nil {
			return 0, 0, err
		}
		if rep.Passed != n || rep.Failed+rep.Lost+rep.Flaky+rep.Skipped != 0 {
			return 0, 0, fmt.Errorf("slice of %d cases: %s", n, rep.Summary())
		}
		verdicts += rep.Passed
		retransmissions += rep.Retransmissions
	}
	return verdicts, retransmissions, nil
}

func (w *driveSuite) op(c *clock) error {
	_, _, err := w.run(w.d, c)
	return err
}

func (w *driveSuite) traced(t *tracer, v layerVals) (int, error) {
	root := t.begin("op")
	verdicts, retransmissions, err := w.run(w.d, &clock{})
	d := t.end(root)
	if err != nil {
		return root, err
	}
	v.addDur("driver.suite_s", d)
	v["driver.verdicts"] += float64(verdicts)
	v["driver.retransmissions"] += float64(retransmissions)
	return root, nil
}

// side calls the stages a verdict passes through directly, on a target
// and driver of their own. The suite's driver has every template's
// concretization cached by now, so Concretize runs over one copy of the
// suite (what a fresh driver pays once), and the per-packet stages run
// over that copy's cases tile times — as many packets as an operation
// sends.
func (w *driveSuite) side(t *tracer) (layerVals, error) {
	v := w.vals
	target, side, err := w.newDriver()
	if err != nil {
		return nil, err
	}
	entries := []string{w.p.Prog.Pipelines[0].Name}
	if tp := w.p.Prog.Topology; tp != nil {
		entries = tp.Entries
	}
	parsers := make([]string, len(entries))
	for i, name := range entries {
		parsers[i] = w.p.Prog.Pipeline(name).Parser
	}
	cases := make([]*driver.Case, 0, len(w.gen.Templates))
	d, err := t.do("driver.Concretize", func() error {
		for i, tpl := range w.gen.Templates {
			c, err := side.Concretize(tpl, uint64(i+1))
			if err != nil {
				return err
			}
			cases = append(cases, c)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	v.addDur("driver.concretize_s", d)
	tile := len(w.tiled) / len(cases)
	v["switchsim.packets"] = float64(tile * len(cases))
	perPacket := func(span, name string, f func(c *driver.Case) error) error {
		d, err := t.do(span, func() error {
			for i := 0; i < tile; i++ {
				for _, c := range cases {
					if err := f(c); err != nil {
						return err
					}
				}
			}
			return nil
		})
		v.addDur(name, d)
		return err
	}
	if err := perPacket("switchsim.InjectQuietWire", "switchsim.inject_s", func(c *driver.Case) error {
		_, err := target.InjectQuietWire(c.Entry, c.Wire)
		return err
	}); err != nil {
		return nil, err
	}
	if err := perPacket("packet.Parse", "packet.parse_s", func(c *driver.Case) error {
		_, err := packet.Parse(w.p.Prog, parsers[c.Entry], c.Wire)
		return err
	}); err != nil {
		return nil, err
	}
	return v, perPacket("packet.Marshal", "packet.marshal_s", func(c *driver.Case) error {
		_, err := c.Input.Marshal(w.p.Prog)
		return err
	})
}
