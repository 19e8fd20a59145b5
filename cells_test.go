package meissa_test

// The root package's runs, each made once. A cell is one run's
// configuration — a corpus program, a rule variant, code summary on or
// off, a worker count, what the run writes (nothing, a checkpoint, a
// store, both) and what it starts from (nothing, a resumed checkpoint, a
// regression's baseline) — kept as what the differentials compare of it:
// the digest of renderTemplates, the counted work, the templates' path
// keys, the store, rebase and regress report sections, and the digests
// of the files it wrote, which stay on disk in a directory TestMain owns.
// A cell is computed the first time a test reads it, at most once a
// process, and keeps no GenResult. A computation that fails keeps its
// error, and every test that reads the cell fails with it. A cell stands
// for its own configuration only: a checkpointing run never stands in for
// a plain one, and a test that writes to a cell's file (a resume, a store
// commit) works on a copy.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	meissa "repro"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/rulediff"
	"repro/internal/rules"
)

func TestMain(m *testing.M) {
	cells.tmp = os.TempDir()
	code := m.Run()
	if cells.dir != "" {
		os.RemoveAll(cells.dir)
	}
	os.Exit(code)
}

// run is one run of a test: a generation of p under rules (p.Rules when
// nil) with opts or, with regress set, meissa.Regress to rules from the
// checkpoint baseline, generated under old, or, with no baseline, from
// opts.StorePath. It is the one way this package's tests make a run.
type run struct {
	p        *programs.Program
	rules    *rules.Set
	opts     meissa.Options
	regress  bool
	old      *rules.Set
	baseline string
}

// at returns the default options at parallelism par.
func at(par int) meissa.Options {
	opts := meissa.DefaultOptions()
	opts.Parallelism = par
	return opts
}

// ruleSet is the run's rules.
func (r run) ruleSet() *rules.Set {
	if r.rules == nil {
		return r.p.Rules
	}
	return r.rules
}

// do makes the run and validates its run report; a store-backed run must
// report its store. A generation's result holds Gen only.
func (r run) do() (*meissa.RegressResult, error) {
	var res *meissa.RegressResult
	if r.regress {
		var err error
		res, err = meissa.Regress(meissa.RegressInput{Prog: r.p.Prog, OldRules: r.old, NewRules: r.ruleSet(),
			Opts: r.opts, Baseline: r.baseline, Program: r.p.Name})
		if err != nil {
			return nil, err
		}
	} else {
		sys, err := meissa.New(r.p.Prog, r.ruleSet(), nil, r.opts)
		if err != nil {
			return nil, err
		}
		gen, err := sys.Generate()
		if err != nil {
			return nil, err
		}
		res = &meissa.RegressResult{Gen: gen, Run: gen.Report("gen", r.p.Name)}
	}
	if r.opts.StorePath != "" && (res.Gen.Store == nil || res.Run.Store == nil) {
		return nil, fmt.Errorf("store-backed run produced no store report")
	}
	if err := res.Run.Validate(); err != nil {
		return nil, fmt.Errorf("run report invalid: %w", err)
	}
	return res, nil
}

// system returns the run's System, made with meissa.New, and its
// checkpoint identity.
func (r run) system(tb testing.TB) (*meissa.System, uint64) {
	tb.Helper()
	sys, err := meissa.New(r.p.Prog, r.ruleSet(), nil, r.opts)
	if err != nil {
		tb.Fatal(err)
	}
	fp, err := sys.Fingerprint()
	if err != nil {
		tb.Fatal(err)
	}
	return sys, fp
}

// generate returns the run's System and its generation.
func (r run) generate(tb testing.TB) (*meissa.System, *meissa.GenResult) {
	tb.Helper()
	sys, _ := r.system(tb)
	gen, err := sys.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return sys, gen
}

// res makes the run, failing tb on an error.
func (r run) res(tb testing.TB) *meissa.RegressResult {
	tb.Helper()
	res, err := r.do()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// gen makes the run and returns its generation.
func (r run) gen(tb testing.TB) *meissa.GenResult {
	tb.Helper()
	return r.res(tb).Gen
}

// corpusAll returns the corpus programs, built once a process and shared
// read-only.
var corpusAll = sync.OnceValue(programs.All)

// corpus returns the corpus program named name.
func corpus(name string) (*programs.Program, error) {
	for _, p := range corpusAll() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("corpus program %q not found", name)
}

func corpusProgram(t *testing.T, name string) *programs.Program {
	t.Helper()
	p, err := corpus(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// variant returns p's rules after the "/"-separated steps of name: args1
// and args2 change that many entries' action arguments
// (rulediff.MutateArgs), resorted is resortedBump, fewer withoutLast and
// canonical the canonical order. "" is p's own rules.
func variant(p *programs.Program, name string) (*rules.Set, error) {
	rs := p.Rules
	if name == "" {
		return rs, nil
	}
	for _, step := range strings.Split(name, "/") {
		switch step {
		case "args1", "args2":
			var n int
			if rs, n = rulediff.MutateArgs(p.Prog, rs, int(step[4]-'0')); n == 0 {
				return nil, fmt.Errorf("%s: nothing to mutate", p.Name)
			}
		case "resorted":
			rs = resortedBump(rs)
		case "fewer":
			rs = withoutLast(rs)
		case "canonical":
			rs = rs.Canonical()
		default:
			return nil, fmt.Errorf("no rule variant %q", step)
		}
	}
	return rs, nil
}

// mustVariant is variant, failing tb on an error.
func mustVariant(tb testing.TB, p *programs.Program, name string) *rules.Set {
	tb.Helper()
	rs, err := variant(p, name)
	if err != nil {
		tb.Fatal(err)
	}
	return rs
}

// then is the variant v followed by step.
func then(v, step string) string {
	if v == "" {
		return step
	}
	return v + "/" + step
}

// cellKey is a cell's configuration. A run that starts from another
// cell's file names it in from (its key's String); the two share program,
// summary mode and worker count.
type cellKey struct {
	prog    string // a corpus program
	rules   string // a rule variant
	summary bool
	par     int    // the worker count: GOMAXPROCS for a requested 0
	writes  string // "", "checkpoint", "store" or "checkpoint+store"
	reads   string // "", or what of from it starts from: "resume" its checkpoint, or regress from its "checkpoint" or "store"
	from    string
}

func (k cellKey) String() string {
	s := fmt.Sprintf("%s[%s] summary=%v parallel=%d", k.prog, k.rules, k.summary, k.par)
	if k.writes != "" {
		s += " writes " + k.writes
	}
	if k.reads != "" {
		s += " reads " + k.reads + " of (" + k.from + ")"
	}
	return s
}

// genKey is the generation of prog under a rule variant at par, with code
// summary, writing what writes names.
func genKey(prog, rules string, par int, writes string) cellKey {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return cellKey{prog: prog, rules: rules, summary: true, par: par, writes: writes}
}

// summarized is k with code summary on or off.
func (k cellKey) summarized(on bool) cellKey {
	k.summary = on
	return k
}

// resumeKey is k's run again, resumed from a copy of k's checkpoint.
func resumeKey(k cellKey) cellKey {
	register(k)
	return cellKey{prog: k.prog, rules: k.rules, summary: k.summary, par: k.par,
		writes: "checkpoint", reads: "resume", from: k.String()}
}

// regressKey is the regression to a rule variant from base's checkpoint
// (reads "checkpoint") or from a copy of base's store (reads "store"),
// which it commits to; checkpoint says whether it writes a Checkpoint.
func regressKey(base cellKey, reads, rules string, checkpoint bool) cellKey {
	register(base)
	k := cellKey{prog: base.prog, rules: rules, summary: base.summary, par: base.par, reads: reads, from: base.String()}
	if checkpoint {
		k.writes = "checkpoint"
	}
	if reads == "store" {
		k.writes = strings.TrimPrefix(k.writes+"+store", "+")
	}
	return k
}

var cells struct {
	sync.Mutex
	tmp string           // where TestMain's directory goes
	dir string           // TestMain's directory, made for the first cell
	m   map[string]*cell // by key
}

// work is a run's counted work.
type work struct {
	Paths, Pruned, Frames, RowFrames                  uint64
	Checks, CacheHits, Propagations, TruncatedUnknown uint64
	JournalHits, Appended, Loaded                     uint64
	Templates                                         int
}

// cell is what the tests compare of one run.
type cell struct {
	key  cellKey
	once sync.Once
	err  error
	dir  string // the files the run wrote: checkpoint, store

	digest   uint64 // of renderTemplates
	work     work
	pathKeys []uint64
	files    map[string][32]byte // SHA-256 of each file the run wrote, by name
	solver   *obs.SolverReport   // the run report's
	store    *obs.StoreReport
	rebase   *obs.RebaseStats
	regress  *obs.RegressReport
	load     string // a regression's baseline load: its templates and phases
	// A program's own generation at one worker also holds the fmt
	// renderers' verdict on its templates (the expressions and
	// WriteTemplates checked on summarized runs) and how many constraints
	// they rendered.
	oracle   error
	rendered int
}

// register returns k's cell, made uncomputed on first use.
func register(k cellKey) *cell {
	cells.Lock()
	defer cells.Unlock()
	if cells.m == nil {
		cells.m = map[string]*cell{}
	}
	c := cells.m[k.String()]
	if c == nil {
		c = &cell{key: k}
		cells.m[k.String()] = c
	}
	return c
}

// get returns k's cell, failing tb with its computation's error.
func get(tb testing.TB, k cellKey) *cell {
	tb.Helper()
	c := register(k)
	if err := c.ready(); err != nil {
		tb.Fatalf("%s: %v", k, err)
	}
	return c
}

func (c *cell) ready() error {
	c.once.Do(func() { c.err = c.compute() })
	return c.err
}

// path is the cell's file name.
func (c *cell) path(name string) string { return filepath.Join(c.dir, name) }

// copy returns the path of a copy of the cell's file name, in a directory
// of tb's.
func (c *cell) copy(tb testing.TB, name string) string {
	tb.Helper()
	dst := filepath.Join(tb.TempDir(), name)
	if err := copyFile(c.path(name), dst); err != nil {
		tb.Fatal(err)
	}
	return dst
}

// read returns the bytes of the cell's file name.
func (c *cell) read(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(c.path(name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func (c *cell) compute() error {
	k := c.key
	p, err := corpus(k.prog)
	if err != nil {
		return err
	}
	rs, err := variant(p, k.rules)
	if err != nil {
		return err
	}
	if c.dir, err = cellDir(); err != nil {
		return err
	}
	r := run{p: p, rules: rs, opts: at(k.par)}
	r.opts.NoSummary = !k.summary
	if strings.Contains(k.writes, "checkpoint") {
		r.opts.Checkpoint = c.path("checkpoint")
	}
	if strings.Contains(k.writes, "store") {
		r.opts.StorePath = c.path("store")
	}
	if k.reads != "" {
		cells.Lock()
		src := cells.m[k.from]
		cells.Unlock()
		if err := src.ready(); err != nil {
			return fmt.Errorf("%s: %w", src.key, err)
		}
		switch k.reads {
		case "resume":
			r.opts.Resume = true
			err = copyFile(src.path("checkpoint"), r.opts.Checkpoint)
		case "checkpoint":
			r.regress, r.baseline = true, src.path("checkpoint")
			r.old, err = variant(p, src.key.rules)
		case "store":
			r.regress = true
			err = copyFile(src.path("store"), r.opts.StorePath)
		}
		if err != nil {
			return err
		}
	}
	res, err := r.do()
	if err != nil {
		return err
	}
	c.record(res)
	c.files = map[string][32]byte{}
	for _, name := range []string{"checkpoint", "store"} {
		if strings.Contains(k.writes, name) {
			b, err := os.ReadFile(c.path(name))
			if err != nil {
				return err
			}
			c.files[name] = sha256.Sum256(b)
		}
	}
	if k.rules == "" && k.par == 1 && k.writes == "" && k.reads == "" {
		c.rendered, c.oracle = fmtOracle(res.Gen.Templates, c.digest, k.summary)
	}
	return nil
}

// observe returns a cell of a run a test made itself, to compare with
// cells.
func observe(res *meissa.RegressResult) *cell {
	c := &cell{}
	c.record(res)
	return c
}

// record keeps what the tests compare of res.
func (c *cell) record(res *meissa.RegressResult) {
	g := res.Gen
	c.digest = digest(g.Templates)
	c.work = work{Paths: g.PathsExplored, Pruned: g.PrunedPaths, Frames: g.Frames, RowFrames: g.RowFrames,
		Checks: g.SMTCalls, CacheHits: g.SMT.CacheHits, Propagations: g.SMT.Propagations, TruncatedUnknown: g.SMT.TruncatedUnknown,
		JournalHits: g.JournalHits, Appended: g.JournalAppended, Loaded: g.JournalLoaded, Templates: len(g.Templates)}
	c.pathKeys = make([]uint64, len(g.Templates))
	for i, tm := range g.Templates {
		c.pathKeys[i] = tm.PathKey
	}
	c.solver, c.store, c.rebase, c.regress = res.Run.Solver, g.Store, g.Rebase, res.Report
	if b := res.BaselineGen; b != nil {
		var phases []string
		for _, ph := range b.Phases {
			phases = append(phases, ph.Name)
		}
		c.load = fmt.Sprintf("%d templates, phases %v", len(b.Templates), phases)
	}
}

// cellDir makes a directory for one cell's files in TestMain's.
func cellDir() (string, error) {
	cells.Lock()
	defer cells.Unlock()
	if cells.dir == "" {
		d, err := os.MkdirTemp(cells.tmp, "meissa-cells-")
		if err != nil {
			return "", err
		}
		cells.dir = d
	}
	return os.MkdirTemp(cells.dir, "cell-")
}

// copyFile copies the file at src to dst.
func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// sameFile fails unless the file at path holds the bytes of want's file
// name, naming the offset where they part.
func sameFile(t *testing.T, what, path string, want *cell, name string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(got) == want.files[name] {
		return
	}
	w := want.read(t, name)
	n := 0
	for n < min(len(got), len(w)) && got[n] == w[n] {
		n++
	}
	t.Fatalf("%s: %d bytes, the %s of %s %d; they part at offset %d", what, len(got), name, want.key, len(w), n)
}
