package meissa_test

// Acceptance tests for the durable verdict store at the whole-system
// level: a warm store-backed generation must be byte-identical to a cold
// run with zero live solver queries, a rule update must reconcile
// atomically and leave store-backed output equal to a cold run on the
// new rules (never serving a stale verdict), and a regression from the
// store must match one from a checkpoint — sequentially and in parallel.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	meissa "repro"
	"repro/internal/cfg"
	"repro/internal/journal"
	"repro/internal/programs"
	"repro/internal/rulediff"
	"repro/internal/rules"
	"repro/internal/store"
)

// storeRun is the store-backed generation of p under rs (p.Rules when
// nil) at parallelism par against the store at path.
func storeRun(p *programs.Program, rs *rules.Set, par int, path string) run {
	opts := at(par)
	opts.StorePath = path
	return run{p: p, rules: rs, opts: opts}
}

// TestStoreWarmGenByteIdentical: the headline reuse guarantee. A cold
// store-backed run commits its verdicts; a second run over the same
// inputs warms from the store, emits byte-identical templates, and makes
// ZERO live solver queries — everything is answered by the materialized
// journal. The warm run's commit is pure duplicates (the store file's
// logical content is a fixpoint).
func TestStoreWarmGenByteIdentical(t *testing.T) {
	for _, name := range []string{"Router", "gw-1"} {
		t.Run(name, func(t *testing.T) {
			cold := get(t, genKey(name, "", 1, "store"))
			if cold.store.Committed == 0 {
				t.Fatal("cold run committed no records")
			}
			if cold.store.Warmed != 0 {
				t.Fatalf("cold run warmed %d records from an empty store", cold.store.Warmed)
			}

			warm := storeRun(corpusProgram(t, name), nil, 1, cold.copy(t, "store")).gen(t)
			if digest(warm.Templates) != cold.digest {
				t.Fatalf("warm-store output differs from cold run (%d vs %d templates)",
					len(warm.Templates), cold.work.Templates)
			}
			if warm.Store.Warmed == 0 {
				t.Fatal("second run warmed nothing from a populated store")
			}
			if warm.SMTCalls != 0 {
				t.Fatalf("warm run made %d live solver calls, want 0", warm.SMTCalls)
			}
			if warm.JournalHits == 0 {
				t.Fatal("warm run answered nothing from the materialized journal")
			}
			// What filling the table cost: the store's open and warm phases.
			var source int64
			for _, ph := range warm.Phases {
				if ph.Name == "store-open" || ph.Name == "store-warm" {
					source += ph.NS
				}
			}
			j := warm.Report("gen", name).Journal
			if j.SourceNS != source || source == 0 || j.BreakevenNSPerQuery != float64(source)/float64(warm.JournalHits) {
				t.Fatalf("journal report source_ns %d breakeven %g; the phases sum to %d over %d hits",
					j.SourceNS, j.BreakevenNSPerQuery, source, warm.JournalHits)
			}
			if warm.Store.Committed != 0 {
				t.Fatalf("warm run committed %d records, want 0 (all duplicates)", warm.Store.Committed)
			}
			if warm.Store.Duplicates == 0 {
				t.Fatal("warm run's commit saw no duplicates")
			}
		})
	}
}

// TestStoreRuleChurnMatchesCold: Unknown-never-stale under rule updates.
// After a rule delta, a store-backed run must equal a cold run on the
// new rules — the reconcile transaction retires exactly the invalidated
// entries and the survivors still answer. After each step the store's
// template list is that of a cold run on the step's rules, path key for
// path key.
func TestStoreRuleChurnMatchesCold(t *testing.T) {
	p := corpusProgram(t, "Router")
	newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
	if n == 0 {
		t.Skip("corpus rules have no mutable action arguments")
	}
	spath := get(t, genKey("Router", "", 1, "store")).copy(t, "store") // populated under the old rules
	checkList := func(step string, cold *cell) {
		t.Helper()
		_, list := storeFamily(t, p, spath)
		keys := list.PathKeys()
		if len(keys) != len(cold.pathKeys) {
			t.Fatalf("%s: the store's template list holds %d path keys, a cold run makes %d templates", step, len(keys), len(cold.pathKeys))
		}
		for i, k := range cold.pathKeys {
			if keys[i] != k {
				t.Fatalf("%s: the store's template list differs from a cold run's at template %d", step, i)
			}
		}
	}
	checkList("populate", get(t, genKey("Router", "", 1, "")))

	cold := get(t, genKey("Router", "args1", 1, ""))
	churn := storeRun(p, newRules, 1, spath).gen(t)
	if digest(churn.Templates) != cold.digest {
		t.Fatalf("store-backed run under updated rules differs from cold run (%d vs %d templates)",
			len(churn.Templates), cold.work.Templates)
	}
	if churn.Store.Invalidated == 0 {
		t.Fatal("rule delta invalidated nothing in the store")
	}
	if churn.Store.Warmed == 0 {
		t.Fatal("no stored verdicts survived a single-entry delta")
	}
	if churn.SMTCalls >= cold.work.Checks {
		t.Fatalf("store reuse saved no solver work: %d calls vs cold %d", churn.SMTCalls, cold.work.Checks)
	}
	checkList("churn", cold)

	// The store now serves the new rules: one more run is fully warm.
	again := storeRun(p, newRules, 1, spath).gen(t)
	if again.SMTCalls != 0 {
		t.Fatalf("post-churn warm run made %d live solver calls, want 0", again.SMTCalls)
	}
	if digest(again.Templates) != cold.digest {
		t.Fatal("post-churn warm run diverged from the cold run")
	}
	checkList("warm run after the churn", cold)
}

// TestStoreRuleUpdateCommitsOnce: a rule delta reaches the store in one
// place, the run's commit. A store-backed generation on the new rules and
// a regression from the store to them leave the same store file, each in
// one transaction, and account for the update alike: what the warm start
// retained in memory is what the regression reports as its rebase.
func TestStoreRuleUpdateCommitsOnce(t *testing.T) {
	for _, name := range []string{"gw-1", "gw-3"} {
		t.Run(name, func(t *testing.T) {
			p := corpusProgram(t, name)
			base := genKey(name, "", 1, "store") // populated under the old rules
			genPath := get(t, base).copy(t, "store")
			gen := storeRun(p, mustVariant(t, p, "args1"), 1, genPath).gen(t)
			reg := get(t, regressKey(base, "store", "args1", false))
			sameFile(t, "gen -store against the store regression", genPath, reg, "store")
			g, r := gen.Store, reg.store
			if g.Commits != 1 || r.Commits != 1 {
				t.Errorf("commits: gen %d, regress %d; want 1 each", g.Commits, r.Commits)
			}
			if g.Warmed != r.Warmed || g.Invalidated != r.Invalidated || g.Committed != r.Committed || g.Invalidated == 0 {
				t.Errorf("gen warmed/invalidated/committed %d/%d/%d, regress %d/%d/%d",
					g.Warmed, g.Invalidated, g.Committed, r.Warmed, r.Invalidated, r.Committed)
			}
			if gen.Rebase == nil || *gen.Rebase != *reg.regress.Rebase || uint64(gen.Rebase.Retained) != g.Warmed {
				t.Errorf("gen rebase %+v, regress rebase section %+v, warmed %d", gen.Rebase, reg.regress.Rebase, g.Warmed)
			}
		})
	}
}

// TestStoreExportWritesNothing: an export under rules that differ from the
// stored ones leaves the store as it was, and holds exactly the records
// the delta leaves valid, so a resume from it on the new rules equals a
// cold run and re-solves only what the delta invalidated.
func TestStoreExportWritesNothing(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
	if n == 0 {
		t.Fatal("nothing to mutate")
	}
	dir := t.TempDir()
	opts := at(1)
	opts.StorePath = get(t, genKey("gw-1", "", 1, "store")).copy(t, "store")
	before, err := os.ReadFile(opts.StorePath)
	if err != nil {
		t.Fatal(err)
	}
	sys, fp := run{p: p, rules: newRules, opts: opts}.system(t)
	status, err := sys.StoreStatus()
	if err != nil {
		t.Fatal(err)
	}
	exported := filepath.Join(dir, "exported.journal")
	rep, err := sys.StoreExport(exported)
	if err != nil {
		t.Fatal(err)
	}
	after, err := sys.StoreStatus()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(opts.StorePath); !bytes.Equal(got, before) || after.Txid != status.Txid || rep.Commits != 0 {
		t.Fatalf("the export wrote to its store: %d -> %d bytes, txid %d -> %d, %d commits",
			len(before), len(got), status.Txid, after.Txid, rep.Commits)
	}

	// The export: the header under the new rules, then the stored frames no
	// invalidated tag reaches, as they are.
	stale := rulediff.Matcher(rulediff.Diff(p.Rules, newRules).InvalidTags())
	want := checkpointHeader(t, fp)
	retained, invalidated := 0, 0
	frames, _ := storeFamily(t, p, opts.StorePath)
	for _, fr := range frames {
		if e, _ := journal.EntryOf(fr); e.DependsOn(stale) {
			invalidated++
			continue
		}
		want = append(want, fr...)
		retained++
	}
	got, err := os.ReadFile(exported)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || rep.Warmed != uint64(retained) || invalidated == 0 {
		t.Fatalf("the export holds %d bytes and reports %d warmed; the %d retained records frame to %d",
			len(got), rep.Warmed, retained, len(want))
	}

	resumeOpts := at(1)
	resumeOpts.Checkpoint, resumeOpts.Resume = exported, true
	resumed := run{p: p, rules: newRules, opts: resumeOpts}.gen(t)
	if digest(resumed.Templates) != get(t, genKey("gw-1", "args1", 1, "")).digest {
		t.Fatal("the run resumed from the export diverged from a cold run")
	}
	if resumed.SMTCalls != uint64(invalidated) {
		t.Errorf("the resumed run made %d solver calls; the delta invalidated %d records", resumed.SMTCalls, invalidated)
	}
}

// TestStoreWarmRunCommitsNothing: a warm run commits nothing — no
// record, no transaction — and leaves the store file's bytes alone, at any
// parallelism, and so does the first warm run after a rule delta's commit.
func TestStoreWarmRunCommitsNothing(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	cold := get(t, genKey("gw-1", "", 2, "store"))
	if cold.store.Committed == 0 {
		t.Fatal("cold run committed nothing")
	}
	spath := cold.copy(t, "store")
	storeBytes := func() []byte {
		t.Helper()
		b, err := os.ReadFile(spath)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	checkUntouched := func(what string, gen *meissa.GenResult, before []byte) {
		t.Helper()
		if st := gen.Store; st.Committed != 0 || st.Commits != 0 {
			t.Errorf("%s: committed %d, commits %d; want 0, 0", what, st.Committed, st.Commits)
		}
		if gen.SMTCalls != 0 || gen.SMT.CacheHits != 0 {
			t.Errorf("%s: %d live solver calls, %d memo hits; want a warm run", what, gen.SMTCalls, gen.SMT.CacheHits)
		}
		if !bytes.Equal(storeBytes(), before) {
			t.Errorf("%s: the store file changed", what)
		}
	}
	populated := storeBytes()

	for _, n := range []int{2, 1} {
		warm := storeRun(p, nil, n, spath).gen(t)
		checkUntouched(fmt.Sprintf("warm run at parallelism %d", n), warm, populated)
		if warm.Store.Warmed != cold.store.Committed || warm.Store.FileBytes != uint64(len(populated)) {
			t.Errorf("warm run at parallelism %d: warmed %d of %d records from a file of %d bytes (%d on disk)",
				n, warm.Store.Warmed, cold.store.Committed, warm.Store.FileBytes, len(populated))
		}
		if digest(warm.Templates) != cold.digest {
			t.Errorf("warm run at parallelism %d diverged from the cold run", n)
		}
	}

	newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
	if n == 0 {
		t.Skip("corpus rules have no mutable action arguments")
	}
	churn := storeRun(p, newRules, 2, spath).gen(t)
	if churn.SMTCalls == 0 || churn.Store.Committed == 0 || churn.Store.Committed >= cold.store.Committed {
		t.Fatalf("after a one-entry delta: %d solver calls, %d records committed; the store held %d",
			churn.SMTCalls, churn.Store.Committed, cold.store.Committed)
	}
	checkUntouched("after the delta's commit", storeRun(p, newRules, 2, spath).gen(t), storeBytes())
}

// TestRegressStoreMatchesCold: a regression from the store recovers the
// baseline (old rules AND old verdicts) from the store alone, and its
// incremental output is byte-identical to a cold run on the new rules — at
// parallelism 1 and 4.
func TestRegressStoreMatchesCold(t *testing.T) {
	p := corpusProgram(t, "Router")
	newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
	if n == 0 {
		t.Skip("corpus rules have no mutable action arguments")
	}
	for _, parallel := range []int{1, 4} {
		t.Run(map[int]string{1: "sequential", 4: "parallel"}[parallel], func(t *testing.T) {
			// The regression's run report, store section included, was
			// validated when the cell was made.
			reg := get(t, regressKey(genKey("Router", "", parallel, "store"), "store", "args1", false))
			cold := get(t, genKey("Router", "args1", parallel, ""))
			if reg.digest != cold.digest {
				t.Fatalf("regress-store output differs from cold run (%d vs %d templates)",
					reg.work.Templates, cold.work.Templates)
			}

			// The committed store now holds the new baseline: a store-backed
			// gen on the new rules is fully warm.
			warm := storeRun(p, newRules, 1, reg.copy(t, "store")).gen(t)
			if warm.SMTCalls != 0 {
				t.Fatalf("post-regress warm run made %d live solver calls, want 0", warm.SMTCalls)
			}
			if digest(warm.Templates) != cold.digest {
				t.Fatal("post-regress warm run diverged from the cold run")
			}
		})
	}
}

// TestStoreWarmRunPropagatesNothing: a warm store-backed generation of
// gw-3 answers every query from its table, and the executor asserts a
// condition only for a query the table cannot answer — so the solvers check
// nothing and propagate nothing, at one worker and at two. A count, not a
// clock: the cold run propagates.
func TestStoreWarmRunPropagatesNothing(t *testing.T) {
	p := corpusProgram(t, "gw-3")
	cold := get(t, genKey("gw-3", "", 1, "store"))
	if cold.work.Propagations == 0 {
		t.Fatal("the cold run propagated nothing")
	}
	spath := cold.copy(t, "store")
	for _, n := range []int{1, 2} {
		warm := storeRun(p, nil, n, spath).gen(t)
		rep := warm.Report("gen", p.Name).Solver
		if warm.SMT.Checks != 0 || warm.SMT.Propagations != 0 || rep.Propagations != 0 {
			t.Errorf("warm run at parallelism %d: %d checks, %d propagations (report %d); want 0, 0 (cold: %d propagations)",
				n, warm.SMT.Checks, warm.SMT.Propagations, rep.Propagations, cold.work.Propagations)
		}
		if digest(warm.Templates) != cold.digest {
			t.Errorf("warm run at parallelism %d diverged from the cold run", n)
		}
	}
}

// TestStoreWarmParallel: a store-warmed table serves four exploration
// workers — its seeding happens before any of them looks a verdict up —
// with the sequential warm run's output and no solver call. CI runs it
// under the race detector.
func TestStoreWarmParallel(t *testing.T) {
	cold := get(t, genKey("gw-1", "", 1, "store"))
	warm := storeRun(corpusProgram(t, "gw-1"), nil, 4, cold.copy(t, "store")).gen(t)
	if warm.SMTCalls != 0 || warm.SMT.CacheHits != 0 || warm.JournalHits != cold.work.Checks {
		t.Fatalf("parallel warm run: %d solver calls, %d cache hits, %d table hits; want 0, 0, %d",
			warm.SMTCalls, warm.SMT.CacheHits, warm.JournalHits, cold.work.Checks)
	}
	if digest(warm.Templates) != cold.digest {
		t.Fatal("parallel warm run diverged from the cold run")
	}
}

// TestStoreFileIndependentOfParallelism: what a cold run leaves in the store
// is its verdict records in canonical order and nothing else, so the file
// is the same bytes however many workers derived them.
func TestStoreFileIndependentOfParallelism(t *testing.T) {
	for _, name := range []string{"gw-2", "gw-3"} {
		want := get(t, genKey(name, "", 1, "store"))
		for _, n := range []int{2, 4} {
			got := get(t, genKey(name, "", n, "store"))
			if got.store.Committed != want.store.Committed {
				t.Errorf("%s: %d records committed at parallelism %d, %d at 1", name, got.store.Committed, n, want.store.Committed)
			}
			if got.files["store"] != want.files["store"] {
				t.Errorf("%s: the store file at parallelism %d (%d bytes) differs from the one at 1 (%d bytes)",
					name, n, got.store.FileBytes, want.store.FileBytes)
			}
		}
	}
}

// TestPersistenceWritesOnlyNamedFiles: a run keeps its verdicts in one
// in-memory table, so a store-only generation (cold and warm) and a
// regression from a checkpoint and from the store create no file but the
// ones the caller named (and the store's own -lock beside it) — checked on every explored
// path as well as afterwards, with TMPDIR pointed at a directory that
// must stay empty.
func TestPersistenceWritesOnlyNamedFiles(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
	if n == 0 {
		t.Fatal("nothing to mutate")
	}
	work, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	named := map[string]bool{"verdicts.store": true, "verdicts.store-lock": true,
		"base.journal": true, "next.journal": true}
	step := ""
	reported := false
	check := func([]cfg.NodeID) {
		for dir, allowed := range map[string]map[string]bool{tmp: nil, work: named} {
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if !allowed[e.Name()] && !reported {
					reported = true
					t.Errorf("%s: unnamed file %s", step, filepath.Join(dir, e.Name()))
				}
			}
		}
	}
	opts := at(1)
	opts.PathHook = check
	do := func(name string, r run) {
		t.Helper()
		step = name
		if _, err := r.do(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(nil)
	}

	storeOpts := opts
	storeOpts.StorePath = filepath.Join(work, "verdicts.store")
	do("cold store-only generation", run{p: p, opts: storeOpts})
	do("warm store-only generation", run{p: p, opts: storeOpts})

	baseOpts := opts
	baseOpts.Checkpoint = filepath.Join(work, "base.journal")
	do("baseline generation", run{p: p, opts: baseOpts})
	regOpts := opts
	regOpts.Checkpoint = filepath.Join(work, "next.journal")
	do("Regress", run{p: p, rules: newRules, opts: regOpts, regress: true, old: p.Rules, baseline: baseOpts.Checkpoint})
	do("Regress from the store", run{p: p, rules: newRules, opts: storeOpts, regress: true})
}

// TestPersistenceOptionsRejected: the option combinations no run can
// honour fail in the library, whoever the caller is, before anything is
// written, each with its Refusal.
func TestPersistenceOptionsRejected(t *testing.T) {
	p := corpusProgram(t, "Router")
	dir := t.TempDir()
	base, next := filepath.Join(dir, "base.journal"), filepath.Join(dir, "next.journal")
	system := func(o meissa.Options) *meissa.System {
		sys, _ := run{p: p, opts: o}.system(t)
		return sys
	}
	generate := func(o meissa.Options) error { _, err := (run{p: p, opts: o}).do(); return err }
	regress := func(r run) func(meissa.Options) error {
		return func(o meissa.Options) error {
			r.p, r.opts, r.regress = p, o, true
			_, err := r.do()
			return err
		}
	}
	fromBase := run{old: p.Rules, baseline: base}
	resume := meissa.Refusal{At: "Resume", Reason: "requires Checkpoint", Fix: "name the checkpoint to resume"}
	noStore := meissa.Refusal{At: "StorePath", Reason: "unset: there is no store to read", Fix: "name the store"}
	for _, tc := range []struct {
		name string
		run  func(meissa.Options) error
		mod  func(*meissa.Options)
		want meissa.Refusal
	}{
		{"Generate: Resume without Checkpoint", generate,
			func(o *meissa.Options) { o.Resume = true }, resume},
		{"Generate: Resume without Checkpoint, with StorePath", generate,
			func(o *meissa.Options) { o.Resume, o.StorePath = true, filepath.Join(dir, "v.store") }, resume},
		{"Regress: StorePath", regress(fromBase),
			func(o *meissa.Options) { o.StorePath, o.Checkpoint = filepath.Join(dir, "v.store"), next },
			meissa.Refusal{At: "StorePath", Reason: "set with a Baseline checkpoint: the run would commit to a store whose baseline it never read",
				Fix: "set Baseline or StorePath, not both"}},
		{"Regress: neither Baseline nor StorePath", regress(run{old: p.Rules}),
			func(o *meissa.Options) { o.Checkpoint = next },
			meissa.Refusal{At: "Baseline", Reason: "unset, and so is StorePath: a regression has no baseline", Fix: "set Baseline or StorePath"}},
		{"Regress: Checkpoint is Baseline", regress(fromBase),
			func(o *meissa.Options) { o.Checkpoint = base },
			meissa.Refusal{At: "Checkpoint", Reason: "is the Baseline file, which the run reads and never writes", Fix: "name another file"}},
		{"Regress: Baseline without OldRules", regress(run{baseline: base}),
			func(o *meissa.Options) { o.Checkpoint = next },
			meissa.Refusal{At: "OldRules", Reason: "unset: a Baseline checkpoint is read under the rules it was generated under", Fix: "set OldRules to them"}},
		{"StoreExport without StorePath", func(o meissa.Options) error {
			_, err := system(o).StoreExport(filepath.Join(dir, "export.journal"))
			return err
		}, func(*meissa.Options) {}, noStore},
		{"StoreStatus without StorePath", func(o meissa.Options) error {
			_, err := system(o).StoreStatus()
			return err
		}, func(*meissa.Options) {}, noStore},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := meissa.DefaultOptions()
			opts.Parallelism = 1
			tc.mod(&opts)
			var r *meissa.Refusal
			if err := tc.run(opts); !errors.As(err, &r) || *r != tc.want {
				t.Fatalf("error %v, want the Refusal %+v", err, tc.want)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Fatalf("rejected run left %d file(s) behind, first %s", len(ents), ents[0].Name())
			}
		})
	}
}

// TestStoreFileSizeGates: the store file's size is a counted property of
// what it holds, gated without a clock. A warm run leaves it byte for byte
// alone, and a one-entry rule update appends no more than the frames of
// the records it reports committed, one rules text, one tombstone, the
// run's template list, a family scope and a commit marker.
func TestStoreFileSizeGates(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	dir := t.TempDir()
	spath := filepath.Join(dir, "verdicts.store")
	size := func(path string) int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	records := func() map[[2]uint64]journal.Entry {
		t.Helper()
		frames, _ := storeFamily(t, p, spath)
		out := map[[2]uint64]journal.Entry{}
		for _, fr := range frames {
			e, _ := journal.EntryOf(fr)
			out[[2]uint64{uint64(e.Kind()), e.Key()}] = e
		}
		return out
	}

	cold := get(t, genKey("gw-1", "", 1, "store"))
	if err := copyFile(cold.path("store"), spath); err != nil {
		t.Fatal(err)
	}
	if got := int64(cold.store.FileBytes); got != size(spath) {
		t.Fatalf("report says file_bytes %d, the file has %d", got, size(spath))
	}

	before := size(spath)
	warm := storeRun(p, nil, 1, spath).gen(t)
	if warm.Store.Commits != 0 || size(spath) != before {
		t.Fatalf("warm run: %d commits, file %d -> %d bytes", warm.Store.Commits, before, size(spath))
	}

	newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
	if n == 0 {
		t.Fatal("nothing to mutate")
	}
	old := records()
	update := storeRun(p, newRules, 1, spath)
	update.regress = true
	res := update.res(t)
	// What the update committed: every record the store holds now that is
	// not a record the tombstone left standing.
	invalid := rulediff.Diff(p.Rules, newRules).InvalidTags()
	stale := rulediff.Matcher(invalid)
	committed, framed := uint64(0), int64(0)
	for k, e := range records() {
		frame := e.Frame()
		if was, ok := old[k]; ok && !was.DependsOn(stale) && bytes.Equal(was.Frame(), frame) {
			continue
		}
		committed++
		framed += int64(len(frame))
	}
	rep := res.Gen.Store
	if committed != rep.Committed || rep.Committed == 0 {
		t.Fatalf("the update put %d records into the store, the run reports %d committed", committed, rep.Committed)
	}
	const frame, scopeAndMarker = 8, 2 * (8 + 1 + 8)
	tombstone := frame + 1 // 'T' {tlen(2) tag}*
	for _, tag := range invalid {
		tombstone += 2 + len(tag)
	}
	list := frame + 14 + 8*len(res.Gen.Templates) // kind verdict key(8) nm(2) nt(2) {pathkey(8)}*
	bound := framed + int64(frame+1+len(newRules.String())) + int64(tombstone) + int64(list) + scopeAndMarker
	if grew := size(spath) - before; grew <= 0 || grew > bound {
		t.Fatalf("a one-entry update grew the file by %d bytes; %d committed records frame to %d, the bound is %d",
			grew, committed, framed, bound)
	}
	if int64(rep.FileBytes) != size(spath) {
		t.Fatalf("report says file_bytes %d, the file has %d", rep.FileBytes, size(spath))
	}
}

// storeFamily returns what the store at path holds for p's family: its
// record frames, in canonical order, and its template list.
func storeFamily(t *testing.T, p *programs.Program, path string) ([][]byte, journal.Entry) {
	t.Helper()
	opts := meissa.DefaultOptions()
	opts.StorePath = path
	sys, _ := run{p: p, opts: opts}.system(t)
	status, err := sys.StoreStatus()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl := st.Snapshot().Table(status.Family)
	var frames [][]byte
	for _, e := range tbl.Sorted() {
		frames = append(frames, slices.Clone(e.Frame()))
	}
	list, _ := journal.EntryOf(slices.Clone(tbl.Templates().Frame()))
	return frames, list
}

// TestExportHoldsStoreFrames: a family's export is the checkpoint header
// followed by the family's record frames from the store, byte for byte, in
// canonical (kind, key) order — the one framing both files share.
func TestExportHoldsStoreFrames(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	dir := t.TempDir()
	cold := get(t, genKey("gw-1", "", 1, "store"))
	opts := at(1)
	opts.StorePath = cold.copy(t, "store")
	sys, fp := run{p: p, opts: opts}.system(t)
	exported := filepath.Join(dir, "exported.journal")
	if _, err := sys.StoreExport(exported); err != nil {
		t.Fatal(err)
	}
	frames, _ := storeFamily(t, p, opts.StorePath)
	if uint64(len(frames)) != cold.store.Committed || len(frames) == 0 {
		t.Fatalf("the store holds %d record frames, the cold run committed %d", len(frames), cold.store.Committed)
	}
	want := slices.Concat(append([][]byte{checkpointHeader(t, fp)}, frames...)...)
	got, err := os.ReadFile(exported)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the export holds %d bytes, the header and the store's %d frames %d", len(got), len(frames), len(want))
	}
}

// TestCheckpointFramesAreStoreRecords: a verdict is framed once, and so is
// a run's template list, so a cold run that checkpoints and commits to a
// store leaves in both the same set of byte strings: every frame between
// the checkpoint's header and its last frame is a record frame of the
// store, and every record frame of the store is one of them; the last
// frame is the template list the store holds.
func TestCheckpointFramesAreStoreRecords(t *testing.T) {
	for _, name := range []string{"gw-2", "gw-3"} {
		t.Run(name, func(t *testing.T) {
			p := corpusProgram(t, name)
			gen := get(t, genKey(name, "", 1, "checkpoint+store"))
			data := gen.read(t, "checkpoint")
			inCheckpoint := map[string]bool{}
			var last []byte
			off := 0
			for i := 0; off < len(data); i++ {
				_, n, ok := splitRecord(data[off:])
				if !ok {
					t.Fatalf("the checkpoint does not parse at offset %d", off)
				}
				if i > 0 && last != nil {
					inCheckpoint[string(last)] = true
				}
				if i > 0 {
					last = data[off : off+n]
				}
				off += n
			}
			frames, list := storeFamily(t, p, gen.copy(t, "store"))
			if e, _ := journal.EntryOf(last); e.Kind() != journal.KindTemplates || !bytes.Equal(last, list.Frame()) ||
				len(list.PathKeys()) != gen.work.Templates {
				t.Fatalf("the checkpoint's last frame (%d bytes) is not the store's template list (%d bytes) of %d templates",
					len(last), len(list.Frame()), gen.work.Templates)
			}
			inStore := map[string]bool{}
			for _, fr := range frames {
				if !inCheckpoint[string(fr)] {
					t.Fatalf("a store record (%d bytes) is no frame of the checkpoint", len(fr))
				}
				inStore[string(fr)] = true
			}
			if len(inStore) != len(inCheckpoint) || uint64(len(inStore)) != gen.store.Committed {
				t.Fatalf("the checkpoint holds %d distinct frames, the store %d, the run committed %d",
					len(inCheckpoint), len(inStore), gen.store.Committed)
			}
		})
	}
}
