package meissa_test

// Acceptance tests for incremental regression testing (the differential
// and perf gates): re-exploring under an updated rule set over a baseline
// checkpoint's or store's verdicts, the ones the rule delta invalidates
// reading as misses, must produce output byte-identical to a cold full run
// on the new rules, while re-solving only the affected subtrees.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	meissa "repro"
	"repro/internal/journal"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/regress"
	"repro/internal/rulediff"
	"repro/internal/rules"
	"repro/internal/sym"
)

// regressOnce runs the full incremental flow for one program/delta and
// returns the result plus the baseline run — a cold one on the old rules,
// checkpointed — and the cold run on the new rules.
func regressOnce(t *testing.T, p *programs.Program, newRules *rules.Set, parallelism int) (*meissa.RegressResult, *meissa.GenResult, *meissa.GenResult) {
	t.Helper()
	dir := t.TempDir()
	base := filepath.Join(dir, "base.journal")
	baseGen := generatePar(t, p, p.Rules, parallelism, func(o *meissa.Options) { o.Checkpoint = base })
	cold := generatePar(t, p, newRules, parallelism, nil)
	res := regressCheckpoint(t, p, p.Rules, newRules, base, filepath.Join(dir, "next.journal"), parallelism)
	return res, baseGen, cold
}

// generatePar runs one generation of p under rs at parallelism, mod
// adjusting the options.
func generatePar(t *testing.T, p *programs.Program, rs *rules.Set, parallelism int, mod func(*meissa.Options)) *meissa.GenResult {
	t.Helper()
	opts := meissa.DefaultOptions()
	opts.Parallelism = parallelism
	if mod != nil {
		mod(&opts)
	}
	sys, err := meissa.New(p.Prog, rs, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// regressCheckpoint regresses p from the checkpoint base, of a completed run
// under oldRules, to newRules, leaving the regression's checkpoint at next.
func regressCheckpoint(t *testing.T, p *programs.Program, oldRules, newRules *rules.Set, base, next string, parallelism int) *meissa.RegressResult {
	t.Helper()
	opts := meissa.DefaultOptions()
	opts.Parallelism = parallelism
	opts.Checkpoint = next
	res, err := meissa.Regress(meissa.RegressInput{
		Prog: p.Prog, OldRules: oldRules, NewRules: newRules,
		Opts: opts, Baseline: base, Program: p.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// templateDelta is the report's template section computed from two cold
// runs: the multiset difference of their templates' path keys.
func templateDelta(base, cur []*sym.Template) regress.TemplateReport {
	left := map[uint64]int{}
	for _, tm := range base {
		left[tm.PathKey]++
	}
	unchanged := 0
	for _, tm := range cur {
		if left[tm.PathKey] > 0 {
			left[tm.PathKey]--
			unchanged++
		}
	}
	return regress.TemplateReport{Baseline: len(base), Current: len(cur), Added: len(cur) - unchanged,
		Retired: len(base) - unchanged, Unchanged: unchanged}
}

// checkRegressInvariants verifies the differential gate for one run: the
// incremental output is byte-identical to the cold run, solver-work
// accounting balances, and the report's template delta is the one between
// the cold baseline run and the cold run on the new rules.
func checkRegressInvariants(t *testing.T, res *meissa.RegressResult, base, cold *meissa.GenResult) {
	t.Helper()
	gen := res.Gen
	if got, want := renderTemplates(gen.Templates), renderTemplates(cold.Templates); got != want {
		t.Fatalf("incremental output differs from cold run (%d vs %d templates)",
			len(gen.Templates), len(cold.Templates))
	}
	if gen.PathsExplored != cold.PathsExplored || gen.PrunedPaths != cold.PrunedPaths {
		t.Errorf("exploration shape diverged: explored %d/%d pruned %d/%d",
			gen.PathsExplored, cold.PathsExplored, gen.PrunedPaths, cold.PrunedPaths)
	}
	// Every logical solver interaction is answered exactly one way (live
	// solve or journal hit); the total is invariant.
	if gen.SMT.CacheHits != 0 || cold.SMT.CacheHits != 0 {
		t.Errorf("cache hits: incremental %d, cold %d; want 0", gen.SMT.CacheHits, cold.SMT.CacheHits)
	}
	if incrTotal := gen.SMTCalls + gen.JournalHits; incrTotal != cold.SMTCalls {
		t.Errorf("query accounting: incremental %d (calls %d + journal %d) != cold %d",
			incrTotal, gen.SMTCalls, gen.JournalHits, cold.SMTCalls)
	}
	rep := res.Report
	if err := rep.Validate(); err != nil {
		t.Errorf("report validation: %v", err)
	}
	if rep.Queries.Avoided == 0 {
		t.Error("incremental run avoided zero queries — journal reuse is broken")
	}
	if want := templateDelta(base.Templates, cold.Templates); *rep.Templates != want {
		t.Errorf("report templates %+v, the cold runs' path keys give %+v", *rep.Templates, want)
	}
	if res.BaselineGen == nil || len(res.BaselineGen.Templates) != 0 || len(res.BaselineGen.Phases) != 1 ||
		res.BaselineGen.Phases[0].Name != "journal-load" {
		t.Errorf("baseline load %+v, want one journal-load phase and no templates", res.BaselineGen)
	}
}

// TestRegressDifferentialCorpus is the differential gate over the whole
// corpus: a one-entry action-data update, sequential and parallel.
func TestRegressDifferentialCorpus(t *testing.T) {
	for _, p := range programs.All() {
		if testing.Short() && (p.Name == "gw-3" || p.Name == "gw-4") {
			continue
		}
		newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
		if n == 0 {
			continue // no action arguments to mutate
		}
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallel=%d", p.Name, par), func(t *testing.T) {
				res, base, cold := regressOnce(t, p, newRules, par)
				checkRegressInvariants(t, res, base, cold)
			})
		}
	}
}

// withoutLast returns rs without the last entry of its last table: a
// structural delta, which retires the whole table's verdicts.
func withoutLast(rs *rules.Set) *rules.Set {
	out := rules.NewSet()
	tables := rs.Tables()
	for _, tbl := range tables {
		es := rs.Entries(tbl)
		for i, e := range es {
			if tbl != tables[len(tables)-1] || i != len(es)-1 {
				out.Add(tbl, e.Clone())
			}
		}
	}
	return out
}

// TestRegressTemplateDeltaMatchesCold: a regression reads its baseline's
// templates from the list the baseline run completed with, so the report's
// template section must equal the path-key delta between cold runs: for a
// checkpoint baseline, for a chained regress whose baseline is the
// checkpoint the first one left, and for a store baseline — sequential and
// parallel, over an argument update, an added entry and a removed one.
func TestRegressTemplateDeltaMatchesCold(t *testing.T) {
	for _, name := range []string{"gw-1", "gw-2", "gw-3"} {
		if testing.Short() && name == "gw-3" {
			continue
		}
		p := corpusProgram(t, name)
		mutated, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
		if n == 0 {
			t.Fatalf("%s: nothing to mutate", name)
		}
		fewer := withoutLast(p.Rules)
		for _, d := range []struct {
			name     string
			old, new *rules.Set
		}{{"args", p.Rules, mutated}, {"add", fewer, p.Rules}, {"remove", p.Rules, fewer}} {
			for _, par := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/parallel=%d", name, d.name, par), func(t *testing.T) {
					dir := t.TempDir()
					base, next := filepath.Join(dir, "base.journal"), filepath.Join(dir, "next.journal")
					baseGen := generatePar(t, p, d.old, par, func(o *meissa.Options) { o.Checkpoint = base })
					cold := generatePar(t, p, d.new, par, nil)
					checkRegressInvariants(t, regressCheckpoint(t, p, d.old, d.new, base, next, par), baseGen, cold)

					again, n := rulediff.MutateArgs(p.Prog, d.new, 2)
					if n == 0 {
						t.Fatal("nothing to mutate")
					}
					chained := regressCheckpoint(t, p, d.new, again, next, filepath.Join(dir, "third.journal"), par)
					checkRegressInvariants(t, chained, cold, generatePar(t, p, again, par, nil))

					spath := filepath.Join(dir, "verdicts.store")
					generatePar(t, p, d.old, par, func(o *meissa.Options) { o.StorePath = spath })
					opts := meissa.DefaultOptions()
					opts.Parallelism, opts.StorePath = par, spath
					res, err := meissa.Regress(meissa.RegressInput{Prog: p.Prog, NewRules: d.new, Opts: opts, Program: p.Name})
					if err != nil {
						t.Fatal(err)
					}
					checkRegressInvariants(t, res, baseGen, cold)
				})
			}
		}
	}
}

// TestTemplatePathKeysDistinct: a regression matches its baseline's
// template list to the new templates by path key, as a multiset. On the
// whole corpus, with and without code summary, no two templates of a run
// share a path key, so the multiset is a set.
func TestTemplatePathKeysDistinct(t *testing.T) {
	for _, p := range programs.All() {
		for _, summary := range []bool{true, false} {
			gen := generatePar(t, p, p.Rules, 0, func(o *meissa.Options) { o.CodeSummary = summary })
			seen := make(map[uint64]bool, len(gen.Templates))
			for _, tm := range gen.Templates {
				if seen[tm.PathKey] {
					t.Errorf("%s (summary %v): two templates share path key %#x", p.Name, summary, tm.PathKey)
				}
				seen[tm.PathKey] = true
			}
		}
	}
}

// refused checks that err is the Refusal want.
func refused(t *testing.T, err error, want meissa.Refusal) {
	t.Helper()
	var r *meissa.Refusal
	if !errors.As(err, &r) || *r != want {
		t.Errorf("error %v, want the Refusal %+v", err, want)
	}
}

// TestRegressRefusesBaselineWithoutList: only a completed run writes its
// template list, and without one a regression has no baseline. A killed
// checkpoint — cut short, as a kill leaves it — and a MaxPaths-halted one
// are refused with the way out; once a resume completes the killed one, it
// serves, and the regression matches a cold run. A halted store-backed run
// under new rules removes the family's list in its commit, so a regression
// from the store refuses rather than pair the stored rules with an older
// run's list; old rules that are not the stored ones are refused by name,
// and so is a store with no family. A store refusal writes no Checkpoint.
func TestRegressRefusesBaselineWithoutList(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
	if n == 0 {
		t.Fatal("nothing to mutate")
	}
	dir := t.TempDir()
	regressFrom := func(base string) error {
		opts := meissa.DefaultOptions()
		opts.Parallelism = 1
		opts.Checkpoint = filepath.Join(dir, "next.journal")
		_, err := meissa.Regress(meissa.RegressInput{Prog: p.Prog, OldRules: p.Rules, NewRules: newRules,
			Opts: opts, Baseline: base, Program: p.Name})
		return err
	}

	killed := filepath.Join(dir, "killed.journal")
	baseGen := generatePar(t, p, p.Rules, 1, func(o *meissa.Options) { o.Checkpoint = killed })
	data, err := os.ReadFile(killed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(killed, data[:len(data)*6/10], 0o644); err != nil {
		t.Fatal(err)
	}
	noList := func(path string) meissa.Refusal {
		return meissa.Refusal{At: path, Reason: "holds no template list: it is not a completed run's checkpoint",
			Fix: "complete it with `meissa gen -checkpoint " + path + " -resume`"}
	}
	refused(t, regressFrom(killed), noList(killed))
	generatePar(t, p, p.Rules, 1, func(o *meissa.Options) { o.Checkpoint, o.Resume = killed, true })
	cold := generatePar(t, p, newRules, 1, nil)
	checkRegressInvariants(t, regressCheckpoint(t, p, p.Rules, newRules, killed, filepath.Join(dir, "next.journal"), 1), baseGen, cold)

	halted := filepath.Join(dir, "halted.journal")
	if gen := generatePar(t, p, p.Rules, 1, func(o *meissa.Options) { o.Checkpoint, o.MaxPaths = halted, 10 }); !gen.Truncated {
		t.Fatal("MaxPaths 10 did not halt the run")
	}
	sys, err := meissa.New(p.Prog, p.Rules, nil, meissa.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sys.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if tbl, err := journal.ReadTable(halted, fp); err != nil || tbl.Templates().Frame() != nil || tbl.Len() == 0 {
		t.Fatalf("the halted run's checkpoint (%v): %d verdicts, a template list of %d bytes; want verdicts and no list",
			err, tbl.Len(), len(tbl.Templates().Frame()))
	}
	refused(t, regressFrom(halted), noList(halted))

	refusedNext := filepath.Join(dir, "refused.journal")
	storeOpts := func(path string) meissa.Options {
		opts := meissa.DefaultOptions()
		opts.Parallelism, opts.StorePath, opts.Checkpoint = 1, path, refusedNext
		return opts
	}
	noCheckpoint := func() {
		t.Helper()
		if _, err := os.Stat(refusedNext); !os.IsNotExist(err) {
			t.Errorf("the refused store regression left its Checkpoint (%v)", err)
		}
	}
	spath := filepath.Join(dir, "verdicts.store")
	generatePar(t, p, p.Rules, 1, func(o *meissa.Options) { o.StorePath = spath })
	generatePar(t, p, newRules, 1, func(o *meissa.Options) { o.StorePath, o.MaxPaths = spath, 10 })
	again, _ := rulediff.MutateArgs(p.Prog, newRules, 1)
	_, err = meissa.Regress(meissa.RegressInput{Prog: p.Prog, NewRules: again, Opts: storeOpts(spath), Program: p.Name})
	refused(t, err, meissa.Refusal{At: spath, Reason: "holds no template list for the stored rules: its last commit installed them without a completed run",
		Fix: "run a completed `meissa gen -store " + spath + "` on them first"})
	noCheckpoint()

	empty := filepath.Join(dir, "empty.store")
	_, err = meissa.Regress(meissa.RegressInput{Prog: p.Prog, NewRules: again, Opts: storeOpts(empty), Program: p.Name})
	refused(t, err, meissa.Refusal{At: empty, Reason: "holds no baseline for this program family", Fix: "run gen with the store first"})
	noCheckpoint()

	other := filepath.Join(dir, "other.store")
	generatePar(t, p, p.Rules, 1, func(o *meissa.Options) { o.StorePath = other })
	before, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	_, err = meissa.Regress(meissa.RegressInput{Prog: p.Prog, OldRules: newRules, NewRules: again,
		Opts: storeOpts(other), Program: p.Name})
	refused(t, err, meissa.Refusal{At: "OldRules", Reason: fmt.Sprintf("%d entries, hash %#x, are not the store's rules (%d entries, hash %#x): "+
		"the store holds the template list of its own rules only", newRules.Len(), fnv64a(newRules.String()), p.Rules.Len(), fnv64a(p.Rules.String())),
		Fix: "leave OldRules unset: the store supplies them"})
	if after, _ := os.ReadFile(other); !bytes.Equal(after, before) {
		t.Error("the refused store regression changed its store")
	}
	noCheckpoint()
}

// fnv64a is FNV-1a-64, the hash the store keeps of a rules text.
func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// TestRegressStructuralDelta removes an entry (a structural change that
// wipes the whole table's journal records) and checks the differential
// gate still holds — correctness never depends on invalidation
// precision, only cost does.
func TestRegressStructuralDelta(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	canon := p.Rules.Canonical()
	newRules := rules.NewSet()
	tables := canon.Tables()
	dropped := false
	for _, tbl := range tables {
		es := canon.Entries(tbl)
		for i, e := range es {
			// Drop the last entry of the last table.
			if !dropped && tbl == tables[len(tables)-1] && i == len(es)-1 {
				dropped = true
				continue
			}
			newRules.Add(tbl, e)
		}
	}
	if !dropped {
		t.Fatal("no entry dropped")
	}
	res, base, cold := regressOnce(t, p, newRules, 1)
	checkRegressInvariants(t, res, base, cold)
	// The delta must be structural (removal), not arg-only.
	if added, removed, _ := res.Delta.Counts(); removed != 1 || added != 0 {
		t.Errorf("delta counts added=%d removed=%d, want 0/1", added, removed)
	}
}

// TestRegressPerfGateGW1 is the perf gate: a single-entry action-data
// update on gw-1 must re-solve at most 20% of the cold run's live solver
// queries — the entry-granular invalidation promise.
func TestRegressPerfGateGW1(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
	if n != 1 {
		t.Fatalf("mutated %d entries, want 1", n)
	}
	res, base, cold := regressOnce(t, p, newRules, 1)
	checkRegressInvariants(t, res, base, cold)
	if res.Gen.SMTCalls*5 > cold.SMTCalls {
		t.Errorf("perf gate: incremental solved %d live queries, budget is 20%% of cold's %d",
			res.Gen.SMTCalls, cold.SMTCalls)
	}
	// The report must carry the same gate inputs for CI to assert on.
	if res.Report.Queries.Live != res.Gen.SMTCalls {
		t.Errorf("report live queries %d != gen SMT calls %d", res.Report.Queries.Live, res.Gen.SMTCalls)
	}
}

// TestRegressReuseSurvivesOneEntryUpdate gates what the perf gate on gw-1
// cannot see, because gw-1's generated tables happen to be in canonical
// order: a one-entry update must leave the baseline's verdict keys alone.
// The live queries are the invalidated records and little else, and the
// reuse share holds the floor measured when the mutators stopped
// re-ordering the set (0.9424; a re-ordered set scored 0.02).
func TestRegressReuseSurvivesOneEntryUpdate(t *testing.T) {
	p := corpusProgram(t, "gw-3")
	newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
	if n != 1 {
		t.Fatalf("mutated %d entries, want 1", n)
	}
	res, base, cold := regressOnce(t, p, newRules, 1)
	checkRegressInvariants(t, res, base, cold)
	q, rb := res.Report.Queries, res.Gen.Rebase
	if rb.Invalidated == 0 || q.Live > 2*uint64(rb.Invalidated) {
		t.Errorf("%d live queries for %d invalidated records, want at most twice as many", q.Live, rb.Invalidated)
	}
	if q.Reuse < 0.94 {
		t.Errorf("reuse %.4f of %d queries, want >= 0.94", q.Reuse, q.Total)
	}
}

// TestRegressPureReorderMatchesCold: re-sorting a rule set is no rule
// change (the diff is empty, every record is retained) and yet re-keys the
// verdicts downstream of every re-ordered table. Whatever that costs, the
// incremental output stays byte-identical to a cold run on the re-ordered
// set.
func TestRegressPureReorderMatchesCold(t *testing.T) {
	p := corpusProgram(t, "gw-3")
	reordered := p.Rules.Canonical()
	if reordered.String() == p.Rules.String() {
		t.Fatal("gw-3's rules are already in canonical order: the test re-orders nothing")
	}
	res, base, cold := regressOnce(t, p, reordered, 1)
	checkRegressInvariants(t, res, base, cold)
	if len(res.Delta.Tables) != 0 {
		t.Errorf("a pure re-order diffs as %s", res.Delta)
	}
	if rb := res.Gen.Rebase; rb.Invalidated != 0 {
		t.Errorf("a pure re-order invalidated %d records", rb.Invalidated)
	}
	if res.Gen.SMTCalls == 0 {
		t.Error("the re-ordered set re-keyed nothing: entry order no longer reaches the content hashes, and this test's premise is gone")
	}
}

// TestRegressEmptyDelta: identical rule sets retain every record and
// change no templates.
func TestRegressEmptyDelta(t *testing.T) {
	p := corpusProgram(t, "Router")
	res, base, cold := regressOnce(t, p, p.Rules, 1)
	checkRegressInvariants(t, res, base, cold)
	if len(res.Delta.Tables) != 0 {
		t.Errorf("self-diff not empty: %s", res.Delta)
	}
	if res.Gen.SMTCalls != 0 {
		t.Errorf("empty delta re-solved %d queries, want 0", res.Gen.SMTCalls)
	}
	if res.Report.Templates.Added != 0 || res.Report.Templates.Retired != 0 {
		t.Errorf("empty delta changed templates: %+v", res.Report.Templates)
	}
	if st := res.Gen.Rebase; st == nil || st.Invalidated != 0 || st.Retained != st.Baseline {
		t.Errorf("empty delta rebase stats: %+v", res.Gen.Rebase)
	}
}

// TestRegressWatchCache: consecutive incremental runs at Parallelism 2,
// each regressing from the checkpoint the one before left (the watch-mode
// chain), stay byte-identical to cold runs.
func TestRegressWatchCache(t *testing.T) {
	p := corpusProgram(t, "Router")
	dir := t.TempDir()

	baseOpts := meissa.DefaultOptions()
	baseOpts.Parallelism = 2
	baseOpts.Checkpoint = filepath.Join(dir, "base.journal")
	sys, err := meissa.New(p.Prog, p.Rules, nil, baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Generate(); err != nil {
		t.Fatal(err)
	}

	cur := p.Rules
	curBase := baseOpts.Checkpoint
	for i, n := range []int{1, 2} {
		newRules, mutated := rulediff.MutateArgs(p.Prog, cur, n)
		if mutated == 0 {
			t.Fatal("nothing to mutate")
		}
		incrOpts := meissa.DefaultOptions()
		incrOpts.Parallelism = 2
		incrOpts.Checkpoint = filepath.Join(dir, fmt.Sprintf("next%d.journal", i))
		res, err := meissa.Regress(meissa.RegressInput{
			Prog: p.Prog, OldRules: cur, NewRules: newRules,
			Opts: incrOpts, Baseline: curBase, Program: p.Name,
		})
		if err != nil {
			t.Fatal(err)
		}
		coldOpts := meissa.DefaultOptions()
		coldOpts.Parallelism = 1
		coldSys, err := meissa.New(p.Prog, newRules, nil, coldOpts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldSys.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if renderTemplates(res.Gen.Templates) != renderTemplates(cold.Templates) {
			t.Fatalf("watch iteration %d diverged from cold run", i)
		}
		cur, curBase = newRules, incrOpts.Checkpoint
	}
}

// resortedBump returns a canonical copy of rs with the first action
// argument of one entry bumped, the way the benchmark's one-entry update
// makes it: the first entry of the table with the most entries that take
// an argument. Re-sorting re-keys every verdict below a re-ordered table.
func resortedBump(rs *rules.Set) *rules.Set {
	out := rs.Canonical()
	var cands []*rules.Entry
	for _, tbl := range out.Tables() {
		var withArgs []*rules.Entry
		for _, e := range out.Entries(tbl) {
			if len(e.Args) > 0 {
				withArgs = append(withArgs, e)
			}
		}
		if len(withArgs) > len(cands) {
			cands = withArgs
		}
	}
	cands[0].Args[0]++
	return out
}

// coldCheckpoint generates p under rs at Parallelism 1 with a checkpoint
// at path and returns the run and the checkpoint's bytes.
func coldCheckpoint(t *testing.T, p *programs.Program, rs *rules.Set, path string) (*meissa.GenResult, []byte) {
	t.Helper()
	gen := generatePar(t, p, rs, 1, func(o *meissa.Options) { o.Checkpoint = path })
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return gen, data
}

// sameFile fails unless the file at path holds want.
func sameFile(t *testing.T, what, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < min(len(got), len(want)) && got[n] == want[n] {
			n++
		}
		t.Fatalf("%s: %d bytes, a cold checkpoint %d; they part at offset %d", what, len(got), len(want), n)
	}
}

// TestRegressCheckpointIsColdCheckpoint: at Parallelism 1 the checkpoint a
// regression leaves is, byte for byte, the one a cold run on the new rules
// writes — each verdict the run used, answered by the baseline or solved,
// where a cold run appends it and with the run's own tags, then the run's
// template list. It holds for a checkpoint baseline and for a store one
// with a Checkpoint, over an argument update in the set's order, a
// re-sorted one with an argument bumped, an added entry and a removed one.
// The run counts as loaded the baseline records it retained, and as
// appended the verdicts it solved: the cold checkpoint's records less the
// ones the baseline answered. A resume from it makes no solver call and
// leaves its bytes as they are.
func TestRegressCheckpointIsColdCheckpoint(t *testing.T) {
	for _, name := range []string{"gw-1", "gw-2", "gw-3", "gw-4"} {
		if testing.Short() && name == "gw-4" {
			continue
		}
		p := corpusProgram(t, name)
		mutated, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
		if n == 0 {
			t.Fatalf("%s: nothing to mutate", name)
		}
		fewer := withoutLast(p.Rules)
		for _, d := range []struct {
			name     string
			old, new *rules.Set
		}{{"args", p.Rules, mutated}, {"resorted", p.Rules, resortedBump(p.Rules)}, {"add", fewer, p.Rules}, {"remove", p.Rules, fewer}} {
			t.Run(name+"/"+d.name, func(t *testing.T) {
				dir := t.TempDir()
				cold, want := coldCheckpoint(t, p, d.new, filepath.Join(dir, "cold.journal"))
				counts := func(what string, gen *meissa.GenResult) {
					t.Helper()
					if gen.JournalHits == 0 {
						t.Fatalf("%s answered nothing from its baseline", what)
					}
					if gen.Rebase == nil || gen.JournalLoaded != uint64(gen.Rebase.Retained) {
						t.Errorf("%s: %d records loaded, want the %+v retained", what, gen.JournalLoaded, gen.Rebase)
					}
					if gen.JournalAppended+gen.JournalHits != cold.JournalAppended {
						t.Errorf("%s: %d appended + %d hits, want the cold checkpoint's %d records", what, gen.JournalAppended, gen.JournalHits, cold.JournalAppended)
					}
				}
				base := filepath.Join(dir, "base.journal")
				generatePar(t, p, d.old, 1, func(o *meissa.Options) { o.Checkpoint = base })
				next := filepath.Join(dir, "next.journal")
				counts("the regression", regressCheckpoint(t, p, d.old, d.new, base, next, 1).Gen)
				sameFile(t, "a checkpoint baseline's regression", next, want)

				spath, snext := filepath.Join(dir, "verdicts.store"), filepath.Join(dir, "store-next.journal")
				generatePar(t, p, d.old, 1, func(o *meissa.Options) { o.StorePath = spath })
				opts := meissa.DefaultOptions()
				opts.Parallelism, opts.StorePath, opts.Checkpoint = 1, spath, snext
				res, err := meissa.Regress(meissa.RegressInput{Prog: p.Prog, NewRules: d.new, Opts: opts, Program: p.Name})
				if err != nil {
					t.Fatal(err)
				}
				counts("the store regression", res.Gen)
				sameFile(t, "a store baseline's regression", snext, want)

				for _, f := range []string{next, snext} {
					resumed := generatePar(t, p, d.new, 1, func(o *meissa.Options) { o.Checkpoint, o.Resume = f, true })
					if resumed.SMTCalls != 0 {
						t.Errorf("a resume from %s made %d solver calls, want 0", filepath.Base(f), resumed.SMTCalls)
					}
					sameFile(t, "a resumed regression checkpoint", f, want)
				}
			})
		}
	}
}

// TestRegressBaselinesAgree: one regression, two kinds of baseline. A cold
// run under the old rules writes a checkpoint and a store at once; a
// regression from each to an argument update reports the same delta,
// journal, template and query sections, counts the same records loaded and
// appended, and leaves the same Checkpoint bytes. A checkpoint baseline
// needs no Checkpoint: without one the regression keeps its verdicts in
// memory, and its -o output is a cold run's.
func TestRegressBaselinesAgree(t *testing.T) {
	for _, name := range []string{"gw-1", "gw-2", "gw-3"} {
		t.Run(name, func(t *testing.T) {
			p := corpusProgram(t, name)
			newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
			if n == 0 {
				t.Fatal("nothing to mutate")
			}
			dir := t.TempDir()
			base, spath := filepath.Join(dir, "base.journal"), filepath.Join(dir, "verdicts.store")
			generatePar(t, p, p.Rules, 1, func(o *meissa.Options) { o.Checkpoint, o.StorePath = base, spath })
			regressFrom := func(baseline, storePath, next string) *meissa.RegressResult {
				t.Helper()
				opts := meissa.DefaultOptions()
				opts.Parallelism, opts.StorePath, opts.Checkpoint = 1, storePath, next
				res, err := meissa.Regress(meissa.RegressInput{Prog: p.Prog, OldRules: p.Rules, NewRules: newRules,
					Opts: opts, Baseline: baseline, Program: p.Name})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			next, snext := filepath.Join(dir, "next.journal"), filepath.Join(dir, "store-next.journal")
			file, store := regressFrom(base, "", next), regressFrom("", spath, snext)
			for _, sec := range []struct {
				name     string
				file, st any
			}{
				{"delta", file.Report.Delta, store.Report.Delta},
				{"journal", file.Report.Journal, store.Report.Journal},
				{"templates", file.Report.Templates, store.Report.Templates},
				{"queries", file.Report.Queries, store.Report.Queries},
				{"records loaded", file.Gen.JournalLoaded, store.Gen.JournalLoaded},
				{"records appended", file.Gen.JournalAppended, store.Gen.JournalAppended},
			} {
				if !reflect.DeepEqual(sec.file, sec.st) {
					t.Errorf("%s: %+v from the checkpoint, %+v from the store", sec.name, sec.file, sec.st)
				}
			}
			want, err := os.ReadFile(next)
			if err != nil {
				t.Fatal(err)
			}
			sameFile(t, "the store regression's Checkpoint against the checkpoint regression's", snext, want)

			var cold, mem bytes.Buffer
			if err := meissa.WriteTemplates(&cold, generatePar(t, p, newRules, 1, nil).Templates); err != nil {
				t.Fatal(err)
			}
			if err := meissa.WriteTemplates(&mem, regressFrom(base, "", "").Gen.Templates); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mem.Bytes(), cold.Bytes()) {
				t.Errorf("a regression with no Checkpoint writes %d bytes of templates, a cold run %d", mem.Len(), cold.Len())
			}
		})
	}
}

// TestKilledRegressionResumesToCold: a regression killed part-way leaves
// only the verdicts it had used — its checkpoint cut at 60 %, as a kill
// leaves it, a torn frame included. A resume under the new rules solves
// the rest again: its output is a cold run's, its solver calls and journal
// hits add up to the cold run's calls with some calls made, and the
// checkpoint it completes is a cold checkpoint's bytes. A regression
// chained over a complete regression's checkpoint still matches a cold run,
// checkpoint and all.
func TestKilledRegressionResumesToCold(t *testing.T) {
	for _, name := range []string{"gw-2", "gw-3"} {
		t.Run(name, func(t *testing.T) {
			p := corpusProgram(t, name)
			newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
			if n == 0 {
				t.Fatal("nothing to mutate")
			}
			dir := t.TempDir()
			cold, want := coldCheckpoint(t, p, newRules, filepath.Join(dir, "cold.journal"))
			base, next := filepath.Join(dir, "base.journal"), filepath.Join(dir, "next.journal")
			generatePar(t, p, p.Rules, 1, func(o *meissa.Options) { o.Checkpoint = base })
			regressCheckpoint(t, p, p.Rules, newRules, base, next, 1)
			data, err := os.ReadFile(next)
			if err != nil {
				t.Fatal(err)
			}
			killed := filepath.Join(dir, "killed.journal")
			if err := os.WriteFile(killed, data[:len(data)*6/10], 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			resumed := generatePar(t, p, newRules, 1, func(o *meissa.Options) { o.Checkpoint, o.Resume = killed, true })
			if err := meissa.WriteTemplates(&out, resumed.Templates); err != nil {
				t.Fatal(err)
			}
			var coldOut bytes.Buffer
			if err := meissa.WriteTemplates(&coldOut, cold.Templates); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), coldOut.Bytes()) {
				t.Error("the resumed regression's output differs from a cold run's")
			}
			if resumed.SMTCalls == 0 || resumed.SMTCalls+resumed.JournalHits != cold.SMTCalls {
				t.Errorf("resume: %d calls + %d hits, want some calls and %d in all", resumed.SMTCalls, resumed.JournalHits, cold.SMTCalls)
			}
			sameFile(t, "the resumed regression", killed, want)

			again, n := rulediff.MutateArgs(p.Prog, newRules, 2)
			if n == 0 {
				t.Fatal("nothing to mutate")
			}
			third := filepath.Join(dir, "third.journal")
			coldAgain, wantAgain := coldCheckpoint(t, p, again, filepath.Join(dir, "cold-again.journal"))
			checkRegressInvariants(t, regressCheckpoint(t, p, newRules, again, next, third, 1), cold, coldAgain)
			sameFile(t, "the chained regression", third, wantAgain)
		})
	}
}

// collideProgram applies table %[1]s to packets with h.a above 100 and
// table %[2]s to the rest, so that a path crosses one table or the other.
const collideProgram = `program collide;

header h {
  bit<32> a;
  bit<32> b;
}

metadata {
  bit<32> x;
}

parser prs {
  state start {
    extract(h);
    transition accept;
  }
}

action set_x(bit<32> v) {
  meta.x = v;
}

action miss() {
  mark_drop();
}

table %[1]s {
  key = { h.a : exact; }
  actions = { set_x; miss; }
  default_action = miss();
  size = 1024;
}

table %[2]s {
  key = { h.b : exact; }
  actions = { set_x; miss; }
  default_action = miss();
  size = 1024;
}

control ing {
  apply {
    if (h.a > 100) {
      %[1]s.apply();
    } else {
      %[2]s.apply();
    }
  }
}

pipeline ingress0 {
  parser = prs;
  control = ing;
  kind = ingress;
}
`

// fnv32a is FNV-1a-32, the hash a journal.Tag holds of its table and of
// itself.
func fnv32a(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// collidingNames draws table names from rng until two hash equal.
func collidingNames(rng *rand.Rand) (string, string) {
	seen := map[uint32]string{}
	for {
		b := []byte("t_")
		for i := 0; i < 8; i++ {
			b = append(b, byte('a'+rng.Intn(26)))
		}
		name := string(b)
		if other, ok := seen[fnv32a(name)]; ok && other != name {
			return other, name
		}
		seen[fnv32a(name)] = name
	}
}

// exactEntry is the entry `h.a=v -> set_x(arg)`.
func exactEntry(v, arg uint64) *rules.Entry {
	return &rules.Entry{Matches: []rules.Match{{Field: "h.a", Kind: rules.Exact, Val: v}}, Action: "set_x", Args: []uint64{arg}}
}

// collidingEntries returns two match values above 1000 whose entries of
// table carry dependency tags that hash equal.
func collidingEntries(table string) (uint64, uint64) {
	seen := map[uint32]uint64{}
	for v := uint64(1000); ; v++ {
		h := fnv32a(rules.DepTag(table, exactEntry(v, 0)))
		if w, ok := seen[h]; ok {
			return w, v
		}
		seen[h] = v
	}
}

// TestRegressHashCollisions: record frames carry dependency tags as
// hashes, so two strings that hash equal must cost re-solving, never a
// stale verdict. A seeded brute-force search finds two table names with
// equal FNV-1a-32 hashes and, in the first table, two entries whose tags
// hash equal. Retiring one tag of the pair retires the records of both,
// retiring one table the other's records too — and either way the
// incremental output equals a cold run's, sequential and parallel.
func TestRegressHashCollisions(t *testing.T) {
	ta, tb := collidingNames(rand.New(rand.NewSource(38)))
	v1, v2 := collidingEntries(ta)
	const v3 = 999 // an entry of ta whose tag collides with neither
	p := &programs.Program{Name: "collide", Prog: p4.MustParse(fmt.Sprintf(collideProgram, ta, tb))}
	p.Rules = rules.NewSet()
	for i, v := range []uint64{v1, v2, v3} {
		p.Rules.Add(ta, exactEntry(v, uint64(i+1)))
	}
	p.Rules.Add(tb, &rules.Entry{Matches: []rules.Match{{Field: "h.b", Kind: rules.Exact, Val: 5}}, Action: "set_x", Args: []uint64{4}})
	tag1, tag2, tag3 := rules.DepTag(ta, exactEntry(v1, 0)), rules.DepTag(ta, exactEntry(v2, 0)), rules.DepTag(ta, exactEntry(v3, 0))
	if journal.TagOf(ta).Table() != journal.TagOf(tb).Table() || journal.TagOf(tag1) != journal.TagOf(tag2) || journal.TagOf(tag1) == journal.TagOf(tag3) {
		t.Fatalf("no collisions: tables %s %s, tags %s %s %s", ta, tb, tag1, tag2, tag3)
	}
	t.Logf("tables %s and %s collide, and tags %s and %s", ta, tb, tag1, tag2)

	// The baseline's records, and its templates with their text tags.
	dir := t.TempDir()
	opts := meissa.DefaultOptions()
	opts.Parallelism = 1
	opts.Checkpoint = filepath.Join(dir, "base.journal")
	sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sys.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := journal.ReadTable(opts.Checkpoint, fp)
	if err != nil {
		t.Fatal(err)
	}
	// kept reports whether the records of the templates depending on a tag
	// that passes dep are kept, failing when no template does.
	kept := func(t *testing.T, k *journal.Journal, dep func(tag string) bool) bool {
		t.Helper()
		n, in := 0, 0
		for _, tm := range base.Templates {
			if slices.ContainsFunc(tm.Deps, dep) {
				n++
				if _, ok := k.Lookup(journal.KindEmit, tm.PathKey); ok {
					in++
				}
			}
		}
		if n == 0 || in != 0 && in != n {
			t.Fatalf("%d of %d templates' records kept", in, n)
		}
		return in == n
	}
	ofTable := func(table string) func(string) bool {
		return func(tag string) bool { return strings.Split(tag, "#")[0] == table }
	}
	is := func(want string) func(string) bool { return func(tag string) bool { return tag == want } }

	for _, tc := range []struct {
		name     string
		update   func(*rules.Set)
		invalid  []string
		retired  func(string) bool // a tag the update does not retire whose records go
		survives func(string) bool
	}{
		{"colliding tags", func(s *rules.Set) { s.Entries(ta)[0].Args[0] = 7 }, []string{tag1}, is(tag2), is(tag3)},
		{"colliding tables", func(s *rules.Set) { s.Add(ta, exactEntry(2000, 6)) }, []string{ta}, ofTable(tb), nil},
	} {
		newRules := p.Rules.Clone()
		tc.update(newRules)
		invalid := rulediff.Diff(p.Rules, newRules).InvalidTags()
		if !slices.Equal(invalid, tc.invalid) {
			t.Fatalf("%s: the update retires %q, want %q", tc.name, invalid, tc.invalid)
		}
		match := rulediff.Matcher(invalid)
		st, k := regress.Retain(tbl, match), journal.New()
		k.Adopt(tbl, match)
		if kept(t, k, tc.retired) {
			t.Errorf("%s: the records of the colliding one survive", tc.name)
		}
		if tc.survives != nil && !kept(t, k, tc.survives) {
			t.Errorf("%s: the records of a tag that collides with none went", tc.name)
		}
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/parallel=%d", tc.name, par), func(t *testing.T) {
				res, base, cold := regressOnce(t, p, newRules, par)
				checkRegressInvariants(t, res, base, cold)
				if res.Gen.Rebase.Invalidated != st.Invalidated {
					t.Errorf("the regression retired %d records, Retain %d", res.Gen.Rebase.Invalidated, st.Invalidated)
				}
			})
		}
	}
}
