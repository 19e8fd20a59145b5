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
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	meissa "repro"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/regress"
	"repro/internal/rulediff"
	"repro/internal/rules"
)

// templateDelta is the report's template section computed from two cold
// runs' path keys: their multiset difference.
func templateDelta(base, cur []uint64) obs.TemplateReport {
	left := map[uint64]int{}
	for _, k := range base {
		left[k]++
	}
	unchanged := 0
	for _, k := range cur {
		if left[k] > 0 {
			left[k]--
			unchanged++
		}
	}
	return obs.TemplateReport{Baseline: len(base), Current: len(cur), Added: len(cur) - unchanged,
		Retired: len(base) - unchanged, Unchanged: unchanged}
}

// checkRegress is the differential gate for one regression: its output is
// the cold run's on the new rules byte for byte, solver-work accounting
// balances, and its template section is the delta between base, the cold
// run on the old rules, and cold. Its run report validated when it was
// made.
func checkRegress(t *testing.T, reg, base, cold *cell) {
	t.Helper()
	g, c := reg.work, cold.work
	if reg.digest != cold.digest {
		t.Fatalf("incremental output differs from cold run (%d vs %d templates)", g.Templates, c.Templates)
	}
	if g.Paths != c.Paths || g.Pruned != c.Pruned {
		t.Errorf("exploration shape diverged: explored %d/%d pruned %d/%d", g.Paths, c.Paths, g.Pruned, c.Pruned)
	}
	// Every logical solver interaction is answered exactly one way (live
	// solve or journal hit); the total is invariant.
	if g.CacheHits != 0 || c.CacheHits != 0 {
		t.Errorf("cache hits: incremental %d, cold %d; want 0", g.CacheHits, c.CacheHits)
	}
	if g.Checks+g.JournalHits != c.Checks {
		t.Errorf("query accounting: incremental %d (calls %d + journal %d) != cold %d",
			g.Checks+g.JournalHits, g.Checks, g.JournalHits, c.Checks)
	}
	rep := reg.regress
	if rep.Queries.JournalHits == 0 {
		t.Error("incremental run avoided zero queries — journal reuse is broken")
	}
	if want := templateDelta(base.pathKeys, cold.pathKeys); *rep.Templates != want {
		t.Errorf("report templates %+v, the cold runs' path keys give %+v", *rep.Templates, want)
	}
	if reg.load != "0 templates, phases [journal-load]" {
		t.Errorf("baseline load: %s, want one journal-load phase and no templates", reg.load)
	}
}

// differential regresses prog at par from a checkpoint of its own rules
// to a rule variant, checks the regression against the cold runs and
// returns it.
func differential(t *testing.T, prog, rules string, par int) *cell {
	t.Helper()
	base := genKey(prog, "", par, "checkpoint")
	reg := get(t, regressKey(base, "checkpoint", rules, true))
	checkRegress(t, reg, get(t, base), get(t, genKey(prog, rules, par, "")))
	return reg
}

// TestRegressDifferentialCorpus is the differential gate over the whole
// corpus: a one-entry action-data update, sequential and parallel.
func TestRegressDifferentialCorpus(t *testing.T) {
	for _, p := range corpusAll() {
		if testing.Short() && (p.Name == "gw-3" || p.Name == "gw-4") {
			continue
		}
		if _, n := rulediff.MutateArgs(p.Prog, p.Rules, 1); n == 0 {
			continue // no action arguments to mutate
		}
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallel=%d", p.Name, par), func(t *testing.T) {
				differential(t, p.Name, "args1", par)
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
		for _, d := range []struct{ name, old, new string }{
			{"args", "", "args1"}, {"add", "fewer", ""}, {"remove", "", "fewer"},
		} {
			for _, par := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/parallel=%d", name, d.name, par), func(t *testing.T) {
					base, cold := genKey(name, d.old, par, "checkpoint"), get(t, genKey(name, d.new, par, ""))
					next := regressKey(base, "checkpoint", d.new, true)
					checkRegress(t, get(t, next), get(t, base), cold)

					again := then(d.new, "args2")
					checkRegress(t, get(t, regressKey(next, "checkpoint", again, true)), cold, get(t, genKey(name, again, par, "")))

					fromStore := regressKey(genKey(name, d.old, par, "store"), "store", d.new, false)
					checkRegress(t, get(t, fromStore), get(t, base), cold)
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
	for _, p := range corpusAll() {
		for _, summary := range []bool{true, false} {
			c := get(t, genKey(p.Name, "", 0, "").summarized(summary))
			seen := make(map[uint64]bool, len(c.pathKeys))
			for _, k := range c.pathKeys {
				if seen[k] {
					t.Errorf("%s (summary %v): two templates share path key %#x", p.Name, summary, k)
				}
				seen[k] = true
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
	newRules := mustVariant(t, p, "args1")
	dir := t.TempDir()
	regressFrom := func(base string) (*meissa.RegressResult, error) {
		opts := at(1)
		opts.Checkpoint = filepath.Join(dir, "next.journal")
		return run{p: p, rules: newRules, opts: opts, regress: true, old: p.Rules, baseline: base}.do()
	}

	base := get(t, genKey("gw-1", "", 1, "checkpoint"))
	killed := filepath.Join(dir, "killed.journal")
	data := base.read(t, "checkpoint")
	if err := os.WriteFile(killed, data[:len(data)*6/10], 0o644); err != nil {
		t.Fatal(err)
	}
	noList := func(path string) meissa.Refusal {
		return meissa.Refusal{At: path, Reason: "holds no template list: it is not a completed run's checkpoint",
			Fix: "complete it with `meissa gen -checkpoint " + path + " -resume`"}
	}
	_, err := regressFrom(killed)
	refused(t, err, noList(killed))
	resume := at(1)
	resume.Checkpoint, resume.Resume = killed, true
	run{p: p, opts: resume}.gen(t)
	res, err := regressFrom(killed)
	if err != nil {
		t.Fatal(err)
	}
	checkRegress(t, observe(res), base, get(t, genKey("gw-1", "args1", 1, "")))

	halted := filepath.Join(dir, "halted.journal")
	opts := at(1)
	opts.Checkpoint, opts.MaxPaths = halted, 10
	if gen := (run{p: p, opts: opts}).gen(t); !gen.Truncated {
		t.Fatal("MaxPaths 10 did not halt the run")
	}
	_, fp := run{p: p, opts: meissa.DefaultOptions()}.system(t)
	if tbl, err := journal.ReadTable(halted, fp); err != nil || tbl.Templates().Frame() != nil || tbl.Len() == 0 {
		t.Fatalf("the halted run's checkpoint (%v): %d verdicts, a template list of %d bytes; want verdicts and no list",
			err, tbl.Len(), len(tbl.Templates().Frame()))
	}
	_, err = regressFrom(halted)
	refused(t, err, noList(halted))

	refusedNext := filepath.Join(dir, "refused.journal")
	fromStore := func(path string, old, rs *rules.Set) error {
		opts := at(1)
		opts.StorePath, opts.Checkpoint = path, refusedNext
		_, err := run{p: p, rules: rs, opts: opts, regress: true, old: old}.do()
		return err
	}
	noCheckpoint := func() {
		t.Helper()
		if _, err := os.Stat(refusedNext); !os.IsNotExist(err) {
			t.Errorf("the refused store regression left its Checkpoint (%v)", err)
		}
	}
	stored := get(t, genKey("gw-1", "", 1, "store"))
	spath := stored.copy(t, "store")
	opts = at(1)
	opts.StorePath, opts.MaxPaths = spath, 10
	run{p: p, rules: newRules, opts: opts}.gen(t)
	again := mustVariant(t, p, "args1/args1")
	refused(t, fromStore(spath, nil, again), meissa.Refusal{At: spath, Reason: "holds no template list for the stored rules: its last commit installed them without a completed run",
		Fix: "run a completed `meissa gen -store " + spath + "` on them first"})
	noCheckpoint()

	empty := filepath.Join(dir, "empty.store")
	refused(t, fromStore(empty, nil, again), meissa.Refusal{At: empty, Reason: "holds no baseline for this program family", Fix: "run gen with the store first"})
	noCheckpoint()
	for _, f := range []string{empty, empty + "-lock"} {
		if _, err := os.Stat(f); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("the refused store regression left %s (%v)", f, err)
		}
	}

	other := stored.copy(t, "store")
	before, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	refused(t, fromStore(other, newRules, again), meissa.Refusal{At: "OldRules", Reason: fmt.Sprintf("%d entries, hash %#x, are not the store's rules (%d entries, hash %#x): "+
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
	// Drop the last entry of the last table of the canonical set.
	reg := differential(t, "gw-1", "canonical/fewer", 1)
	// The delta must be structural (removal), not arg-only.
	if d := reg.regress.Delta; d.EntriesRemoved != 1 || d.EntriesAdded != 0 {
		t.Errorf("delta counts added=%d removed=%d, want 0/1", d.EntriesAdded, d.EntriesRemoved)
	}
}

// TestRegressPerfGateGW1 is the perf gate: a single-entry action-data
// update on gw-1 must re-solve at most 20% of the cold run's live solver
// queries — the entry-granular invalidation promise.
func TestRegressPerfGateGW1(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	if _, n := rulediff.MutateArgs(p.Prog, p.Rules, 1); n != 1 {
		t.Fatalf("mutated %d entries, want 1", n)
	}
	reg, cold := differential(t, "gw-1", "args1", 1), get(t, genKey("gw-1", "args1", 1, ""))
	if reg.work.Checks*5 > cold.work.Checks {
		t.Errorf("perf gate: incremental solved %d live queries, budget is 20%% of cold's %d",
			reg.work.Checks, cold.work.Checks)
	}
	// The report must carry the same gate inputs for CI to assert on.
	if reg.regress.Queries.Live != reg.work.Checks {
		t.Errorf("report live queries %d != gen SMT calls %d", reg.regress.Queries.Live, reg.work.Checks)
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
	if _, n := rulediff.MutateArgs(p.Prog, p.Rules, 1); n != 1 {
		t.Fatalf("mutated %d entries, want 1", n)
	}
	reg := differential(t, "gw-3", "args1", 1)
	q, rb := reg.regress.Queries, reg.rebase
	if rb.Invalidated == 0 || q.Live > 2*uint64(rb.Invalidated) {
		t.Errorf("%d live queries for %d invalidated records, want at most twice as many", q.Live, rb.Invalidated)
	}
	if q.Reuse < 0.94 {
		t.Errorf("reuse %.4f of %d queries, want >= 0.94", q.Reuse, q.Live+q.JournalHits)
	}
}

// TestRegressPureReorderMatchesCold: re-sorting a rule set is no rule
// change (the diff is empty, every record is retained) and yet re-keys the
// verdicts downstream of every re-ordered table. Whatever that costs, the
// incremental output stays byte-identical to a cold run on the re-ordered
// set.
func TestRegressPureReorderMatchesCold(t *testing.T) {
	p := corpusProgram(t, "gw-3")
	if mustVariant(t, p, "canonical").String() == p.Rules.String() {
		t.Fatal("gw-3's rules are already in canonical order: the test re-orders nothing")
	}
	reg := differential(t, "gw-3", "canonical", 1)
	if tables := reg.regress.Delta.TablesChanged; len(tables) != 0 {
		t.Errorf("a pure re-order diffs tables %v", tables)
	}
	if rb := reg.rebase; rb.Invalidated != 0 {
		t.Errorf("a pure re-order invalidated %d records", rb.Invalidated)
	}
	if reg.work.Checks == 0 {
		t.Error("the re-ordered set re-keyed nothing: entry order no longer reaches the content hashes, and this test's premise is gone")
	}
}

// TestRegressEmptyDelta: identical rule sets retain every record and
// change no templates.
func TestRegressEmptyDelta(t *testing.T) {
	reg := differential(t, "Router", "", 1)
	if tables := reg.regress.Delta.TablesChanged; len(tables) != 0 {
		t.Errorf("self-diff not empty: tables %v", tables)
	}
	if reg.work.Checks != 0 {
		t.Errorf("empty delta re-solved %d queries, want 0", reg.work.Checks)
	}
	if tr := reg.regress.Templates; tr.Added != 0 || tr.Retired != 0 {
		t.Errorf("empty delta changed templates: %+v", tr)
	}
	if st := reg.rebase; st == nil || st.Invalidated != 0 || st.Retained != st.Baseline {
		t.Errorf("empty delta rebase stats: %+v", st)
	}
}

// TestRegressWatchCache: consecutive incremental runs at Parallelism 2,
// each regressing from the checkpoint the one before left (the watch-mode
// chain), stay byte-identical to cold runs.
func TestRegressWatchCache(t *testing.T) {
	from, rules := genKey("Router", "", 2, "checkpoint"), ""
	for i := range 2 {
		rules = then(rules, fmt.Sprintf("args%d", i+1))
		from = regressKey(from, "checkpoint", rules, true)
		if get(t, from).digest != get(t, genKey("Router", rules, 1, "")).digest {
			t.Fatalf("watch iteration %d diverged from cold run", i)
		}
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
// leaves its bytes as they are: being the cold checkpoint's bytes, it is
// resumed as the cold checkpoint.
func TestRegressCheckpointIsColdCheckpoint(t *testing.T) {
	for _, name := range []string{"gw-1", "gw-2", "gw-3", "gw-4"} {
		if testing.Short() && name == "gw-4" {
			continue
		}
		for _, d := range []struct{ name, old, new string }{
			{"args", "", "args1"}, {"resorted", "", "resorted"}, {"add", "fewer", ""}, {"remove", "", "fewer"},
		} {
			t.Run(name+"/"+d.name, func(t *testing.T) {
				coldKey := genKey(name, d.new, 1, "checkpoint")
				cold := get(t, coldKey)
				for _, reads := range []string{"checkpoint", "store"} {
					c, what := get(t, regressKey(genKey(name, d.old, 1, reads), reads, d.new, true)), "a "+reads+" baseline's regression"
					if c.work.JournalHits == 0 {
						t.Fatalf("%s answered nothing from its baseline", what)
					}
					if c.rebase == nil || c.work.Loaded != uint64(c.rebase.Retained) {
						t.Errorf("%s: %d records loaded, want the %+v retained", what, c.work.Loaded, c.rebase)
					}
					if c.work.Appended+c.work.JournalHits != cold.work.Appended {
						t.Errorf("%s: %d appended + %d hits, want the cold checkpoint's %d records", what, c.work.Appended, c.work.JournalHits, cold.work.Appended)
					}
					sameFile(t, what, c.path("checkpoint"), cold, "checkpoint")
				}
				resumed := get(t, resumeKey(coldKey))
				if resumed.work.Checks != 0 {
					t.Errorf("a resume from the regressions' checkpoint made %d solver calls, want 0", resumed.work.Checks)
				}
				sameFile(t, "a resumed regression checkpoint", resumed.path("checkpoint"), cold, "checkpoint")
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
// memory, and its output is a cold run's.
func TestRegressBaselinesAgree(t *testing.T) {
	for _, name := range []string{"gw-1", "gw-2", "gw-3"} {
		t.Run(name, func(t *testing.T) {
			base := genKey(name, "", 1, "checkpoint+store")
			file, store := get(t, regressKey(base, "checkpoint", "args1", true)), get(t, regressKey(base, "store", "args1", true))
			for _, sec := range []struct {
				name     string
				file, st any
			}{
				{"delta", file.regress.Delta, store.regress.Delta},
				{"rebase", file.regress.Rebase, store.regress.Rebase},
				{"templates", file.regress.Templates, store.regress.Templates},
				{"queries", file.regress.Queries, store.regress.Queries},
				{"records loaded", file.work.Loaded, store.work.Loaded},
				{"records appended", file.work.Appended, store.work.Appended},
			} {
				if !reflect.DeepEqual(sec.file, sec.st) {
					t.Errorf("%s: %+v from the checkpoint, %+v from the store", sec.name, sec.file, sec.st)
				}
			}
			sameFile(t, "the store regression's Checkpoint against the checkpoint regression's", store.path("checkpoint"), file, "checkpoint")

			mem, cold := get(t, regressKey(base, "checkpoint", "args1", false)), get(t, genKey(name, "args1", 1, ""))
			if mem.digest != cold.digest {
				t.Errorf("a regression with no Checkpoint renders %d templates unlike a cold run's %d", mem.work.Templates, cold.work.Templates)
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
			cold := get(t, genKey(name, "args1", 1, "checkpoint"))
			next := regressKey(genKey(name, "", 1, "checkpoint"), "checkpoint", "args1", true)
			data := get(t, next).read(t, "checkpoint")
			killed := filepath.Join(t.TempDir(), "killed.journal")
			if err := os.WriteFile(killed, data[:len(data)*6/10], 0o644); err != nil {
				t.Fatal(err)
			}
			opts := at(1)
			opts.Checkpoint, opts.Resume = killed, true
			resumed := observe(run{p: p, rules: mustVariant(t, p, "args1"), opts: opts}.res(t))
			if resumed.digest != cold.digest {
				t.Error("the resumed regression's output differs from a cold run's")
			}
			if r := resumed.work; r.Checks == 0 || r.Checks+r.JournalHits != cold.work.Checks {
				t.Errorf("resume: %d calls + %d hits, want some calls and %d in all", r.Checks, r.JournalHits, cold.work.Checks)
			}
			sameFile(t, "the resumed regression", killed, cold, "checkpoint")

			third, coldAgain := get(t, regressKey(next, "checkpoint", "args1/args2", true)), get(t, genKey(name, "args1/args2", 1, "checkpoint"))
			checkRegress(t, third, cold, coldAgain)
			sameFile(t, "the chained regression", third.path("checkpoint"), coldAgain, "checkpoint")
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
	opts := at(1)
	opts.Checkpoint = filepath.Join(t.TempDir(), "base.journal")
	sys, fp := run{p: p, opts: opts}.system(t)
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
				dir := t.TempDir()
				opts, next := at(par), at(par)
				opts.Checkpoint, next.Checkpoint = filepath.Join(dir, "base.journal"), filepath.Join(dir, "next.journal")
				base := observe(run{p: p, opts: opts}.res(t))
				cold := observe(run{p: p, rules: newRules, opts: at(par)}.res(t))
				reg := observe(run{p: p, rules: newRules, opts: next, regress: true, old: p.Rules, baseline: opts.Checkpoint}.res(t))
				checkRegress(t, reg, base, cold)
				if reg.rebase.Invalidated != st.Invalidated {
					t.Errorf("the regression retired %d records, Retain %d", reg.rebase.Invalidated, st.Invalidated)
				}
			})
		}
	}
}
