package meissa_test

// Acceptance tests for incremental regression testing (the differential
// and perf gates): rebasing a baseline journal onto an updated rule set
// and re-exploring must produce output byte-identical to a cold full run
// on the new rules, while re-solving only the affected subtrees.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
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
)

// regressOnce runs the full incremental flow for one program/delta and
// returns the result plus the cold run on the new rules.
func regressOnce(t *testing.T, p *programs.Program, newRules *rules.Set, parallelism int) (*meissa.RegressResult, *meissa.GenResult) {
	t.Helper()
	dir := t.TempDir()
	base := filepath.Join(dir, "base.journal")

	baseOpts := meissa.DefaultOptions()
	baseOpts.Parallelism = parallelism
	baseOpts.Checkpoint = base
	baseSys, err := meissa.New(p.Prog, p.Rules, nil, baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	baseGen, err := baseSys.Generate()
	if err != nil {
		t.Fatal(err)
	}

	coldOpts := meissa.DefaultOptions()
	coldOpts.Parallelism = parallelism
	coldSys, err := meissa.New(p.Prog, newRules, nil, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldSys.Generate()
	if err != nil {
		t.Fatal(err)
	}

	incrOpts := meissa.DefaultOptions()
	incrOpts.Parallelism = parallelism
	incrOpts.Checkpoint = filepath.Join(dir, "next.journal")
	res, err := meissa.Regress(meissa.RegressInput{
		Prog:     p.Prog,
		OldRules: p.Rules,
		NewRules: newRules,
		Opts:     incrOpts,
		Baseline: base,
		Program:  p.Name,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The baseline replay must reproduce the baseline templates exactly.
	if renderTemplates(res.BaselineGen.Templates) != renderTemplates(baseGen.Templates) {
		t.Error("baseline replay diverged from the original baseline run")
	}
	return res, cold
}

// checkRegressInvariants verifies the differential gate for one run: the
// incremental output is byte-identical to the cold run, solver-work
// accounting balances, and the report's template delta matches reality.
func checkRegressInvariants(t *testing.T, res *meissa.RegressResult, cold *meissa.GenResult) {
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
	if rep.Templates.Current != len(gen.Templates) || rep.Templates.Baseline != len(res.BaselineGen.Templates) {
		t.Errorf("report template counts %d/%d disagree with runs %d/%d",
			rep.Templates.Current, rep.Templates.Baseline, len(gen.Templates), len(res.BaselineGen.Templates))
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
				res, cold := regressOnce(t, p, newRules, par)
				checkRegressInvariants(t, res, cold)
			})
		}
	}
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
	res, cold := regressOnce(t, p, newRules, 1)
	checkRegressInvariants(t, res, cold)
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
	res, cold := regressOnce(t, p, newRules, 1)
	checkRegressInvariants(t, res, cold)
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
	res, cold := regressOnce(t, p, newRules, 1)
	checkRegressInvariants(t, res, cold)
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
	res, cold := regressOnce(t, p, reordered, 1)
	checkRegressInvariants(t, res, cold)
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
	res, cold := regressOnce(t, p, p.Rules, 1)
	checkRegressInvariants(t, res, cold)
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

// TestRebasedCheckpointIsCompleteJournal pins the file a regression leaves
// at Checkpoint: the header under the new rules' fingerprint, the retained
// baseline records in canonical (kind, key) order — each the frame the
// baseline holds it in — then exactly the records the incremental run
// appended. It is a complete journal: resuming from it on the new rules
// re-derives the output without one solver call (watch mode makes it the
// next baseline).
func TestRebasedCheckpointIsCompleteJournal(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	newRules, n := rulediff.MutateArgs(p.Prog, p.Rules, 1)
	if n != 1 {
		t.Fatalf("mutated %d entries, want 1", n)
	}
	dir := t.TempDir()
	opts := meissa.DefaultOptions()
	opts.Parallelism = 1
	fingerprint := func(rs *rules.Set) uint64 {
		sys, err := meissa.New(p.Prog, rs, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := sys.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	generate := func(rs *rules.Set, checkpoint string, resume bool) *meissa.GenResult {
		o := opts
		o.Checkpoint, o.Resume = checkpoint, resume
		sys, err := meissa.New(p.Prog, rs, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := sys.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
	base, next := filepath.Join(dir, "base.journal"), filepath.Join(dir, "next.journal")
	generate(p.Rules, base, false)
	regOpts := opts
	regOpts.Checkpoint = next
	res, err := meissa.Regress(meissa.RegressInput{Prog: p.Prog, OldRules: p.Rules, NewRules: newRules,
		Opts: regOpts, Baseline: base, Program: p.Name})
	if err != nil {
		t.Fatal(err)
	}

	// The expected prefix, built from the baseline without the rebase code.
	baseTable, err := journal.ReadTable(base, fingerprint(p.Rules))
	if err != nil {
		t.Fatal(err)
	}
	baseRecs, baseFrames := baseTable.Records(), baseTable.Sorted()
	invalid := rulediff.Matcher(res.Delta.InvalidTags())
	want := checkpointHeader(t, fingerprint(newRules))
	retained := 0
records:
	for i, r := range baseRecs { // canonical order
		for _, tag := range r.Tags {
			if invalid(tag[:]) {
				continue records
			}
		}
		retained++
		want = append(want, baseFrames[i].Frame()...)
	}
	if retained == 0 || retained == len(baseRecs) || retained != res.Gen.Rebase.Retained {
		t.Fatalf("retained %d of %d baseline records, rebase reports %d", retained, len(baseRecs), res.Gen.Rebase.Retained)
	}
	got, err := os.ReadFile(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("rebased checkpoint does not begin with the header and the %d retained records in canonical order", retained)
	}
	appended := uint64(0)
	for off := len(want); off < len(got); appended++ {
		_, n, ok := splitRecord(got[off:])
		if !ok {
			t.Fatalf("rebased checkpoint does not parse at offset %d", off)
		}
		off += n
	}
	if appended == 0 || appended != res.Gen.JournalAppended {
		t.Fatalf("%d records follow the retained ones, the run appended %d", appended, res.Gen.JournalAppended)
	}
	if got, want := res.Gen.JournalLoaded, uint64(retained); got != want {
		t.Errorf("JournalLoaded = %d, want the %d retained records", got, want)
	}

	resumed := generate(newRules, next, true)
	if resumed.SMTCalls != 0 {
		t.Errorf("resume from the rebased checkpoint made %d solver calls, want 0", resumed.SMTCalls)
	}
	if renderTemplates(resumed.Templates) != renderTemplates(res.Gen.Templates) {
		t.Error("resume from the rebased checkpoint diverged from the incremental run")
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
	kept := func(t *testing.T, k *journal.Table, dep func(tag string) bool) bool {
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
		k, st := regress.Retain(tbl, rulediff.Matcher(invalid))
		if kept(t, k, tc.retired) {
			t.Errorf("%s: the records of the colliding one survive", tc.name)
		}
		if tc.survives != nil && !kept(t, k, tc.survives) {
			t.Errorf("%s: the records of a tag that collides with none went", tc.name)
		}
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/parallel=%d", tc.name, par), func(t *testing.T) {
				res, cold := regressOnce(t, p, newRules, par)
				checkRegressInvariants(t, res, cold)
				if res.Gen.Rebase.Invalidated != st.Invalidated {
					t.Errorf("the regression retired %d records, Retain %d", res.Gen.Rebase.Invalidated, st.Invalidated)
				}
			})
		}
	}
}
