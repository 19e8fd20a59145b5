package regress

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/rulediff"
)

// tagsOf is journal.TagOf of each tag.
func tagsOf(tags ...string) []journal.Tag {
	out := make([]journal.Tag, len(tags))
	for i, t := range tags {
		out[i] = journal.TagOf(t)
	}
	return out
}

// writeBaseline builds a completed run's journal: tag-bearing records, one
// that depends on no table, and the run's template list.
func writeBaseline(t *testing.T, path string, fp uint64) {
	t.Helper()
	j, err := journal.Open(path, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Append(journal.Record{Kind: journal.KindCheck, Key: 1, Verdict: journal.Sat, Tags: tagsOf("acl#0000000000000001")}))
	must(j.Append(journal.Record{Kind: journal.KindCheck, Key: 2, Verdict: journal.Unsat, Tags: tagsOf("acl#0000000000000002", "nat#0000000000000009")}))
	must(j.Append(journal.Record{Kind: journal.KindEmit, Key: 3, Verdict: journal.Sat,
		Model: []journal.VarVal{{Var: "port", Val: 80}}, Tags: tagsOf("acl#miss")}))
	must(j.Append(journal.Record{Kind: journal.KindCheck, Key: 4, Verdict: journal.Sat})) // no deps
	must(j.Append(journal.Record{Kind: journal.KindCheck, Key: 5, Verdict: journal.Sat, Tags: tagsOf("fwd#miss")}))
	j.Complete(fp, []uint64{3})
}

func TestRebaseFiltersByTag(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "base.journal")
	dst := filepath.Join(dir, "next.journal")
	writeBaseline(t, src, 7)

	// Invalidate one acl entry branch: key 1 drops, 2/3/4/5 stay.
	invalid := rulediff.Matcher([]string{"acl#0000000000000001"})
	st, err := Rebase(src, dst, 7, 9, invalid)
	if err != nil {
		t.Fatal(err)
	}
	want := obs.RebaseStats{Baseline: 5, Retained: 4, Invalidated: 1}
	if *st != want {
		t.Fatalf("stats = %+v, want %+v", *st, want)
	}

	// The rebased journal opens under the NEW fingerprint and serves the
	// retained records with their annotations intact.
	d, err := journal.Open(dst, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, ok := d.Lookup(journal.KindCheck, 1); ok {
		t.Error("invalidated record survived the rebase")
	}
	e, ok := d.Lookup(journal.KindEmit, 3)
	r := e.Record()
	if !ok || r.Verdict != journal.Sat || len(r.Model) != 1 || r.Model[0].Val != 80 {
		t.Fatalf("retained emit record mangled: %+v ok=%v", r, ok)
	}
	if len(r.Tags) != 1 || r.Tags[0] != journal.TagOf("acl#miss") {
		t.Errorf("retained record lost its dependency tags: %+v", r)
	}
	if _, ok := d.Lookup(journal.KindCheck, 4); !ok {
		t.Error("a record that depends on no table must survive the rebase")
	}

	// The baseline's template list is its own run's: the rebased file does
	// not carry it.
	if d.Table().Templates().Frame() != nil {
		t.Error("the rebased journal carries the baseline's template list")
	}
}

// TestRetainRetiresOnce: Retain tests each dependency tag of the baseline
// once, retires in place what the delta invalidates and keeps the template
// list; a journal that adopts the table then misses every retired key and
// answers every kept one.
func TestRetainRetiresOnce(t *testing.T) {
	src := filepath.Join(t.TempDir(), "base.journal")
	writeBaseline(t, src, 7)
	base, err := journal.ReadTable(src, 7)
	if err != nil {
		t.Fatal(err)
	}
	before := map[uint64]journal.Entry{}
	for _, e := range base.Sorted() {
		before[e.Key()] = e
	}
	invalid := rulediff.Matcher([]string{"acl#0000000000000001"})
	tested := map[journal.Tag]int{}
	counting := func(tag []byte) bool {
		tested[journal.Tag(tag)]++
		return invalid(tag)
	}
	want := obs.RebaseStats{Baseline: 5, Retained: 4, Invalidated: 1}
	if got := Retain(base, counting); *got != want || base.Len() != 4 || base.Templates().Frame() == nil {
		t.Errorf("Retain = %+v and leaves %d records and a list of %d bytes; want %+v, 4 and the list",
			*got, base.Len(), len(base.Templates().Frame()), want)
	}
	// Five distinct tags over the five records, the retired record's its
	// only one: each is tested once.
	for _, tag := range []string{"acl#0000000000000001", "acl#0000000000000002", "nat#0000000000000009", "acl#miss", "fwd#miss"} {
		if n := tested[journal.TagOf(tag)]; n != 1 {
			t.Errorf("tag %s tested %d times, want once", tag, n)
		}
	}
	if len(tested) != 5 {
		t.Errorf("%d distinct tags tested, want 5", len(tested))
	}
	j := journal.New()
	j.Adopt(base)
	for key, e := range before {
		got, ok := j.Lookup(e.Kind(), key)
		if retired := key == 1; ok == retired || ok && !bytes.Equal(got.Frame(), e.Frame()) {
			t.Errorf("key %d: answers %v (retired %v)", key, ok, retired)
		}
	}
}

func TestRebaseWholeTableWipe(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "base.journal")
	dst := filepath.Join(dir, "next.journal")
	writeBaseline(t, src, 7)

	st, err := Rebase(src, dst, 7, 7, rulediff.Matcher([]string{"acl"}))
	if err != nil {
		t.Fatal(err)
	}
	// Keys 1, 2 (acl entry tags) and 3 (acl#miss) drop; 4 (no deps) and 5
	// (fwd) stay.
	want := obs.RebaseStats{Baseline: 5, Retained: 2, Invalidated: 3}
	if *st != want {
		t.Fatalf("stats = %+v, want %+v", *st, want)
	}
}

func TestRebaseNilFilterRetainsIndexed(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "base.journal")
	dst := filepath.Join(dir, "next.journal")
	writeBaseline(t, src, 7)
	st, err := Rebase(src, dst, 7, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retained != 5 || st.Invalidated != 0 {
		t.Fatalf("stats = %+v, want all 5 retained", *st)
	}
}

func TestRebaseRejectsSamePath(t *testing.T) {
	if _, err := Rebase("x.journal", "x.journal", 1, 1, nil); err == nil {
		t.Fatal("same-path rebase must error")
	}
}

func TestRebaseFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "base.journal")
	writeBaseline(t, src, 7)
	if _, err := Rebase(src, filepath.Join(dir, "next.journal"), 8, 8, nil); err == nil {
		t.Fatal("wrong baseline fingerprint must error")
	}
}

// rebasedSection is the regress section of a run whose baseline is
// writeBaseline's journal rebased past one acl entry branch: 4 of its 5
// records retained, 3 queries solved live and 20 answered by the baseline.
func rebasedSection(t *testing.T) *obs.RegressReport {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "base.journal")
	writeBaseline(t, src, 7)
	st, err := Rebase(src, filepath.Join(dir, "next.journal"), 7, 9,
		rulediff.Matcher([]string{"acl#0000000000000001"}))
	if err != nil {
		t.Fatal(err)
	}
	return &obs.RegressReport{
		Delta:     &obs.DeltaReport{TablesChanged: []string{"acl"}, EntriesModified: 1},
		Rebase:    st,
		Templates: &obs.TemplateReport{Baseline: 10, Current: 10, Added: 2, Retired: 2, Unchanged: 8},
		Queries:   obs.NewQueryReport(3, 20),
	}
}

func TestReportValidate(t *testing.T) {
	if err := rebasedSection(t).Validate(); err != nil {
		t.Fatalf("valid regress section rejected: %v", err)
	}
	q := rebasedSection(t).Queries
	if q.Live != 3 || q.JournalHits != 20 || q.Reuse <= 0.86 || q.Reuse >= 0.87 {
		t.Errorf("NewQueryReport = %+v", q)
	}

	for name, mutate := range map[string]func(*obs.RegressReport){
		"rebase imbalance":  func(g *obs.RegressReport) { g.Rebase.Retained++ },
		"templates added":   func(g *obs.RegressReport) { g.Templates.Added++ },
		"templates retired": func(g *obs.RegressReport) { g.Templates.Unchanged-- },
		"delta missing":     func(g *obs.RegressReport) { g.Delta = nil },
		"rebase missing":    func(g *obs.RegressReport) { g.Rebase = nil },
		"queries missing":   func(g *obs.RegressReport) { g.Queries = nil },
	} {
		g := rebasedSection(t)
		mutate(g)
		if g.Validate() == nil {
			t.Errorf("%s: invalid regress section accepted", name)
		}
	}
}

// TestReportJSONRoundTrip: a regress run report carrying a rebased
// section survives JSON and obs.ParseReport; garbage does not parse.
func TestReportJSONRoundTrip(t *testing.T) {
	r := &obs.Report{
		Schema:  obs.ReportSchema,
		Command: "regress",
		Program: "gw-1",
		RuleSet: "set-1",
		WallNS:  1,
		Phases:  []obs.PhaseDur{{Name: "diff", NS: 1}},
		Solver:  obs.NewSolverReport(3, 2, 1, 0, 0, time.Second),
		Journal: &obs.JournalReport{Hits: 20},
		Regress: rebasedSection(t),
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	g := got.Regress
	if got.Program != "gw-1" || g == nil || *g.Rebase != *r.Regress.Rebase ||
		g.Queries.JournalHits != 20 || g.Templates.Unchanged != 8 {
		t.Errorf("round-trip mangled report: %+v", got)
	}
	if _, err := obs.ParseReport([]byte("{")); err == nil {
		t.Error("garbage accepted")
	}
}
