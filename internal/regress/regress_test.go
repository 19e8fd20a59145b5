package regress

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/rulediff"
)

func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }

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
	want := RebaseStats{Baseline: 5, Retained: 4, Invalidated: 1}
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
	// not carry it. Retain counts what Rebase keeps and changes nothing.
	if d.Table().Templates().Frame() != nil {
		t.Error("the rebased journal carries the baseline's template list")
	}
	base, err := journal.ReadTable(src, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := Retain(base, invalid); *got != want || base.Len() != 5 || base.Templates().Frame() == nil {
		t.Errorf("Retain = %+v and leaves %d records and a list of %d bytes; want %+v, 5 and the list",
			*got, base.Len(), len(base.Templates().Frame()), want)
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
	want := RebaseStats{Baseline: 5, Retained: 2, Invalidated: 3}
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

func validReport() *Report {
	return &Report{
		Schema: Schema,
		WallNS: 1,
		Delta: &DeltaReport{
			TablesChanged:   []string{"acl"},
			EntriesModified: 1,
		},
		Journal:   &RebaseStats{Baseline: 5, Retained: 4, Invalidated: 1},
		Templates: &TemplateReport{Baseline: 10, Current: 10, Added: 2, Retired: 2, Unchanged: 8},
		Queries:   NewQueryReport(3, 20),
	}
}

func TestReportValidate(t *testing.T) {
	r := validReport()
	if err := r.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	q := r.Queries
	if q.Avoided != 20 || q.Total != 23 || q.Reuse <= 0.86 || q.Reuse >= 0.87 {
		t.Errorf("NewQueryReport = %+v", q)
	}

	bad := validReport()
	bad.Journal.Retained++
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "journal accounting") {
		t.Errorf("journal imbalance not caught: %v", err)
	}
	bad = validReport()
	bad.Templates.Unchanged--
	if bad.Validate() == nil {
		t.Error("template imbalance not caught")
	}
	bad = validReport()
	bad.Queries.Total++
	if bad.Validate() == nil {
		t.Error("query imbalance not caught")
	}
	bad = validReport()
	bad.Queries.Avoided++
	bad.Queries.Total++
	if bad.Validate() == nil {
		t.Error("avoided beyond journal hits not caught")
	}
	bad = validReport()
	bad.Schema = "nope"
	if bad.Validate() == nil {
		t.Error("schema mismatch not caught")
	}
	bad = validReport()
	bad.Delta = nil
	if bad.Validate() == nil {
		t.Error("missing section not caught")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := validReport()
	r.Program = "gw-1"
	r.RuleSet = "set-1"
	data, err := jsonMarshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != "gw-1" || got.Queries.Avoided != 20 || got.Templates.Unchanged != 8 {
		t.Errorf("round-trip mangled report: %+v", got)
	}
	if _, err := ParseReport([]byte("{")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestLegacyCacheHitsReportParses: a report of an earlier release counted
// queries its cross-worker verdict memo answered as cache_hits, among
// avoided. It still parses; the same avoided count without them does not.
func TestLegacyCacheHitsReportParses(t *testing.T) {
	legacy := func(cacheHits string) []byte {
		data, err := jsonMarshal(validReport())
		if err != nil {
			t.Fatal(err)
		}
		old := `"journal_hits":20,"avoided":20,"total":23`
		if !strings.Contains(string(data), old) {
			t.Fatalf("query section not as expected: %s", data)
		}
		return []byte(strings.Replace(string(data), old,
			`"journal_hits":20,`+cacheHits+`"avoided":25,"total":28`, 1))
	}
	if _, err := ParseReport(legacy(`"cache_hits":5,`)); err != nil {
		t.Errorf("legacy report rejected: %v", err)
	}
	if _, err := ParseReport(legacy("")); err == nil {
		t.Error("avoided beyond journal hits accepted")
	}
}
