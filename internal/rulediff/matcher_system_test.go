package rulediff_test

import (
	"fmt"
	"path/filepath"
	"testing"

	meissa "repro"
	"repro/internal/cfg"
	"repro/internal/journal"
	"repro/internal/programs"
	"repro/internal/regress"
	"repro/internal/rulediff"
	"repro/internal/rules"
)

// TestMatcherMatchesReferenceOnCorpus: on the checkpoints of gw-1..gw-3,
// written sequentially and by two workers, Retain under Matcher keeps and
// retires exactly the records the string matcher would for the updates
// rulediff's mutators make — one entry, four entries — and for an added
// entry, a whole-table wipe. The oracle reads a record's tags as text
// through the dictionary of every tag the program's graph carries, which
// holds no collision.
func TestMatcherMatchesReferenceOnCorpus(t *testing.T) {
	for _, p := range programs.All() {
		if p.Name != "gw-1" && p.Name != "gw-2" && p.Name != "gw-3" {
			continue
		}
		text := tagText(t, p)
		var updates []*rules.Set
		for _, n := range []int{1, 4} {
			if s, m := rulediff.MutateArgs(p.Prog, p.Rules, n); m > 0 {
				updates = append(updates, s)
			}
		}
		added := p.Rules.Clone()
		table := p.Rules.Tables()[0]
		e := p.Rules.Entries(table)[0].Clone()
		e.Priority += 1000 // a match signature the table does not hold
		added.Add(table, e)
		updates = append(updates, added)
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/parallel=%d", p.Name, par), func(t *testing.T) {
				base := checkpoint(t, p, par)
				recs := base.Records()
				for i, u := range updates {
					invalid := rulediff.Diff(p.Rules, u).InvalidTags()
					ref := rulediff.ReferenceMatcher(invalid)
					want := 0
					for _, r := range recs {
						for _, h := range r.Tags {
							tag, ok := text[h]
							if !ok {
								t.Fatalf("a record carries a tag the graph does not: %x", h)
							}
							if ref(tag) {
								want++
								break
							}
						}
					}
					_, st := regress.Retain(base, rulediff.Matcher(invalid))
					if st.Invalidated != want || st.Retained != len(recs)-want || want == 0 {
						t.Errorf("update %d (%q): Matcher retains %d and retires %d of %d, the string matcher retires %d",
							i, invalid, st.Retained, st.Invalidated, len(recs), want)
					}
				}
			})
		}
	}
}

// tagText maps the Tag of every dependency tag p's graph carries back to
// the tag, failing on a collision.
func tagText(t *testing.T, p *programs.Program) map[journal.Tag]string {
	t.Helper()
	g, err := cfg.Build(p.Prog, p.Rules)
	if err != nil {
		t.Fatal(err)
	}
	text := map[journal.Tag]string{}
	for _, n := range g.Nodes {
		for _, tag := range n.Deps {
			h := journal.TagOf(tag)
			if other, ok := text[h]; ok && other != tag {
				t.Fatalf("%s: tags %q and %q collide", p.Name, other, tag)
			}
			text[h] = tag
		}
	}
	return text
}

// checkpoint generates p with par workers and reads its checkpoint back.
func checkpoint(t *testing.T, p *programs.Program, par int) *journal.Table {
	t.Helper()
	opts := meissa.DefaultOptions()
	opts.Parallelism = par
	opts.Checkpoint = filepath.Join(t.TempDir(), "base.journal")
	sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sys.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Generate(); err != nil {
		t.Fatal(err)
	}
	tbl, err := journal.ReadTable(opts.Checkpoint, fp)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}
