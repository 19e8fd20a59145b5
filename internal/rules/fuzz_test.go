package rules_test

import (
	"testing"

	"repro/internal/programs"
	"repro/internal/rules"
)

// FuzzParseRules: a rule-set text from outside — a user's -r file — may be
// rejected, never panic the parser. Seeded with the corpus rule sets.
func FuzzParseRules(f *testing.F) {
	for _, p := range programs.All() {
		f.Add(p.Rules.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = rules.Parse(src)
	})
}
