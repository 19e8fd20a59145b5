package rules_test

import (
	"testing"

	"repro/internal/programs"
	"repro/internal/rules"
)

// BenchmarkReadRules reads the rules texts of the Table 1 programs, as
// `meissa gen -r` reads a file: tokens, entries and their positions.
func BenchmarkReadRules(b *testing.B) {
	var texts []string
	n := 0
	for _, p := range programs.All() {
		texts = append(texts, p.Rules.String())
		n += len(texts[len(texts)-1])
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			if _, err := rules.Parse(text); err != nil {
				b.Fatal(err)
			}
		}
	}
}
