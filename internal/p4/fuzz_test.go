package p4_test

import (
	"testing"

	"repro/internal/p4"
	"repro/internal/programs"
)

// FuzzParseProgram: a program text from outside — a user's -p file — may
// be rejected by the parser or the checker, never panic either. Seeded
// with the corpus sources under 20 kB.
func FuzzParseProgram(f *testing.F) {
	for _, p := range programs.All() {
		if len(p.Source) < 20<<10 {
			f.Add(p.Source)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := p4.Parse(src)
		if err != nil {
			return
		}
		_ = p4.Check(prog)
	})
}
