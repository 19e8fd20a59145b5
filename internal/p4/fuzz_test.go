package p4_test

import (
	"errors"
	"testing"

	"repro/internal/p4"
	"repro/internal/programs"
)

// FuzzParseProgram: a program text from outside — a user's -p file — may
// be rejected by the parser or the checker, never panic either, and every
// rejection is a *p4.ParseError or *p4.CheckError with a position. Seeded
// with the corpus sources under 20 kB.
func FuzzParseProgram(f *testing.F) {
	for _, p := range programs.All() {
		if len(p.Source) < 20<<10 {
			f.Add(p.Source)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := p4.Parse(src)
		var pe *p4.ParseError
		var ce *p4.CheckError
		switch {
		case err == nil:
			err = p4.Check(prog)
			if err != nil && (!errors.As(err, &ce) || ce.Pos.Line < 1) {
				t.Fatalf("Check rejected with %T %v, want a positioned *p4.CheckError", err, err)
			}
		case !errors.As(err, &pe) || pe.Pos.Line < 1:
			t.Fatalf("Parse rejected with %T %v, want a positioned *p4.ParseError", err, err)
		}
	})
}
