package spec_test

import (
	"errors"
	"testing"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/programs"
	"repro/internal/spec"
)

// FuzzParseSpec: a spec text from outside — a user's -s file — may be
// rejected, never panic the parser, the translation of its assumes
// against any corpus program, or the check of its expects. A rejection of
// the text is a positioned *p4.ParseError, one of an assume a positioned
// *p4.CheckError. Seeded with the specs of the bug scenarios and two
// handwritten texts.
func FuzzParseSpec(f *testing.F) {
	for _, sd := range seeds() {
		f.Add(sd.src)
	}
	progs := programs.All()
	f.Fuzz(func(t *testing.T, src string) {
		specs, err := spec.Parse(src)
		if pe := (*p4.ParseError)(nil); err != nil && (!errors.As(err, &pe) || pe.Pos.Line < 1) {
			t.Fatalf("Parse rejected with %T %v, want a positioned *p4.ParseError", err, err)
		}
		for _, s := range specs {
			for _, p := range progs {
				_, err := s.AssumeConstraints(p.Prog)
				if ce := (*p4.CheckError)(nil); err != nil && (!errors.As(err, &ce) || ce.Pos.Line < 1) {
					t.Fatalf("AssumeConstraints rejected with %T %v, want a positioned *p4.CheckError", err, err)
				}
				s.Check(p.Prog, &packet.Packet{}, &packet.Packet{})
				s.Check(p.Prog, &packet.Packet{}, nil)
			}
		}
	})
}
