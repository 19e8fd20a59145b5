package rules_test

import (
	"errors"
	"testing"

	meissa "repro"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/rules"
	"repro/internal/switchsim"
)

// FuzzParseRules: a rule-set text from outside — a user's -r file — may be
// rejected, with a positioned *p4.ParseError, never panic the reader.
// Seeded with the corpus rule sets.
func FuzzParseRules(f *testing.F) {
	for _, p := range programs.All() {
		f.Add(p.Rules.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := rules.Parse(src)
		if pe := (*p4.ParseError)(nil); err != nil && (!errors.As(err, &pe) || pe.Pos.Line < 1) {
			t.Fatalf("Parse rejected with %T %v, want a positioned *p4.ParseError", err, err)
		}
	})
}

// FuzzRulesAgainstProgram changes one entry of a corpus rule text by one
// of the mutations. Either meissa.New rejects the result with an error
// that carries the entry's rules line, or the rules mean the same to the
// model and to the target: a clean loopback drive of the generated suite
// fails and loses nothing.
func FuzzRulesAgainstProgram(f *testing.F) {
	ps := []*programs.Program{programs.Router(), programs.MTag(), programs.ACL(), programs.GW(1, programs.Set1)}
	for pi := range ps {
		for k := range mutations {
			f.Add(uint8(pi), uint16(3*k), uint8(k), uint16(k))
		}
	}
	f.Fuzz(func(t *testing.T, pi uint8, ei uint16, k uint8, n uint16) {
		p := ps[int(pi)%len(ps)]
		src := p.Rules.String()
		lines, tables := entryLines(src)
		i := int(ei) % len(lines)
		text := mutate(p.Prog, src, lines[i], tables[i], int(k), int(n))
		rs, err := rules.Parse(text)
		if err != nil {
			t.Fatalf("a mutated text does not parse: %v\n%s", err, text)
		}
		opts := meissa.DefaultOptions()
		opts.Parallelism = 1
		sys, err := meissa.New(p.Prog, rs, nil, opts)
		if err != nil {
			if re := (*rules.Error)(nil); !errors.As(err, &re) || re.Pos.Line == 0 {
				t.Fatalf("rejected without a rules line: %v", err)
			}
			return
		}
		gen, err := sys.Generate()
		if err != nil {
			t.Fatal(err)
		}
		target, err := switchsim.Compile(p.Prog, rs, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.TestTarget(target, gen)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || rep.Lost != 0 {
			t.Fatalf("%s, %s of line %d: %s\n%s", p.Name, mutations[int(k)%len(mutations)], lines[i]+1, rep.Summary(), text)
		}
	})
}
