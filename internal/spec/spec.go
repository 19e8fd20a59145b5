// Package spec implements the LPI-style declarative intent language Meissa
// takes as input (Figure 2: "Developers express their high-level intents
// with LPI"). A spec constrains the input packets of interest (assume
// clauses — the "base constraints" plus "test-case-specific constraints"
// of §6) and states the expected end-to-end behaviour (expect clauses):
//
//	spec nat_ingress_tcp {
//	  assume eth.etherType == 0x0800;
//	  assume ipv4.protocol == 6;
//	  expect forwarded;
//	  expect valid(innerTcp);
//	  expect innerTcp.ackno == in.tcp.ackno;
//	  expect ipv4.dstAddr == 192.168.0.1;
//	}
//
// Expect field expressions may reference `in.<header>.<field>` for the
// input packet's value — "the received packet should contain the same
// headers as the input, except that certain IP address and port number are
// updated" (§6).
//
// Both kinds of clause mean what the model means: they are translated by
// p4.Env.Bool, the CFG encoder's translator, and an expect is evaluated
// by expr.EvalBool. Arithmetic therefore wraps at the operands' field
// widths (`in.ipv4.ttl - 1` is 255 for a TTL of 0), a literal takes the
// width of the field it meets, and a shift by 64 or more yields 0.
package spec

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/packet"
)

// ExpectKind classifies an expectation.
type ExpectKind int

// Expectation kinds.
const (
	ExpectForwarded ExpectKind = iota
	ExpectDropped
	ExpectValid
	ExpectInvalid
	ExpectField
)

// Expectation is one expected property of the output.
type Expectation struct {
	Kind   ExpectKind
	Header string  // for ExpectValid / ExpectInvalid
	Cond   p4.Expr // for ExpectField
	Text   string  // source text, for reports
}

// Spec is a parsed intent.
type Spec struct {
	Name    string
	Assumes []p4.Expr
	Expects []Expectation
}

// Parse reads one or more specs from text. It reads with p4's tokenizer:
// names are identifiers, layout is free, the ";" after a clause may be
// left out, "#", "//" and "/* */" start comments, and a clause body is a
// p4 expression. An error names its input "spec".
func Parse(src string) ([]*Spec, error) { return parse("spec", src) }

// ParseFile reads the specs in the file at path; every error names the
// file.
func ParseFile(path string) ([]*Spec, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(path, string(src))
}

// MustParseOne parses a text holding exactly one spec, panicking
// otherwise.
func MustParseOne(src string) *Spec {
	specs, err := Parse(src)
	if err == nil && len(specs) != 1 {
		err = fmt.Errorf("spec: expected exactly one spec, got %d", len(specs))
	}
	if err != nil {
		panic(err)
	}
	return specs[0]
}

func parse(path, src string) (specs []*Spec, err error) {
	err = p4.Scan(path, src, func(r *p4.Scanner) {
		for !r.AtEOF() {
			open := r.Mark()
			r.Expect("spec")
			s := &Spec{Name: r.Name()}
			r.Expect("{")
			for ended := true; !r.Accept("}"); ended = r.Accept(";") {
				switch {
				case r.Accept("assume"):
					s.Assumes = append(s.Assumes, r.Expr())
				case r.Accept("expect"):
					s.Expects = append(s.Expects, readExpect(r))
				case r.AtEOF():
					r.Failf(open, "unterminated spec %s", s.Name)
				case !ended:
					r.Expected(`";"`)
				default:
					r.Expected(`"assume", "expect" or "}"`)
				}
			}
			specs = append(specs, s)
		}
	})
	if err != nil {
		return nil, err
	}
	return specs, nil
}

// readExpect reads an expect clause's body: forwarded, dropped,
// valid(header), invalid(header) or a condition.
func readExpect(r *p4.Scanner) Expectation {
	from := r.Mark()
	e := Expectation{Kind: ExpectField, Cond: r.Expr()}
	switch word := r.Text(from); {
	case word == "forwarded":
		e = Expectation{Kind: ExpectForwarded}
	case word == "dropped":
		e = Expectation{Kind: ExpectDropped}
	case (word == "valid" || word == "invalid") && r.Accept("("):
		e = Expectation{Kind: ExpectValid, Header: r.Name()}
		if word == "invalid" {
			e.Kind = ExpectInvalid
		}
		r.Expect(")")
	}
	e.Text = r.Text(from)
	return e
}

// --- Translation of assume clauses to solver constraints ---

// AssumeConstraints translates the spec's assume clauses to CFG boolean
// expressions over input variables, for seeding test generation.
func (s *Spec) AssumeConstraints(prog *p4.Program) ([]expr.Bool, error) {
	env := p4.NewEnv(prog)
	out := make([]expr.Bool, 0, len(s.Assumes))
	for _, a := range s.Assumes {
		b, err := env.Bool(a, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// --- Checking expectations against concrete packets ---

// Violation describes one failed expectation.
type Violation struct {
	Spec   string
	Expect string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("spec %s: expect %s: %s", v.Spec, v.Expect, v.Detail)
}

// Check evaluates the spec's expectations against an input/output packet
// pair. Output nil means the packet was dropped (or absent). It returns
// all violations (empty means the test passed).
func (s *Spec) Check(prog *p4.Program, in, out *packet.Packet) []Violation {
	var vs []Violation
	add := func(e Expectation, detail string) {
		vs = append(vs, Violation{Spec: s.Name, Expect: e.Text, Detail: detail})
	}
	var env *p4.Env
	var st expr.State
	for _, e := range s.Expects {
		switch e.Kind {
		case ExpectForwarded:
			if out == nil {
				add(e, "packet was dropped or absent")
			}
		case ExpectDropped:
			if out != nil {
				add(e, "packet was forwarded")
			}
		case ExpectValid:
			if out == nil {
				add(e, "packet was dropped or absent")
			} else if !out.Has(e.Header) {
				add(e, fmt.Sprintf("header %s not present in output", e.Header))
			}
		case ExpectInvalid:
			if out != nil && out.Has(e.Header) {
				add(e, fmt.Sprintf("header %s unexpectedly present in output", e.Header))
			}
		case ExpectField:
			if out == nil {
				add(e, "packet was dropped or absent")
				continue
			}
			if st == nil {
				env, st = p4.NewEnv(prog), checkState(prog, in, out)
			}
			if detail := evalExpect(env, e.Cond, st); detail != "" {
				add(e, detail)
			}
		}
	}
	return vs
}

// inPrefix marks the input packet's copy of a variable in the state an
// expect is evaluated over.
const inPrefix = "in."

// checkState is the state expects are evaluated over: every program
// header starts invalid, the output packet is loaded over that, and the
// input packet's fields are added under inPrefix.
func checkState(prog *p4.Program, in, out *packet.Packet) expr.State {
	st := expr.State{}
	for _, h := range prog.Headers {
		st[p4.ValidVar(h.Name)] = 0
	}
	out.ToState(st)
	for _, h := range in.Headers {
		for f, v := range h.Fields {
			st[inPrefix+p4.HeaderFieldVar(h.Name, f)] = v
		}
	}
	return st
}

// evalExpect evaluates an expect condition over st. It returns "" when the
// condition holds, and otherwise what failed.
func evalExpect(env *p4.Env, cond p4.Expr, st expr.State) string {
	input := func(r *p4.FieldRef) (expr.Arith, bool) {
		if len(r.Parts) != 3 || r.Parts[0] != "in" {
			return nil, false
		}
		v, w, err := env.ResolveRef(&p4.FieldRef{Parts: r.Parts[1:], Pos: r.Pos})
		if err != nil {
			return nil, false
		}
		return expr.V(inPrefix+v, w), true
	}
	b, err := env.Bool(cond, input)
	if err != nil {
		return err.Error()
	}
	ok, err := expr.EvalBool(b, st)
	var unbound expr.ErrUnbound
	switch {
	case errors.As(err, &unbound):
		if v, in := strings.CutPrefix(string(unbound.Var), inPrefix); in {
			return "input has no " + v
		}
		return "output has no " + string(unbound.Var)
	case err != nil:
		return err.Error()
	case ok:
		return ""
	}
	return describeMismatch(b, st)
}

// describeMismatch says why a condition that evaluated false failed: the
// values of a comparison's two sides.
func describeMismatch(b expr.Bool, st expr.State) string {
	if c, ok := b.(expr.Cmp); ok {
		l, el := expr.EvalArith(c.L, st)
		r, er := expr.EvalArith(c.R, st)
		if el == nil && er == nil {
			return fmt.Sprintf("left = %d, right = %d", l, r)
		}
	}
	return "condition is false"
}
