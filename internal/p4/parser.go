package p4

import (
	"fmt"

	"repro/internal/expr"
)

// ParseError is a syntax error with position information.
type ParseError struct {
	Msg string
	Pos Pos
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// parser is a recursive-descent parser for the P4 subset.
type parser struct {
	toks []token
	i    int
}

// Parse parses a complete program from source text.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse parses src, panicking on error. For use in tests and in the
// program corpus generators, whose sources are built programmatically.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) errf(pos Pos, format string, args ...any) error {
	return &ParseError{Msg: fmt.Sprintf(format, args...), Pos: pos}
}

func (p *parser) expectPunct(s string) (token, error) {
	t := p.cur()
	if t.kind != tokPunct || t.text != s {
		return t, p.errf(t.pos, "expected %q, found %s", s, t)
	}
	return p.advance(), nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return t, p.errf(t.pos, "expected identifier, found %s", t)
	}
	return p.advance(), nil
}

func (p *parser) expectKeyword(kw string) (token, error) {
	t := p.cur()
	if t.kind != tokIdent || t.text != kw {
		return t, p.errf(t.pos, "expected %q, found %s", kw, t)
	}
	return p.advance(), nil
}

func (p *parser) atPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && t.text == kw
}

func (p *parser) expectNumber() (uint64, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, p.errf(t.pos, "expected number, found %s", t)
	}
	p.advance()
	return t.val, nil
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	if p.atKeyword("program") {
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		prog.Name = name.text
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}
	for p.cur().kind != tokEOF {
		t := p.cur()
		if t.kind != tokIdent {
			return nil, p.errf(t.pos, "expected declaration, found %s", t)
		}
		switch t.text {
		case "header":
			d, err := p.parseHeader()
			if err != nil {
				return nil, err
			}
			prog.Headers = append(prog.Headers, d)
		case "metadata":
			fs, err := p.parseMetadata()
			if err != nil {
				return nil, err
			}
			prog.Metadata = append(prog.Metadata, fs...)
		case "register":
			d, err := p.parseRegister()
			if err != nil {
				return nil, err
			}
			prog.Registers = append(prog.Registers, d)
		case "action":
			d, err := p.parseAction()
			if err != nil {
				return nil, err
			}
			prog.Actions = append(prog.Actions, d)
		case "table":
			d, err := p.parseTable()
			if err != nil {
				return nil, err
			}
			prog.Tables = append(prog.Tables, d)
		case "parser":
			d, err := p.parseParser()
			if err != nil {
				return nil, err
			}
			prog.Parsers = append(prog.Parsers, d)
		case "control":
			d, err := p.parseControl()
			if err != nil {
				return nil, err
			}
			prog.Controls = append(prog.Controls, d)
		case "pipeline":
			d, err := p.parsePipeline()
			if err != nil {
				return nil, err
			}
			prog.Pipelines = append(prog.Pipelines, d)
		case "topology":
			d, err := p.parseTopology()
			if err != nil {
				return nil, err
			}
			if prog.Topology != nil {
				return nil, p.errf(t.pos, "duplicate topology block")
			}
			prog.Topology = d
		default:
			return nil, p.errf(t.pos, "unknown declaration %q", t.text)
		}
	}
	return prog, nil
}

// bit<N> type.
func (p *parser) parseBitType() (int, error) {
	if _, err := p.expectKeyword("bit"); err != nil {
		return 0, err
	}
	if _, err := p.expectPunct("<"); err != nil {
		return 0, err
	}
	n, err := p.expectNumber()
	if err != nil {
		return 0, err
	}
	if n < 1 || n > 64 {
		return 0, p.errf(p.cur().pos, "bit width %d out of range [1,64]", n)
	}
	if _, err := p.expectPunct(">"); err != nil {
		return 0, err
	}
	return int(n), nil
}

func (p *parser) parseHeader() (*HeaderDecl, error) {
	pos := p.advance().pos // "header"
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	h := &HeaderDecl{Name: name.text, Pos: pos}
	for !p.atPunct("}") {
		w, err := p.parseBitType()
		if err != nil {
			return nil, err
		}
		fn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		h.Fields = append(h.Fields, &FieldDecl{Name: fn.text, Width: w, Pos: fn.pos})
	}
	p.advance() // }
	return h, nil
}

func (p *parser) parseMetadata() ([]*FieldDecl, error) {
	p.advance() // "metadata"
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []*FieldDecl
	for !p.atPunct("}") {
		w, err := p.parseBitType()
		if err != nil {
			return nil, err
		}
		fn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		out = append(out, &FieldDecl{Name: fn.text, Width: w, Pos: fn.pos})
	}
	p.advance()
	return out, nil
}

func (p *parser) parseRegister() (*RegisterDecl, error) {
	pos := p.advance().pos // "register"
	w, err := p.parseBitType()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("["); err != nil {
		return nil, err
	}
	size, err := p.expectNumber()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &RegisterDecl{Name: name.text, Width: w, Size: int(size), Pos: pos}, nil
}

func (p *parser) parseAction() (*ActionDecl, error) {
	pos := p.advance().pos // "action"
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	a := &ActionDecl{Name: name.text, Pos: pos}
	for !p.atPunct(")") {
		w, err := p.parseBitType()
		if err != nil {
			return nil, err
		}
		pn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		a.Params = append(a.Params, &Param{Name: pn.text, Width: w})
		if p.atPunct(",") {
			p.advance()
		}
	}
	p.advance() // )
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	a.Body = body
	return a, nil
}

func (p *parser) parseTable() (*TableDecl, error) {
	pos := p.advance().pos // "table"
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	t := &TableDecl{Name: name.text, Pos: pos}
	for !p.atPunct("}") {
		kw, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		switch kw.text {
		case "key":
			if _, err := p.expectPunct("="); err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("{"); err != nil {
				return nil, err
			}
			for !p.atPunct("}") {
				ref, err := p.parseFieldRef()
				if err != nil {
					return nil, err
				}
				if _, err := p.expectPunct(":"); err != nil {
					return nil, err
				}
				mk, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				var kind MatchKind
				switch mk.text {
				case "exact":
					kind = MatchExact
				case "ternary":
					kind = MatchTernary
				case "lpm":
					kind = MatchLPM
				case "range":
					kind = MatchRange
				default:
					return nil, p.errf(mk.pos, "unknown match kind %q", mk.text)
				}
				if _, err := p.expectPunct(";"); err != nil {
					return nil, err
				}
				t.Keys = append(t.Keys, &TableKey{Field: ref, Match: kind})
			}
			p.advance() // }
		case "actions":
			if _, err := p.expectPunct("="); err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("{"); err != nil {
				return nil, err
			}
			for !p.atPunct("}") {
				an, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				if _, err := p.expectPunct(";"); err != nil {
					return nil, err
				}
				t.Actions = append(t.Actions, an.text)
			}
			p.advance()
		case "default_action":
			if _, err := p.expectPunct("="); err != nil {
				return nil, err
			}
			call, err := p.parseActionCall()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			t.DefaultAction = call
		case "size":
			if _, err := p.expectPunct("="); err != nil {
				return nil, err
			}
			n, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			t.Size = int(n)
		default:
			return nil, p.errf(kw.pos, "unknown table property %q", kw.text)
		}
	}
	p.advance() // }
	return t, nil
}

func (p *parser) parseActionCall() (*ActionCall, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	call := &ActionCall{Name: name.text, Pos: name.pos}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for !p.atPunct(")") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, e)
		if p.atPunct(",") {
			p.advance()
		}
	}
	p.advance() // )
	return call, nil
}

func (p *parser) parseParser() (*ParserDecl, error) {
	pos := p.advance().pos // "parser"
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	d := &ParserDecl{Name: name.text, Pos: pos}
	for !p.atPunct("}") {
		st, err := p.parseParserState()
		if err != nil {
			return nil, err
		}
		d.States = append(d.States, st)
	}
	p.advance()
	return d, nil
}

func (p *parser) parseParserState() (*ParserState, error) {
	if _, err := p.expectKeyword("state"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	st := &ParserState{Name: name.text, Pos: name.pos}
	for !p.atPunct("}") {
		if p.atKeyword("transition") {
			tr, err := p.parseTransition()
			if err != nil {
				return nil, err
			}
			st.Transition = tr
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Body = append(st.Body, s)
	}
	p.advance()
	if st.Transition == nil {
		return nil, p.errf(st.Pos, "parser state %q has no transition", st.Name)
	}
	return st, nil
}

func (p *parser) parseTransition() (*Transition, error) {
	pos := p.advance().pos // "transition"
	tr := &Transition{Pos: pos}
	if p.atKeyword("select") {
		p.advance()
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for !p.atPunct(")") {
			ref, err := p.parseFieldRef()
			if err != nil {
				return nil, err
			}
			tr.Select = append(tr.Select, ref)
			if p.atPunct(",") {
				p.advance()
			}
		}
		p.advance() // )
		if _, err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		for !p.atPunct("}") {
			if p.atKeyword("default") {
				p.advance()
				if _, err := p.expectPunct(":"); err != nil {
					return nil, err
				}
				next, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				if _, err := p.expectPunct(";"); err != nil {
					return nil, err
				}
				tr.Default = next.text
				continue
			}
			var vals []uint64
			if p.atPunct("(") {
				p.advance()
				for !p.atPunct(")") {
					n, err := p.expectNumber()
					if err != nil {
						return nil, err
					}
					vals = append(vals, n)
					if p.atPunct(",") {
						p.advance()
					}
				}
				p.advance()
			} else {
				n, err := p.expectNumber()
				if err != nil {
					return nil, err
				}
				vals = []uint64{n}
			}
			if _, err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			next, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			tr.Cases = append(tr.Cases, &TransitionCase{Values: vals, Next: next.text, Pos: next.pos})
		}
		p.advance() // }
		if tr.Default == "" {
			tr.Default = "reject"
		}
	} else {
		next, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		tr.Default = next.text
	}
	return tr, nil
}

func (p *parser) parseControl() (*ControlDecl, error) {
	pos := p.advance().pos // "control"
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	if _, err := p.expectKeyword("apply"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return &ControlDecl{Name: name.text, Apply: body, Pos: pos}, nil
}

func (p *parser) parsePipeline() (*PipelineDecl, error) {
	pos := p.advance().pos // "pipeline"
	d := &PipelineDecl{Pos: pos, Kind: Ingress}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d.Name = name.text
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.atPunct("}") {
		kw, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct("="); err != nil {
			return nil, err
		}
		val, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		switch kw.text {
		case "parser":
			d.Parser = val.text
		case "control":
			d.Control = val.text
		case "kind":
			switch val.text {
			case "ingress":
				d.Kind = Ingress
			case "egress":
				d.Kind = Egress
			default:
				return nil, p.errf(val.pos, "unknown pipeline kind %q", val.text)
			}
		case "switch":
			d.Switch = val.text
		default:
			return nil, p.errf(kw.pos, "unknown pipeline property %q", kw.text)
		}
	}
	p.advance()
	return d, nil
}

func (p *parser) parseTopology() (*Topology, error) {
	pos := p.advance().pos // "topology"
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	t := &Topology{Pos: pos}
	for !p.atPunct("}") {
		if p.atKeyword("entry") {
			p.advance()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			t.Entries = append(t.Entries, name.text)
			continue
		}
		from, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct("->"); err != nil {
			return nil, err
		}
		to, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		edge := &TopoEdge{From: from.text, To: to.text, Pos: from.pos}
		if p.atKeyword("when") {
			p.advance()
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			edge.Guard = g
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		t.Edges = append(t.Edges, edge)
	}
	p.advance()
	return t, nil
}

// --- Statements ---

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.atPunct("}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	p.advance()
	return out, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, p.errf(t.pos, "expected statement, found %s", t)
	}
	switch t.text {
	case "if":
		return p.parseIf()
	case "extract":
		p.advance()
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		h, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ExtractStmt{Header: h.text, Pos: t.pos}, nil
	case "setValid", "setInvalid":
		p.advance()
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		h, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &SetValidStmt{Header: h.text, Valid: t.text == "setValid", Pos: t.pos}, nil
	case "mark_drop", "drop":
		// Allow both as the built-in drop primitive if no user action
		// shadows the name; user actions named "drop" are resolved later
		// by the typechecker, so emit a CallStmt for "drop" with no args
		// and let resolution decide. "mark_drop" is always the primitive.
		if t.text == "mark_drop" {
			p.advance()
			if _, err := p.expectPunct("("); err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			return &DropStmt{Pos: t.pos}, nil
		}
	case "hash":
		p.advance()
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		dest, err := p.parseFieldRef()
		if err != nil {
			return nil, err
		}
		h := &HashStmt{Dest: dest, Pos: t.pos}
		for p.atPunct(",") {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			h.Inputs = append(h.Inputs, e)
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return h, nil
	case "update_checksum":
		p.advance()
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		hn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cs := &ChecksumStmt{Header: hn.text, Field: "checksum", Pos: t.pos}
		if p.atPunct(",") {
			p.advance()
			fn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cs.Field = fn.text
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return cs, nil
	case "reg_write":
		p.advance()
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		reg, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(","); err != nil {
			return nil, err
		}
		idx, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(","); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &RegWriteStmt{Reg: reg.text, Index: int(idx), Value: val, Pos: t.pos}, nil
	}

	// Table apply: ident.apply();
	if p.peekIsApply() {
		name := p.advance()
		p.advance() // .
		p.advance() // apply
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ApplyStmt{Table: name.text, Pos: name.pos}, nil
	}

	// Assignment, reg_read assignment, or action call.
	ref, err := p.parseFieldRef()
	if err != nil {
		return nil, err
	}
	if p.atPunct("=") {
		p.advance()
		// reg_read special form: lhs = reg_read(reg, idx);
		if p.atKeyword("reg_read") {
			p.advance()
			if _, err := p.expectPunct("("); err != nil {
				return nil, err
			}
			reg, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(","); err != nil {
				return nil, err
			}
			idx, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			return &RegReadStmt{Dest: ref, Reg: reg.text, Index: int(idx), Pos: t.pos}, nil
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: ref, RHS: rhs, Pos: t.pos}, nil
	}
	if p.atPunct("(") && len(ref.Parts) == 1 {
		// Direct action call: name(args);
		call := &ActionCall{Name: ref.Parts[0], Pos: ref.Pos}
		p.advance()
		for !p.atPunct(")") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, e)
			if p.atPunct(",") {
				p.advance()
			}
		}
		p.advance()
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &CallStmt{Call: call, Pos: ref.Pos}, nil
	}
	return nil, p.errf(t.pos, "expected '=' or call after %s", ref)
}

// peekIsApply reports whether the upcoming tokens are `ident . apply (`.
func (p *parser) peekIsApply() bool {
	if p.cur().kind != tokIdent {
		return false
	}
	if p.i+3 >= len(p.toks) {
		return false
	}
	dot := p.toks[p.i+1]
	ap := p.toks[p.i+2]
	par := p.toks[p.i+3]
	return dot.kind == tokPunct && dot.text == "." &&
		ap.kind == tokIdent && ap.text == "apply" &&
		par.kind == tokPunct && par.text == "("
}

func (p *parser) parseIf() (Stmt, error) {
	pos := p.advance().pos // "if"
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Pos: pos}
	if p.atKeyword("else") {
		p.advance()
		if p.atKeyword("if") {
			nested, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = []Stmt{nested}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

// --- Expressions (precedence climbing) ---

// infix is a binary operator token: its precedence (higher binds tighter)
// and the node it builds. Every operator is left-associative.
type infix struct {
	prec int
	node func(l, r Expr, pos Pos) Expr
}

func arithOp(op expr.AOp) func(l, r Expr, pos Pos) Expr {
	return func(l, r Expr, pos Pos) Expr { return &BinExpr{Op: op, L: l, R: r, Pos: pos} }
}

func cmpOp(op expr.CmpOp) func(l, r Expr, pos Pos) Expr {
	return func(l, r Expr, pos Pos) Expr { return &CmpExpr{Op: op, L: l, R: r, Pos: pos} }
}

func logicOp(op expr.LOp) func(l, r Expr, pos Pos) Expr {
	return func(l, r Expr, pos Pos) Expr { return &LogicExpr{Op: op, L: l, R: r, Pos: pos} }
}

// infixes is the expression grammar, lowest precedence first. Unary ! and
// ~ bind tighter than all of them.
var infixes = map[string]infix{
	"||": {1, logicOp(expr.LOr)},
	"&&": {2, logicOp(expr.LAnd)},
	"==": {3, cmpOp(expr.CmpEq)}, "!=": {3, cmpOp(expr.CmpNe)},
	"<": {3, cmpOp(expr.CmpLt)}, ">": {3, cmpOp(expr.CmpGt)},
	"<=": {3, cmpOp(expr.CmpLe)}, ">=": {3, cmpOp(expr.CmpGe)},
	"|":  {4, arithOp(expr.OpOr)},
	"^":  {5, arithOp(expr.OpXor)},
	"&":  {6, arithOp(expr.OpAnd)},
	"<<": {7, arithOp(expr.OpShl)}, ">>": {7, arithOp(expr.OpShr)},
	"+": {8, arithOp(expr.OpAdd)}, "-": {8, arithOp(expr.OpSub)},
	"*": {9, arithOp(expr.OpMul)},
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

// parseBinary parses an expression whose infix operators all bind at
// least as tightly as minPrec.
func (p *parser) parseBinary(minPrec int) (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct {
			return l, nil
		}
		op, ok := infixes[t.text]
		if !ok || op.prec < minPrec {
			return l, nil
		}
		p.advance()
		r, err := p.parseBinary(op.prec + 1)
		if err != nil {
			return nil, err
		}
		l = op.node(l, r, t.pos)
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.atPunct("!") || p.atPunct("~") {
		t := p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{X: x, Pos: t.pos}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		return &NumberExpr{Val: t.val, Pos: t.pos}, nil
	case tokIdent:
		// hdr.isValid() ?
		if p.peekIsIsValid() {
			name := p.advance()
			p.advance() // .
			p.advance() // isValid
			if _, err := p.expectPunct("("); err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &IsValidExpr{Header: name.text, Pos: name.pos}, nil
		}
		return p.parseFieldRef()
	case tokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf(t.pos, "expected expression, found %s", t)
}

func (p *parser) peekIsIsValid() bool {
	if p.cur().kind != tokIdent || p.i+2 >= len(p.toks) {
		return false
	}
	dot := p.toks[p.i+1]
	iv := p.toks[p.i+2]
	return dot.kind == tokPunct && dot.text == "." && iv.kind == tokIdent && iv.text == "isValid"
}

func (p *parser) parseFieldRef() (*FieldRef, error) {
	first, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := &FieldRef{Parts: []string{first.text}, Pos: first.pos}
	for p.atPunct(".") {
		// Do not swallow ".apply" / ".isValid" — handled by callers.
		nxt := p.peek()
		if nxt.kind == tokIdent && (nxt.text == "apply" || nxt.text == "isValid") {
			break
		}
		p.advance()
		part, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref.Parts = append(ref.Parts, part.text)
	}
	return ref, nil
}
