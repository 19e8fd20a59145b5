package p4

import (
	"fmt"

	"repro/internal/expr"
)

// ParseError is a lexical or syntax error with position information.
type ParseError struct {
	Msg string
	Pos Pos
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// failParse rejects the input at pos. The lexer and the parser stop at
// their first error: it unwinds to Parse or ParseExpr, whose catch
// returns it.
func failParse(pos Pos, format string, args ...any) {
	panic(&ParseError{Msg: fmt.Sprintf(format, args...), Pos: pos})
}

// catch ends the unwinding of a rejection in an entry point of the
// package and stores it in *err. A panic of any other value is a bug, and
// goes on.
func catch(err *error) {
	switch r := recover().(type) {
	case nil:
	case *ParseError:
		*err = r
	case *CheckError:
		*err = r
	default:
		panic(r)
	}
}

// parser is a recursive-descent parser for the P4 subset.
type parser struct {
	toks []token
	i    int
}

// Parse parses a complete program from source text.
func Parse(src string) (prog *Program, err error) {
	defer catch(&err)
	p := &parser{toks: lexAll(src)}
	return p.parseProgram(), nil
}

// ParseExpr parses src as one expression, every token of which must
// belong to it.
func ParseExpr(src string) (x Expr, err error) {
	defer catch(&err)
	p := &parser{toks: lexAll(src)}
	e := p.parseExpr()
	if t := p.cur(); t.kind != tokEOF {
		failParse(t.pos, "expected end of expression, found %s", t)
	}
	return e, nil
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

// expectPunct consumes the punctuation tokens ss, in order.
func (p *parser) expectPunct(ss ...string) {
	for _, s := range ss {
		if !p.atPunct(s) {
			failParse(p.cur().pos, "expected %q, found %s", s, p.cur())
		}
		p.advance()
	}
}

func (p *parser) expectIdent() token {
	t := p.cur()
	if t.kind != tokIdent {
		failParse(t.pos, "expected identifier, found %s", t)
	}
	return p.advance()
}

func (p *parser) expectKeyword(kw string) {
	if !p.atKeyword(kw) {
		failParse(p.cur().pos, "expected %q, found %s", kw, p.cur())
	}
	p.advance()
}

func (p *parser) atPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && t.text == kw
}

func (p *parser) expectNumber() uint64 {
	t := p.cur()
	if t.kind != tokNumber {
		failParse(t.pos, "expected number, found %s", t)
	}
	p.advance()
	return t.val
}

// expectIdentSemi parses "name;": a transition target, a pipeline
// property value or a topology entry.
func (p *parser) expectIdentSemi() token {
	next := p.expectIdent()
	p.expectPunct(";")
	return next
}

// parenList parses a parenthesized, comma-separated list, calling elem
// for each element. A missing separator and a trailing comma are both
// rejected.
func (p *parser) parenList(elem func()) {
	p.expectPunct("(")
	if !p.atPunct(")") {
		elem()
		for p.atPunct(",") {
			p.advance()
			elem()
		}
	}
	if t := p.cur(); !p.atPunct(")") {
		failParse(t.pos, `expected "," or ")", found %s`, t)
	}
	p.advance()
}

func (p *parser) parseProgram() *Program {
	prog := &Program{}
	if p.atKeyword("program") {
		p.advance()
		prog.Name = p.expectIdent().text
		p.expectPunct(";")
	}
	for p.cur().kind != tokEOF {
		t := p.cur()
		if t.kind != tokIdent {
			failParse(t.pos, "expected declaration, found %s", t)
		}
		switch t.text {
		case "header":
			p.advance()
			name := p.expectIdent()
			prog.Headers = append(prog.Headers, &HeaderDecl{Name: name.text, Pos: t.pos, Fields: p.parseFields()})
		case "metadata":
			p.advance()
			prog.Metadata = append(prog.Metadata, p.parseFields()...)
		case "register":
			prog.Registers = append(prog.Registers, p.parseRegister())
		case "action":
			prog.Actions = append(prog.Actions, p.parseAction())
		case "table":
			prog.Tables = append(prog.Tables, p.parseTable())
		case "parser":
			prog.Parsers = append(prog.Parsers, p.parseParser())
		case "control":
			p.advance()
			name := p.expectIdent()
			p.expectPunct("{")
			p.expectKeyword("apply")
			body := p.parseBlock()
			p.expectPunct("}")
			prog.Controls = append(prog.Controls, &ControlDecl{Name: name.text, Apply: body, Pos: t.pos})
		case "pipeline":
			prog.Pipelines = append(prog.Pipelines, p.parsePipeline())
		case "topology":
			d := p.parseTopology()
			if prog.Topology != nil {
				failParse(t.pos, "duplicate topology block")
			}
			prog.Topology = d
		default:
			failParse(t.pos, "unknown declaration %q", t.text)
		}
	}
	return prog
}

// bit<N> type.
func (p *parser) parseBitType() int {
	p.expectKeyword("bit")
	p.expectPunct("<")
	n := p.expectNumber()
	if n < 1 || n > 64 {
		failParse(p.cur().pos, "bit width %d out of range [1,64]", n)
	}
	p.expectPunct(">")
	return int(n)
}

// parseFields parses the braced field list of a header or of metadata.
func (p *parser) parseFields() []*FieldDecl {
	p.expectPunct("{")
	var out []*FieldDecl
	for !p.atPunct("}") {
		w := p.parseBitType()
		fn := p.expectIdent()
		p.expectPunct(";")
		out = append(out, &FieldDecl{Name: fn.text, Width: w, Pos: fn.pos})
	}
	p.advance()
	return out
}

func (p *parser) parseRegister() *RegisterDecl {
	pos := p.advance().pos // "register"
	w := p.parseBitType()
	name := p.expectIdent()
	p.expectPunct("[")
	size := p.expectNumber()
	p.expectPunct("]", ";")
	return &RegisterDecl{Name: name.text, Width: w, Size: int(size), Pos: pos}
}

func (p *parser) parseAction() *ActionDecl {
	pos := p.advance().pos // "action"
	a := &ActionDecl{Name: p.expectIdent().text, Pos: pos}
	p.parenList(func() {
		w := p.parseBitType()
		a.Params = append(a.Params, &Param{Name: p.expectIdent().text, Width: w})
	})
	a.Body = p.parseBlock()
	return a
}

func (p *parser) parseTable() *TableDecl {
	pos := p.advance().pos // "table"
	t := &TableDecl{Name: p.expectIdent().text, Pos: pos}
	p.expectPunct("{")
	for !p.atPunct("}") {
		kw := p.expectIdent()
		switch kw.text {
		case "key":
			p.expectPunct("=", "{")
			for !p.atPunct("}") {
				ref := p.parseFieldRef()
				p.expectPunct(":")
				mk := p.expectIdent()
				kind := MatchKind(-1)
				for k := MatchExact; k <= MatchRange; k++ {
					if k.String() == mk.text {
						kind = k
					}
				}
				if kind < 0 {
					failParse(mk.pos, "unknown match kind %q", mk.text)
				}
				p.expectPunct(";")
				t.Keys = append(t.Keys, &TableKey{Field: ref, Match: kind})
			}
			p.advance() // }
		case "actions":
			p.expectPunct("=", "{")
			for !p.atPunct("}") {
				an := p.expectIdent()
				p.expectPunct(";")
				t.Actions = append(t.Actions, an.text)
			}
			p.advance()
		case "default_action":
			p.expectPunct("=")
			name := p.expectIdent()
			t.DefaultAction = &ActionCall{Name: name.text, Pos: name.pos, Args: p.parseArgs()}
			p.expectPunct(";")
		case "size":
			p.expectPunct("=")
			t.Size = int(p.expectNumber())
			p.expectPunct(";")
		default:
			failParse(kw.pos, "unknown table property %q", kw.text)
		}
	}
	p.advance() // }
	return t
}

// parseArgs parses the parenthesized arguments of an action call.
func (p *parser) parseArgs() []Expr {
	var args []Expr
	p.parenList(func() { args = append(args, p.parseExpr()) })
	return args
}

func (p *parser) parseParser() *ParserDecl {
	pos := p.advance().pos // "parser"
	d := &ParserDecl{Name: p.expectIdent().text, Pos: pos}
	p.expectPunct("{")
	for !p.atPunct("}") {
		d.States = append(d.States, p.parseParserState())
	}
	p.advance()
	return d
}

func (p *parser) parseParserState() *ParserState {
	p.expectKeyword("state")
	name := p.expectIdent()
	p.expectPunct("{")
	st := &ParserState{Name: name.text, Pos: name.pos}
	for !p.atPunct("}") {
		if p.atKeyword("transition") {
			st.Transition = p.parseTransition()
			continue
		}
		st.Body = append(st.Body, p.parseStmt())
	}
	p.advance()
	if st.Transition == nil {
		failParse(st.Pos, "parser state %q has no transition", st.Name)
	}
	return st
}

func (p *parser) parseTransition() *Transition {
	pos := p.advance().pos // "transition"
	tr := &Transition{Pos: pos}
	if !p.atKeyword("select") {
		tr.Default = p.expectIdentSemi().text
		return tr
	}
	p.advance()
	p.parenList(func() { tr.Select = append(tr.Select, p.parseFieldRef()) })
	p.expectPunct("{")
	for !p.atPunct("}") {
		if p.atKeyword("default") {
			p.advance()
			p.expectPunct(":")
			tr.Default = p.expectIdentSemi().text
			continue
		}
		var vals []uint64
		if p.atPunct("(") {
			p.parenList(func() { vals = append(vals, p.expectNumber()) })
		} else {
			vals = []uint64{p.expectNumber()}
		}
		p.expectPunct(":")
		next := p.expectIdentSemi()
		tr.Cases = append(tr.Cases, &TransitionCase{Values: vals, Next: next.text, Pos: next.pos})
	}
	p.advance() // }
	if tr.Default == "" {
		tr.Default = "reject"
	}
	return tr
}

func (p *parser) parsePipeline() *PipelineDecl {
	pos := p.advance().pos // "pipeline"
	d := &PipelineDecl{Name: p.expectIdent().text, Pos: pos, Kind: Ingress}
	p.expectPunct("{")
	for !p.atPunct("}") {
		kw := p.expectIdent()
		p.expectPunct("=")
		val := p.expectIdentSemi()
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
				failParse(val.pos, "unknown pipeline kind %q", val.text)
			}
		case "switch":
			d.Switch = val.text
		default:
			failParse(kw.pos, "unknown pipeline property %q", kw.text)
		}
	}
	p.advance()
	return d
}

func (p *parser) parseTopology() *Topology {
	pos := p.advance().pos // "topology"
	p.expectPunct("{")
	t := &Topology{Pos: pos}
	for !p.atPunct("}") {
		if p.atKeyword("entry") {
			p.advance()
			t.Entries = append(t.Entries, p.expectIdentSemi().text)
			continue
		}
		from := p.expectIdent()
		p.expectPunct("->")
		edge := &TopoEdge{From: from.text, To: p.expectIdent().text, Pos: from.pos}
		if p.atKeyword("when") {
			p.advance()
			edge.Guard = p.parseExpr()
		}
		p.expectPunct(";")
		t.Edges = append(t.Edges, edge)
	}
	p.advance()
	return t
}

// --- Statements ---

func (p *parser) parseBlock() []Stmt {
	p.expectPunct("{")
	var out []Stmt
	for !p.atPunct("}") {
		out = append(out, p.parseStmt())
	}
	p.advance()
	return out
}

// parseHeaderArg parses the "(header);" that ends extract, setValid and
// setInvalid.
func (p *parser) parseHeaderArg() string {
	p.expectPunct("(")
	h := p.expectIdent()
	p.expectPunct(")", ";")
	return h.text
}

func (p *parser) parseStmt() Stmt {
	t := p.cur()
	if t.kind != tokIdent {
		failParse(t.pos, "expected statement, found %s", t)
	}
	switch t.text {
	case "if":
		return p.parseIf()
	case "extract":
		p.advance()
		return &ExtractStmt{Header: p.parseHeaderArg(), Pos: t.pos}
	case "setValid", "setInvalid":
		p.advance()
		return &SetValidStmt{Header: p.parseHeaderArg(), Valid: t.text == "setValid", Pos: t.pos}
	case "mark_drop":
		// "mark_drop" is always the drop primitive; a bare "drop" is a
		// CallStmt that the typechecker resolves, so a user action may
		// take the name.
		p.advance()
		p.expectPunct("(", ")", ";")
		return &DropStmt{Pos: t.pos}
	case "hash":
		p.advance()
		p.expectPunct("(")
		h := &HashStmt{Dest: p.parseFieldRef(), Pos: t.pos}
		for p.atPunct(",") {
			p.advance()
			h.Inputs = append(h.Inputs, p.parseExpr())
		}
		p.expectPunct(")", ";")
		return h
	case "update_checksum":
		p.advance()
		p.expectPunct("(")
		cs := &ChecksumStmt{Header: p.expectIdent().text, Field: "checksum", Pos: t.pos}
		if p.atPunct(",") {
			p.advance()
			cs.Field = p.expectIdent().text
		}
		p.expectPunct(")", ";")
		return cs
	case "reg_write":
		p.advance()
		p.expectPunct("(")
		reg := p.expectIdent()
		p.expectPunct(",")
		idx := p.expectNumber()
		p.expectPunct(",")
		val := p.parseExpr()
		p.expectPunct(")", ";")
		return &RegWriteStmt{Reg: reg.text, Index: int(idx), Value: val, Pos: t.pos}
	}

	// Table apply: ident.apply();
	if p.peekIsApply() {
		name := p.advance()
		p.advance() // .
		p.advance() // apply
		p.expectPunct("(", ")", ";")
		return &ApplyStmt{Table: name.text, Pos: name.pos}
	}

	// Assignment, reg_read assignment, or action call.
	ref := p.parseFieldRef()
	if p.atPunct("=") {
		p.advance()
		// reg_read special form: lhs = reg_read(reg, idx);
		if p.atKeyword("reg_read") {
			p.advance()
			p.expectPunct("(")
			reg := p.expectIdent()
			p.expectPunct(",")
			idx := p.expectNumber()
			p.expectPunct(")", ";")
			return &RegReadStmt{Dest: ref, Reg: reg.text, Index: int(idx), Pos: t.pos}
		}
		rhs := p.parseExpr()
		p.expectPunct(";")
		return &AssignStmt{LHS: ref, RHS: rhs, Pos: t.pos}
	}
	if p.atPunct("(") && len(ref.Parts) == 1 {
		// Direct action call: name(args);
		call := &ActionCall{Name: ref.Parts[0], Pos: ref.Pos, Args: p.parseArgs()}
		p.expectPunct(";")
		return &CallStmt{Call: call, Pos: ref.Pos}
	}
	failParse(t.pos, "expected '=' or call after %s", ref)
	return nil
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

func (p *parser) parseIf() Stmt {
	pos := p.advance().pos // "if"
	p.expectPunct("(")
	cond := p.parseExpr()
	p.expectPunct(")")
	st := &IfStmt{Cond: cond, Then: p.parseBlock(), Pos: pos}
	if p.atKeyword("else") {
		p.advance()
		if p.atKeyword("if") {
			st.Else = []Stmt{p.parseIf()}
		} else {
			st.Else = p.parseBlock()
		}
	}
	return st
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

func (p *parser) parseExpr() Expr { return p.parseBinary(1) }

// parseBinary parses an expression whose infix operators all bind at
// least as tightly as minPrec.
func (p *parser) parseBinary(minPrec int) Expr {
	l := p.parseUnary()
	for {
		t := p.cur()
		if t.kind != tokPunct {
			return l
		}
		op, ok := infixes[t.text]
		if !ok || op.prec < minPrec {
			return l
		}
		p.advance()
		l = op.node(l, p.parseBinary(op.prec+1), t.pos)
	}
}

func (p *parser) parseUnary() Expr {
	if p.atPunct("!") || p.atPunct("~") {
		t := p.advance()
		return &NotExpr{X: p.parseUnary(), Pos: t.pos}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() Expr {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.advance()
		return &NumberExpr{Val: t.val, Pos: t.pos}
	case p.peekIsIsValid():
		p.advance()
		p.advance() // .
		p.advance() // isValid
		p.expectPunct("(", ")")
		return &IsValidExpr{Header: t.text, Pos: t.pos}
	case t.kind == tokIdent:
		return p.parseFieldRef()
	case p.atPunct("("):
		p.advance()
		e := p.parseExpr()
		p.expectPunct(")")
		return e
	}
	failParse(t.pos, "expected expression, found %s", t)
	return nil
}

// peekIsIsValid reports whether the upcoming tokens are `ident . isValid`.
func (p *parser) peekIsIsValid() bool {
	if p.cur().kind != tokIdent || p.i+2 >= len(p.toks) {
		return false
	}
	dot := p.toks[p.i+1]
	iv := p.toks[p.i+2]
	return dot.kind == tokPunct && dot.text == "." && iv.kind == tokIdent && iv.text == "isValid"
}

func (p *parser) parseFieldRef() *FieldRef {
	first := p.expectIdent()
	ref := &FieldRef{Parts: []string{first.text}, Pos: first.pos}
	for p.atPunct(".") {
		// Do not swallow ".apply" / ".isValid" — handled by callers.
		nxt := p.peek()
		if nxt.kind == tokIdent && (nxt.text == "apply" || nxt.text == "isValid") {
			break
		}
		p.advance()
		ref.Parts = append(ref.Parts, p.expectIdent().text)
	}
	return ref
}
