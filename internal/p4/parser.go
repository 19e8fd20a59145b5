package p4

import (
	"fmt"
	"os"

	"repro/internal/expr"
)

// ParseError is a lexical or syntax error with position information.
type ParseError struct {
	Msg string
	Pos Pos
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// failParse rejects the input at pos. The lexer and the parsers stop at
// their first error: it unwinds to Scan, whose catch returns it.
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

// Scanner is a cursor over the tokens of one input file. The P4 grammar is
// its unexported methods; the rules and spec readers build theirs on the
// exported ones, through Scan. So every input file has one tokenizer, one
// number syntax, one comment syntax and one error path: a rejection
// panics with its *ParseError, and the catch in Scan returns it.
type Scanner struct {
	src   string
	toks  []token
	i     int
	lines lines // built once, for the positions the reader reports
}

// Parse parses a complete program from source text.
func Parse(src string) (*Program, error) { return parse("", src) }

// ParseFile parses the program in the file at path. Every position in
// the program, and so every error about it, names the file.
func ParseFile(path string) (*Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(path, string(src))
}

func parse(path, src string) (prog *Program, err error) {
	err = Scan(path, src, func(p *Scanner) { prog = p.parseProgram() })
	return prog, err
}

// Scan tokenizes src, the text of the file at path (empty: none), and
// runs read on a Scanner at its first token. It returns the first
// rejection, lexical or read's own, as a *ParseError.
func Scan(path, src string, read func(*Scanner)) (err error) {
	defer catch(&err)
	read(&Scanner{src: src, toks: lexAll(path, src), lines: newLines(path, src)})
	return nil
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

func (p *Scanner) cur() token  { return p.toks[p.i] }
func (p *Scanner) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func (p *Scanner) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

// AtEOF reports whether every token has been read.
func (p *Scanner) AtEOF() bool { return p.cur().kind == tokEOF }

// Pos returns the position of the current token.
func (p *Scanner) Pos() Pos { return p.pos(p.cur()) }

// pos returns the position of t.
func (p *Scanner) pos(t token) Pos { return p.lines.pos(t.off) }

// at reports whether the current token is the punctuation or identifier s.
func (p *Scanner) at(s string) bool {
	t := p.cur()
	return (t.kind == tokPunct || t.kind == tokIdent) && t.text == s
}

// Accept reads the current token if it is the punctuation or identifier
// s, and reports whether it was.
func (p *Scanner) Accept(s string) bool {
	ok := p.at(s)
	if ok {
		p.advance()
	}
	return ok
}

// Expect reads the punctuation or identifier tokens ss, in order.
func (p *Scanner) Expect(ss ...string) {
	for _, s := range ss {
		if !p.Accept(s) {
			failParse(p.Pos(), "expected %q, found %s", s, p.cur())
		}
	}
}

// Failf rejects the input at the token at mark.
func (p *Scanner) Failf(mark int, format string, args ...any) {
	failParse(p.pos(p.toks[mark]), format, args...)
}

// Expected rejects the current token, which is not what.
func (p *Scanner) Expected(what string) { failParse(p.Pos(), "expected %s, found %s", what, p.cur()) }

// Mark returns the index of the current token, for Text.
func (p *Scanner) Mark() int { return p.i }

// Text returns the source text from the token at mark through the last
// token read.
func (p *Scanner) Text(mark int) string {
	if p.i <= mark {
		return ""
	}
	last := p.toks[p.i-1]
	return p.src[p.toks[mark].off : int(last.off)+len(last.text)]
}

func (p *Scanner) expectIdent() token {
	t := p.cur()
	if t.kind != tokIdent {
		failParse(p.pos(t), "expected identifier, found %s", t)
	}
	return p.advance()
}

// Name reads an identifier.
func (p *Scanner) Name() string { return p.expectIdent().text }

// DottedName reads identifiers joined by ".", such as a field reference.
// Where the tokens touch, as they do in any file the printers write, the
// name is a slice of the source; else the tokens are joined.
func (p *Scanner) DottedName() string {
	mark := p.i
	n := len(p.Name())
	for p.Accept(".") {
		n += 1 + len(p.Name())
	}
	if s := p.Text(mark); len(s) == n {
		return s
	}
	b := make([]byte, 0, n)
	for _, t := range p.toks[mark:p.i] {
		b = append(b, t.text...)
	}
	return string(b)
}

// ExpectNumber reads a numeric literal and returns its value.
func (p *Scanner) ExpectNumber() uint64 {
	t := p.cur()
	if t.kind != tokNumber {
		failParse(p.pos(t), "expected number, found %s", t)
	}
	p.advance()
	return t.val
}

// expectIdentSemi parses "name;": a transition target, a pipeline
// property value or a topology entry.
func (p *Scanner) expectIdentSemi() token {
	next := p.expectIdent()
	p.Expect(";")
	return next
}

// parenList parses a parenthesized, comma-separated list, calling elem
// for each element. A missing separator and a trailing comma are both
// rejected.
func (p *Scanner) parenList(elem func()) {
	p.Expect("(")
	if !p.at(")") {
		elem()
		for p.Accept(",") {
			elem()
		}
	}
	if t := p.cur(); !p.Accept(")") {
		failParse(p.pos(t), `expected "," or ")", found %s`, t)
	}
}

func (p *Scanner) parseProgram() *Program {
	prog := &Program{}
	if p.Accept("program") {
		prog.Name = p.expectIdent().text
		p.Expect(";")
	}
	for !p.AtEOF() {
		t := p.cur()
		if t.kind != tokIdent {
			failParse(p.pos(t), "expected declaration, found %s", t)
		}
		switch t.text {
		case "header":
			p.advance()
			name := p.expectIdent()
			prog.Headers = append(prog.Headers, &HeaderDecl{Name: name.text, Pos: p.pos(t), Fields: p.parseFields()})
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
			p.Expect("{")
			p.Expect("apply")
			body := p.parseBlock()
			p.Expect("}")
			prog.Controls = append(prog.Controls, &ControlDecl{Name: name.text, Apply: body, Pos: p.pos(t)})
		case "pipeline":
			prog.Pipelines = append(prog.Pipelines, p.parsePipeline())
		case "topology":
			d := p.parseTopology()
			if prog.Topology != nil {
				failParse(p.pos(t), "duplicate topology block")
			}
			prog.Topology = d
		default:
			failParse(p.pos(t), "unknown declaration %q", t.text)
		}
	}
	return prog
}

// bit<N> type.
func (p *Scanner) parseBitType() int {
	p.Expect("bit")
	p.Expect("<")
	n := p.ExpectNumber()
	if n < 1 || n > 64 {
		failParse(p.Pos(), "bit width %d out of range [1,64]", n)
	}
	p.Expect(">")
	return int(n)
}

// parseFields parses the braced field list of a header or of metadata.
func (p *Scanner) parseFields() []*FieldDecl {
	p.Expect("{")
	var out []*FieldDecl
	for !p.Accept("}") {
		w := p.parseBitType()
		fn := p.expectIdent()
		p.Expect(";")
		out = append(out, &FieldDecl{Name: fn.text, Width: w, Pos: p.pos(fn)})
	}
	return out
}

func (p *Scanner) parseRegister() *RegisterDecl {
	pos := p.pos(p.advance()) // "register"
	w := p.parseBitType()
	name := p.expectIdent()
	p.Expect("[")
	size := p.ExpectNumber()
	p.Expect("]", ";")
	return &RegisterDecl{Name: name.text, Width: w, Size: int(size), Pos: pos}
}

func (p *Scanner) parseAction() *ActionDecl {
	pos := p.pos(p.advance()) // "action"
	a := &ActionDecl{Name: p.expectIdent().text, Pos: pos}
	p.parenList(func() {
		w := p.parseBitType()
		a.Params = append(a.Params, &Param{Name: p.expectIdent().text, Width: w})
	})
	a.Body = p.parseBlock()
	return a
}

func (p *Scanner) parseTable() *TableDecl {
	pos := p.pos(p.advance()) // "table"
	t := &TableDecl{Name: p.expectIdent().text, Pos: pos}
	p.Expect("{")
	for !p.Accept("}") {
		kw := p.expectIdent()
		switch kw.text {
		case "key":
			p.Expect("=", "{")
			for !p.at("}") {
				ref := p.parseFieldRef()
				p.Expect(":")
				mk := p.expectIdent()
				kind := MatchKind(-1)
				for k := MatchExact; k <= MatchRange; k++ {
					if k.String() == mk.text {
						kind = k
					}
				}
				if kind < 0 {
					failParse(p.pos(mk), "unknown match kind %q", mk.text)
				}
				p.Expect(";")
				t.Keys = append(t.Keys, &TableKey{Field: ref, Match: kind})
			}
			p.advance() // }
		case "actions":
			p.Expect("=", "{")
			for !p.at("}") {
				an := p.expectIdent()
				p.Expect(";")
				t.Actions = append(t.Actions, an.text)
			}
			p.advance()
		case "default_action":
			p.Expect("=")
			name := p.expectIdent()
			t.DefaultAction = &ActionCall{Name: name.text, Pos: p.pos(name), Args: p.parseArgs()}
			p.Expect(";")
		case "size":
			p.Expect("=")
			t.Size = int(p.ExpectNumber())
			p.Expect(";")
		default:
			failParse(p.pos(kw), "unknown table property %q", kw.text)
		}
	}
	return t
}

// parseArgs parses the parenthesized arguments of an action call.
func (p *Scanner) parseArgs() []Expr {
	var args []Expr
	p.parenList(func() { args = append(args, p.Expr()) })
	return args
}

func (p *Scanner) parseParser() *ParserDecl {
	pos := p.pos(p.advance()) // "parser"
	d := &ParserDecl{Name: p.expectIdent().text, Pos: pos}
	p.Expect("{")
	for !p.Accept("}") {
		d.States = append(d.States, p.parseParserState())
	}
	return d
}

func (p *Scanner) parseParserState() *ParserState {
	p.Expect("state")
	name := p.expectIdent()
	p.Expect("{")
	st := &ParserState{Name: name.text, Pos: p.pos(name)}
	for !p.Accept("}") {
		if p.at("transition") {
			st.Transition = p.parseTransition()
			continue
		}
		st.Body = append(st.Body, p.parseStmt())
	}
	if st.Transition == nil {
		failParse(st.Pos, "parser state %q has no transition", st.Name)
	}
	return st
}

func (p *Scanner) parseTransition() *Transition {
	pos := p.pos(p.advance()) // "transition"
	tr := &Transition{Pos: pos}
	if !p.Accept("select") {
		tr.Default = p.expectIdentSemi().text
		return tr
	}
	p.parenList(func() { tr.Select = append(tr.Select, p.parseFieldRef()) })
	p.Expect("{")
	for !p.Accept("}") {
		if p.Accept("default") {
			p.Expect(":")
			tr.Default = p.expectIdentSemi().text
			continue
		}
		var vals []uint64
		if p.at("(") {
			p.parenList(func() { vals = append(vals, p.ExpectNumber()) })
		} else {
			vals = []uint64{p.ExpectNumber()}
		}
		p.Expect(":")
		next := p.expectIdentSemi()
		tr.Cases = append(tr.Cases, &TransitionCase{Values: vals, Next: next.text, Pos: p.pos(next)})
	}
	if tr.Default == "" {
		tr.Default = "reject"
	}
	return tr
}

func (p *Scanner) parsePipeline() *PipelineDecl {
	pos := p.pos(p.advance()) // "pipeline"
	d := &PipelineDecl{Name: p.expectIdent().text, Pos: pos, Kind: Ingress}
	p.Expect("{")
	for !p.Accept("}") {
		kw := p.expectIdent()
		p.Expect("=")
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
				failParse(p.pos(val), "unknown pipeline kind %q", val.text)
			}
		case "switch":
			d.Switch = val.text
		default:
			failParse(p.pos(kw), "unknown pipeline property %q", kw.text)
		}
	}
	return d
}

func (p *Scanner) parseTopology() *Topology {
	pos := p.pos(p.advance()) // "topology"
	p.Expect("{")
	t := &Topology{Pos: pos}
	for !p.Accept("}") {
		if p.Accept("entry") {
			t.Entries = append(t.Entries, p.expectIdentSemi().text)
			continue
		}
		from := p.expectIdent()
		p.Expect("->")
		edge := &TopoEdge{From: from.text, To: p.expectIdent().text, Pos: p.pos(from)}
		if p.Accept("when") {
			edge.Guard = p.Expr()
		}
		p.Expect(";")
		t.Edges = append(t.Edges, edge)
	}
	return t
}

// --- Statements ---

func (p *Scanner) parseBlock() []Stmt {
	p.Expect("{")
	var out []Stmt
	for !p.Accept("}") {
		out = append(out, p.parseStmt())
	}
	return out
}

// parseHeaderArg parses the "(header);" that ends extract, setValid and
// setInvalid.
func (p *Scanner) parseHeaderArg() string {
	p.Expect("(")
	h := p.expectIdent()
	p.Expect(")", ";")
	return h.text
}

func (p *Scanner) parseStmt() Stmt {
	t := p.cur()
	if t.kind != tokIdent {
		failParse(p.pos(t), "expected statement, found %s", t)
	}
	switch t.text {
	case "if":
		return p.parseIf()
	case "extract":
		p.advance()
		return &ExtractStmt{Header: p.parseHeaderArg(), Pos: p.pos(t)}
	case "setValid", "setInvalid":
		p.advance()
		return &SetValidStmt{Header: p.parseHeaderArg(), Valid: t.text == "setValid", Pos: p.pos(t)}
	case "mark_drop":
		// "mark_drop" is always the drop primitive; a bare "drop" is a
		// CallStmt that the typechecker resolves, so a user action may
		// take the name.
		p.advance()
		p.Expect("(", ")", ";")
		return &DropStmt{Pos: p.pos(t)}
	case "hash":
		p.advance()
		p.Expect("(")
		h := &HashStmt{Dest: p.parseFieldRef(), Pos: p.pos(t)}
		for p.Accept(",") {
			h.Inputs = append(h.Inputs, p.Expr())
		}
		p.Expect(")", ";")
		return h
	case "update_checksum":
		p.advance()
		p.Expect("(")
		cs := &ChecksumStmt{Header: p.expectIdent().text, Field: "checksum", Pos: p.pos(t)}
		if p.Accept(",") {
			cs.Field = p.expectIdent().text
		}
		p.Expect(")", ";")
		return cs
	case "reg_write":
		p.advance()
		p.Expect("(")
		reg := p.expectIdent()
		p.Expect(",")
		idx := p.ExpectNumber()
		p.Expect(",")
		val := p.Expr()
		p.Expect(")", ";")
		return &RegWriteStmt{Reg: reg.text, Index: int(idx), Value: val, Pos: p.pos(t)}
	}

	// Table apply: ident.apply();
	if p.ahead(".", "apply", "(") {
		name := p.advance()
		p.advance() // .
		p.advance() // apply
		p.Expect("(", ")", ";")
		return &ApplyStmt{Table: name.text, Pos: p.pos(name)}
	}

	// Assignment, reg_read assignment, or action call.
	ref := p.parseFieldRef()
	if p.Accept("=") {
		// reg_read special form: lhs = reg_read(reg, idx);
		if p.Accept("reg_read") {
			p.Expect("(")
			reg := p.expectIdent()
			p.Expect(",")
			idx := p.ExpectNumber()
			p.Expect(")", ";")
			return &RegReadStmt{Dest: ref, Reg: reg.text, Index: int(idx), Pos: p.pos(t)}
		}
		rhs := p.Expr()
		p.Expect(";")
		return &AssignStmt{LHS: ref, RHS: rhs, Pos: p.pos(t)}
	}
	if p.at("(") && len(ref.Parts) == 1 {
		// Direct action call: name(args);
		call := &ActionCall{Name: ref.Parts[0], Pos: ref.Pos, Args: p.parseArgs()}
		p.Expect(";")
		return &CallStmt{Call: call, Pos: ref.Pos}
	}
	failParse(p.pos(t), "expected '=' or call after %s", ref)
	return nil
}

// ahead reports whether the current token is an identifier and the
// tokens after it read texts, as `ident . apply (` does.
func (p *Scanner) ahead(texts ...string) bool {
	if p.cur().kind != tokIdent || p.i+len(texts) >= len(p.toks) {
		return false
	}
	for k, s := range texts {
		if p.toks[p.i+1+k].text != s {
			return false
		}
	}
	return true
}

func (p *Scanner) parseIf() Stmt {
	pos := p.pos(p.advance()) // "if"
	p.Expect("(")
	cond := p.Expr()
	p.Expect(")")
	st := &IfStmt{Cond: cond, Then: p.parseBlock(), Pos: pos}
	if p.Accept("else") {
		if p.at("if") {
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

// Expr reads an expression.
func (p *Scanner) Expr() Expr { return p.parseBinary(1) }

// parseBinary parses an expression whose infix operators all bind at
// least as tightly as minPrec.
func (p *Scanner) parseBinary(minPrec int) Expr {
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
		l = op.node(l, p.parseBinary(op.prec+1), p.pos(t))
	}
}

func (p *Scanner) parseUnary() Expr {
	if p.at("!") || p.at("~") {
		t := p.advance()
		return &NotExpr{X: p.parseUnary(), Pos: p.pos(t)}
	}
	return p.parsePrimary()
}

func (p *Scanner) parsePrimary() Expr {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.advance()
		return &NumberExpr{Val: t.val, Pos: p.pos(t)}
	case p.ahead(".", "isValid"):
		p.advance()
		p.advance() // .
		p.advance() // isValid
		p.Expect("(", ")")
		return &IsValidExpr{Header: t.text, Pos: p.pos(t)}
	case t.kind == tokIdent:
		return p.parseFieldRef()
	case p.Accept("("):
		e := p.Expr()
		p.Expect(")")
		return e
	}
	failParse(p.pos(t), "expected expression, found %s", t)
	return nil
}

func (p *Scanner) parseFieldRef() *FieldRef {
	first := p.expectIdent()
	ref := &FieldRef{Parts: []string{first.text}, Pos: p.pos(first)}
	for p.at(".") {
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
