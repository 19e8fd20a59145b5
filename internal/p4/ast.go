// Package p4 implements the frontend of Meissa: a P4-16-subset language
// with headers, parsers, match-action tables, actions, control blocks,
// multi-pipeline declarations and an explicit pipeline topology (traffic
// manager policy), as required by §4 of the paper ("Operators claim the
// code and table entry set of each pipeline in the specification. They
// also depict topology among pipelines and traffic manager policies.").
//
// The subset covers every construct Meissa's algorithms touch: branching,
// exact/ternary/LPM/range matches, header validity (setValid/setInvalid),
// checksum updates, hashing, constant-index registers, and drops.
package p4

import (
	"fmt"

	"repro/internal/expr"
)

// Pos is a source position for diagnostics: the input file, when its
// reader was given one, and a line and column counted from 1.
type Pos struct {
	Path      string
	Line, Col int
}

// String prints path:line:col, or line:col with no path.
func (p Pos) String() string {
	if p.Path == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.Path, p.Line, p.Col)
}

// Program is a parsed data plane program. A program may span multiple
// pipelines and multiple switches, wired together by its Topology.
type Program struct {
	Name      string
	Headers   []*HeaderDecl
	Metadata  []*FieldDecl
	Registers []*RegisterDecl
	Actions   []*ActionDecl
	Tables    []*TableDecl
	Parsers   []*ParserDecl
	Controls  []*ControlDecl
	Pipelines []*PipelineDecl
	Topology  *Topology
}

// Header returns the header declaration by name, or nil.
func (p *Program) Header(name string) *HeaderDecl {
	for _, h := range p.Headers {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// Action returns the action declaration by name, or nil.
func (p *Program) Action(name string) *ActionDecl {
	for _, a := range p.Actions {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Table returns the table declaration by name, or nil.
func (p *Program) Table(name string) *TableDecl {
	for _, t := range p.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Parser returns the parser declaration by name, or nil.
func (p *Program) Parser(name string) *ParserDecl {
	for _, d := range p.Parsers {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Control returns the control declaration by name, or nil.
func (p *Program) Control(name string) *ControlDecl {
	for _, c := range p.Controls {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Pipeline returns the pipeline declaration by name, or nil.
func (p *Program) Pipeline(name string) *PipelineDecl {
	for _, pl := range p.Pipelines {
		if pl.Name == name {
			return pl
		}
	}
	return nil
}

// Register returns the register declaration by name, or nil.
func (p *Program) Register(name string) *RegisterDecl {
	for _, r := range p.Registers {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Switches returns the distinct switch names referenced by pipelines, in
// declaration order. Programs that never mention a switch have a single
// implicit switch "".
func (p *Program) Switches() []string {
	var out []string
	seen := map[string]bool{}
	for _, pl := range p.Pipelines {
		if !seen[pl.Switch] {
			seen[pl.Switch] = true
			out = append(out, pl.Switch)
		}
	}
	return out
}

// HeaderDecl declares a packet header type with ordered bit fields.
type HeaderDecl struct {
	Name   string
	Fields []*FieldDecl
	Pos    Pos
}

// Field returns the field by name, or nil.
func (h *HeaderDecl) Field(name string) *FieldDecl {
	for _, f := range h.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Bits returns the total header size in bits.
func (h *HeaderDecl) Bits() int {
	n := 0
	for _, f := range h.Fields {
		n += f.Width
	}
	return n
}

// FieldDecl declares a single bit<N> field.
type FieldDecl struct {
	Name  string
	Width int
	Pos   Pos
}

// RegisterDecl declares a register array: register bit<W> name[size];
type RegisterDecl struct {
	Name  string
	Width int
	Size  int
	Pos   Pos
}

// ActionDecl declares a parameterized action.
type ActionDecl struct {
	Name   string
	Params []*Param
	Body   []Stmt
	Pos    Pos
}

// Param is an action parameter.
type Param struct {
	Name  string
	Width int
}

// MatchKind is a table key match kind.
type MatchKind int

// Match kinds supported by the frontend.
const (
	MatchExact MatchKind = iota
	MatchTernary
	MatchLPM
	MatchRange
)

func (m MatchKind) String() string {
	switch m {
	case MatchExact:
		return "exact"
	case MatchTernary:
		return "ternary"
	case MatchLPM:
		return "lpm"
	case MatchRange:
		return "range"
	}
	return "?"
}

// TableKey is one key of a match-action table.
type TableKey struct {
	Field *FieldRef
	Match MatchKind
}

// TableDecl declares a match-action table.
type TableDecl struct {
	Name          string
	Keys          []*TableKey
	Actions       []string
	DefaultAction *ActionCall
	Size          int
	Pos           Pos
}

// ActionCall is an action invocation with concrete arguments.
type ActionCall struct {
	Name string
	Args []Expr
	Pos  Pos
}

// ParserDecl declares a parser state machine.
type ParserDecl struct {
	Name   string
	States []*ParserState
	Pos    Pos
}

// State returns a parser state by name, or nil.
func (p *ParserDecl) State(name string) *ParserState {
	for _, s := range p.States {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// ParserState is one state of a parser.
type ParserState struct {
	Name       string
	Body       []Stmt // extract(...) and assignments
	Transition *Transition
	Pos        Pos
}

// Transition is a parser transition: either unconditional, or a select
// over one or more fields.
type Transition struct {
	Select  []*FieldRef // empty means unconditional transition to Default
	Cases   []*TransitionCase
	Default string // state name, "accept", or "reject"
	Pos     Pos
}

// TransitionCase maps select values to a next state.
type TransitionCase struct {
	Values []uint64 // one value per select field
	Next   string
	Pos    Pos
}

// ControlDecl declares a control block's apply body.
type ControlDecl struct {
	Name  string
	Apply []Stmt
	Pos   Pos
}

// PipelineKind tags a pipeline as ingress or egress.
type PipelineKind int

// Pipeline kinds.
const (
	Ingress PipelineKind = iota
	Egress
)

func (k PipelineKind) String() string {
	if k == Ingress {
		return "ingress"
	}
	return "egress"
}

// PipelineDecl binds a parser and a control into a named pipeline, on a
// named switch. Egress pipelines have no parser.
type PipelineDecl struct {
	Name    string
	Kind    PipelineKind
	Parser  string // may be empty for egress pipelines
	Control string
	Switch  string
	Pos     Pos
}

// Topology is the operator-declared pipeline graph, capturing traffic
// manager policies and inter-switch links (Figure 1 of the paper).
type Topology struct {
	Entries []string
	Edges   []*TopoEdge
	Pos     Pos
}

// TopoEdge routes packets from one pipeline to another (or to "exit") when
// the guard holds. A nil guard means always.
type TopoEdge struct {
	From, To string // pipeline names; To may be "exit"
	Guard    Expr
	Pos      Pos
}

// --- Statements ---

// Stmt is a statement in an action body, control apply block or parser
// state.
type Stmt interface {
	stmt()
	StmtPos() Pos
}

// AssignStmt assigns an expression to a field lvalue.
type AssignStmt struct {
	LHS *FieldRef
	RHS Expr
	Pos Pos
}

// IfStmt branches on a boolean condition.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// ApplyStmt applies a match-action table.
type ApplyStmt struct {
	Table string
	Pos   Pos
}

// CallStmt invokes an action directly (outside a table).
type CallStmt struct {
	Call *ActionCall
	Pos  Pos
}

// ExtractStmt extracts a header in a parser state.
type ExtractStmt struct {
	Header string
	Pos    Pos
}

// SetValidStmt sets or clears a header's validity bit.
type SetValidStmt struct {
	Header string
	Valid  bool
	Pos    Pos
}

// DropStmt marks the packet to be dropped.
type DropStmt struct {
	Pos Pos
}

// HashStmt computes a hash of the given fields into Dest
// (hash(dest, f1, f2, ...)).
type HashStmt struct {
	Dest   *FieldRef
	Inputs []Expr
	Pos    Pos
}

// ChecksumStmt recomputes the checksum field of a header
// (update_checksum(hdr) — dest field must be named "checksum" or given).
type ChecksumStmt struct {
	Header string
	Field  string // checksum field within the header
	Pos    Pos
}

// RegReadStmt reads register Reg[Index] into Dest. Index must be constant
// (§4: "Meissa can only model registers when their indexes are constant").
type RegReadStmt struct {
	Dest  *FieldRef
	Reg   string
	Index int
	Pos   Pos
}

// RegWriteStmt writes Value into Reg[Index].
type RegWriteStmt struct {
	Reg   string
	Index int
	Value Expr
	Pos   Pos
}

func (*AssignStmt) stmt()   {}
func (*IfStmt) stmt()       {}
func (*ApplyStmt) stmt()    {}
func (*CallStmt) stmt()     {}
func (*ExtractStmt) stmt()  {}
func (*SetValidStmt) stmt() {}
func (*DropStmt) stmt()     {}
func (*HashStmt) stmt()     {}
func (*ChecksumStmt) stmt() {}
func (*RegReadStmt) stmt()  {}
func (*RegWriteStmt) stmt() {}

func (s *AssignStmt) StmtPos() Pos   { return s.Pos }
func (s *IfStmt) StmtPos() Pos       { return s.Pos }
func (s *ApplyStmt) StmtPos() Pos    { return s.Pos }
func (s *CallStmt) StmtPos() Pos     { return s.Pos }
func (s *ExtractStmt) StmtPos() Pos  { return s.Pos }
func (s *SetValidStmt) StmtPos() Pos { return s.Pos }
func (s *DropStmt) StmtPos() Pos     { return s.Pos }
func (s *HashStmt) StmtPos() Pos     { return s.Pos }
func (s *ChecksumStmt) StmtPos() Pos { return s.Pos }
func (s *RegReadStmt) StmtPos() Pos  { return s.Pos }
func (s *RegWriteStmt) StmtPos() Pos { return s.Pos }

// --- Expressions ---

// Expr is a source-level expression.
type Expr interface {
	expr()
	ExprPos() Pos
}

// FieldRef references a header or metadata field: "ipv4.dstAddr",
// "meta.egress_port", or an action parameter (single component).
type FieldRef struct {
	Parts []string // e.g. ["ipv4","dstAddr"] or ["meta","x"] or ["port"]
	Pos   Pos
}

func (f *FieldRef) String() string {
	out := ""
	for i, p := range f.Parts {
		if i > 0 {
			out += "."
		}
		out += p
	}
	return out
}

// NumberExpr is an integer literal. Dotted-quad IPv4 literals and
// colon-separated MAC literals are folded to their numeric value by the
// lexer.
type NumberExpr struct {
	Val uint64
	Pos Pos
}

// BinExpr is a binary arithmetic expression. The operators are the CFG
// language's own, so the parser is the only place a token gets a meaning;
// each operator's String is its source token.
type BinExpr struct {
	Op   expr.AOp
	L, R Expr
	Pos  Pos
}

// CmpExpr is a comparison.
type CmpExpr struct {
	Op   expr.CmpOp
	L, R Expr
	Pos  Pos
}

// LogicExpr is a boolean connective.
type LogicExpr struct {
	Op   expr.LOp
	L, R Expr
	Pos  Pos
}

// NotExpr is ! or ~: negation in a condition, bitwise complement in a
// value.
type NotExpr struct {
	X   Expr
	Pos Pos
}

// IsValidExpr tests header validity: hdr.isValid().
type IsValidExpr struct {
	Header string
	Pos    Pos
}

func (*FieldRef) expr()    {}
func (*NumberExpr) expr()  {}
func (*BinExpr) expr()     {}
func (*CmpExpr) expr()     {}
func (*LogicExpr) expr()   {}
func (*NotExpr) expr()     {}
func (*IsValidExpr) expr() {}

func (e *FieldRef) ExprPos() Pos    { return e.Pos }
func (e *NumberExpr) ExprPos() Pos  { return e.Pos }
func (e *BinExpr) ExprPos() Pos     { return e.Pos }
func (e *CmpExpr) ExprPos() Pos     { return e.Pos }
func (e *LogicExpr) ExprPos() Pos   { return e.Pos }
func (e *NotExpr) ExprPos() Pos     { return e.Pos }
func (e *IsValidExpr) ExprPos() Pos { return e.Pos }
