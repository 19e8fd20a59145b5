package p4

import (
	"fmt"
	"math"
	"strings"
)

// tokKind enumerates token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokPunct // single- or multi-char punctuation/operator
)

// token is a lexical token.
type token struct {
	kind tokKind
	text string // the source text; for a tokNumber, as written
	val  uint64 // for tokNumber
	pos  Pos
	off  int // byte offset of text in the source
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokNumber:
		return fmt.Sprintf("number(%d)", t.val)
	default:
		return t.text
	}
}

// lexer tokenizes the source of one input file.
type lexer struct {
	path string
	src  string
	off  int
	line int
	col  int
}

func (l *lexer) pos() Pos { return Pos{Path: l.path, Line: l.line, Col: l.col} }

// peek returns the byte n past the current one, or 0 past the end.
func (l *lexer) peek(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skipSpaceAndComments skips white space and comments: "//" or "#" to the
// end of the line, and "/* */".
func (l *lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek(0)
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek(1) == '/' || c == '#':
			for l.off < len(l.src) && l.peek(0) != '\n' {
				l.advance()
			}
		case c == '/' && l.peek(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek(0) == '*' && l.peek(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				failParse(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '@' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// multiPunct is the multi-character punctuation, longest first: the mask
// operator "&&&" before "&&". ".." is the rules format's range.
var multiPunct = []string{"&&&", "<<", ">>", "==", "!=", "<=", ">=", "&&", "||", "->", ".."}

// next returns the next token.
func (l *lexer) next() token {
	l.skipSpaceAndComments()
	start := l.pos()
	from := l.off
	if from >= len(l.src) {
		return token{kind: tokEOF, pos: start, off: from}
	}
	c := l.peek(0)

	if isIdentStart(c) {
		for l.off < len(l.src) && isIdentChar(l.peek(0)) {
			l.advance()
		}
		return token{kind: tokIdent, text: l.src[from:l.off], pos: start, off: from}
	}

	if isDigit(c) {
		t := token{kind: tokNumber, val: l.lexNumber(start), pos: start, off: from}
		t.text = l.src[from:l.off]
		return t
	}

	for _, p := range multiPunct {
		if p[0] == c && strings.HasPrefix(l.src[l.off:], p) {
			for range p {
				l.advance()
			}
			return token{kind: tokPunct, text: p, pos: start, off: from}
		}
	}
	switch c {
	case '{', '}', '(', ')', '[', ']', ';', ':', '=', ',', '.', '<', '>', '+', '-', '*', '&', '|', '^', '!', '~', '/':
		l.advance()
		return token{kind: tokPunct, text: l.src[from:l.off], pos: start, off: from}
	}
	failParse(start, "unexpected character %q", c)
	return token{}
}

// lexNumber lexes a decimal, hex (0x...) or dotted-quad IPv4 (a.b.c.d)
// literal and returns its value.
func (l *lexer) lexNumber(start Pos) uint64 {
	// Hex.
	if l.peek(0) == '0' && (l.peek(1) == 'x' || l.peek(1) == 'X') {
		l.advance()
		l.advance()
		var v uint64
		n := 0
		for l.off < len(l.src) && isHexDigit(l.peek(0)) {
			if v>>60 != 0 {
				failParse(start, "hex literal does not fit in 64 bits")
			}
			v = v<<4 | uint64(hexVal(l.advance()))
			n++
		}
		if n == 0 {
			failParse(start, "malformed hex literal")
		}
		return v
	}

	// Decimal run.
	readDec := func() uint64 {
		var v uint64
		for l.off < len(l.src) && isDigit(l.peek(0)) {
			d := uint64(l.peek(0) - '0')
			if v > (math.MaxUint64-d)/10 {
				failParse(start, "decimal literal does not fit in 64 bits")
			}
			v = v*10 + d
			l.advance()
		}
		return v
	}
	first := readDec()

	// Dotted-quad IPv4: only if exactly three more dot-separated decimal
	// runs follow immediately.
	if l.peek(0) == '.' && isDigit(l.peek(1)) {
		// Tentatively parse as IPv4.
		save := *l
		parts := []uint64{first}
		for l.peek(0) == '.' && isDigit(l.peek(1)) && len(parts) < 4 {
			l.advance()
			parts = append(parts, readDec())
		}
		if len(parts) == 4 {
			ok := true
			var v uint64
			for _, p := range parts {
				if p > 255 {
					ok = false
					break
				}
				v = v<<8 | p
			}
			if ok {
				return v
			}
		}
		*l = save // not an IPv4 literal; restore
	}
	return first
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

// lexAll tokenizes the source of the file at path (empty: none). A
// lexical error anywhere in it rejects the input before the parser sees a
// token.
func lexAll(path, src string) []token {
	l := &lexer{path: path, src: src, line: 1, col: 1}
	out := make([]token, 0, len(src)/3+1) // sources run 4 to 4.5 bytes a token
	for {
		t := l.next()
		out = append(out, t)
		if t.kind == tokEOF {
			return out
		}
	}
}
