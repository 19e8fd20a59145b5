package p4

import (
	"fmt"
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
	text string
	val  uint64 // for tokNumber
	pos  Pos
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

// lexer tokenizes program source.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peekByteAt(n int) byte {
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

func (l *lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekByteAt(1) == '/':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByteAt(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peekByte() == '*' && l.peekByteAt(1) == '/' {
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

// multiPunct is the multi-character punctuation, longest first: P4's
// mask operator "&&&" before "&&".
var multiPunct = []string{"&&&", "<<", ">>", "==", "!=", "<=", ">=", "&&", "||", "->"}

// next returns the next token.
func (l *lexer) next() token {
	l.skipSpaceAndComments()
	start := l.pos()
	if l.off >= len(l.src) {
		return token{kind: tokEOF, pos: start}
	}
	c := l.peekByte()

	if isIdentStart(c) {
		from := l.off
		for l.off < len(l.src) && isIdentChar(l.peekByte()) {
			l.advance()
		}
		return token{kind: tokIdent, text: l.src[from:l.off], pos: start}
	}

	if isDigit(c) {
		return l.lexNumber(start)
	}

	for _, p := range multiPunct {
		if strings.HasPrefix(l.src[l.off:], p) {
			for range p {
				l.advance()
			}
			return token{kind: tokPunct, text: p, pos: start}
		}
	}
	switch c {
	case '{', '}', '(', ')', '[', ']', ';', ':', '=', ',', '.', '<', '>', '+', '-', '*', '&', '|', '^', '!', '~', '/':
		l.advance()
		return token{kind: tokPunct, text: string(c), pos: start}
	}
	failParse(start, "unexpected character %q", c)
	return token{}
}

// lexNumber lexes decimal, hex (0x...) and dotted-quad IPv4 (a.b.c.d)
// literals.
func (l *lexer) lexNumber(start Pos) token {
	// Hex.
	if l.peekByte() == '0' && (l.peekByteAt(1) == 'x' || l.peekByteAt(1) == 'X') {
		l.advance()
		l.advance()
		var v uint64
		n := 0
		for l.off < len(l.src) && isHexDigit(l.peekByte()) {
			v = v<<4 | uint64(hexVal(l.advance()))
			n++
		}
		if n == 0 {
			failParse(start, "malformed hex literal")
		}
		return token{kind: tokNumber, val: v, pos: start}
	}

	// Decimal run.
	readDec := func() uint64 {
		var v uint64
		for l.off < len(l.src) && isDigit(l.peekByte()) {
			v = v*10 + uint64(l.advance()-'0')
		}
		return v
	}
	first := readDec()

	// Dotted-quad IPv4: only if exactly three more dot-separated decimal
	// runs follow immediately.
	if l.peekByte() == '.' && isDigit(l.peekByteAt(1)) {
		// Tentatively parse as IPv4.
		save := *l
		parts := []uint64{first}
		for l.peekByte() == '.' && isDigit(l.peekByteAt(1)) && len(parts) < 4 {
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
				return token{kind: tokNumber, val: v, pos: start}
			}
		}
		*l = save // not an IPv4 literal; restore
	}
	return token{kind: tokNumber, val: first, pos: start}
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

// lexAll tokenizes an entire source string. A lexical error anywhere in
// it rejects the input before the parser sees a token.
func lexAll(src string) []token {
	l := newLexer(src)
	var out []token
	for {
		t := l.next()
		out = append(out, t)
		if t.kind == tokEOF {
			return out
		}
	}
}
