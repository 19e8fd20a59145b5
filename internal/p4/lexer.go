package p4

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// tokKind enumerates token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokPunct // single- or multi-char punctuation/operator
)

// token is a lexical token. It keeps its byte offset in the source and
// no position: the Scanner derives a Pos from the offset where one is
// reported (lines.pos).
type token struct {
	text string // the source text; for a tokNumber, as written
	val  uint64 // for tokNumber
	off  int32
	kind tokKind
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

// lines indexes where each line of the file at path starts, so that a
// byte offset in it gives a Pos.
type lines struct {
	path   string
	starts []int32 // the offset of each line's first byte; starts[0] is 0
}

func newLines(path, src string) lines {
	ls := lines{path: path, starts: make([]int32, 1, strings.Count(src, "\n")+1)}
	for off := 0; ; {
		i := strings.IndexByte(src[off:], '\n')
		if i < 0 {
			return ls
		}
		off += i + 1
		ls.starts = append(ls.starts, int32(off))
	}
}

// pos is the position of byte off: line and column count from 1, a column
// in bytes.
func (ls lines) pos(off int32) Pos {
	line := sort.Search(len(ls.starts), func(i int) bool { return ls.starts[i] > off })
	return Pos{Path: ls.path, Line: line, Col: int(off-ls.starts[line-1]) + 1}
}

// lexer tokenizes the source of one input file.
type lexer struct {
	path string
	src  string
	off  int
}

// fail rejects the input at byte off.
func (l *lexer) fail(off int, format string, args ...any) {
	failParse(newLines(l.path, l.src).pos(int32(off)), format, args...)
}

// peek returns the byte n past the current one, or 0 past the end.
func (l *lexer) peek(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *lexer) advance() byte {
	l.off++
	return l.src[l.off-1]
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
			start := l.off
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
				l.fail(start, "unterminated block comment")
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
	from := l.off
	if from >= len(l.src) {
		return token{kind: tokEOF, off: int32(from)}
	}
	c := l.peek(0)

	if isIdentStart(c) {
		for l.off < len(l.src) && isIdentChar(l.peek(0)) {
			l.advance()
		}
		return token{kind: tokIdent, text: l.src[from:l.off], off: int32(from)}
	}

	if isDigit(c) {
		t := token{kind: tokNumber, val: l.lexNumber(from), off: int32(from)}
		t.text = l.src[from:l.off]
		return t
	}

	for _, p := range multiPunct {
		if p[0] == c && strings.HasPrefix(l.src[l.off:], p) {
			l.off += len(p)
			return token{kind: tokPunct, text: p, off: int32(from)}
		}
	}
	switch c {
	case '{', '}', '(', ')', '[', ']', ';', ':', '=', ',', '.', '<', '>', '+', '-', '*', '&', '|', '^', '!', '~', '/':
		l.advance()
		return token{kind: tokPunct, text: l.src[from:l.off], off: int32(from)}
	}
	l.fail(from, "unexpected character %q", c)
	return token{}
}

// lexNumber lexes a decimal, hex (0x...) or dotted-quad IPv4 (a.b.c.d)
// literal and returns its value.
func (l *lexer) lexNumber(start int) uint64 {
	// Hex.
	if l.peek(0) == '0' && (l.peek(1) == 'x' || l.peek(1) == 'X') {
		l.advance()
		l.advance()
		var v uint64
		n := 0
		for l.off < len(l.src) && isHexDigit(l.peek(0)) {
			if v>>60 != 0 {
				l.fail(start, "hex literal does not fit in 64 bits")
			}
			v = v<<4 | uint64(hexVal(l.advance()))
			n++
		}
		if n == 0 {
			l.fail(start, "malformed hex literal")
		}
		return v
	}

	// Decimal run.
	readDec := func() uint64 {
		var v uint64
		for l.off < len(l.src) && isDigit(l.peek(0)) {
			d := uint64(l.peek(0) - '0')
			if v > (math.MaxUint64-d)/10 {
				l.fail(start, "decimal literal does not fit in 64 bits")
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
// token. A token's offset is 32 bits: a larger source is rejected whole.
func lexAll(path, src string) []token {
	if len(src) > math.MaxInt32 {
		failParse(Pos{Path: path, Line: 1, Col: 1}, "input of %d bytes is larger than 2 GiB", len(src))
	}
	l := &lexer{path: path, src: src}
	out := make([]token, 0, len(src)/3+1) // sources run 4 to 4.5 bytes a token
	for {
		t := l.next()
		out = append(out, t)
		if t.kind == tokEOF {
			return out
		}
	}
}
