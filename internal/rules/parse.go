package rules

import (
	"math"
	"os"

	"repro/internal/p4"
)

// Parse reads a rule set from its text format:
//
//	table ipv4_host {
//	  ipv4.dstAddr=1.1.1.1 -> set_port(1);
//	  priority=10 ipv4.srcAddr=10.0.0.0/8 proto=6&&&0xff -> permit();
//	  srcPort=1024..2048 -> mark();
//	}
//
// It reads with p4's tokenizer: values are decimal, hex (0x..) or
// dotted-quad IPv4 literals, names are identifiers, layout is free, the
// ";" after an entry may be left out, and "#", "//" and "/* */" start
// comments. An error names its input "rules".
func Parse(src string) (*Set, error) { return parse("rules", src) }

// ParseFile reads the rule set in the file at path; its entries' positions,
// and so every error about them, name the file.
func ParseFile(path string) (*Set, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(path, string(src))
}

func parse(path, src string) (set *Set, err error) {
	err = p4.Scan(path, src, func(r *p4.Scanner) {
		s := NewSet()
		for !r.AtEOF() {
			open := r.Mark()
			r.Expect("table")
			table := r.Name()
			r.Expect("{")
			for !r.Accept("}") {
				if r.AtEOF() {
					r.Failf(open, "unterminated table %s", table)
				}
				s.Add(table, readEntry(r))
			}
		}
		set = s
	})
	return set, err
}

// MustParse parses src, panicking on error (test helper).
func MustParse(src string) *Set {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// readEntry reads "[priority=N] field=match ... -> action(args)[;]".
func readEntry(r *p4.Scanner) *Entry {
	e := &Entry{Pos: r.Pos()}
	for !r.Accept("->") {
		at := r.Mark()
		field := r.DottedName()
		r.Expect("=")
		if field == "priority" {
			neg := !r.Accept("+") && r.Accept("-")
			p := r.ExpectNumber()
			if p > math.MaxInt64 {
				r.Failf(at, "priority %d does not fit in 64 bits", p)
			}
			if e.Priority = int(p); neg {
				e.Priority = -e.Priority
			}
			continue
		}
		e.Matches = append(e.Matches, readMatch(r, field))
	}
	e.Action = r.Name()
	r.Expect("(")
	for !r.Accept(")") {
		if len(e.Args) > 0 {
			r.Expect(",")
		}
		e.Args = append(e.Args, r.ExpectNumber())
	}
	r.Accept(";")
	return e
}

// readMatch reads a match on field: "*", v, v&&&mask, v/plen or lo..hi.
func readMatch(r *p4.Scanner, field string) Match {
	if r.Accept("*") {
		return Match{Field: field, Kind: Wildcard}
	}
	at := r.Mark()
	v := r.ExpectNumber()
	switch {
	case r.Accept("&&&"):
		return Match{Field: field, Kind: Ternary, Val: v, Mask: r.ExpectNumber()}
	case r.Accept(".."):
		hi := r.ExpectNumber()
		if v > hi {
			r.Failf(at, "empty range %d..%d", v, hi)
		}
		return Match{Field: field, Kind: Range, Lo: v, Hi: hi}
	case r.Accept("/"):
		at = r.Mark()
		plen := r.ExpectNumber()
		if plen > 64 {
			r.Failf(at, "bad prefix length %d", plen)
		}
		return Match{Field: field, Kind: LPM, Val: v, Plen: int(plen)}
	}
	return Match{Field: field, Kind: Exact, Val: v}
}
