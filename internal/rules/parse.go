package rules

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a rule set from its text format:
//
//	table ipv4_host {
//	  ipv4.dstAddr=1.1.1.1 -> set_port(1);
//	  priority=10 ipv4.srcAddr=10.0.0.0/8 proto=6&&&0xff -> permit();
//	  srcPort=1024..2048 -> mark();
//	}
//
// Values are decimal, hex (0x..) or dotted-quad IPv4. Lines starting with
// '#' or '//' are comments.
func Parse(src string) (*Set, error) {
	set := NewSet()
	var table string
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "table "):
			rest := strings.TrimSpace(strings.TrimPrefix(line, "table "))
			rest = strings.TrimSuffix(rest, "{")
			table = strings.TrimSpace(rest)
			if table == "" {
				return nil, fmt.Errorf("rules:%d: missing table name", lineNo+1)
			}
		case line == "}":
			table = ""
		default:
			if table == "" {
				return nil, fmt.Errorf("rules:%d: entry outside table block", lineNo+1)
			}
			e, err := parseEntry(line)
			if err != nil {
				return nil, fmt.Errorf("rules:%d: %w", lineNo+1, err)
			}
			e.Line = lineNo + 1
			set.Add(table, e)
		}
	}
	return set, nil
}

// MustParse parses src, panicking on error (test helper).
func MustParse(src string) *Set {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

func parseEntry(line string) (*Entry, error) {
	line = strings.TrimSuffix(strings.TrimSpace(line), ";")
	lhsRhs := strings.SplitN(line, "->", 2)
	if len(lhsRhs) != 2 {
		return nil, fmt.Errorf("missing '->' in entry %q", line)
	}
	e := &Entry{}

	for _, tok := range strings.Fields(strings.TrimSpace(lhsRhs[0])) {
		kv := strings.SplitN(tok, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("malformed match %q", tok)
		}
		field, spec := kv[0], kv[1]
		if field == "priority" {
			p, err := strconv.Atoi(spec)
			if err != nil {
				return nil, fmt.Errorf("bad priority %q", spec)
			}
			e.Priority = p
			continue
		}
		m, err := parseMatch(field, spec)
		if err != nil {
			return nil, err
		}
		e.Matches = append(e.Matches, m)
	}

	rhs := strings.TrimSpace(lhsRhs[1])
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return nil, fmt.Errorf("malformed action call %q", rhs)
	}
	e.Action = strings.TrimSpace(rhs[:open])
	argsStr := strings.TrimSpace(rhs[open+1 : len(rhs)-1])
	if argsStr != "" {
		for _, a := range strings.Split(argsStr, ",") {
			v, err := parseValue(strings.TrimSpace(a))
			if err != nil {
				return nil, fmt.Errorf("bad action argument %q: %w", a, err)
			}
			e.Args = append(e.Args, v)
		}
	}
	return e, nil
}

func parseMatch(field, spec string) (Match, error) {
	switch {
	case spec == "*":
		return Match{Field: field, Kind: Wildcard}, nil
	case strings.Contains(spec, "&&&"):
		parts := strings.SplitN(spec, "&&&", 2)
		v, err := parseValue(parts[0])
		if err != nil {
			return Match{}, err
		}
		m, err := parseValue(parts[1])
		if err != nil {
			return Match{}, err
		}
		return Match{Field: field, Kind: Ternary, Val: v, Mask: m}, nil
	case strings.Contains(spec, ".."):
		parts := strings.SplitN(spec, "..", 2)
		lo, err := parseValue(parts[0])
		if err != nil {
			return Match{}, err
		}
		hi, err := parseValue(parts[1])
		if err != nil {
			return Match{}, err
		}
		if lo > hi {
			return Match{}, fmt.Errorf("empty range %d..%d", lo, hi)
		}
		return Match{Field: field, Kind: Range, Lo: lo, Hi: hi}, nil
	case strings.Contains(spec, "/"):
		parts := strings.SplitN(spec, "/", 2)
		v, err := parseValue(parts[0])
		if err != nil {
			return Match{}, err
		}
		plen, err := strconv.Atoi(parts[1])
		if err != nil || plen < 0 || plen > 64 {
			return Match{}, fmt.Errorf("bad prefix length %q", parts[1])
		}
		return Match{Field: field, Kind: LPM, Val: v, Plen: plen}, nil
	default:
		v, err := parseValue(spec)
		if err != nil {
			return Match{}, err
		}
		return Match{Field: field, Kind: Exact, Val: v}, nil
	}
}

// parseValue parses decimal, 0x-hex, or dotted-quad IPv4 values.
func parseValue(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	if strings.Count(s, ".") == 3 {
		var v uint64
		for _, oct := range strings.Split(s, ".") {
			o, err := strconv.ParseUint(oct, 10, 64)
			if err != nil || o > 255 {
				return 0, fmt.Errorf("bad IPv4 literal %q", s)
			}
			v = v<<8 | o
		}
		return v, nil
	}
	return strconv.ParseUint(s, 10, 64)
}
