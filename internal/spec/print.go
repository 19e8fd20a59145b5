package spec

import (
	"fmt"
	"strings"

	"repro/internal/p4"
)

// Printing is the inverse of Parse: String renders a spec in the exact
// line-oriented surface syntax the parser reads, so specs round-trip
// through text: a printed spec re-parses to the same constraints.

// String renders the spec in parseable form.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec %s {\n", s.Name)
	for _, a := range s.Assumes {
		fmt.Fprintf(&b, "  assume %s;\n", p4.ExprString(a))
	}
	for _, e := range s.Expects {
		fmt.Fprintf(&b, "  expect %s;\n", expectString(e))
	}
	b.WriteString("}\n")
	return b.String()
}

func expectString(e Expectation) string {
	switch e.Kind {
	case ExpectForwarded:
		return "forwarded"
	case ExpectDropped:
		return "dropped"
	case ExpectValid:
		return fmt.Sprintf("valid(%s)", e.Header)
	case ExpectInvalid:
		return fmt.Sprintf("invalid(%s)", e.Header)
	default:
		return p4.ExprString(e.Cond)
	}
}
