package p4

import (
	"fmt"
	"strings"

	"repro/internal/expr"
)

// Naming conventions mapping program entities to CFG variables
// (expr.Var). These are shared by the CFG encoder, the switch simulator
// and the test driver so that symbolic and concrete states line up.

// HeaderFieldVar names a header field variable, e.g. "hdr.ipv4.dstAddr".
func HeaderFieldVar(header, field string) expr.Var {
	return expr.Var("hdr." + header + "." + field)
}

// MetaVar names a metadata field variable, e.g. "meta.egress_port".
func MetaVar(field string) expr.Var { return expr.Var("meta." + field) }

// ValidVar names the 1-bit validity variable of a header.
func ValidVar(header string) expr.Var { return expr.Var("valid$" + header) }

// DropVar is the 1-bit packet-drop flag.
const DropVar expr.Var = "meta$drop"

// RegisterVar names a register cell, following the paper's §4 convention:
// "the register reg[0] is modeled as a header field REG:reg-POS:0".
func RegisterVar(reg string, index int) expr.Var {
	return expr.Var(fmt.Sprintf("REG:%s-POS:%d", reg, index))
}

// IsHeaderFieldVar splits a "hdr.<header>.<field>" variable.
func IsHeaderFieldVar(v expr.Var) (header, field string, ok bool) {
	s := string(v)
	if !strings.HasPrefix(s, "hdr.") {
		return "", "", false
	}
	rest := s[len("hdr."):]
	i := strings.IndexByte(rest, '.')
	if i < 0 {
		return "", "", false
	}
	return rest[:i], rest[i+1:], true
}
