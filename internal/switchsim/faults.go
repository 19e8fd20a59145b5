// Package switchsim is the hardware target substitute: a software switch
// that executes the *compiled* data plane program on concrete packets.
// Because testing (unlike verification) observes target behaviour, the
// simulator's compiler supports fault injection reproducing the paper's
// non-code bug classes (Table 2): setValid that silently does nothing
// (bf-p4c backend bug C, issue #14), optimization-pragma field overlap
// (issue #15), checksum updates that never happen, miscompiled arithmetic
// comparisons and assignments, and missing compilation flags that disable
// parts of the parser.
package switchsim

import (
	"fmt"
	"slices"
)

// Fault is a compiler/backend defect injected into the compiled target.
type Fault interface {
	fault()
	// Describe names the fault for reports.
	Describe() string
}

// SetValidNoOp makes setValid(Header) have no effect — the invocation
// "does not take effect and the corresponding headers remain invalid"
// (issue #14, bf-p4c backend bug C).
type SetValidNoOp struct{ Header string }

func (SetValidNoOp) fault() {}

// Describe names the fault.
func (f SetValidNoOp) Describe() string {
	return fmt.Sprintf("setValid(%s) compiled to a no-op", f.Header)
}

// FieldOverlap allocates two fields to the same physical container, so a
// write to one clobbers the other — the effect of misused optimization
// pragmas disabling safety checks (issue #15: hdr.tcp.ackno overlapped
// with hdr.innerTcp.srcAddr).
type FieldOverlap struct {
	// A and B are field variables in "hdr.<header>.<field>" form.
	A, B string
}

func (FieldOverlap) fault() {}

// Describe names the fault.
func (f FieldOverlap) Describe() string {
	return fmt.Sprintf("pragma misuse: %s overlaps %s", f.A, f.B)
}

// ChecksumSkip makes update_checksum(Header) a no-op in the compiled
// program (backend dropping the checksum engine configuration).
type ChecksumSkip struct{ Header string }

func (ChecksumSkip) fault() {}

// Describe names the fault.
func (f ChecksumSkip) Describe() string {
	return fmt.Sprintf("update_checksum(%s) compiled to a no-op", f.Header)
}

// WrongCompare miscompiles strict comparisons in control-block conditions
// into their non-strict forms (> becomes >=) — incorrect arithmetic
// comparison, bf-p4c backend bug A (issue #12).
type WrongCompare struct{}

func (WrongCompare) fault() {}

// Describe names the fault.
func (WrongCompare) Describe() string {
	return "arithmetic comparison miscompiled (> lowered as >=)"
}

// WrongAssign truncates every assignment to the named field to Bits bits
// — incorrect assignment, bf-p4c backend bug B (issue #13).
type WrongAssign struct {
	Field string // "hdr.<header>.<field>" or "meta.<field>"
	Bits  int
}

func (WrongAssign) fault() {}

// Describe names the fault.
func (f WrongAssign) Describe() string {
	return fmt.Sprintf("assignment to %s truncated to %d bits", f.Field, f.Bits)
}

// ExtractNoValidity makes extract(Header) read the bytes but fail to set
// the header's validity bit — the observable effect of a missing
// compilation flag disabling parser validity tracking (issue #16).
type ExtractNoValidity struct{ Header string }

func (ExtractNoValidity) fault() {}

// Describe names the fault.
func (f ExtractNoValidity) Describe() string {
	return fmt.Sprintf("missing compilation flag: extract(%s) does not set validity", f.Header)
}

// TableMissDefault makes a specific table always execute its default
// action regardless of the installed rules — a driver-API style defect
// where rule installation silently fails.
type TableMissDefault struct{ Table string }

func (TableMissDefault) fault() {}

// Describe names the fault.
func (f TableMissDefault) Describe() string {
	return fmt.Sprintf("driver bug: rules for table %s not installed", f.Table)
}

// CrashOnPacket makes the target panic while processing its N-th injected
// packet (1-based), once — a transient pipeline lockup the harness must
// absorb without killing the serving goroutine.
type CrashOnPacket struct{ N uint64 }

func (CrashOnPacket) fault() {}

// Describe names the fault.
func (f CrashOnPacket) Describe() string {
	return fmt.Sprintf("target crashes while processing packet %d", f.N)
}

// CrashWhen makes the target panic on every packet whose parsed
// Header.Field equals Value — a persistent per-packet crash tied to
// specific traffic, so one test case crashes deterministically while the
// rest of the suite is unaffected.
type CrashWhen struct {
	Header, Field string
	Value         uint64
}

func (CrashWhen) fault() {}

// Describe names the fault.
func (f CrashWhen) Describe() string {
	return fmt.Sprintf("target crashes when %s.%s == %d", f.Header, f.Field, f.Value)
}

// Faults is a set of injected defects. Compile resolves them once, as
// rewrites of the lowered program: SetValidNoOp and ChecksumSkip turn the
// statement into a no-op, WrongCompare rewrites the comparison's opcode,
// WrongAssign narrows the store, FieldOverlap appends clobber stores,
// ExtractNoValidity drops the validity store from the extract plan,
// TableMissDefault installs no rows, and the crash faults become a packet
// count and a guard after the parse. The lookups below run only then.
type Faults []Fault

// Describe lists all injected faults.
func (fs Faults) Describe() []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Describe()
	}
	return out
}

// has reports whether exactly this fault is injected.
func (fs Faults) has(f Fault) bool { return slices.Contains(fs, f) }

func (fs Faults) overlapsOf(field string) []string {
	var out []string
	for _, f := range fs {
		if t, ok := f.(FieldOverlap); ok {
			if t.A == field {
				out = append(out, t.B)
			}
			if t.B == field {
				out = append(out, t.A)
			}
		}
	}
	return out
}

func (fs Faults) wrongAssign(field string) (int, bool) {
	for _, f := range fs {
		if t, ok := f.(WrongAssign); ok && t.Field == field {
			return t.Bits, true
		}
	}
	return 0, false
}
