package switchsim

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rules"
)

// Target is a compiled multi-switch multi-pipeline data plane, ready to
// process packets: the program lowered once to instruction blocks, match
// rows and wire plans over the slots of p4.VarTable (compile.go), and the
// machine that runs them (machine.go). Register state persists across
// packets, so a target processes one packet at a time; callers serialize.
type Target struct {
	prog *p4.Program
	vars *p4.VarTable
	drop int32 // the drop flag's slot

	hdrs    []hdrPlan  // prog.Headers' order: the deparser's emit order
	pipes   []pipeLow  // prog.Pipelines' order
	entries []int32    // injection points, as indexes into pipes
	tables  []*tblPlan // prog.Tables' order
	// crashOn and crashWhen are the crash faults: a packet count checked
	// on entry, a guard checked once after the parse.
	crashOn   []uint64
	crashWhen []crashGuard

	m machine
	// packets and drops count since Compile; packets also numbers the
	// packet CrashOnPacket waits for.
	packets, drops uint64
}

// CrashError reports that the target panicked while processing a packet —
// the software analogue of a switch pipeline lockup on one datagram.
// Inject recovers such panics and returns them as errors so a serving
// harness counts a crashed packet instead of dying with the target.
type CrashError struct{ Panic string }

// Error implements error.
func (e *CrashError) Error() string { return "switchsim: target crashed: " + e.Panic }

// Compile lowers a program, the rule set and the injected faults into a
// target. A nil rule set means empty tables (defaults only). The target
// holds the rules as of Compile: entries added to rs afterwards do not
// reach it. The faults are resolved here, as rewrites of the lowered
// program; nothing scans them per packet. Anything the program or the
// rules leave unresolvable — a reference, an action, an argument list —
// is an error from Compile, not from the first packet that meets it.
func Compile(prog *p4.Program, rs *rules.Set, faults Faults) (*Target, error) {
	if err := p4.Check(prog); err != nil {
		return nil, fmt.Errorf("switchsim: %w", err)
	}
	tables, err := rules.Bind(prog, rs)
	if err != nil {
		return nil, fmt.Errorf("switchsim: %w", err)
	}
	vars := p4.Vars(prog)
	t := &Target{prog: prog, vars: vars, drop: int32(vars.DropSlot())}
	c := &compiler{
		prog: prog, vars: vars, faults: faults,
		acts: make(map[string]*action, len(prog.Actions)),
		tbls: make(map[string]*tblPlan, len(prog.Tables)),
	}
	c.actions()
	maxKeys := 0
	for _, d := range prog.Tables {
		tbl := c.table(tables[d.Name])
		c.tbls[d.Name] = tbl
		t.tables = append(t.tables, tbl)
		maxKeys = max(maxKeys, len(tbl.keys))
	}
	for _, h := range prog.Headers {
		valid, _ := vars.ValidSlot(h.Name)
		t.hdrs = append(t.hdrs, hdrPlan{decl: h, valid: int32(valid), bits: h.Bits(), extractSetsValid: !faults.has(ExtractNoValidity{h.Name})})
	}
	parsers := map[string]*parserLow{}
	pipeIndex := make(map[string]int32, len(prog.Pipelines))
	for i, pl := range prog.Pipelines {
		pipeIndex[pl.Name] = int32(i)
		if pl.Parser != "" && parsers[pl.Parser] == nil {
			parsers[pl.Parser] = c.parser(prog.Parser(pl.Parser))
		}
	}
	for _, pl := range prog.Pipelines {
		t.pipes = append(t.pipes, c.pipeline(pl, pipeIndex, parsers[pl.Parser]))
	}
	if c.err != nil {
		return nil, c.err
	}
	t.entries = []int32{0}
	if prog.Topology != nil {
		t.entries = t.entries[:0]
		for _, name := range prog.Topology.Entries {
			t.entries = append(t.entries, pipeIndex[name])
		}
	}
	for _, f := range faults {
		switch f := f.(type) {
		case CrashOnPacket:
			t.crashOn = append(t.crashOn, f.N)
		case CrashWhen:
			// A guard on a field the program lacks can never hold.
			valid, ok1 := vars.ValidSlot(f.Header)
			field, ok2 := vars.FieldSlot(f.Header, f.Field)
			if ok1 && ok2 {
				t.crashWhen = append(t.crashWhen, crashGuard{valid: int32(valid), field: int32(field), f: f})
			}
		}
	}
	t.m = machine{
		t:     t,
		slots: make([]uint64, vars.Len()+c.maxTemp),
		keys:  make([]uint64, maxKeys),
	}
	return t, nil
}

// Result is the outcome of processing one packet.
type Result struct {
	// Output is the emitted packet; nil when the packet was dropped.
	Output *packet.Packet
	// Wire is the emitted packet's wire bytes on the quiet path
	// (InjectQuietWire); Output stays nil there. Check Dropped, not
	// Wire == nil: a headerless empty packet marshals to zero bytes.
	Wire []byte
	// Dropped reports an explicit drop (including parser reject).
	Dropped bool
	// Trace lists executed steps in order, for bug localization (§7).
	Trace []string
	// Pipelines lists the pipelines traversed.
	Pipelines []string
	// Final is the raw execution state at exit.
	Final expr.State
}

// Inject processes a wire packet through the data plane starting at entry
// pipeline entryIdx, following traffic manager edges until exit or drop,
// and records the execution: Trace, Pipelines and Final, and the emitted
// packet decoded in Output. A panic during processing is recovered and
// returned as a *CrashError, as an injected CrashOnPacket/CrashWhen fault
// is: one packet crashing the pipeline must not take the whole target
// down.
func (t *Target) Inject(entryIdx int, wire []byte) (*Result, error) {
	res := &Result{}
	if _, _, err := t.run(entryIdx, wire, res, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// InjectQuietAppend is the line-rate Inject: the same lowered program
// runs with no trace recorded, and the exit state is deparsed straight to
// wire bytes appended to dst. It returns the extended buffer, or dst as
// it was when the packet is dropped or fails; a steady stream of packets
// into a buffer with room allocates nothing. Output, drop and crash
// behaviour, register side effects and fault injection are Inject's.
func (t *Target) InjectQuietAppend(dst []byte, entryIdx int, wire []byte) (out []byte, dropped bool, err error) {
	return t.run(entryIdx, wire, nil, dst)
}

// InjectQuietWire is InjectQuietAppend into a fresh buffer, the emitted
// wire in Result.Wire.
func (t *Target) InjectQuietWire(entryIdx int, wire []byte) (*Result, error) {
	out, dropped, err := t.InjectQuietAppend(nil, entryIdx, wire)
	if err != nil {
		return nil, err
	}
	return &Result{Wire: out, Dropped: dropped}, nil
}

// run processes one packet. A traced run (res non-nil) records into res
// and decodes the emitted packet into res.Output; a quiet one appends the
// emitted wire to dst.
func (t *Target) run(entryIdx int, wire []byte, res *Result, dst []byte) (out []byte, dropped bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, dropped, err = dst, false, &CrashError{Panic: fmt.Sprint(r)}
		}
	}()
	if entryIdx < 0 || entryIdx >= len(t.entries) {
		return dst, false, fmt.Errorf("switchsim: entry %d out of range [0,%d)", entryIdx, len(t.entries))
	}
	t.packets++
	for _, n := range t.crashOn {
		if n == t.packets {
			return dst, false, &CrashError{Panic: fmt.Sprintf("injected crash on packet %d", n)}
		}
	}
	tracing := res != nil
	m := &t.m
	m.tracing, m.trace = tracing, nil
	m.params = m.params[:0]
	// Metadata, validity and every field start at zero, matching P4
	// semantics; register cells, past the per-packet prefix, persist.
	clear(m.slots[:t.vars.PerPacket()])

	cur := t.entries[entryIdx]
	payload := wire
	if p := t.pipes[cur].parser; p != nil {
		var ok bool
		if payload, ok = m.parse(p, wire); !ok {
			return t.dropped(res, dst)
		}
	}
	for _, g := range t.crashWhen {
		if m.slots[g.valid] == 1 && m.slots[g.field] == g.f.Value {
			return dst, false, &CrashError{Panic: fmt.Sprintf("injected crash: %s.%s == %d", g.f.Header, g.f.Field, g.f.Value)}
		}
	}

	// Check rejects topology cycles, so a route visits a pipeline at most
	// once; one that has not reached exit by then never will.
	for hop := 0; cur != retExit; hop++ {
		if hop == len(t.pipes) {
			return dst, false, fmt.Errorf("switchsim: route did not reach exit after %d pipelines", hop)
		}
		pl := &t.pipes[cur]
		m.pipe = pl.decl.Name
		if tracing {
			res.Pipelines = append(res.Pipelines, m.pipe)
			m.tracef("enter pipeline %s (switch %s)", m.pipe, pl.decl.Switch)
		}
		cur = m.exec(pl.code, nil)
		if cur == retDrop || cur == retNoEdge {
			if tracing && cur == retDrop {
				m.tracef("packet dropped in %s", m.pipe)
			} else if tracing {
				// Lost: a target behaviour the checker flags as absent.
				m.tracef("no traffic manager edge matched from %s; packet lost", m.pipe)
			}
			return t.dropped(res, dst)
		}
	}

	if !tracing {
		out, err = m.deparse(dst, payload)
		return out, false, err
	}
	t.traced(res)
	res.Output = packet.FromState(t.prog, res.Final, payload)
	return dst, false, nil
}

// dropped finishes a packet that produced no output.
func (t *Target) dropped(res *Result, dst []byte) ([]byte, bool, error) {
	t.drops++
	if res != nil {
		res.Dropped = true
		t.traced(res)
	}
	return dst, true, nil
}

// traced hands a traced run's records to its result: the trace lines and
// the per-packet slots as a named state.
func (t *Target) traced(res *Result) {
	res.Trace = t.m.trace
	res.Final = make(expr.State, t.vars.PerPacket())
	for s := 0; s < t.vars.PerPacket(); s++ {
		res.Final[t.vars.Name(s)] = t.m.slots[s]
	}
}

// TableStats counts one table's lookups since Compile. Probes is the
// priority depth of the hit row — i+1 for a hit on row i, every installed
// row for a miss — what a first-match scan would examine: a property of
// the program and the rules, not a count of rows the row index examined.
type TableStats struct {
	Name     string
	Applies  uint64
	Probes   uint64
	Hits     uint64
	Defaults uint64 // default-action runs (misses)
}

// Stats counts the target's work since Compile: exact, kept by the
// machine as it runs (no clock is read).
type Stats struct {
	Packets      uint64
	Instructions uint64
	Drops        uint64
	Tables       []TableStats // declaration order
}

// Stats returns the counters; like Inject it must not run concurrently
// with one.
func (t *Target) Stats() Stats {
	s := Stats{Packets: t.packets, Instructions: t.m.instrs, Drops: t.drops}
	for _, tbl := range t.tables {
		s.Tables = append(s.Tables, tbl.stats)
	}
	return s
}

// ResetRegisters zeroes the persistent register file.
func (t *Target) ResetRegisters() { clear(t.m.slots[t.vars.PerPacket():t.vars.Len()]) }
