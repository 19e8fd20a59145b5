package driver

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/hashfn"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/spec"
	"repro/internal/sym"
)

// Case is one concrete test case generated from a template.
type Case struct {
	Template *sym.Template
	// Input is the synthesized input packet.
	Input *packet.Packet
	// Entry is the injection point (entry pipeline index).
	Entry int
	// Wire is the serialized input.
	Wire []byte
	// Expected is the predicted output packet, nil when the path drops.
	Expected *packet.Packet
	// ID is the unique payload identifier.
	ID uint64
	// SkipReason is non-empty when the case could not be concretized
	// (e.g. a hash post-validation mismatch, per §4 of the paper).
	SkipReason string
}

// Verdict classifies a case's end-to-end result. Separating Flaky and
// Lost from Fail is what lets a hardware-in-the-loop run distinguish link
// noise from data-plane bugs: a case that fails once but passes on a
// clean retransmit is link noise, not a bug, and the report says so.
type Verdict int

// Verdicts, from best to worst.
const (
	// VerdictPass: the first attempt passed every enabled check.
	VerdictPass Verdict = iota
	// VerdictFlaky: the case passed, but only after at least one
	// retransmission — the earlier attempt was absorbed link noise.
	VerdictFlaky
	// VerdictFail: every attempt failed with observed target behaviour
	// (a capture that violates the checks, or a predicted drop that
	// forwarded) — a real data-plane divergence.
	VerdictFail
	// VerdictLost: the link exhausted its retries without ever observing
	// the target's behaviour where a capture was expected. Ambiguous
	// between link loss and a drop bug; never silently folded into Fail.
	VerdictLost
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictFlaky:
		return "flaky"
	case VerdictFail:
		return "fail"
	case VerdictLost:
		return "lost"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Outcome is the result of running one case against the target.
type Outcome struct {
	Case *Case
	// Pass is the overall verdict (true for VerdictPass and VerdictFlaky).
	Pass bool
	// Verdict is the four-way classification.
	Verdict Verdict
	// Attempts counts transmissions performed for this case (>= 1).
	Attempts int
	// ShortCircuited reports the case was never transmitted: the crash
	// circuit breaker had already tripped when its turn came.
	ShortCircuited bool
	// Crashed reports that at least one attempt made the target panic
	// (observable only on links that surface injection errors).
	Crashed bool
	// Output is the captured packet, nil when absent or undecodable. The
	// engine checks captures in slot form and builds this only for an
	// attempt that does not pass, or for one a spec must read: a passing
	// attempt of a case no spec applies to leaves it nil.
	Output *packet.Packet
	// Absent reports that no packet was captured.
	Absent bool
	// Violations lists failed spec expectations.
	Violations []spec.Violation
	// ChecksumErrors lists output headers with invalid checksums.
	ChecksumErrors []string
	// Mismatches lists differences between the symbolic prediction and
	// the observed output — the signal that separates non-code bugs from
	// code bugs (a correct program whose compiled behaviour diverges).
	Mismatches []string
}

// Report aggregates outcomes.
type Report struct {
	Program string
	Passed  int
	Failed  int
	Skipped int
	// Flaky counts cases that passed only after retransmission (link
	// noise absorbed by the retry engine, never silently).
	Flaky int
	// Lost counts cases whose retries were exhausted without observing
	// the target (see VerdictLost).
	Lost int
	// Retransmissions counts extra attempts beyond each case's first.
	Retransmissions int
	// Skips lists the skipped cases with their SkipReason, so a skip is
	// never just an anonymous counter.
	Skips    []*Case
	Outcomes []*Outcome
	// TimeToFirstVerdict is the wall-clock from suite start to the first
	// case verdict (zero when every case was skipped) — the
	// responsiveness metric behind the run report's time_to_first_test.
	TimeToFirstVerdict time.Duration
	// BreakerTripped reports that Driver.BreakerThreshold consecutive
	// crashing cases tripped the circuit breaker; ShortCircuited counts
	// the cases recorded as Lost without transmission after the trip
	// (a subset of Lost).
	BreakerTripped bool
	ShortCircuited int
	// Phases is where the suite's wall-clock went, stage by stage.
	Phases Phases
}

// Phases splits a suite's wall-clock over the stages a verdict passes
// through. The clock is read once per stage per batch — an admission
// burst, a drain of the link — not per case, so the attribution costs the
// run nothing measurable; time in none of the stages (deadline scans, idle
// waits, verdict bookkeeping) is the suite's wall-clock minus their sum.
type Phases struct {
	// Concretize: template to case (model completion, synthesis,
	// prediction, marshaling).
	Concretize time.Duration
	// Send: Link.Send — on the loopback this is the target's inject.
	Send time.Duration
	// Recv: captures read off the link, demultiplexed and decoded into
	// slots.
	Recv time.Duration
	// Check: the checker, on captures and on closed windows.
	Check time.Duration
}

// Failures returns the failing outcomes.
func (r *Report) Failures() []*Outcome {
	var out []*Outcome
	for _, o := range r.Outcomes {
		if !o.Pass {
			out = append(out, o)
		}
	}
	return out
}

// Summary renders a one-line result.
func (r *Report) Summary() string {
	s := fmt.Sprintf("%s: %d passed, %d failed, %d skipped", r.Program, r.Passed, r.Failed, r.Skipped)
	if r.Flaky > 0 || r.Lost > 0 || r.Retransmissions > 0 {
		s += fmt.Sprintf(" (%d flaky, %d lost, %d retransmissions)", r.Flaky, r.Lost, r.Retransmissions)
	}
	return s
}

// Checks selects which validations the checker applies; different tools
// in the evaluation wield different subsets (a verifier has no target
// output to compare, a compiler tester has no intent spec).
type Checks struct {
	// Prediction compares the captured output against the symbolic
	// prediction — this is what exposes non-code bugs.
	Prediction bool
	// Checksums recomputes and validates maintained checksum fields.
	Checksums bool
	// Specs evaluates intent expectations.
	Specs bool
	// Sanity applies universal well-formedness checks (forwarded IPv4
	// packets must have a nonzero TTL, outputs must carry the test ID).
	Sanity bool
}

// AllChecks is the full Meissa checker configuration.
func AllChecks() Checks {
	return Checks{Prediction: true, Checksums: true, Specs: true, Sanity: true}
}

// Driver runs test cases against a target over a link.
type Driver struct {
	Prog  *p4.Program
	Graph *cfg.Graph
	Link  Link
	Specs []*spec.Spec
	// Checks selects the validations to run; New sets AllChecks.
	Checks Checks
	// RecvTimeout bounds each capture window; loopback links answer
	// instantly.
	RecvTimeout time.Duration
	// Retries is the number of retransmissions per case after the first
	// attempt. Each retransmission carries a fresh payload ID so stale
	// captures from earlier attempts remain identifiable.
	Retries int
	// CaseTimeout bounds one case end to end across every attempt and
	// backoff; 0 derives a budget from Retries, RecvTimeout and Backoff.
	CaseTimeout time.Duration
	// Backoff is the delay before the first retransmission, doubling on
	// each further retry.
	Backoff time.Duration
	// Window is how many cases may be in flight at once (see pipeline.go);
	// 1 decides each case before the next is sent, and values below 1 mean
	// 1. New sets DefaultWindow.
	Window int
	// BreakerThreshold trips the target-crash circuit breaker: after this
	// many consecutive non-passing cases that crashed the target, the
	// remaining cases are recorded as Lost without transmission instead
	// of burning each one's full retry budget on a dead target. Any
	// non-crashing verdict resets the streak. 0 disables the breaker.
	BreakerThreshold int
	// csPlans precomputes, for each (header, field) the program maintains
	// via update_checksum, the destination and the input fields: Concretize
	// fills sender checksums and the checker validates every output from
	// them, without rebuilding names or slices per case.
	csPlans []csPlan
	// hdrs is the slot checker's view of each declared header, indexed
	// like Prog.Headers; ttl locates ipv4.ttl for the sanity check.
	hdrs []hdrCheck
	ttl  struct {
		ok          bool
		valid, slot int
	}
	// assumes memoizes each spec's translated assume clauses.
	assumes map[*spec.Spec]assumed
	// baseModel is the default-completed model every case starts from:
	// all graph variables zero except TTL fields at 64. Concretize clones
	// it in one bulk copy instead of rebuilding it key by key.
	baseModel expr.State
	// graphZero is the all-zero graph state SpecApplies starts from.
	graphZero expr.State
	// csScratch is the checksum input buffer Concretize and check reuse.
	csScratch []uint64
	// phases and mark are the running suite's stage timings (see lap).
	phases Phases
	mark   time.Time
	// tmplCache memoizes each template's ID-independent concretization
	// (see concretized). Its applicable specs are drawn from cacheSpecs;
	// RunTemplates drops the cache when Specs has changed since.
	tmplCache  map[*sym.Template]*concretized
	cacheSpecs []*spec.Spec
	// nextID allocates monotonically increasing payload IDs: every
	// transmission (including retries) gets a never-reused ID.
	nextID uint64
}

// New builds a driver.
func New(prog *p4.Program, g *cfg.Graph, link Link, specs []*spec.Spec) *Driver {
	d := &Driver{
		Prog:        prog,
		Graph:       g,
		Link:        link,
		Specs:       specs,
		Checks:      AllChecks(),
		RecvTimeout: 200 * time.Millisecond,
		Retries:     2,
		Backoff:     10 * time.Millisecond,
		Window:      DefaultWindow,
	}

	vt := p4.Vars(prog)
	d.hdrs = make([]hdrCheck, len(prog.Headers))
	for i, h := range prog.Headers {
		hc := hdrCheck{name: h.Name}
		hc.valid, _ = vt.ValidSlot(h.Name)
		names := make([]string, len(h.Fields))
		for j, f := range h.Fields {
			names[j] = f.Name
		}
		sort.Strings(names)
		for _, f := range slices.Compact(names) {
			s, _ := vt.FieldSlot(h.Name, f)
			hc.fields = append(hc.fields, f)
			hc.slots = append(hc.slots, s)
		}
		d.hdrs[i] = hc
	}
	d.ttl.valid, d.ttl.ok = vt.ValidSlot("ipv4")
	if d.ttl.ok {
		d.ttl.slot, d.ttl.ok = vt.FieldSlot("ipv4", "ttl")
	}
	if g != nil {
		d.baseModel = make(expr.State, len(g.Vars))
		d.graphZero = make(expr.State, len(g.Vars))
		for v := range g.Vars {
			d.graphZero[v] = 0
			d.baseModel[v] = 0
			if _, f, ok := p4.IsHeaderFieldVar(v); ok && f == "ttl" {
				d.baseModel[v] = 64
			}
		}
	}
	for _, hf := range collectChecksums(prog) {
		header, field := hf[0], hf[1]
		decl := prog.Header(header)
		if decl == nil || decl.Field(field) == nil {
			continue
		}
		pl := csPlan{
			header: header, field: field,
			v: vt.Field(header, field),
			w: expr.Width(decl.Field(field).Width),
		}
		pl.valid, _ = vt.ValidSlot(header)
		pl.slot, _ = vt.FieldSlot(header, field)
		for _, f := range decl.Fields {
			if f.Name == field {
				continue
			}
			s, _ := vt.FieldSlot(header, f.Name)
			pl.in = append(pl.in, vt.Field(header, f.Name))
			pl.inSlots = append(pl.inSlots, s)
			pl.iw = append(pl.iw, expr.Width(f.Width))
		}
		d.csPlans = append(d.csPlans, pl)
	}
	return d
}

// csPlan precomputes one maintained checksum: its header and field, the
// destination variable, slot and width, the header's validity slot, and
// the input fields in declaration order — as variables (Concretize reads
// models), slots (the checker reads captures) and widths.
type csPlan struct {
	header, field string
	v             expr.Var
	valid, slot   int
	w             expr.Width
	in            []expr.Var
	inSlots       []int
	iw            []expr.Width
}

// hdrCheck is one declared header as the slot checker reads it: its
// validity slot and its field slots sorted by field name, the order
// mismatches are reported in.
type hdrCheck struct {
	name   string
	valid  int
	fields []string
	slots  []int
}

// assumed is a spec's assume clauses translated once, or why they do not
// translate.
type assumed struct {
	bs  []expr.Bool
	err error
}

// startClock opens a batch of stage timings; lap charges the time since
// the last reading to a stage and returns that reading. The readings are
// wall-clock measurements (Phases, the case latency), never scheduling
// times: the engine schedules on its own clock (see pipeline.go).
func (d *Driver) startClock() { d.mark = time.Now() }

func (d *Driver) lap(stage *time.Duration) time.Time {
	now := time.Now()
	*stage += now.Sub(d.mark)
	d.mark = now
	return now
}

// concretized caches a template's ID-independent concretization. The
// payload ID only ever appears in the 12-byte payload trailer — header
// fields, the marshaled header bytes and the predicted output never
// depend on it — so retransmissions and re-runs restamp the ID instead
// of re-deriving the whole case. Header slices and field maps are shared
// across the cases stamped from one entry; they are read-only after
// concretization. So is what the checker needs: the prediction in slot
// form, the input's TTL, and the specs whose assumptions the input meets.
type concretized struct {
	err        error
	skip       string
	entry      int
	headerWire []byte
	inHeaders  []packet.Header
	expHeaders []packet.Header
	// exp is the predicted output's header slots (p4.VarTable layout,
	// HeaderSlots long); nil when the path drops.
	exp []uint64
	// inTTLAlive: the input carries an ipv4.ttl above zero.
	inTTLAlive bool
	specs      []*spec.Spec
}

// stampedCase is a case and its packets, allocated together.
type stampedCase struct {
	c       Case
	in, exp packet.Packet
}

// concretizeFast is Concretize through the per-template cache; the
// engine's admission and retransmission paths use it. It also returns
// the cache entry the checker reads. A case costs two allocations: the
// case with its input and expected packets, and the wire, which ends in
// the ID trailer that both packets' payloads are.
func (d *Driver) concretizeFast(t *sym.Template, id uint64) (*Case, *concretized, error) {
	cc, ok := d.tmplCache[t]
	if !ok {
		cc = d.buildConcretized(t)
		if d.tmplCache == nil {
			d.tmplCache = map[*sym.Template]*concretized{}
		}
		d.tmplCache[t] = cc
	}
	if cc.err != nil {
		return nil, nil, cc.err
	}
	if cc.skip != "" {
		return &Case{Template: t, ID: id, Entry: cc.entry, SkipReason: cc.skip}, cc, nil
	}
	s := &stampedCase{c: Case{Template: t, ID: id, Entry: cc.entry}}
	n := len(cc.headerWire)
	s.c.Wire = packet.AppendID(append(make([]byte, 0, n+12), cc.headerWire...), id)
	pl := s.c.Wire[n:]
	s.in = packet.Packet{Headers: cc.inHeaders, Payload: pl}
	s.c.Input = &s.in
	if cc.exp != nil {
		s.exp = packet.Packet{Headers: cc.expHeaders, Payload: pl}
		s.c.Expected = &s.exp
	}
	return &s.c, cc, nil
}

func (d *Driver) buildConcretized(t *sym.Template) *concretized {
	// ID 0 is never allocated (allocID starts at 1), so the prototype
	// case cannot collide with a live capture.
	c, err := d.Concretize(t, 0)
	if err != nil {
		return &concretized{err: err}
	}
	cc := &concretized{skip: c.SkipReason, entry: c.Entry}
	if cc.skip != "" {
		return cc
	}
	cc.headerWire = c.Wire[:len(c.Wire)-len(c.Input.Payload)]
	cc.inHeaders = c.Input.Headers
	if c.Expected != nil {
		cc.expHeaders = c.Expected.Headers
		vt := p4.Vars(d.Prog)
		cc.exp = make([]uint64, vt.HeaderSlots())
		for _, h := range c.Expected.Headers {
			s, _ := vt.ValidSlot(h.Name)
			cc.exp[s] = 1
			for f, v := range h.Fields {
				s, _ := vt.FieldSlot(h.Name, f)
				cc.exp[s] = v
			}
		}
	}
	ttl, ok := c.Input.Field("ipv4", "ttl")
	cc.inTTLAlive = ok && ttl > 0
	for _, s := range d.Specs {
		if d.SpecApplies(s, c.Input) {
			cc.specs = append(cc.specs, s)
		}
	}
	return cc
}

// allocID returns the next unused payload ID.
func (d *Driver) allocID() uint64 {
	d.nextID++
	return d.nextID
}

// collectChecksums finds every update_checksum(h, f) in the program.
func collectChecksums(prog *p4.Program) [][2]string {
	seen := map[[2]string]bool{}
	var out [][2]string
	var walk func(stmts []p4.Stmt)
	walk = func(stmts []p4.Stmt) {
		for _, s := range stmts {
			switch t := s.(type) {
			case *p4.ChecksumStmt:
				k := [2]string{t.Header, t.Field}
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			case *p4.IfStmt:
				walk(t.Then)
				walk(t.Else)
			}
		}
	}
	for _, a := range prog.Actions {
		walk(a.Body)
	}
	for _, c := range prog.Controls {
		walk(c.Apply)
	}
	return out
}

// Concretize turns a template into a runnable case: it completes the
// model with defaults, resolves hash obligations (§4: compute when fixed,
// post-validate otherwise), synthesizes the input packet through the entry
// pipeline's parser, and predicts the expected output.
func (d *Driver) Concretize(t *sym.Template, id uint64) (*Case, error) {
	c := &Case{Template: t, ID: id}

	// Complete the model: every graph variable defaults to zero, except
	// TTL fields which default to a realistic 64 — a sender never emits
	// TTL-0 packets unless the path condition demands it. The defaults
	// are precomputed in New; each case clones them in one bulk copy.
	model := maps.Clone(d.baseModel)
	for v, val := range t.Model {
		model[v] = val
	}

	// The sender emits well-formed inputs: checksummed headers carry
	// valid checksums unless the path condition pins the field.
	for _, pl := range d.csPlans {
		if _, constrained := t.Model[pl.v]; constrained {
			continue
		}
		vals := d.csScratch[:0]
		for _, in := range pl.in {
			vals = append(vals, model[in])
		}
		model[pl.v] = pl.w.Trunc(hashfn.Checksum(vals, pl.iw))
		d.csScratch = vals[:0]
	}

	// Resolve hash obligations in order; a conflict with a constrained
	// hash variable invalidates the case ("removes unmatched ones").
	for _, ob := range t.HashObligations {
		vals := make([]uint64, len(ob.Inputs))
		widths := make([]expr.Width, len(ob.Inputs))
		ok := true
		for i, in := range ob.Inputs {
			v, err := expr.EvalArith(in, model)
			if err != nil {
				ok = false
				break
			}
			vals[i] = v
			widths[i] = in.Width()
		}
		if !ok {
			continue
		}
		var computed uint64
		if ob.Kind == cfg.Hash {
			computed = hashfn.Hash(vals, widths, ob.Width)
		} else {
			computed = ob.Width.Trunc(hashfn.Checksum(vals, widths))
		}
		model[ob.Var] = computed
		// The solver picked the model's value without knowing the hash
		// function; the computed one serves as well when the path
		// condition still holds with it.
		if prev, constrained := t.Model[ob.Var]; constrained && prev != computed && !holds(t.Constraints, model) {
			c.SkipReason = fmt.Sprintf("hash post-validation failed for %s: model %d, computed %d", ob.Var, prev, computed)
			return c, nil
		}
	}

	// Entry point.
	if v, ok := model[cfg.EntryVar]; ok {
		c.Entry = int(v)
	}
	entries := 1
	if d.Prog.Topology != nil {
		entries = len(d.Prog.Topology.Entries)
	}
	if c.Entry >= entries {
		c.Entry = 0
	}

	// Synthesize the input through the entry pipeline's parser.
	entryName := d.entryPipeline(c.Entry)
	pl := d.Prog.Pipeline(entryName)
	if pl == nil || pl.Parser == "" {
		// Headerless pipelines take raw payload-only packets.
		c.Input = &packet.Packet{Payload: packet.WithID(id)}
	} else {
		in, err := packet.Synthesize(d.Prog, pl.Parser, model, id)
		if err != nil {
			return nil, fmt.Errorf("driver: synthesize: %w", err)
		}
		c.Input = in
	}
	wire, err := c.Input.Marshal(d.Prog)
	if err != nil {
		return nil, fmt.Errorf("driver: marshal: %w", err)
	}
	c.Wire = wire

	// Predict the output.
	if t.Dropped {
		c.Expected = nil
		return c, nil
	}
	final := maps.Clone(model)
	for s, valExpr := range t.Final {
		v := t.Vars[s]
		if valExpr == nil || v.IsAux() {
			continue
		}
		val, err := expr.EvalArith(valExpr, model)
		if err != nil {
			continue // unknowable (free hash input path); checker skips it
		}
		final[v] = val
	}
	c.Expected = packet.FromState(d.Prog, final, packet.WithID(id))
	return c, nil
}

// holds reports whether every condition is true under model; one that
// cannot be evaluated does not hold.
func holds(conds []expr.Bool, model expr.State) bool {
	for _, b := range conds {
		if ok, err := expr.EvalBool(b, model); err != nil || !ok {
			return false
		}
	}
	return true
}

func (d *Driver) entryPipeline(idx int) string {
	if d.Prog.Topology != nil {
		if idx < len(d.Prog.Topology.Entries) {
			return d.Prog.Topology.Entries[idx]
		}
		return d.Prog.Topology.Entries[0]
	}
	return d.Prog.Pipelines[0].Name
}

// caseBudget derives the per-case deadline when CaseTimeout is unset:
// every attempt's capture window, plus the full backoff ladder, plus
// slack for transport latency. A ladder too long to count in a Duration
// saturates it.
func (d *Driver) caseBudget() time.Duration {
	if d.CaseTimeout > 0 {
		return d.CaseTimeout
	}
	budget := time.Duration(d.Retries+1)*d.RecvTimeout + 250*time.Millisecond
	step := d.Backoff
	for i := 0; i < d.Retries; i++ {
		if step > 0 && budget > math.MaxInt64-step {
			return math.MaxInt64
		}
		budget += step
		step = doubled(step)
	}
	return budget
}

// doubled is the next rung of a backoff ladder: d twice over, saturating
// instead of wrapping past the largest Duration.
func doubled(d time.Duration) time.Duration {
	if d > math.MaxInt64/2 {
		return math.MaxInt64
	}
	return 2 * d
}

// SpecApplies evaluates a spec's assume clauses against the input packet.
// A spec whose assumes do not translate applies to nothing; RunTemplates
// rejects such a spec up front.
func (d *Driver) SpecApplies(s *spec.Spec, in *packet.Packet) bool {
	bs, err := d.assumeConstraints(s)
	if err != nil {
		return false
	}
	st := maps.Clone(d.graphZero)
	in.ToState(st)
	for _, b := range bs {
		ok, err := expr.EvalBool(b, st)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// assumeConstraints translates a spec's assume clauses, once per driver.
func (d *Driver) assumeConstraints(s *spec.Spec) ([]expr.Bool, error) {
	a, ok := d.assumes[s]
	if !ok {
		a.bs, a.err = s.AssumeConstraints(d.Prog)
		if d.assumes == nil {
			d.assumes = map[*spec.Spec]assumed{}
		}
		d.assumes[s] = a
	}
	return a.bs, a.err
}
