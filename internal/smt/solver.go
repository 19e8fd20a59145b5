package smt

import (
	"fmt"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
)

// Result is the outcome of a satisfiability check.
type Result int

// Satisfiability results. Unknown is returned when the bounded search
// exhausts its budget; callers treat Unknown conservatively (keep the path)
// so path coverage is never silently lost.
const (
	Unsat Result = iota
	Sat
	Unknown
)

func (r Result) String() string {
	switch r {
	case Unsat:
		return "UNSAT"
	case Sat:
		return "SAT"
	default:
		return "UNKNOWN"
	}
}

// Stats counts solver activity. Fig. 11b / Fig. 12b of the paper report the
// number of SMT calls; Checks is that counter.
//
// Concurrency: a Stats value belongs to exactly one Solver, and a Solver
// is single-goroutine by contract, so these are plain integers. Counters
// that cross goroutines (the shared VerdictCache, the parallel engine's
// sharedState) are atomics at their own sites; parallel
// exploration merges per-worker Stats only after the worker pool joins.
type Stats struct {
	Checks       uint64 // satisfiability checks (the paper's "SMT calls")
	SatResults   uint64
	UnsatResults uint64
	Unknowns     uint64
	Propagations uint64
	Backtracks   uint64
	Models       uint64
	// CacheHits counts checks answered from a shared VerdictCache without
	// running the solver; cache hits do not increment Checks.
	CacheHits uint64
	// BudgetExhausted counts Unknown results caused specifically by the
	// step budget running out (a subset of Unknowns). The
	// exploration layer surfaces this per pipeline so degraded-but-sound
	// coverage is visible rather than silent.
	BudgetExhausted uint64
	// TruncatedUnknown counts the Unknown results of a search that found no
	// model after cutting a candidate list short of its interval: an Unsat
	// there would not be a proof (ROADMAP item 2), so the solver does not
	// answer one (a subset of Unknowns).
	TruncatedUnknown uint64
	// Latency is the wall-clock of each check the solver ran (log2
	// buckets, nanoseconds; see check): its Count is Checks.
	Latency obs.Histogram
}

// Add accumulates another solver's counters, the merge step for parallel
// exploration and multi-phase aggregation.
func (s *Stats) Add(o Stats) {
	s.Checks += o.Checks
	s.SatResults += o.SatResults
	s.UnsatResults += o.UnsatResults
	s.Unknowns += o.Unknowns
	s.Propagations += o.Propagations
	s.Backtracks += o.Backtracks
	s.Models += o.Models
	s.CacheHits += o.CacheHits
	s.BudgetExhausted += o.BudgetExhausted
	s.TruncatedUnknown += o.TruncatedUnknown
	s.Latency.Add(&o.Latency)
}

// Options configure a Solver.
type Options struct {
	// Incremental enables reuse of domain state across Push/Pop
	// (the paper's incremental-solving optimization). When false, every
	// check recomputes propagation from scratch — the configuration the
	// non-incremental ablation benchmarks use.
	Incremental bool
	// SearchBudget bounds the number of backtracking steps per check.
	SearchBudget int
	// CandidatesPerVar bounds how many values are tried per free variable.
	CandidatesPerVar int
	// PerCheckOverhead adds a fixed cost to every satisfiability check,
	// emulating out-of-process SMT solvers (the paper drove Z3 over IPC,
	// where each call costs on the order of a millisecond). Used by the
	// solver-cost sensitivity ablation; zero for production. Checks
	// answered from the verdict cache skip the overhead, modeling the
	// avoided IPC round-trip.
	PerCheckOverhead time.Duration
	// Cache, when non-nil, shares satisfiability verdicts across solvers.
	// Only the benchmark sets it (see VerdictCache). Model extraction is
	// never cached — only plain Check verdicts.
	Cache *VerdictCache
}

// DefaultOptions returns the production configuration.
func DefaultOptions() Options {
	return Options{Incremental: true, SearchBudget: 200000, CandidatesPerVar: 24}
}

// frame is one push level of the assertion stack: the heights of the
// solver's stacks when it was pushed, which Pop truncates back to. Frames
// are values in a reusable arena.
type frame struct {
	baseAtoms   int
	baseDefines int
	baseMasked  int
	baseHints   int
	baseTrail   int
	baseLive    int
	failed      bool // propagation in this frame already derived bottom
	// hsum/hxor/hn accumulate the multiset digest of the constraints
	// asserted in this frame, for the shared verdict cache key.
	hsum, hxor uint64
	hn         uint32
}

// varState is everything the solver keeps about one variable, indexed by
// the variable's slot.
type varState struct {
	name expr.Var
	dom  domain
	// live: some asserted atom mentions the variable. A variable comes to
	// life where an atom first touches it and dies when that frame pops.
	live bool
	// saved is the depth of the frame that last saved dom on the trail (or
	// in which the variable came to life): a frame saves a domain once.
	saved int32
	// hints are the constants asserted next to the variable, in assert
	// order: the search's first candidates.
	hints []uint64
}

// undo is one trail entry: a domain's bounds and exclusion count before a
// frame first narrowed it, and the variable's previous saved stamp.
type undo struct {
	slot, saved, nExcl int32
	old                bounds
}

// Solver is an incremental conjunction solver with push/pop.
//
// The zero value is not usable; construct with New. A Solver is owned by
// one goroutine; nothing here is synchronized.
type Solver struct {
	opts Options
	// frames is the push stack; see frame. atoms is the flat constraint
	// arena shared by all frames (bottom-up), defines indexes its
	// atomDefine entries so directional propagation never rescans
	// non-define atoms, and masked its atomMaskNe entries for refuted.
	frames  []frame
	atoms   []atom
	defines []int32
	masked  []int32
	nFailed int // frames with failed set
	stats   Stats
	// slots interns each variable to a dense slot the first time a
	// normalized atom mentions it — on an assert-memo miss, never per
	// Assert — and vars holds the per-variable state by slot. Slot numbers
	// are this solver's own: two solvers number the same variables
	// differently, so nothing that decides a verdict or a model may depend
	// on their order (sortFree breaks ties by name, hints and defines are
	// scanned in assert order).
	slots map[expr.Var]int32
	vars  []varState
	// live lists the live variables in the order they came to life; trail
	// is the undo log of domain narrowings; hintLog records which
	// variable each asserted hint went to. Pop truncates all three.
	live    []int32
	trail   []undo
	hintLog []int32
	// The assert memo: what Assert derives from a condition, found again
	// without walking more of the condition than it has to. See memo.go.
	memo     map[uint64]*assertMemo
	memoLen  int
	conds    []expr.Bool
	condMemo []*assertMemo
	// Scratch of a memo miss: a conjunction's conjuncts, those of them
	// the memo has not seen, and the conjuncts of one simplified condition.
	leaves, conjs []expr.Bool
	fresh         []freshPart
	// truncated reports that the query in flight exhausted a candidate
	// list that was cut short; allBound, that the search's last consistency
	// scan could evaluate every constraint.
	truncated bool
	allBound  bool
	// Reusable search scratch (see search.go): the assignment under
	// construction, the values evalUnderFixed reads, the free-variable
	// order, the delta-fixed undo list for batched checks, per-depth
	// candidate buffers and the per-check budget.
	assign       expr.SlotState
	fixed        expr.SlotState
	scratchFree  []int32
	scratchDelta []int32
	candBufs     [][]uint64
	budget       searchBudget
	// batch holds the shared-prefix precomputation for CheckBatch.
	batch batchPrep
}

// New returns a solver with the given options.
func New(opts Options) *Solver {
	if opts.SearchBudget <= 0 {
		opts.SearchBudget = DefaultOptions().SearchBudget
	}
	if opts.CandidatesPerVar <= 0 {
		opts.CandidatesPerVar = DefaultOptions().CandidatesPerVar
	}
	return &Solver{
		opts:   opts,
		frames: make([]frame, 1, 16),
		slots:  make(map[expr.Var]int32),
		memo:   make(map[uint64]*assertMemo),
	}
}

// slot returns v's slot, interning it on first sight.
func (s *Solver) slot(v expr.Var) int32 {
	sl, ok := s.slots[v]
	if !ok {
		sl = int32(len(s.vars))
		s.slots[v] = sl
		s.vars = append(s.vars, varState{name: v})
		s.assign.Val = append(s.assign.Val, 0)
		s.assign.Set = append(s.assign.Set, false)
		// evalUnderFixed evaluates only once every operand is fixed.
		s.fixed.Val = append(s.fixed.Val, 0)
		s.fixed.Set = append(s.fixed.Set, true)
	}
	return sl
}

// Stats returns a copy of the solver's counters.
func (s *Solver) Stats() Stats { return s.stats }

// Depth returns the current number of pushed frames (excluding the root).
func (s *Solver) Depth() int { return len(s.frames) - 1 }

// Push opens a new assertion frame. Frames are recycled from the stack
// arena, so steady-state Push allocates nothing.
func (s *Solver) Push() {
	s.frames = append(s.frames, frame{
		baseAtoms:   len(s.atoms),
		baseDefines: len(s.defines),
		baseMasked:  len(s.masked),
		baseHints:   len(s.hintLog),
		baseTrail:   len(s.trail),
		baseLive:    len(s.live),
	})
}

// Pop discards the top assertion frame: the domains it narrowed get back
// what the trail saved, the variables it brought to life die.
func (s *Solver) Pop() {
	if len(s.frames) <= 1 {
		panic("smt: Pop on empty frame stack")
	}
	top := &s.frames[len(s.frames)-1]
	if s.opts.Incremental {
		for i := len(s.trail) - 1; i >= top.baseTrail; i-- {
			u := &s.trail[i]
			v := &s.vars[u.slot]
			v.saved, v.dom.bounds = u.saved, u.old
			v.dom.excl.truncate(int(u.nExcl))
		}
		s.trail = s.trail[:top.baseTrail]
		s.kill(top.baseLive)
	}
	// Unwind the hint index in reverse append order.
	for i := len(s.hintLog) - 1; i >= top.baseHints; i-- {
		h := &s.vars[s.hintLog[i]].hints
		*h = (*h)[:len(*h)-1]
	}
	s.hintLog = s.hintLog[:top.baseHints]
	s.atoms = s.atoms[:top.baseAtoms]
	s.defines = s.defines[:top.baseDefines]
	s.masked = s.masked[:top.baseMasked]
	if top.failed {
		s.nFailed--
	}
	s.frames = s.frames[:len(s.frames)-1]
}

// kill ends the life of every variable that came to life after the first
// base.
func (s *Solver) kill(base int) {
	for _, sl := range s.live[base:] {
		s.vars[sl].live = false
	}
	s.live = s.live[:base]
}

// Assert adds a constraint to the current frame. In incremental mode the
// constraint's atoms are propagated into the domains immediately, so a
// subsequent Check can often answer from the refined domains alone.
// Normalization, hashing, and hint extraction are memoized per constraint
// value, so re-asserting the conditions of a hot path allocates nothing.
func (s *Solver) Assert(b expr.Bool) { s.assert(s.memoize(b)) }

func (s *Solver) assert(m *assertMemo) {
	top := &s.frames[len(s.frames)-1]
	if s.opts.Cache != nil {
		top.hsum += m.hash
		top.hxor ^= m.hash
		top.hn++
	}
	base := len(s.atoms)
	s.appendAtoms(m)
	for _, p := range m.parts {
		s.appendAtoms(p)
	}
	if !s.opts.Incremental {
		return
	}
	// top stays valid: propagation never grows the frame stack.
	failed := top.failed
	for i := base; i < len(s.atoms); i++ {
		if !s.propagateAtom(&s.atoms[i]) {
			failed = true
		}
	}
	if !failed && !s.propagateDefines() {
		failed = true
	}
	if failed && !top.failed {
		top.failed = true
		s.nFailed++
	}
}

// appendAtoms adds m's own atoms to the arena and indexes its defines and
// masked atoms, then merges its hint entries into the live index, logging
// each append so Pop can unwind it.
func (s *Solver) appendAtoms(m *assertMemo) {
	base := len(s.atoms)
	s.atoms = append(s.atoms, m.atoms...)
	for i := base; i < len(s.atoms); i++ {
		switch s.atoms[i].kind {
		case atomDefine:
			s.defines = append(s.defines, int32(i))
		case atomMaskNe:
			s.masked = append(s.masked, int32(i))
		}
	}
	for _, e := range m.hints {
		h := &s.vars[e.v].hints
		*h = append(*h, e.val)
		s.hintLog = append(s.hintLog, e.v)
	}
}

// dom returns the domain of slot sl for narrowing. A dead variable comes to
// life with the full domain of width w; a live one is saved on the trail
// the first time a frame above the root touches it. (Non-incremental mode
// rebuilds every domain at the depth of the check, so it saves nothing.)
func (s *Solver) dom(sl int32, w expr.Width) *domain {
	v := &s.vars[sl]
	depth := int32(len(s.frames) - 1)
	switch {
	case !v.live:
		v.live, v.saved = true, depth
		v.dom.reset(w)
		s.live = append(s.live, sl)
	case v.saved != depth:
		s.trail = append(s.trail, undo{slot: sl, saved: v.saved, nExcl: int32(len(v.dom.excl.vals)), old: v.dom.bounds})
		v.saved = depth
	}
	return &v.dom
}

// propagateAtom applies one atom to the domains. Returns false if the atom
// makes the state certainly unsatisfiable.
func (s *Solver) propagateAtom(a *atom) bool {
	s.stats.Propagations++
	switch a.kind {
	case atomFalse:
		return false
	case atomInterval:
		d := s.dom(a.v, a.w)
		switch a.op {
		case expr.CmpEq:
			d.intersectInterval(a.c, a.c)
		case expr.CmpGt:
			if a.c >= a.w.Mask() {
				return false
			}
			d.intersectInterval(a.c+1, d.hi)
		case expr.CmpGe:
			d.intersectInterval(a.c, d.hi)
		case expr.CmpLt:
			if a.c == 0 {
				return false
			}
			d.intersectInterval(d.lo, a.c-1)
		case expr.CmpLe:
			d.intersectInterval(d.lo, a.c)
		}
		d.tightenToBits()
		return !d.empty()
	case atomBits:
		d := s.dom(a.v, a.w)
		d.requireBits(a.mask, a.c)
		d.tightenToBits()
		return !d.empty()
	case atomExclude:
		d := s.dom(a.v, a.w)
		d.exclude(a.c)
		return !d.empty()
	case atomVarEq:
		dv := s.dom(a.v, a.w)
		du := s.dom(a.u, a.w)
		// Intersect both domains (single pass; fixed point is rebuilt on
		// each Check for the deferred list).
		lo, hi := max(dv.lo, du.lo), min(dv.hi, du.hi)
		dv.intersectInterval(lo, hi)
		du.intersectInterval(lo, hi)
		set, clr := dv.setBits|du.setBits, dv.clrBits|du.clrBits
		dv.requireBits(set|clr, set)
		du.requireBits(set|clr, set)
		return !dv.empty() && !du.empty()
	case atomDefine, atomDeferred, atomMaskNe:
		// A define is handled by propagateDefines once its expression is
		// constant under the domains, a deferred atom by the search (a
		// masked disequality also by refuted); all register their
		// variables so the search knows about them.
		for _, vw := range a.tvars {
			s.dom(vw.v, vw.w)
		}
	}
	return true
}

// propagateDefines fixes variables whose defining expressions have become
// constant under the current domains (directional propagation). Returns
// false on contradiction. Only the define index is scanned, never the
// full atom arena.
func (s *Solver) propagateDefines() bool {
	changed := true
	for iter := 0; changed && iter < 64; iter++ {
		changed = false
		for _, idx := range s.defines {
			a := &s.atoms[idx]
			val, ok := s.evalUnderFixed(a)
			if !ok {
				continue
			}
			val = a.w.Trunc(val)
			if f, isFixed := s.vars[a.v].dom.fixed(); isFixed {
				if f != val {
					return false
				}
				continue
			}
			d := s.dom(a.v, a.w)
			d.intersectInterval(val, val)
			if d.empty() {
				return false
			}
			changed = true
			s.stats.Propagations++
		}
	}
	return true
}

// evalUnderFixed evaluates a define atom's expression if every variable it
// references is fixed by its domain.
func (s *Solver) evalUnderFixed(a *atom) (uint64, bool) {
	for _, sl := range a.erefs {
		v := &s.vars[sl]
		if !v.live {
			return 0, false
		}
		f, isFixed := v.dom.fixed()
		if !isFixed {
			return 0, false
		}
		s.fixed.Val[sl] = f
	}
	return s.fixed.EvalArith(a.e, a.erefs)
}

// Check decides satisfiability of the conjunction of all asserted
// constraints. It increments the Checks counter (the paper's "SMT calls").
func (s *Solver) Check() Result {
	r, _ := s.check(false, nil)
	return r
}

// Model checks satisfiability and, when satisfiable, returns a concrete
// assignment for every variable mentioned by the constraints.
func (s *Solver) Model() (expr.State, Result) {
	r, m := s.check(true, nil)
	if r == Sat {
		s.stats.Models++
	}
	return m, r
}

// batchPrep caches the shared-prefix work CheckBatch factors out of a
// sibling sweep: the prefix cache key, its failure/emptiness status, and
// its fixed/free variable split. Per sibling, only the delta the sibling's
// own propagation touched (what its frame saved on the trail or brought to
// life) is re-examined.
type batchPrep struct {
	prefixKey    condKey
	prefixFailed bool
	prefixEmpty  bool
	prefixFree   []int32
}

// prepare runs the once-per-batch sweep over the prefix: digest, failure
// flags, domain emptiness, and the fixed/free split. Prefix-fixed
// variables are installed into the scratch assignment; they stay valid for
// every sibling because a sibling's propagation can only narrow a domain,
// and a narrowed singleton is either unchanged or empty (caught by the
// per-sibling delta scan).
func (bp *batchPrep) prepare(s *Solver) {
	if s.opts.Cache != nil {
		bp.prefixKey = s.condKey()
	}
	bp.prefixFailed = s.nFailed > 0
	bp.prefixEmpty = false
	bp.prefixFree = bp.prefixFree[:0]
	clear(s.assign.Set)
	if !s.opts.Incremental {
		return
	}
	for _, sl := range s.live {
		d := &s.vars[sl].dom
		if d.empty() {
			bp.prefixEmpty = true
			return
		}
		if val, ok := d.fixed(); ok {
			s.assign.Val[sl], s.assign.Set[sl] = val, true
		} else {
			bp.prefixFree = append(bp.prefixFree, sl)
		}
	}
}

// CheckBatch decides, for each condition, the satisfiability of the
// current assertion stack extended with that single condition — exactly
// as if the caller ran Push; Assert(cond); Check(); Pop() for each
// element, with identical verdicts, stats, cache interaction, and budget
// semantics. The shared prefix (cache digest, emptiness scan, fixed/free
// variable split, fixed-variable assignments) is computed once for the
// whole batch; each sibling then pays only for the domains its own
// propagation touched. This is what makes a k-way table-match expansion
// cost ~one propagation sweep instead of k.
//
// results is an optional reusable buffer.
func (s *Solver) CheckBatch(conds []expr.Bool, results []Result) []Result {
	if cap(results) < len(conds) {
		results = make([]Result, len(conds))
	}
	results = results[:len(conds)]
	if len(conds) == 0 {
		return results
	}
	bp := &s.batch
	bp.prepare(s)
	for i, c := range conds {
		s.Push()
		s.Assert(c)
		results[i], _ = s.check(false, bp)
		s.Pop()
	}
	return results
}

// check decides satisfiability and performs ALL query bookkeeping: the
// Stats fields are incremented here, at one site per outcome, and the
// latency of every solved check is observed. solve does the actual
// deciding.
// bp, non-nil only under CheckBatch, supplies the shared-prefix
// precomputation.
func (s *Solver) check(wantModel bool, bp *batchPrep) (Result, expr.State) {
	// Shared verdict cache: plain checks whose condition set was already
	// decided (by this solver or a sibling worker) answer without running
	// the solver at all — no Checks increment, no emulated IPC overhead,
	// and no latency sample (a ~100ns map hit would drown real solve
	// times in the histogram).
	var key condKey
	cacheable := !wantModel && s.opts.Cache != nil
	if cacheable {
		if bp != nil {
			// The prefix digest is shared; only the top frame's accumulators
			// differ per sibling.
			top := &s.frames[len(s.frames)-1]
			key = condKey{
				sum: bp.prefixKey.sum + top.hsum,
				xor: bp.prefixKey.xor ^ top.hxor,
				n:   bp.prefixKey.n + top.hn,
			}
		} else {
			key = s.condKey()
		}
		if r, ok := s.opts.Cache.lookup(key); ok {
			s.stats.CacheHits++
			return r, nil
		}
	}
	s.stats.Checks++
	s.truncated = false
	start := time.Now()
	res := s.solve(bp)
	truncated := res == Unsat && s.truncated
	if truncated {
		res = Unknown
	}
	s.stats.Latency.Observe(uint64(time.Since(start)))
	if cacheable {
		s.opts.Cache.store(key, res) // Unknown is dropped by store
	}
	var model expr.State
	switch res {
	case Sat:
		s.stats.SatResults++
		if wantModel {
			// Templates retain the model, so it is the one thing a query
			// allocates: every live variable is assigned by now.
			model = make(expr.State, len(s.live))
			for _, sl := range s.live {
				model[s.vars[sl].name] = s.assign.Val[sl]
			}
		}
	case Unsat:
		s.stats.UnsatResults++
	default:
		s.stats.Unknowns++
		if truncated {
			s.stats.TruncatedUnknown++
		} else {
			s.stats.BudgetExhausted++ // solve answers Unknown for nothing else
		}
	}
	return res, model
}

// solve runs one satisfiability decision with no stats side effects (see
// check). It answers Unknown only when the search's step budget ran out.
// A Sat result leaves the model in s.assign.
func (s *Solver) solve(bp *batchPrep) Result {
	if s.opts.PerCheckOverhead > 0 {
		for start := time.Now(); time.Since(start) < s.opts.PerCheckOverhead; {
		}
	}
	if bp != nil && s.opts.Incremental {
		// Batched sibling: consult the precomputed prefix status plus the
		// delta this sibling's propagation touched.
		top := &s.frames[len(s.frames)-1]
		if bp.prefixFailed || top.failed || bp.prefixEmpty {
			return Unsat
		}
		for i := top.baseTrail; i < len(s.trail); i++ {
			if s.vars[s.trail[i].slot].dom.empty() {
				return Unsat
			}
		}
		for _, sl := range s.live[top.baseLive:] {
			if s.vars[sl].dom.empty() {
				return Unsat
			}
		}
		return s.search(bp)
	}
	if s.nFailed > 0 || !s.opts.Incremental && !s.rebuild() {
		return Unsat
	}
	return s.search(nil)
}

// rebuild recomputes every domain from the atom arena, into the same slot
// table: what non-incremental mode does for each check instead of
// propagating on Assert.
func (s *Solver) rebuild() bool {
	s.kill(0)
	for i := range s.atoms {
		if !s.propagateAtom(&s.atoms[i]) {
			return false
		}
	}
	return s.propagateDefines()
}

// String summarizes the solver state for debugging.
func (s *Solver) String() string {
	return fmt.Sprintf("smt.Solver{frames=%d vars=%d checks=%d}", len(s.frames), len(s.live), s.stats.Checks)
}
