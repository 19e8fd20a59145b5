package smt

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
)

// ErrBudget is the sentinel for a query that exhausted its step or time
// budget. Such a query answers Unknown — never Unsat — so callers that
// treat Unknown conservatively (keep the path) stay sound under any
// budget. Use errors.Is(err, ErrBudget) against LastUnknown.
var ErrBudget = errors.New("smt: query budget exhausted")

// BudgetError is the typed budget-exhaustion report: which limit was
// binding for the query that returned Unknown.
type BudgetError struct {
	// Steps is the backtracking-step budget, when it was the binding
	// limit (0 otherwise).
	Steps int
	// Timeout is the per-query wall-clock budget, when it was the
	// binding limit (0 otherwise).
	Timeout time.Duration
}

func (e *BudgetError) Error() string {
	if e.Timeout > 0 {
		return fmt.Sprintf("smt: query exceeded wall-clock budget %v", e.Timeout)
	}
	return fmt.Sprintf("smt: query exceeded step budget %d", e.Steps)
}

// Unwrap makes errors.Is(err, ErrBudget) true.
func (e *BudgetError) Unwrap() error { return ErrBudget }

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
// that cross goroutines (the shared VerdictCache, the obs registry, the
// parallel engine's sharedState) are atomics at their own sites; parallel
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
	// step or wall-clock budget running out (a subset of Unknowns). The
	// exploration layer surfaces this per pipeline so degraded-but-sound
	// coverage is visible rather than silent.
	BudgetExhausted uint64
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
	// CheckTimeout bounds the wall-clock time of a single satisfiability
	// check (zero means none). A check that exceeds it returns Unknown
	// with a typed *BudgetError rather than running on — the graceful
	// degradation path for production-scale programs where one
	// pathological query must not stall the whole exploration. Callers
	// keep Unknown paths conservatively, so no coverage is silently lost.
	CheckTimeout time.Duration
	// CandidatesPerVar bounds how many values are tried per free variable.
	CandidatesPerVar int
	// PerCheckOverhead adds a fixed cost to every satisfiability check,
	// emulating out-of-process SMT solvers (the paper drove Z3 over IPC,
	// where each call costs on the order of a millisecond). Used by the
	// solver-cost sensitivity ablation; zero for production. Checks
	// answered from the verdict cache skip the overhead, modeling the
	// avoided IPC round-trip.
	PerCheckOverhead time.Duration
	// Cache, when non-nil, shares satisfiability verdicts across solvers
	// (and across the workers of a parallel exploration). Model extraction
	// is never cached — only plain Check verdicts.
	Cache *VerdictCache
}

// DefaultOptions returns the production configuration.
func DefaultOptions() Options {
	return Options{Incremental: true, SearchBudget: 200000, CandidatesPerVar: 24}
}

// frame is one push level of the assertion stack. Frames are values in a
// reusable stack arena: Push revives the next slot (keeping its maps and
// slices warm), Pop truncates. The atoms themselves live in the solver's
// flat arena; a frame only records its base offsets.
type frame struct {
	// baseAtoms/baseDefines/baseHints are the lengths of the solver's
	// flat atom arena, define index, and hint undo log at the moment this
	// frame was pushed; Pop truncates back to them.
	baseAtoms   int
	baseDefines int
	baseHints   int
	// domSnapshot holds, for incremental mode, the domains as they were
	// before this frame's atoms were propagated (copy-on-write: only
	// domains this frame changed are present).
	domSnapshot map[expr.Var]*domain
	// newVars lists variables first seen in this frame.
	newVars []expr.Var
	failed  bool // propagation in this frame already derived bottom
	// hsum/hxor/hn accumulate the multiset digest of the constraints
	// asserted in this frame, for the shared verdict cache key.
	hsum, hxor uint64
	hn         uint32
}

// maxFreeDomains bounds the domain freelist so one excursion into a deep
// subtree cannot pin memory for the rest of the run.
const maxFreeDomains = 4096

// Solver is an incremental conjunction solver with push/pop.
//
// The zero value is not usable; construct with New. A Solver is owned by
// one goroutine; nothing here is synchronized.
type Solver struct {
	opts Options
	// frames is the push stack; see frame. atoms is the flat constraint
	// arena shared by all frames (bottom-up), defines indexes its
	// atomDefine entries so directional propagation never rescans
	// non-define atoms.
	frames  []frame
	atoms   []atom
	defines []int32
	domains map[expr.Var]*domain
	stats   Stats
	// widths remembers the declared width of each variable.
	widths map[expr.Var]expr.Width
	// memo holds what Assert derives from a constraint value, so that one
	// lookup serves a repeat. Path conditions over raw input fields are
	// asserted verbatim on every visit of their predicate node
	// (copy-on-write substitution preserves identity), so summarized-chain
	// conjunctions hit it hard. hints/hintLog maintain the live hint index
	// incrementally under Assert/Pop so no per-check rebuild is needed.
	memo    map[expr.Bool]assertMemo
	hints   map[expr.Var][]uint64
	hintLog []expr.Var
	// lastUnknown is the typed reason the most recent Check/Model
	// returned Unknown (a *BudgetError), nil otherwise.
	lastUnknown error
	// freeDoms recycles copy-on-write domain clones freed by Pop, so
	// steady-state Push/Assert/Pop cycles allocate nothing.
	freeDoms []*domain
	// Reusable search scratch (see search.go): the non-model assignment
	// map, the free-variable order, per-depth candidate buffers, the
	// delta-fixed undo list for batched checks, the define-evaluation
	// state, and the per-check budget.
	scratchSt    expr.State
	scratchFree  []expr.Var
	scratchDelta []expr.Var
	candBufs     [][]uint64
	evalSt       expr.State
	budget       searchBudget
	// batch holds the shared-prefix precomputation for CheckBatch.
	batch batchPrep
}

// assertMemo is the per-constraint-value part of Assert: the normalized
// atoms, the search hints they contribute, and (when a verdict cache is
// configured) the constraint's digest for the cache key.
type assertMemo struct {
	atoms []atom
	hints []hintEntry
	hash  uint64
}

// New returns a solver with the given options.
func New(opts Options) *Solver {
	if opts.SearchBudget <= 0 {
		opts.SearchBudget = DefaultOptions().SearchBudget
	}
	if opts.CandidatesPerVar <= 0 {
		opts.CandidatesPerVar = DefaultOptions().CandidatesPerVar
	}
	s := &Solver{
		opts:      opts,
		domains:   make(map[expr.Var]*domain),
		widths:    make(map[expr.Var]expr.Width),
		memo:      make(map[expr.Bool]assertMemo),
		hints:     make(map[expr.Var][]uint64),
		scratchSt: expr.State{},
		evalSt:    expr.State{},
	}
	s.frames = make([]frame, 1, 16)
	s.frames[0].domSnapshot = map[expr.Var]*domain{}
	return s
}

// Stats returns a copy of the solver's counters.
func (s *Solver) Stats() Stats { return s.stats }

// LastUnknown explains the most recent Check/Model that returned
// Unknown: a *BudgetError (errors.Is(err, ErrBudget)) when a budget was
// the cause, nil when the last query did not end Unknown. The value is
// overwritten by every check.
func (s *Solver) LastUnknown() error { return s.lastUnknown }

// ResetStats zeroes the counters.
func (s *Solver) ResetStats() { s.stats = Stats{} }

// Depth returns the current number of pushed frames (excluding the root).
func (s *Solver) Depth() int { return len(s.frames) - 1 }

// Push opens a new assertion frame. Frames are recycled from the stack
// arena, so steady-state Push allocates nothing.
func (s *Solver) Push() {
	if len(s.frames) < cap(s.frames) {
		s.frames = s.frames[:len(s.frames)+1]
	} else {
		s.frames = append(s.frames, frame{})
	}
	top := &s.frames[len(s.frames)-1]
	top.baseAtoms = len(s.atoms)
	top.baseDefines = len(s.defines)
	top.baseHints = len(s.hintLog)
	if top.domSnapshot == nil {
		top.domSnapshot = map[expr.Var]*domain{}
	} else {
		clear(top.domSnapshot)
	}
	top.newVars = top.newVars[:0]
	top.failed = false
	top.hsum, top.hxor, top.hn = 0, 0, 0
}

// Pop discards the top assertion frame, restoring domains to their state
// before the frame was pushed. Replaced domain versions return to the
// freelist.
func (s *Solver) Pop() {
	if len(s.frames) <= 1 {
		panic("smt: Pop on empty frame stack")
	}
	top := &s.frames[len(s.frames)-1]
	if s.opts.Incremental {
		for v, d := range top.domSnapshot {
			if cur := s.domains[v]; cur != nil && cur != d {
				s.freeDomain(cur)
			}
			s.domains[v] = d
		}
		for _, v := range top.newVars {
			if d := s.domains[v]; d != nil {
				s.freeDomain(d)
			}
			delete(s.domains, v)
		}
	}
	// Unwind the hint index in reverse append order.
	for i := len(s.hintLog) - 1; i >= top.baseHints; i-- {
		v := s.hintLog[i]
		hv := s.hints[v]
		s.hints[v] = hv[:len(hv)-1]
	}
	s.hintLog = s.hintLog[:top.baseHints]
	s.atoms = s.atoms[:top.baseAtoms]
	s.defines = s.defines[:top.baseDefines]
	s.frames = s.frames[:len(s.frames)-1]
}

// allocDomain draws a fresh domain from the freelist (or the heap).
func (s *Solver) allocDomain(w expr.Width) *domain {
	if n := len(s.freeDoms); n > 0 {
		d := s.freeDoms[n-1]
		s.freeDoms = s.freeDoms[:n-1]
		d.w, d.lo, d.hi = w, 0, w.Mask()
		d.setBits, d.clrBits = 0, 0
		if d.excl != nil {
			clear(d.excl)
		}
		return d
	}
	return newDomain(w)
}

// cloneDomain copies d into a freelist-backed domain.
func (s *Solver) cloneDomain(d *domain) *domain {
	nd := s.allocDomain(d.w)
	nd.lo, nd.hi, nd.setBits, nd.clrBits = d.lo, d.hi, d.setBits, d.clrBits
	if len(d.excl) > 0 {
		if nd.excl == nil {
			nd.excl = make(map[uint64]struct{}, len(d.excl))
		}
		for v := range d.excl {
			nd.excl[v] = struct{}{}
		}
	}
	return nd
}

func (s *Solver) freeDomain(d *domain) {
	if len(s.freeDoms) < maxFreeDomains {
		s.freeDoms = append(s.freeDoms, d)
	}
}

// Assert adds a constraint to the current frame. In incremental mode the
// constraint's atoms are propagated into the domains immediately, so a
// subsequent Check can often answer from the refined domains alone.
// Normalization, hashing, and hint extraction are memoized per constraint
// value, so re-asserting the conditions of a hot path allocates nothing.
func (s *Solver) Assert(b expr.Bool) {
	top := &s.frames[len(s.frames)-1]
	m, ok := s.memo[b]
	if !ok {
		m.atoms = normalize(b)
		m.hints = hintEntries(m.atoms)
		if s.opts.Cache != nil {
			m.hash = boolHash(b)
		}
		if len(s.memo) < 1<<16 {
			s.memo[b] = m
		}
	}
	if s.opts.Cache != nil {
		top.hsum += m.hash
		top.hxor ^= m.hash
		top.hn++
	}
	base := len(s.atoms)
	s.atoms = append(s.atoms, m.atoms...)
	for i := base; i < len(s.atoms); i++ {
		if s.atoms[i].kind == atomDefine {
			s.defines = append(s.defines, int32(i))
		}
	}
	// Merge the hint entries into the live index, logging each append so
	// Pop can unwind it.
	for _, e := range m.hints {
		s.hints[e.v] = append(s.hints[e.v], e.val)
		s.hintLog = append(s.hintLog, e.v)
	}
	if s.opts.Incremental {
		// top stays valid: propagation never grows the frame stack.
		for i := base; i < len(s.atoms); i++ {
			if !s.propagateAtom(s.atoms[i]) {
				top.failed = true
			}
		}
		if !top.failed {
			if !s.propagateDefines() {
				top.failed = true
			}
		}
	}
}

// saveDomain records a copy-on-write snapshot of v's domain in the top
// frame before mutating it, and returns the mutable domain.
func (s *Solver) saveDomain(v expr.Var, w expr.Width) *domain {
	top := &s.frames[len(s.frames)-1]
	d, ok := s.domains[v]
	if !ok {
		d = s.allocDomain(w)
		s.domains[v] = d
		top.newVars = append(top.newVars, v)
		s.widths[v] = w
		return d
	}
	if _, saved := top.domSnapshot[v]; !saved {
		top.domSnapshot[v] = s.cloneDomain(d)
	}
	return d
}

// propagateAtom applies one atom to the domains. Returns false if the atom
// makes the state certainly unsatisfiable.
func (s *Solver) propagateAtom(a atom) bool {
	s.stats.Propagations++
	switch a.kind {
	case atomFalse:
		return false
	case atomInterval:
		d := s.saveDomain(a.v, a.w)
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
		d := s.saveDomain(a.v, a.w)
		d.requireBits(a.mask, a.c)
		d.tightenToBits()
		return !d.empty()
	case atomExclude:
		d := s.saveDomain(a.v, a.w)
		d.exclude(a.c)
		return !d.empty()
	case atomVarEq:
		dv := s.saveDomain(a.v, a.w)
		du := s.saveDomain(a.u, a.w)
		// Intersect both domains (single pass; fixed point is rebuilt on
		// each Check for the deferred list).
		lo, hi := maxU(dv.lo, du.lo), minU(dv.hi, du.hi)
		dv.intersectInterval(lo, hi)
		du.intersectInterval(lo, hi)
		set, clr := dv.setBits|du.setBits, dv.clrBits|du.clrBits
		dv.requireBits(set|clr, set)
		du.requireBits(set|clr, set)
		return !dv.empty() && !du.empty()
	case atomDefine:
		// Handled by propagateDefines when the defining expression
		// becomes constant under current domains.
		s.touchVars(a)
		return true
	case atomDeferred:
		s.touchVars(a)
		return true
	}
	return true
}

// touchVars registers domains for all variables mentioned by an atom so
// the search knows about them. The variable set is precomputed at
// normalization time (atom.tvars), so this is a straight slice walk.
func (s *Solver) touchVars(a atom) {
	for _, vw := range a.tvars {
		s.saveDomain(vw.v, vw.w)
	}
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
			d := s.domains[a.v]
			if d == nil {
				d = s.saveDomain(a.v, a.w)
			}
			if f, isFixed := d.fixed(); isFixed {
				if f != a.w.Trunc(val) {
					return false
				}
				continue
			}
			d = s.saveDomain(a.v, a.w)
			d.intersectInterval(a.w.Trunc(val), a.w.Trunc(val))
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
	st := s.evalSt
	clear(st)
	for _, vw := range a.evars {
		d, ok := s.domains[vw.v]
		if !ok {
			return 0, false
		}
		f, isFixed := d.fixed()
		if !isFixed {
			return 0, false
		}
		st[vw.v] = f
	}
	val, ok := expr.EvalArithOK(a.e, st)
	if !ok {
		return 0, false
	}
	return val, true
}

// allAtoms returns the atoms of every frame, bottom-up. The arena is flat,
// so this is a zero-copy view; callers must not retain it across
// Push/Pop.
func (s *Solver) allAtoms() []atom { return s.atoms }

// anyFrameFailed reports whether incremental propagation already derived
// bottom in some frame.
func (s *Solver) anyFrameFailed() bool {
	for i := range s.frames {
		if s.frames[i].failed {
			return true
		}
	}
	return false
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
		mModels.Inc()
	}
	return m, r
}

// batchPrep caches the shared-prefix work CheckBatch factors out of a
// sibling sweep: the prefix cache key, its failure/emptiness status, and
// its fixed/free variable split. Per sibling, only the delta the sibling's
// own propagation touched (top frame's snapshot + new vars) is
// re-examined.
type batchPrep struct {
	active       bool
	haveKey      bool
	prefixKey    condKey
	prefixFailed bool
	prefixEmpty  bool
	prefixFree   []expr.Var
}

// prepare runs the once-per-batch sweep over the prefix: digest, failure
// flags, domain emptiness, and the fixed/free split. Prefix-fixed
// variables are installed into the scratch assignment; they stay valid for
// every sibling because a sibling's propagation can only narrow a domain,
// and a narrowed singleton is either unchanged or empty (caught by the
// per-sibling delta scan).
func (bp *batchPrep) prepare(s *Solver) {
	bp.active = true
	bp.haveKey = s.opts.Cache != nil
	if bp.haveKey {
		bp.prefixKey = s.condKey()
	}
	bp.prefixFailed = s.anyFrameFailed()
	bp.prefixEmpty = false
	bp.prefixFree = bp.prefixFree[:0]
	clear(s.scratchSt)
	if !s.opts.Incremental {
		return
	}
	for v, d := range s.domains {
		if d.empty() {
			bp.prefixEmpty = true
			return
		}
		if val, ok := d.fixed(); ok {
			s.scratchSt[v] = val
		} else {
			bp.prefixFree = append(bp.prefixFree, v)
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
	bp.active = false
	return results
}

// check decides satisfiability and performs ALL query bookkeeping — the
// per-solver Stats fields and the process-wide registry handles are
// incremented here, at one site per outcome, so the two views count the
// same events and can never diverge. solve does the actual deciding.
// bp, non-nil only under CheckBatch, supplies the shared-prefix
// precomputation.
func (s *Solver) check(wantModel bool, bp *batchPrep) (Result, expr.State) {
	s.lastUnknown = nil
	// Shared verdict cache: plain checks whose condition set was already
	// decided (by this solver or a sibling worker) answer without running
	// the solver at all — no Checks increment, no emulated IPC overhead,
	// and no latency sample (a ~100ns map hit would drown real solve
	// times in the histogram).
	var key condKey
	cacheable := !wantModel && s.opts.Cache != nil
	if cacheable {
		if bp != nil && bp.haveKey {
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
			mQueriesCacheHit.Inc()
			return r, nil
		}
	}
	s.stats.Checks++
	start := time.Now()
	res, model, uerr := s.solve(wantModel, bp)
	mQueryLatencyNS.ObserveSince(start)
	if cacheable {
		s.opts.Cache.store(key, res) // Unknown is dropped by store
	}
	switch res {
	case Sat:
		s.stats.SatResults++
		mQueriesSat.Inc()
		if !wantModel {
			model = nil
		}
	case Unsat:
		s.stats.UnsatResults++
		mQueriesUnsat.Inc()
		model = nil
	default:
		s.stats.Unknowns++
		mQueriesUnknown.Inc()
		s.lastUnknown = uerr
		if uerr != nil {
			s.stats.BudgetExhausted++
			mBudgetExhausted.Inc()
			obs.RecordFlight(obs.FlightBudgetExhausted, s.stats.Checks, s.stats.Unknowns, 0)
		}
		model = nil
	}
	return res, model
}

// solve runs one satisfiability decision with no stats side effects (see
// check). The error explains an Unknown result (a *BudgetError), nil
// otherwise.
func (s *Solver) solve(wantModel bool, bp *batchPrep) (Result, expr.State, error) {
	_ = wantModel // models are extracted by search; the flag gates only stats
	if s.opts.PerCheckOverhead > 0 {
		for start := time.Now(); time.Since(start) < s.opts.PerCheckOverhead; {
		}
	}
	if bp != nil && s.opts.Incremental {
		// Batched sibling: consult the precomputed prefix status plus the
		// delta this sibling's propagation touched.
		top := &s.frames[len(s.frames)-1]
		if bp.prefixFailed || top.failed || bp.prefixEmpty {
			return Unsat, nil, nil
		}
		for v := range top.domSnapshot {
			if s.domains[v].empty() {
				return Unsat, nil, nil
			}
		}
		for _, v := range top.newVars {
			if s.domains[v].empty() {
				return Unsat, nil, nil
			}
		}
		return s.search(s.domains, wantModel, bp)
	}
	if s.anyFrameFailed() {
		return Unsat, nil, nil
	}
	doms := s.domains
	if !s.opts.Incremental {
		// Rebuild domains from scratch for every check.
		rebuilt, ok := s.rebuildDomains()
		if !ok {
			return Unsat, nil, nil
		}
		doms = rebuilt
	} else {
		for _, d := range doms {
			if d.empty() {
				return Unsat, nil, nil
			}
		}
	}
	return s.search(doms, wantModel, nil)
}

// rebuildDomains recomputes all domains from the atom list (non-incremental
// mode).
func (s *Solver) rebuildDomains() (map[expr.Var]*domain, bool) {
	saved := s.domains
	savedFrames := make([]map[expr.Var]*domain, len(s.frames))
	savedNew := make([][]expr.Var, len(s.frames))
	for i := range s.frames {
		fr := &s.frames[i]
		savedFrames[i] = fr.domSnapshot
		savedNew[i] = fr.newVars
		fr.domSnapshot = map[expr.Var]*domain{}
		fr.newVars = nil
	}
	s.domains = make(map[expr.Var]*domain)
	ok := true
	for i := range s.atoms {
		if !s.propagateAtom(s.atoms[i]) {
			ok = false
			break
		}
	}
	if ok {
		ok = s.propagateDefines()
	}
	rebuilt := s.domains
	s.domains = saved
	for i := range s.frames {
		fr := &s.frames[i]
		fr.domSnapshot = savedFrames[i]
		fr.newVars = savedNew[i]
	}
	return rebuilt, ok
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// String summarizes the solver state for debugging.
func (s *Solver) String() string {
	return fmt.Sprintf("smt.Solver{frames=%d vars=%d checks=%d}", len(s.frames), len(s.domains), s.stats.Checks)
}
