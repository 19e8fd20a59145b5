// Package sym implements Meissa's basic test case generation framework
// (§3.2, Algorithm 1): depth-first enumeration of CFG paths with symbolic
// execution, maintaining the value stack V and condition stack C, pruning
// invalid prefixes by early termination through the incremental solver,
// and emitting a test case template for every valid path.
package sym

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/hashfn"
	"repro/internal/journal"
	"repro/internal/smt"
)

// PathError records one per-path panic that was recovered during
// exploration: the path prefix that was executing, the panic value, and
// the stack. The faulted subtree is skipped; every other path's verdict
// is unaffected (fault isolation, the property production-scale runs
// need so one bad path cannot throw away hours of work).
type PathError struct {
	// Path is the node prefix up to and including the node whose
	// processing panicked.
	Path []cfg.NodeID
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

func (p *PathError) Error() string {
	return fmt.Sprintf("sym: panic on path %v: %v", p.Path, p.Value)
}

// maxPathErrors bounds the recorded PathError list; Recovered still
// counts every recovery, so a systematically-faulting run is visible
// without unbounded memory.
const maxPathErrors = 64

// Template is a test case template for one valid path (§2.1: "a test case
// template, which specifies the pattern of inputs that can trigger this
// path and the pattern of outputs at the end of the path").
type Template struct {
	ID int
	// Path is the node sequence of the covered path.
	Path []cfg.NodeID
	// Constraints is the path condition: the conjunction of all collected
	// guard conditions over free input variables.
	Constraints []expr.Bool
	// Final is the final symbolic state V: output field patterns in terms
	// of input variables, by value-stack slot, nil where the path leaves the
	// variable a free input. Vars[s] is slot s's variable: the exploration's
	// variable table, which every template of it shares read-only.
	Final expr.Env
	Vars  []expr.Var
	// Model is one concrete input satisfying the path condition.
	Model expr.State
	// HashObligations lists hash/checksum assignments whose inputs were
	// not fixed by the path condition; per §4 these are validated after
	// concrete packet generation and unmatched packets are discarded.
	HashObligations []HashObligation
	// Dropped reports whether the path ends with the packet dropped.
	Dropped bool
	// Uncertain marks templates whose final satisfiability check returned
	// Unknown (kept, to preserve coverage; the driver re-validates).
	Uncertain bool
	// PathKey is the content-based journal key of the template's complete
	// path (context seed folded with every path node's content hash).
	// Identical across runs, modes, and graph rebuilds as long as the
	// path's content is unchanged — the identity the regression layer uses
	// to classify templates as added/retired/unchanged across rule sets.
	PathKey uint64
	// Deps lists the rule-dependency tags of the path's nodes, sorted
	// (rules.DepTag / rules.MissTag format): one tag per table entry or
	// miss branch the path ran through.
	Deps []string
}

// HashObligation is a deferred hash/checksum consistency check.
type HashObligation struct {
	Var    expr.Var
	Kind   cfg.Kind // cfg.Hash or cfg.Checksum
	Inputs []expr.Arith
	Width  expr.Width
}

// Options configure an exploration.
type Options struct {
	// EarlyTermination checks satisfiability at every predicate node and
	// prunes unsatisfiable prefixes (§3.2 "Path pruning with early
	// termination"). Disabling it checks only at leaves — the ablation
	// configuration.
	EarlyTermination bool
	// Solver configures the underlying constraint solver. It is honored
	// only when SolverSet is true; otherwise smt.DefaultOptions applies.
	Solver smt.Options
	// SolverSet marks Solver as intentional. Without it, an all-false
	// smt.Options is indistinguishable from "not configured", and ablations
	// asking for Incremental: false would silently be resurrected to
	// defaults. DefaultOptions sets it; literal Options constructions that
	// configure Solver must set it too.
	SolverSet bool
	// Parallelism is the number of runners the exploration's frontier is
	// explored on, each with a solver of its own (see parallel.go): 0 uses
	// GOMAXPROCS, and at 1 the frontier is the root alone, explored on the
	// caller's goroutine — Algorithm 1 as one DFS, the paper-faithful
	// ablation baseline. Templates are byte-identical at any setting.
	Parallelism int
	// MaxPaths bounds the number of DFS descents; 0 means unlimited.
	// When exceeded, Result.Truncated is set. One runner stops at exactly
	// the bound; several enforce it cooperatively, so the set of truncated
	// templates is not deterministic (the total never exceeds the bound by
	// more than the runners' in-flight descents).
	MaxPaths uint64
	// WantModels extracts a concrete witness per template.
	WantModels bool
	// Strict disables per-path panic isolation: a panic while executing
	// or solving a path propagates out of Explore (the pre-fault-tolerance
	// fail-fast behavior, useful when debugging the engine itself). The
	// default recovers the panic into Result.PathErrors, skips the
	// faulted subtree, and continues exploring.
	Strict bool
	// Journal, when non-nil, makes the exploration crash-safe: every
	// early-termination check and emission verdict is appended to the
	// journal as it is derived, and verdicts already present (from an
	// interrupted run) are answered from the journal without consulting
	// the solver. The DFS is deterministic, so a resumed run re-derives
	// byte-identical templates for the journaled prefix and continues
	// live from the kill point. Journal keys are content-based: each
	// exploration seeds its path hash from the content of its start/stop
	// nodes and initial stacks, and folds in each path node's content
	// hash (not its ID), so a record stays addressable across graph
	// rebuilds — including rebuilds from a *different rule set*, which is
	// what incremental regression runs exploit: a verdict keyed by
	// unchanged content is correct for any run that reaches that content.
	Journal *journal.Journal
	// PathHook, when non-nil, is invoked at every completed descent
	// (leaf or stop node) with the descent's path prefix, before the
	// template is emitted. It exists as a fault-injection point for
	// crash-safety tests — a hook that panics exercises per-path
	// isolation on real corpora — and must not retain the slice.
	PathHook func(path []cfg.NodeID)
}

// DefaultOptions is the production configuration.
func DefaultOptions() Options {
	return Options{EarlyTermination: true, Solver: smt.DefaultOptions(), SolverSet: true, WantModels: true}
}

// Config describes one exploration task.
type Config struct {
	Graph *cfg.Graph
	// Start is the node to begin at; cfg.None means Graph.Entry.
	Start cfg.NodeID
	// StopAt, when non-nil, marks nodes at which exploration stops and
	// emits a template for the path prefix instead of descending. Used by
	// code summary to collect all valid paths from the program entry to a
	// pipeline entry (Algorithm 2, line 5).
	StopAt map[cfg.NodeID]bool
	// InitConstraints seeds the condition stack (public pre-conditions,
	// Algorithm 2 line 6).
	InitConstraints []expr.Bool
	// InitValues seeds the value stack (public pre-condition values,
	// Algorithm 2 line 7).
	InitValues expr.Subst
	Options    Options
}

// Result is the outcome of an exploration.
type Result struct {
	Templates []*Template
	Counts
}

// Counts is what explorations count. Each count has this one home, and
// Add is the one place two of them are summed: the executors of one
// exploration, the explorations of a code summary, the phases of a
// generation.
type Counts struct {
	// PathsExplored counts maximal DFS descents (valid, invalid and
	// pruned).
	PathsExplored uint64
	// PrunedPaths counts prefixes cut by early termination.
	PrunedPaths uint64
	// Frames counts the dfs frames entered: what the descents cost, where
	// PathsExplored says how many there were. It is the same at any worker
	// count: a node the splitter hands to a unit is the unit's frame.
	Frames uint64
	// SMT is the solver's counters; SMT.Checks is the paper's
	// "# of SMT calls" (Fig. 11b / 12b).
	SMT smt.Stats
	// Truncated reports that MaxPaths was hit.
	Truncated bool
	// Recovered counts per-path panics that were recovered (Strict off);
	// each one skipped the faulted subtree and left every other path's
	// verdict intact.
	Recovered uint64
	// PathErrors records the recovered panics (capped at maxPathErrors;
	// Recovered is the true total) in the order they were added: within
	// an exploration the splitter's, then each runner's. Which runner
	// explored a unit is not deterministic.
	PathErrors []*PathError
	// JournalHits counts solver interactions answered from the journal's
	// verdict table — a resumed checkpoint, a store warm start, a
	// regression baseline — instead of the solver: the work the run did
	// NOT redo.
	JournalHits uint64
}

// Add folds o into c. PathErrors stays capped at maxPathErrors, so a
// systematically-faulting run keeps no more details however many
// explorations it sums; Recovered stays the true total.
func (c *Counts) Add(o Counts) {
	c.PathsExplored += o.PathsExplored
	c.PrunedPaths += o.PrunedPaths
	c.Frames += o.Frames
	c.SMT.Add(o.SMT)
	c.Truncated = c.Truncated || o.Truncated
	c.Recovered += o.Recovered
	c.JournalHits += o.JournalHits
	for _, pe := range o.PathErrors {
		if len(c.PathErrors) < maxPathErrors {
			c.PathErrors = append(c.PathErrors, pe)
		}
	}
}

// Explore runs Algorithm 1 over the CFG: it splits a frontier, explores its
// units on Workers() runners and splices their templates in unit order (see
// parallel.go). The template set — paths, constraints, models, ordering, IDs
// — is byte-identical at any worker count.
func Explore(c Config) (*Result, error) {
	workers, width := c.Options.Workers(), 1
	if workers > 1 {
		width = 4 * workers // enough pending subtrees to balance the pool
	}
	f, err := splitFrontier(c, width)
	if err != nil {
		return nil, err
	}
	return f.explore(workers), nil
}

// newExecutor returns an executor at an exploration's initial state: an
// empty path over c's initial condition and value stacks, on a solver of
// its own that holds none of them yet (sync), under the budget shared.
func newExecutor(c Config, opts Options, p *plan, seed uint64, shared *sharedState) *executor {
	e := &executor{
		g:          c.Graph,
		p:          p,
		opts:       opts,
		stop:       c.StopAt,
		shared:     shared,
		solver:     p.newSolver(opts.Solver),
		vals:       append(expr.Env(nil), p.init...),
		res:        &Result{},
		hashes:     []uint64{seed},
		journaling: opts.Journal != nil,
	}
	for _, b := range c.InitConstraints {
		e.pushCond(b, -1)
	}
	return e
}

// result closes the executor's result with its solver's counters, the
// frames it entered and whether the exploration was cut short.
func (e *executor) result() *Result {
	e.res.SMT = e.solver.Stats()
	e.res.Frames = e.visits
	e.res.Truncated = e.shared.halted.Load()
	return e.res
}

// Workers resolves Parallelism to the effective worker count.
func (o Options) Workers() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// solver resolves Solver to what an exploration runs with.
func (o Options) solver() smt.Options {
	if !o.SolverSet {
		return smt.DefaultOptions()
	}
	return o.Solver
}

type executor struct {
	g      *cfg.Graph
	p      *plan
	opts   Options
	stop   map[cfg.NodeID]bool
	solver *smt.Solver
	// vals is the value stack V, indexed by plan slot (nil = unbound);
	// trail is its undo log (see mark).
	vals  expr.Env
	trail []binding
	// constraints is the condition stack C; condNums parallels it with the
	// plan's number of an entry that is its predicate node's own condition,
	// -1 for one asserted by value. The solver follows the stack lazily:
	// it holds the bottom held entries, one pushed frame each, and sync
	// brings it up to date just before a query the journal cannot answer.
	constraints []expr.Bool
	condNums    []int32
	held        int
	obligations []HashObligation
	path        []cfg.NodeID
	res         *Result
	// visits counts dfs node entries (Result.Frames).
	visits uint64
	// widthProd is the product of the branch widths (successor counts > 1)
	// along the current path — an estimate of how many sibling subtrees
	// exist at this depth. The splitter spills a unit once it reaches the
	// target frontier width.
	widthProd int
	// spill, when set, is consulted at every dfs entry with the node and the
	// branch verdict its parent handed down: returning true means the node's
	// subtree has been packaged as a frontier unit and must not be explored
	// here.
	spill func(id cfg.NodeID, pend pendingBranch) bool
	// shared is the exploration's budget and cancel state, common to the
	// splitter and every runner.
	shared *sharedState
	// hashes is the content-based path-hash stack paralleling path,
	// always maintained (it also feeds Template.PathKey): the top is the
	// journal key for the current prefix.
	hashes []uint64
	// journaling gates journal reads/writes; a journal append failure
	// clears it, degrading to a non-journaled exploration rather than
	// aborting the run.
	journaling bool
	// deps stacks the interned rule-dependency tags of the current path's
	// nodes, duplicates and all: a step only appends and truncates. The
	// readers (templates, journal records) sort and de-duplicate on read
	// via uniqueDeps, whose scratch is depSeen (tag ID → epoch of the read
	// that last saw it) and depBuf. tagBuf is appendJournal's scratch.
	deps     []uint32
	depSeen  []uint32
	depEpoch uint32
	depBuf   []uint32
	tagBuf   []journal.Tag
	// pending hands a branch verdict precomputed by the parent's sibling
	// batch down to the child's dfs frame; it is set immediately before
	// each e.dfs(succ) call and consumed (and cleared) at frame entry.
	pending pendingBranch
	// oblInputs is the arena the obligations' Inputs are slices of, truncated
	// with them: they are copied out only into templates and frontier units
	// (cloneObligations). opaqueVals is evalOpaque's scratch.
	oblInputs  []expr.Arith
	opaqueVals []uint64
	// batchScratches is a per-depth arena for sibling-batch state: the
	// scratch at depth d stays live for the whole children loop of the
	// branch node at that depth, while deeper batches use deeper slots.
	batchScratches []batchScratch
}

// pendingBranch carries a parent-computed branch condition (and, when
// checked is set, its feasibility verdict) into the successor's frame, so
// the descent neither re-substitutes nor re-checks it. own reports that
// substitution left the node's predicate as it is.
type pendingBranch struct {
	ok      bool
	own     bool
	checked bool
	res     smt.Result
	cond    expr.Bool
}

// batchScratch is the reusable working set of one sibling batch.
type batchScratch struct {
	pend  []pendingBranch
	conds []expr.Bool
	idx   []int
	sibs  []cfg.NodeID
	keys  []uint64
	res   []smt.Result
}

func (st *batchScratch) reset(n int) {
	if cap(st.pend) < n {
		st.pend = make([]pendingBranch, n)
	}
	st.pend = st.pend[:n]
	for i := range st.pend {
		st.pend[i] = pendingBranch{}
	}
	st.conds = st.conds[:0]
	st.idx = st.idx[:0]
	st.sibs = st.sibs[:0]
	st.keys = st.keys[:0]
}

// FNV-1a constants for the incremental path hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashMix folds one 64-bit word into a path hash, FNV-1a over its
// little-endian bytes. Position-dependence comes from the fold order, so
// the hash of a node sequence is independent of which worker (or split
// point) derives it — the property journal portability across
// sequential and parallel modes rests on.
func hashMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// hashStr folds a string plus a terminator into a path hash (FNV-1a).
func hashStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h ^= 0xfe
	h *= fnvPrime64
	return h
}

// contextSeed derives an exploration's journal-key seed from its content:
// the start node's content hash, the stop set's content hashes (sorted —
// StopAt is a map), the initial condition stack in order, the initial
// value bindings sorted by variable, and the WantModels flag (a model-
// extracting run must not share emit records with a check-only run, or a
// resumed model run would reconstruct templates without models). Two
// explorations with equal seeds and equal path content ask literally the
// same satisfiability questions, so sharing journal records between them
// is sound; node IDs and exploration order are deliberately excluded so
// the keys survive graph rebuilds and rule-set revisions.
func contextSeed(c Config, start cfg.NodeID, opts Options) uint64 {
	h := hashMix(fnvOffset64, 0x9e3779b97f4a7c15) // domain separator
	h = hashMix(h, c.Graph.ContentHash(start))
	if len(c.StopAt) > 0 {
		stops := make([]uint64, 0, len(c.StopAt))
		for id := range c.StopAt {
			stops = append(stops, c.Graph.ContentHash(id))
		}
		sort.Slice(stops, func(i, j int) bool { return stops[i] < stops[j] })
		h = hashMix(h, uint64(len(stops)))
		for _, s := range stops {
			h = hashMix(h, s)
		}
	}
	for _, b := range c.InitConstraints {
		h = hashStr(h, b.String())
	}
	if len(c.InitValues) > 0 {
		vars := make([]string, 0, len(c.InitValues))
		for v := range c.InitValues {
			vars = append(vars, string(v))
		}
		sort.Strings(vars)
		for _, v := range vars {
			h = hashStr(h, v)
			h = hashStr(h, c.InitValues[expr.Var(v)].String())
		}
	}
	if opts.WantModels {
		h = hashMix(h, 1)
	}
	return h
}

// curHash is the journal key of the current path prefix.
func (e *executor) curHash() uint64 {
	return e.hashes[len(e.hashes)-1]
}

// uniqueDeps returns the distinct tag IDs on the dependency stack in
// ascending (= sorted tag) order. The result aliases depBuf and is valid
// until the next call.
func (e *executor) uniqueDeps() []uint32 {
	if e.depSeen == nil {
		e.depSeen = make([]uint32, len(e.p.tags))
	}
	e.depEpoch++
	out := e.depBuf[:0]
	for _, id := range e.deps {
		if e.depSeen[id] != e.depEpoch {
			e.depSeen[id] = e.depEpoch
			out = append(out, id)
		}
	}
	slices.Sort(out)
	e.depBuf = out
	return out
}

// curDeps snapshots the current path's dependency tags, sorted.
func (e *executor) curDeps() []string {
	if len(e.deps) == 0 {
		return nil
	}
	ids := e.uniqueDeps()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = e.p.tags[id]
	}
	return out
}

// countPath registers one completed DFS descent (leaf, stop, or prune).
func (e *executor) countPath() {
	e.res.PathsExplored++
	e.shared.paths.Add(1)
}

// countPruned registers one descent cut short by early termination.
func (e *executor) countPruned() {
	e.countPath()
	e.res.PrunedPaths++
}

// stopNow reports whether exploration must halt: the budget is spent, or
// another runner found it spent (or failed under Strict) and halted the pool.
func (e *executor) stopNow() bool {
	s := e.shared
	if s.halted.Load() {
		return true
	}
	if s.maxPaths > 0 && s.paths.Load() >= s.maxPaths {
		s.halted.Store(true)
		return true
	}
	return false
}

// mark is the executor's undo point for one dfs frame: the heights of its
// stacks (and the scalar a frame may change) at frame entry. unwind
// restores them all at once, so a frame's state changes need no individual
// restore step.
type mark struct {
	path, deps, conds, obligations, oblInputs, trail, widthProd int
}

// binding is one value-stack undo entry: slot held old before the write.
type binding struct {
	slot int32
	old  expr.Arith
}

func (e *executor) mark() mark {
	return mark{
		path: len(e.path), deps: len(e.deps), conds: len(e.constraints),
		obligations: len(e.obligations), oblInputs: len(e.oblInputs), trail: len(e.trail), widthProd: e.widthProd,
	}
}

// unwind restores the executor to m. hashes parallels path (offset by the
// seed entry), so it sheds as many entries as path does; the solver pops
// only the frames that sync pushed for the entries shed.
func (e *executor) unwind(m *mark) {
	e.hashes = e.hashes[:len(e.hashes)-(len(e.path)-m.path)]
	e.path = e.path[:m.path]
	e.deps = e.deps[:m.deps]
	e.popTo(m.conds)
	e.constraints = e.constraints[:m.conds]
	e.condNums = e.condNums[:m.conds]
	e.obligations = e.obligations[:m.obligations]
	e.oblInputs = e.oblInputs[:m.oblInputs]
	for i := len(e.trail) - 1; i >= m.trail; i-- {
		e.vals[e.trail[i].slot] = e.trail[i].old
	}
	e.trail = e.trail[:m.trail]
	e.widthProd = m.widthProd
}

// pushCond records cond on the condition stack, num being the plan's number
// for it or -1; the solver receives it at the next sync.
func (e *executor) pushCond(cond expr.Bool, num int32) {
	e.constraints = append(e.constraints, cond)
	e.condNums = append(e.condNums, num)
}

// sync pushes one solver frame for each condition-stack entry the solver
// does not hold yet and asserts the entry there, by number or by value. It
// runs just before a query the journal cannot answer, so a prefix whose
// every verdict is a hit never reaches the solver. An entry counts as held
// once its assertion returns: a panic inside one leaves a frame above held,
// which recoverPath pops.
func (e *executor) sync() {
	for k := 0; e.held < len(e.constraints); k++ {
		e.solver.Push()
		if syncObserver != nil {
			syncObserver(e, k)
		}
		if n := e.condNums[e.held]; n >= 0 {
			e.solver.AssertCondition(int(n))
		} else {
			e.solver.Assert(e.constraints[e.held])
		}
		e.held++
	}
}

// syncObserver, which only tests set, sees every frame sync pushes — the
// executor, with held the entry about to be asserted, and k its position
// among the entries that sync brings in — so that a test can fault one.
var syncObserver func(e *executor, k int)

// popTo drops the solver's frames for the condition-stack entries from n up.
func (e *executor) popTo(n int) {
	for ; e.held > n; e.held-- {
		e.solver.Pop()
	}
}

// bind writes the value stack through the undo trail.
func (e *executor) bind(slot int32, val expr.Arith) {
	e.trail = append(e.trail, binding{slot, e.vals[slot]})
	e.vals[slot] = val
}

// dfs runs one frame of Algorithm 1 (step) between a mark and its unwind.
//
// Per-path panic isolation: unless Strict, the frame's one defer arrests a
// panic raised by step and unwinds to the same mark, leaving the executor
// exactly as it was before the faulted node was entered. A panic in a
// child frame is arrested by the child's own defer, so recovery always
// happens at the deepest in-flight frame and skips exactly the faulted
// node's remaining subtree; siblings keep exploring.
func (e *executor) dfs(id cfg.NodeID) {
	m := e.mark()
	if !e.opts.Strict {
		defer e.recoverPath(id, &m)
	}
	e.step(id)
	e.unwind(&m)
}

// step implements Algorithm 1 for one node: on predicate nodes update the
// condition stack and early-terminate when unsatisfiable; on action nodes
// update the value stack; at leaves generate a test case template. It
// returns wherever it is done; dfs restores the state.
func (e *executor) step(id cfg.NodeID) {
	// Claim any parent-batched branch verdict before the early exits below
	// can abandon this frame: a stale pending must never leak into a later
	// sibling's frame.
	pend := e.pending
	e.pending = pendingBranch{}
	e.visits++
	if e.stopNow() {
		return
	}
	if e.spill != nil && e.spill(id, pend) {
		// The subtree rooted here was packaged as a frontier unit, whose
		// frame this is to count.
		e.visits--
		return
	}
	if e.stop != nil && e.stop[id] {
		e.countPath()
		if e.opts.PathHook != nil {
			e.opts.PathHook(e.path)
		}
		// The stop node is not on e.path, so fold it into the emit key
		// here: distinct stop nodes reached from one prefix must not
		// share a journal record.
		e.emit(hashMix(e.curHash(), e.g.ContentHash(id)))
		return
	}
	n := e.g.Node(id)
	e.path = append(e.path, id)
	e.hashes = append(e.hashes, hashMix(e.hashes[len(e.hashes)-1], e.g.ContentHash(id)))
	e.deps = append(e.deps, e.p.nodeDeps(id)...)

	switch n.Kind {
	case cfg.Predicate:
		cond, own := pend.cond, pend.own
		if !pend.ok {
			var changed bool
			cond, changed = e.vals.SubstBool(n.Pred, e.p.nodeRefs(id))
			own = !changed
		}
		if expr.EqualBool(cond, expr.False) {
			// Statically invalid (e.g. Figure 5(b)): prune without an SMT
			// call.
			e.countPruned()
			return
		}
		if !expr.EqualBool(cond, expr.True) {
			// The node's own predicate goes to the solver by number,
			// anything else by value.
			num := int32(-1)
			if own {
				num = int32(e.p.condition(id))
			}
			e.pushCond(cond, num)
			if e.opts.EarlyTermination {
				// The parent's sibling batch already decided (and
				// journaled) this branch; otherwise check here.
				r := pend.res
				if !pend.checked {
					r = e.pruneCheck()
				}
				if r == smt.Unsat {
					e.countPruned()
					return
				}
			}
		}
	case cfg.Action:
		e.bind(e.p.node(id).slot, e.vals.SubstArith(n.Val, e.p.nodeRefs(id)))
	case cfg.Hash, cfg.Checksum:
		e.bind(e.p.node(id).slot, e.evalOpaque(n))
	}

	if n.IsLeaf() {
		e.countPath()
		if e.opts.PathHook != nil {
			e.opts.PathHook(e.path)
		}
		e.emit(e.curHash())
		return
	}
	if len(n.Succs) == 1 {
		e.dfs(n.Succs[0])
		return
	}
	if e.widthProd < 1<<30 { // saturate instead of overflowing
		e.widthProd *= len(n.Succs)
	}
	var st *batchScratch
	if e.canBatchSiblings() {
		// Batched branch expansion: decide every sibling's feasibility in
		// one shared-prefix sweep, then descend with the verdicts in hand.
		st = e.batchSiblings(n)
	}
	for i, s := range n.Succs {
		var pend pendingBranch
		if st != nil {
			pend = st.pend[i]
		}
		if e.staticallyFalse(s, pend) {
			// What the frames down to the False would have done, and nothing
			// else: one budget check, one pruned descent.
			if e.stopNow() {
				return
			}
			e.countPruned()
			continue
		}
		e.pending = pend
		e.dfs(s)
		if e.shared.halted.Load() {
			return
		}
	}
}

// staticallyFalse decides, in the frame of a branch node, whether the
// descent into its successor s ends at a condition that folds to False
// before anything else happens on it — no template, no hook, no solver or
// journal interaction — so that the parent can count the pruned descent
// itself instead of entering frames to find it. Two cases: s is a predicate
// whose condition the sibling batch substituted (pend), or s starts a run
// whose guard the plan lets the parent read under the value stack as it
// stands (plan.peeks): a conjunct test that fails is the guard folding to
// False; otherwise the guard is substituted, unless the run has a hash the
// guard would read through, and then it is walked. A guard that does not
// fold to False is left to its own frame, which substitutes it again.
func (e *executor) staticallyFalse(s cfg.NodeID, pend pendingBranch) bool {
	if pend.ok {
		return expr.EqualBool(pend.cond, expr.False) && !e.stop[s]
	}
	pk := e.p.node(s).peek
	if pk == 0 {
		return false
	}
	p, peek := e.p, &e.p.peeks[pk-1]
	refs, defs := p.peekRefs[peek.refLo:peek.refHi], p.peekDefs[peek.refLo:peek.refHi]
	var cond expr.Bool = expr.False
	if !e.contradicts(p.conjs[peek.conjLo:peek.conjHi], refs, defs) {
		cond = nil
		if !peek.testOnly {
			cond = e.vals.SubstBoolOr(e.g.Node(peek.guard).Pred, refs, defs)
		}
	}
	if peekObserver != nil {
		peekObserver(e, s, cond)
	}
	return expr.EqualBool(cond, expr.False)
}

// peekObserver, which only tests set, sees every guard a parent peeks at —
// the executor in the parent's frame, the run's head and the peeked
// condition (nil where a run through a hash was left to be walked) — so
// that a test can walk the run itself and compare.
var peekObserver func(e *executor, head cfg.NodeID, cond expr.Bool)

// contradicts reports whether one of conjs reads a constant it is false on:
// refs are the condition's Ref slots and defs, when non-nil, what each reads
// while its slot is unbound — what substitution reads. It is true exactly
// where substitution would fold the conjunct, and with it the conjunction,
// to False; false says nothing.
func (e *executor) contradicts(conjs []conjTest, refs []int32, defs []expr.Arith) bool {
	for _, c := range conjs {
		v := e.vals[refs[c.ref]]
		if v == nil && defs != nil {
			v = defs[c.ref]
		}
		if k, ok := v.(expr.Const); ok && !c.op.Apply(k.Val, c.c) {
			return true
		}
	}
	return false
}

// canBatchSiblings gates the batched sweep: it needs early termination
// (otherwise predicates are not checked at all). A branch node's sibling
// conditions are then decided together via smt.CheckBatch, which shares
// the prefix propagation across the whole sweep — a k-way table match
// costs ~1 propagation instead of k. The splitter batches like any
// executor — a successor it spills takes its verdict along (Unit.pending)
// — so the queries asked and the frames entered do not depend on where the
// frontier falls.
func (e *executor) canBatchSiblings() bool {
	return e.opts.EarlyTermination && !noSiblingBatch
}

// noSiblingBatch, which only tests set, and only between explorations,
// turns the batched sweep off: every branch successor then pays its own
// early-termination Check on descent, the per-query path that the batched
// one must match in verdicts, journal records and templates.
var noSiblingBatch bool

// batchScratchAt returns the reusable batch scratch for one path depth.
func (e *executor) batchScratchAt(depth int) *batchScratch {
	for len(e.batchScratches) <= depth {
		e.batchScratches = append(e.batchScratches, batchScratch{})
	}
	return &e.batchScratches[depth]
}

// batchSiblings prepares the pending verdicts for every successor of the
// branch node n. Predicate successors with non-trivial substituted
// conditions are answered from the resume journal when possible; the rest
// go through one smt.CheckBatch sweep, which propagates the shared prefix
// once and each sibling's delta incrementally. Journal records are written
// per sibling with that sibling's deps in scope, exactly as the per-descent
// path would have.
func (e *executor) batchSiblings(n *cfg.Node) *batchScratch {
	st := e.batchScratchAt(len(e.path))
	st.reset(len(n.Succs))
	for i, sid := range n.Succs {
		sn := e.g.Node(sid)
		if sn.Kind != cfg.Predicate {
			continue // non-predicate successors take the normal path
		}
		refs := e.p.nodeRefs(sid)
		if e.contradicts(e.p.nodeConjs(sid), refs, nil) {
			st.pend[i] = pendingBranch{ok: true, cond: expr.False}
			continue
		}
		cond, changed := e.vals.SubstBool(sn.Pred, refs)
		st.pend[i] = pendingBranch{ok: true, own: !changed, cond: cond}
		if expr.EqualBool(cond, expr.False) || expr.EqualBool(cond, expr.True) {
			continue // statically decided in the child frame, no solver
		}
		key := hashMix(e.curHash(), e.g.ContentHash(sid))
		if e.journaling {
			if rec, ok := e.opts.Journal.Lookup(journal.KindCheck, key); ok {
				e.res.JournalHits++
				st.pend[i].checked = true
				st.pend[i].res = fromVerdict(rec.Verdict())
				continue
			}
		}
		st.conds = append(st.conds, cond)
		st.idx = append(st.idx, i)
		st.sibs = append(st.sibs, sid)
		st.keys = append(st.keys, key)
	}
	if len(st.conds) == 0 {
		return st
	}
	e.sync()
	st.res = e.solver.CheckBatch(st.conds, st.res[:0])
	nDeps := len(e.deps)
	for j, i := range st.idx {
		st.pend[i].checked = true
		st.pend[i].res = st.res[j]
		if e.journaling {
			e.deps = append(e.deps[:nDeps], e.p.nodeDeps(st.sibs[j])...)
			e.appendJournal(journal.Record{Kind: journal.KindCheck, Key: st.keys[j], Verdict: toVerdict(st.res[j])})
		}
	}
	e.deps = e.deps[:nDeps]
	return st
}

// evalOpaque implements the paper's §4 hash treatment: "we directly
// calculate hashing results if all keys are constrained with one value,
// and otherwise leave these fields as arbitrary values" (with a deferred
// post-generation check, pushed on e.obligations here, its inputs on the
// arena e.oblInputs). Checksums are handled identically.
func (e *executor) evalOpaque(n *cfg.Node) expr.Arith {
	np := e.p.node(n.ID)
	op := np.opaque
	lo, vals := len(e.oblInputs), e.opaqueVals[:0]
	allConst := true
	refLo := np.refLo
	for i, in := range n.Inputs {
		a := e.vals.SubstArith(in, e.p.refs[refLo:op.inputEnds[i]])
		refLo = op.inputEnds[i]
		c, ok := a.(expr.Const)
		allConst = allConst && ok
		e.oblInputs, vals = append(e.oblInputs, a), append(vals, c.Val)
	}
	e.opaqueVals = vals
	if allConst {
		e.oblInputs = e.oblInputs[:lo]
		var v uint64
		if n.Kind == cfg.Hash {
			v = hashfn.Hash(vals, op.widths, op.w)
		} else {
			v = op.w.Trunc(hashfn.Checksum(vals, op.widths))
		}
		return expr.C(v, op.w)
	}
	hi := len(e.oblInputs)
	e.obligations = append(e.obligations, HashObligation{
		Var: op.fresh.Var, Kind: n.Kind, Inputs: e.oblInputs[lo:hi:hi], Width: op.w,
	})
	return op.freshVal
}

// cloneObligations deep-copies obligations whose inputs live on an
// executor's arena, all inputs into one slice; nil for none.
func cloneObligations(obs []HashObligation) []HashObligation {
	if len(obs) == 0 {
		return nil
	}
	n := 0
	for _, o := range obs {
		n += len(o.Inputs)
	}
	out, inputs := make([]HashObligation, len(obs)), make([]expr.Arith, 0, n)
	for i, o := range obs {
		lo := len(inputs)
		inputs = append(inputs, o.Inputs...)
		out[i] = o
		out[i].Inputs = inputs[lo:len(inputs):len(inputs)]
	}
	return out
}

// recoverPath arrests a panic raised while processing node id or its
// subtree: it unwinds the executor (solver stack, value/condition/path
// stacks) to the frame's mark and records the panic as a PathError on the
// result. A panic inside sync leaves the frame it was filling pushed but
// not held; that frame goes first, so the solver holds exactly the held
// entries again.
func (e *executor) recoverPath(id cfg.NodeID, m *mark) {
	r := recover()
	if r == nil {
		return
	}
	for e.solver.Depth() > e.held {
		e.solver.Pop()
	}
	e.unwind(m)
	e.res.recordPanic(r, append(e.path, id))
}

// recordPanic counts one recovered panic and keeps it, with a copy of the
// path it was raised on, while there is room (maxPathErrors).
func (c *Counts) recordPanic(value any, path []cfg.NodeID) {
	c.Recovered++
	if len(c.PathErrors) < maxPathErrors {
		c.PathErrors = append(c.PathErrors, &PathError{
			Path:  append([]cfg.NodeID(nil), path...),
			Value: value,
			Stack: string(debug.Stack()),
		})
	}
}

// appendJournal writes one verdict record, the path's dependency tags
// inline: the plan's hashes of them, in sorted tag order, gathered in
// scratch that Append does not keep. Journaling is an aid, not a
// correctness requirement: on a write failure (disk full, fd revoked)
// further journaling is disabled and exploration continues — the
// checkpoint simply ends early and a future resume re-solves from there.
func (e *executor) appendJournal(rec journal.Record) {
	if len(e.deps) > 0 {
		e.tagBuf = e.tagBuf[:0]
		for _, id := range e.uniqueDeps() {
			e.tagBuf = append(e.tagBuf, e.p.tagHashes[id])
		}
		rec.Tags = e.tagBuf
	}
	if err := e.opts.Journal.Append(rec); err != nil {
		e.journaling = false
	}
}

// pruneCheck is the early-termination satisfiability check, answered
// from the resume journal when the interrupted run already decided this
// prefix, and journaled when derived fresh.
func (e *executor) pruneCheck() smt.Result {
	if e.journaling {
		if rec, ok := e.opts.Journal.Lookup(journal.KindCheck, e.curHash()); ok {
			e.res.JournalHits++
			return fromVerdict(rec.Verdict())
		}
	}
	e.sync()
	r := e.solver.Check()
	if e.journaling {
		e.appendJournal(journal.Record{Kind: journal.KindCheck, Key: e.curHash(), Verdict: toVerdict(r)})
	}
	return r
}

// emitVerdict decides the path-final satisfiability (and model),
// answering from the resume journal when possible and journaling fresh
// verdicts together with their models, so a resumed run reconstructs
// byte-identical templates without any solver call.
func (e *executor) emitVerdict(key uint64) (smt.Result, expr.State) {
	if e.journaling {
		if rec, ok := e.opts.Journal.Lookup(journal.KindEmit, key); ok {
			e.res.JournalHits++
			r := fromVerdict(rec.Verdict())
			var model expr.State
			if r == smt.Sat && e.opts.WantModels {
				// The one decode a hit makes: the model of a template.
				if m := rec.Model(); len(m) > 0 {
					model = make(expr.State, len(m))
					for _, vv := range m {
						model[expr.Var(vv.Var)] = vv.Val
					}
				}
			}
			return r, model
		}
	}
	e.sync()
	var model expr.State
	var r smt.Result
	if e.opts.WantModels {
		model, r = e.solver.Model()
	} else {
		r = e.solver.Check()
	}
	if e.journaling {
		rec := journal.Record{Kind: journal.KindEmit, Key: key, Verdict: toVerdict(r)}
		if len(model) > 0 {
			rec.Model = make([]journal.VarVal, 0, len(model))
			for v, val := range model {
				rec.Model = append(rec.Model, journal.VarVal{Var: string(v), Val: val})
			}
			journal.SortModel(rec.Model)
		}
		e.appendJournal(rec)
	}
	return r, model
}

func toVerdict(r smt.Result) journal.Verdict {
	switch r {
	case smt.Sat:
		return journal.Sat
	case smt.Unsat:
		return journal.Unsat
	default:
		return journal.Unknown
	}
}

func fromVerdict(v journal.Verdict) smt.Result {
	switch v {
	case journal.Sat:
		return smt.Sat
	case journal.Unsat:
		return smt.Unsat
	default:
		return smt.Unknown
	}
}

// emit records a template for the current path if its condition is
// satisfiable. key is the journal key for the completed path.
func (e *executor) emit(key uint64) {
	r, model := e.emitVerdict(key)
	if r == smt.Unsat {
		return
	}
	t := &Template{
		ID:          len(e.res.Templates),
		Path:        append([]cfg.NodeID(nil), e.path...),
		Constraints: append([]expr.Bool(nil), e.constraints...),
		Final:       append(expr.Env(nil), e.vals...),
		Vars:        e.p.vars,
		Model:       model,
		Uncertain:   r == smt.Unknown,
		PathKey:     key,
		Deps:        e.curDeps(),
	}
	t.HashObligations = cloneObligations(e.obligations)
	if d := e.p.drop; d >= 0 {
		c, ok := t.Final[d].(expr.Const)
		t.Dropped = ok && c.Val == 1
	}
	e.res.Templates = append(e.res.Templates, t)
}
