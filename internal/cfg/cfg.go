// Package cfg implements Meissa's intermediate representation: the control
// flow graph of Figure 3 of the paper. A CFG is a DAG of predicate and
// action nodes; pipelines are single-entry single-exit regions wired
// together by traffic-manager guard predicates, mirroring the
// multi-switch multi-pipeline layouts of Figure 1.
package cfg

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strings"

	"repro/internal/expr"
)

// NodeID identifies a node within its graph.
type NodeID int

// None is the invalid node ID.
const None NodeID = -1

// Kind discriminates node statement types.
type Kind int

// Node kinds. Predicate and Action are the two statement types of
// Figure 3; Hash and Checksum are the opaque computations §4 of the paper
// handles outside the SMT solver ("we directly calculate hashing results
// if all keys are constrained with one value, and otherwise leave these
// fields as arbitrary values").
const (
	Predicate Kind = iota
	Action
	Hash
	Checksum
)

func (k Kind) String() string {
	switch k {
	case Predicate:
		return "predicate"
	case Action:
		return "action"
	case Hash:
		return "hash"
	case Checksum:
		return "checksum"
	}
	return "?"
}

// Node is one CFG vertex. Exactly one statement payload is set, selected
// by Kind.
type Node struct {
	ID   NodeID
	Kind Kind

	// Predicate payload: assume Pred.
	Pred expr.Bool

	// Action payload: Var ← Val.
	Var expr.Var
	Val expr.Arith

	// Hash payload: Var ← hash(Inputs...). Checksum payload: Var ←
	// checksum over Inputs (the header's non-checksum fields).
	Inputs []expr.Arith

	// Succs are the successor node IDs (the succ function of Figure 3).
	Succs []NodeID

	// Pipeline names the owning pipeline region ("" for glue nodes).
	Pipeline string

	// Comment describes the node's origin for execution traces and bug
	// localization (§7), e.g. "table ipv4_host entry 3".
	Comment string

	// Deps lists the rule-dependency tags of this node: one tag per table
	// entry or miss branch whose encoding produced it (rules.DepTag /
	// rules.MissTag format). The incremental regression layer uses Deps to
	// decide which journal records and cached verdicts a rule update can
	// retire. Nil for nodes that do not depend on any table rule.
	Deps []string

	// content caches the node's content hash (Graph.ContentHash).
	content uint64
}

// IsLeaf reports whether the node terminates paths.
func (n *Node) IsLeaf() bool { return len(n.Succs) == 0 }

// FNV-1a constants for the content hash.
const (
	contentOffset64 = 14695981039346656037
	contentPrime64  = 1099511628211
)

// mixString folds a string plus a terminator into an FNV-1a accumulator.
// The terminator keeps adjacent fields from aliasing ("ab"+"c" vs "a"+"bc").
func mixString[S ~string | ~[]byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= contentPrime64
	}
	h ^= 0xff
	h *= contentPrime64
	return h
}

// contentHash computes the node's position-independent content hash: a
// digest of the statement payload (kind plus the rendered expressions)
// that is stable across graph rebuilds as long as the statement itself is
// unchanged. Succs, Pipeline, Comment, Deps, and — for Predicate/Action
// nodes — the node ID are all excluded, so inserting or removing an
// unrelated table entry upstream shifts IDs without disturbing the
// hashes of untouched nodes. Hash and Checksum nodes additionally fold
// in their ID: symbolic execution mints a fresh symbol named after the
// node ID for them ("hash$nN"), which makes the ID observable content.
// Expressions are rendered into the graph's scratch buffer: the bytes
// String returns, without a string per expression.
func (g *Graph) contentHash(n *Node) uint64 {
	buf := g.scratch
	h := uint64(contentOffset64)
	h ^= uint64(n.Kind) + 1
	h *= contentPrime64
	switch n.Kind {
	case Predicate:
		buf = expr.AppendBool(buf[:0], n.Pred)
		h = mixString(h, buf)
	case Action:
		h = mixString(h, n.Var)
		buf = expr.AppendArith(buf[:0], n.Val)
		h = mixString(h, buf)
	case Hash, Checksum:
		h = mixString(h, n.Var)
		for _, in := range n.Inputs {
			buf = expr.AppendArith(buf[:0], in)
			h = mixString(h, buf)
		}
		h ^= uint64(n.ID)
		h *= contentPrime64
	}
	g.scratch = buf
	return h
}

// StmtString renders the node's statement in the paper's syntax.
func (n *Node) StmtString() string {
	switch n.Kind {
	case Predicate:
		return "assume " + n.Pred.String()
	case Action:
		return fmt.Sprintf("%s <- %s", n.Var, n.Val)
	case Hash:
		parts := make([]string, len(n.Inputs))
		for i, in := range n.Inputs {
			parts[i] = in.String()
		}
		return fmt.Sprintf("%s <- hash(%s)", n.Var, strings.Join(parts, ", "))
	case Checksum:
		return fmt.Sprintf("%s <- checksum(...)", n.Var)
	}
	return "?"
}

// Region is a single-entry single-exit pipeline subgraph.
type Region struct {
	Name   string
	Switch string
	Kind   string // "ingress" or "egress"
	Entry  NodeID // the pipeline's entry marker node
	Exit   NodeID // the pipeline's exit marker node
}

// Graph is a control flow graph (Figure 3): nodes, a distinguished entry,
// and the pipeline regions in topological order.
type Graph struct {
	Nodes []*Node
	Entry NodeID
	// Pipelines lists regions in topological order: no path runs from
	// Pipelines[j] to Pipelines[i] for j > i (§3.4).
	Pipelines []*Region
	// Vars records the width of every variable mentioned in the graph.
	Vars map[expr.Var]expr.Width

	// slab is the block add takes its next nodes from; scratch is what
	// contentHash renders expressions into.
	slab    []Node
	scratch []byte
}

// slabNodes is how many nodes add allocates at once.
const slabNodes = 256

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{Entry: None, Vars: make(map[expr.Var]expr.Width)}
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return g.Nodes[id] }

// add inserts a copy of node, taken from the slab, and returns it.
func (g *Graph) add(node Node) *Node {
	if len(g.slab) == 0 {
		g.slab = make([]Node, slabNodes)
	}
	n := &g.slab[0]
	g.slab = g.slab[1:]
	*n = node
	n.ID = NodeID(len(g.Nodes))
	n.content = g.contentHash(n)
	g.Nodes = append(g.Nodes, n)
	g.noteVars(n)
	return n
}

// ContentHash returns the content hash of the node with the given ID.
func (g *Graph) ContentHash(id NodeID) uint64 { return g.Nodes[id].content }

// TagDeps appends tag to the Deps of every node with index >= from,
// skipping nodes that already carry it. The table encoder calls it with
// the node-count watermark taken before encoding an entry or miss branch:
// node IDs are assigned sequentially, so the slice [from:] is exactly the
// branch's nodes (including inlined action bodies).
func (g *Graph) TagDeps(from int, tag string) {
	for _, n := range g.Nodes[from:] {
		seen := false
		for _, d := range n.Deps {
			if d == tag {
				seen = true
				break
			}
		}
		if !seen {
			n.Deps = append(n.Deps, tag)
		}
	}
}

// noteVars records the widths of the variables a node mentions.
func (g *Graph) noteVars(n *Node) {
	switch n.Kind {
	case Predicate:
		expr.VarsOfBool(n.Pred, g.Vars)
	case Action:
		g.noteWidth(n.Var, n.Val.Width())
		expr.VarsOfArith(n.Val, g.Vars)
	case Hash, Checksum:
		// Var width for hash/checksum destinations must be provided via
		// AddHash/AddChecksum; inputs contribute their own widths.
		for _, in := range n.Inputs {
			expr.VarsOfArith(in, g.Vars)
		}
	}
}

// noteWidth records that v is at least w bits wide.
func (g *Graph) noteWidth(v expr.Var, w expr.Width) {
	if ow, ok := g.Vars[v]; !ok || w > ow {
		g.Vars[v] = w
	}
}

// AddPredicate appends a predicate node.
func (g *Graph) AddPredicate(pred expr.Bool, pipeline, comment string) *Node {
	return g.add(Node{Kind: Predicate, Pred: pred, Pipeline: pipeline, Comment: comment})
}

// AddAction appends an action node.
func (g *Graph) AddAction(v expr.Var, val expr.Arith, pipeline, comment string) *Node {
	return g.add(Node{Kind: Action, Var: v, Val: val, Pipeline: pipeline, Comment: comment})
}

// AddHash appends a hash node assigning to v (width w).
func (g *Graph) AddHash(v expr.Var, w expr.Width, inputs []expr.Arith, pipeline, comment string) *Node {
	n := g.add(Node{Kind: Hash, Var: v, Inputs: inputs, Pipeline: pipeline, Comment: comment})
	g.noteWidth(v, w)
	return n
}

// AddChecksum appends a checksum node assigning to v (width w) computed
// over inputs.
func (g *Graph) AddChecksum(v expr.Var, w expr.Width, inputs []expr.Arith, pipeline, comment string) *Node {
	n := g.add(Node{Kind: Checksum, Var: v, Inputs: inputs, Pipeline: pipeline, Comment: comment})
	g.noteWidth(v, w)
	return n
}

// Link adds dst to src's successor list.
func (g *Graph) Link(src, dst NodeID) {
	n := g.Nodes[src]
	n.Succs = append(n.Succs, dst)
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.Nodes) }

// PossiblePaths returns the number of possible paths (Definition 1) from
// the entry to any leaf, as a big integer: data plane programs routinely
// have 10^100+ possible paths (Fig. 11c of the paper).
func (g *Graph) PossiblePaths() *big.Int {
	if g.Entry == None {
		return big.NewInt(0)
	}
	return g.countPaths(g.Entry, None)
}

// PossiblePathsLog10 returns log10 of the possible-path count, the unit of
// Fig. 11c / Fig. 12c.
func (g *Graph) PossiblePathsLog10() float64 { return Log10(g.PossiblePaths()) }

// Log10 returns log10 of a path count (0 for none).
func Log10(n *big.Int) float64 {
	if n.Sign() == 0 {
		return 0
	}
	f := new(big.Float).SetInt(n)
	// log10(m * 2^e) = log10(m) + e*log10(2); extract via Mantissa/Exp.
	mant := new(big.Float)
	exp := f.MantExp(mant)
	m, _ := mant.Float64()
	if m <= 0 {
		return 0
	}
	return math.Log10(m) + float64(exp)*math.Log10(2)
}

// RegionPaths counts the possible paths from a region's entry to its exit,
// treating the exit as a sink. This is the per-pipeline "n" of the paper's
// complexity analysis (Appendix A).
func (g *Graph) RegionPaths(r *Region) *big.Int { return g.countPaths(r.Entry, r.Exit) }

// countPaths counts the paths from start that end at sink or, where sink is
// None, at any leaf (a leaf that is not sink ends none). It counts in
// uint64, memoized by node, and counts again in big.Int if that overflows.
func (g *Graph) countPaths(start, sink NodeID) *big.Int {
	leaf := uint64(0)
	if sink == None {
		leaf = 1
	}
	memo := make([]uint64, len(g.Nodes)) // 1 + the count; 0 is not yet counted
	var count func(id NodeID) (uint64, bool)
	count = func(id NodeID) (uint64, bool) {
		if id == sink {
			return 1, true
		}
		if m := memo[id]; m != 0 {
			return m - 1, true
		}
		n := g.Nodes[id]
		res := uint64(0)
		if n.IsLeaf() {
			res = leaf
		}
		for _, s := range n.Succs {
			c, ok := count(s)
			var carry uint64
			if res, carry = bits.Add64(res, c, 0); !ok || carry != 0 {
				return 0, false
			}
		}
		if res == math.MaxUint64 {
			return 0, false
		}
		memo[id] = res + 1
		return res, true
	}
	if n, ok := count(start); ok {
		return new(big.Int).SetUint64(n)
	}
	big1 := big.NewInt(1)
	bigMemo := make([]*big.Int, len(g.Nodes))
	var countBig func(id NodeID) *big.Int
	countBig = func(id NodeID) *big.Int {
		if id == sink {
			return big1
		}
		if bigMemo[id] != nil {
			return bigMemo[id]
		}
		n := g.Nodes[id]
		res := new(big.Int)
		if n.IsLeaf() {
			res.SetUint64(leaf)
		}
		for _, s := range n.Succs {
			res.Add(res, countBig(s))
		}
		bigMemo[id] = res
		return res
	}
	return new(big.Int).Set(countBig(start))
}

// CheckAcyclic verifies the graph has no cycles; the CFG generated from a
// P4 program is acyclic (§3.1).
func (g *Graph) CheckAcyclic() error {
	color := make([]int, len(g.Nodes))
	var visit func(id NodeID) error
	visit = func(id NodeID) error {
		switch color[id] {
		case 1:
			return fmt.Errorf("cfg: cycle through node %d (%s)", id, g.Nodes[id].Comment)
		case 2:
			return nil
		}
		color[id] = 1
		for _, s := range g.Nodes[id].Succs {
			if err := visit(s); err != nil {
				return err
			}
		}
		color[id] = 2
		return nil
	}
	if g.Entry == None {
		return nil
	}
	return visit(g.Entry)
}
