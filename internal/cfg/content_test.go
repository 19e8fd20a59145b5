package cfg

import (
	"testing"

	"repro/internal/expr"
)

// The incremental regression layer addresses journal records by
// content-based path hashes built from node ContentHash values, so two
// properties are load-bearing: hashes must be position-independent for
// Predicate/Action nodes (an unrelated upstream edit must not disturb
// them), and position-DEPENDENT for Hash/Checksum nodes (whose symbolic
// execution mints ID-named symbols).

func pred(v uint64) expr.Bool {
	return expr.Eq(expr.V("f", 16), expr.C(v, 16))
}

// TestContentHashPositionIndependent: the same statement at a different
// node ID hashes identically for Predicate and Action nodes.
func TestContentHashPositionIndependent(t *testing.T) {
	g1 := NewGraph()
	p1 := g1.AddPredicate(pred(5), "ig", "c1")
	a1 := g1.AddAction("x", expr.C(9, 8), "ig", "c1")

	g2 := NewGraph()
	// Shift IDs by inserting unrelated nodes first, and vary pipeline and
	// comment (both excluded from content).
	g2.AddPredicate(pred(1), "ig", "padding")
	g2.AddAction("pad", expr.C(0, 8), "ig", "padding")
	p2 := g2.AddPredicate(pred(5), "eg", "other comment")
	a2 := g2.AddAction("x", expr.C(9, 8), "eg", "other comment")

	if p1.ID == p2.ID || a1.ID == a2.ID {
		t.Fatal("test setup failed to shift node IDs")
	}
	if p1.content != p2.content {
		t.Error("predicate content hash depends on node ID or pipeline/comment")
	}
	if a1.content != a2.content {
		t.Error("action content hash depends on node ID or pipeline/comment")
	}
}

// TestContentHashDistinguishesContent: different statements hash
// differently (kind, expression, and assigned variable all count).
func TestContentHashDistinguishesContent(t *testing.T) {
	g := NewGraph()
	hs := map[uint64]string{}
	add := func(name string, n *Node) {
		if prev, dup := hs[n.content]; dup {
			t.Errorf("content hash collision: %s vs %s", prev, name)
		}
		hs[n.content] = name
	}
	add("pred f==5", g.AddPredicate(pred(5), "ig", ""))
	add("pred f==6", g.AddPredicate(pred(6), "ig", ""))
	add("action x<-9", g.AddAction("x", expr.C(9, 8), "ig", ""))
	add("action y<-9", g.AddAction("y", expr.C(9, 8), "ig", ""))
	add("action x<-10", g.AddAction("x", expr.C(10, 8), "ig", ""))
	add("hash h", g.AddHash("h", 16, []expr.Arith{expr.V("f", 16)}, "ig", ""))
	add("checksum h", g.AddChecksum("h", 16, []expr.Arith{expr.V("f", 16)}, "ig", ""))
}

// TestContentHashHashNodeFoldsID: Hash/Checksum nodes mint ID-named
// symbols, so the same statement at a different ID must hash differently.
func TestContentHashHashNodeFoldsID(t *testing.T) {
	in := []expr.Arith{expr.V("f", 16)}
	g1 := NewGraph()
	h1 := g1.AddHash("h", 16, in, "ig", "")

	g2 := NewGraph()
	g2.AddPredicate(pred(1), "ig", "padding") // shift the ID
	h2 := g2.AddHash("h", 16, in, "ig", "")

	if h1.ID == h2.ID {
		t.Fatal("test setup failed to shift node IDs")
	}
	if h1.content == h2.content {
		t.Error("hash-node content hash must fold in the node ID")
	}
	// Same graph position, same statement: stable.
	g3 := NewGraph()
	g3.AddPredicate(pred(1), "ig", "padding")
	h3 := g3.AddHash("h", 16, in, "ig", "")
	if h2.content != h3.content {
		t.Error("hash-node content hash not reproducible across rebuilds")
	}
}

// TestTagDepsWatermark: TagDeps tags exactly the nodes added after the
// watermark, append-unique.
func TestTagDepsWatermark(t *testing.T) {
	g := NewGraph()
	before := g.AddPredicate(pred(1), "ig", "")
	mark := len(g.Nodes)
	n1 := g.AddPredicate(pred(2), "ig", "")
	n2 := g.AddAction("x", expr.C(1, 8), "ig", "")
	g.TagDeps(mark, "acl#dead")
	g.TagDeps(mark, "acl#dead") // idempotent
	g.TagDeps(mark, "acl#miss")

	if len(before.Deps) != 0 {
		t.Errorf("node before the watermark was tagged: %v", before.Deps)
	}
	for _, n := range []*Node{n1, n2} {
		if len(n.Deps) != 2 || n.Deps[0] != "acl#dead" || n.Deps[1] != "acl#miss" {
			t.Errorf("node %d deps = %v, want [acl#dead acl#miss]", n.ID, n.Deps)
		}
	}
}
