package core

import (
	"math"

	"privtree/internal/geom"
)

// Node is one node of a spatial decomposition tree, stored in the tree's
// flat node arena. Count is the released noisy count: for leaves it is the
// directly perturbed value, for internal nodes the sum of their leaves'
// noisy counts (the paper's post-processing, Section 3.4). Count is NaN on
// trees built without count release.
//
// A node's region is not stored here but in the tree's coordinate slab
// (see Tree), addressed by the node's arena index; NodeRef.Region and
// Builder.Region return it.
//
// Children are identified by an index range into the arena rather than by
// pointers: a split appends all β children as one contiguous block, so the
// whole tree costs O(1) allocations per arena growth instead of O(1) per
// node, and traversals walk cache-friendly contiguous memory.
type Node struct {
	Count float64
	Depth int32
	// firstChild indexes the node's first child in the arena; 0 marks a
	// leaf (the root occupies index 0 and is never anyone's child).
	firstChild  int32
	numChildren int32
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.numChildren == 0 }

// NumChildren returns the node's child count (0 for leaves, β otherwise).
func (n *Node) NumChildren() int { return int(n.numChildren) }

// Tree is the output of PrivTree on spatial data: the decomposition plus,
// optionally, noisy counts. Nodes is the arena (each node's children are
// one contiguous block placed after it); Nodes[0] is the root. Treat the
// arena as read-only outside this package except through Builder.
//
// Region coordinates live in one flat slab, coords, in arena order: node
// i owns the 2·d floats at coords[2·d·i:], its d lower bounds followed by
// its d upper bounds. A coordinate is written once, when its node is
// added, and never rewritten, so a Region handed out by NodeRef or
// Builder — a pair of sub-slices of the slab — stays valid for the life
// of the tree.
type Tree struct {
	Nodes  []Node
	Fanout int
	// HasCounts records whether noisy counts were released onto nodes.
	HasCounts bool

	coords []float64
	dims   int
}

// Dims returns the dimensionality of the tree's regions.
func (t *Tree) Dims() int { return t.dims }

// slabRegion returns node i's region as sub-slices of a coordinate slab
// laid out as Tree describes. The slices are capacity-capped, so an
// append by the caller can never overwrite a neighbour's coordinates.
func slabRegion(coords []float64, d int, i int32) geom.Rect {
	o := 2 * d * int(i)
	return geom.Rect{Lo: coords[o : o+d : o+d], Hi: coords[o+d : o+2*d : o+2*d]}
}

// NodeRef is a handle to one node of a tree: a value type (tree pointer +
// arena index) so traversals allocate nothing. The zero NodeRef is invalid.
type NodeRef struct {
	t *Tree
	i int32
}

// Root returns a handle to the root node.
func (t *Tree) Root() NodeRef { return NodeRef{t: t, i: 0} }

// At returns a handle to the node at arena index i.
func (t *Tree) At(i int) NodeRef { return NodeRef{t: t, i: int32(i)} }

// Node returns the underlying arena node.
func (r NodeRef) Node() *Node { return &r.t.Nodes[r.i] }

// Index returns the node's arena index.
func (r NodeRef) Index() int { return int(r.i) }

// Region returns the node's region. The rectangle aliases the tree's
// coordinate slab and must not be mutated; it performs no allocation.
func (r NodeRef) Region() geom.Rect { return slabRegion(r.t.coords, r.t.dims, r.i) }

// Count returns the node's released noisy count (NaN without counts).
func (r NodeRef) Count() float64 { return r.t.Nodes[r.i].Count }

// Depth returns the node's depth (root = 0).
func (r NodeRef) Depth() int { return int(r.t.Nodes[r.i].Depth) }

// IsLeaf reports whether the node has no children.
func (r NodeRef) IsLeaf() bool { return r.t.Nodes[r.i].numChildren == 0 }

// NumChildren returns the node's child count.
func (r NodeRef) NumChildren() int { return int(r.t.Nodes[r.i].numChildren) }

// Child returns a handle to the j-th child.
func (r NodeRef) Child(j int) NodeRef {
	n := &r.t.Nodes[r.i]
	if int32(j) < 0 || int32(j) >= n.numChildren {
		panic("core: child index out of range")
	}
	return NodeRef{t: r.t, i: n.firstChild + int32(j)}
}

// Size returns the total number of nodes.
func (t *Tree) Size() int { return len(t.Nodes) }

// Height returns the maximum depth over all nodes (root = 0).
func (t *Tree) Height() int {
	h := int32(0)
	for i := range t.Nodes {
		if t.Nodes[i].Depth > h {
			h = t.Nodes[i].Depth
		}
	}
	return int(h)
}

// Leaves returns handles to all leaf nodes in depth-first order.
func (t *Tree) Leaves() []NodeRef {
	nLeaves := 0
	for i := range t.Nodes {
		if t.Nodes[i].numChildren == 0 {
			nLeaves++
		}
	}
	out := make([]NodeRef, 0, nLeaves)
	t.appendLeaves(&out, 0)
	return out
}

func (t *Tree) appendLeaves(out *[]NodeRef, i int32) {
	n := &t.Nodes[i]
	if n.numChildren == 0 {
		*out = append(*out, NodeRef{t: t, i: i})
		return
	}
	for c := n.firstChild; c < n.firstChild+n.numChildren; c++ {
		t.appendLeaves(out, c)
	}
}

// SumInternalCounts recomputes every internal node's count as the sum of
// its leaves' counts (the release pipeline's definition). It relies on the
// arena invariant that children always follow their parent, so a single
// reverse scan suffices; it performs no allocation.
func (t *Tree) SumInternalCounts() {
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		n := &t.Nodes[i]
		if n.numChildren == 0 {
			continue
		}
		sum := 0.0
		for c := n.firstChild; c < n.firstChild+n.numChildren; c++ {
			sum += t.Nodes[c].Count
		}
		n.Count = sum
	}
}

// Equal reports whether two trees are identical releases: same fanout,
// count flag, dimensionality, and node-for-node identical arenas (regions,
// depths, counts — NaN counts compare equal — and child links). Serial and
// parallel builds from the same seed must satisfy Equal exactly.
func Equal(a, b *Tree) bool {
	if a.Fanout != b.Fanout || a.HasCounts != b.HasCounts || a.dims != b.dims ||
		len(a.Nodes) != len(b.Nodes) || len(a.coords) != len(b.coords) {
		return false
	}
	for i := range a.Nodes {
		na, nb := &a.Nodes[i], &b.Nodes[i]
		if na.Depth != nb.Depth || na.firstChild != nb.firstChild || na.numChildren != nb.numChildren {
			return false
		}
		if na.Count != nb.Count && !(math.IsNaN(na.Count) && math.IsNaN(nb.Count)) {
			return false
		}
	}
	for k := range a.coords {
		if a.coords[k] != b.coords[k] {
			return false
		}
	}
	return true
}

// Builder assembles a Tree into its arena form. All tree constructors in
// the repository — PrivTree itself, the SimpleTree baseline, the SVT
// demonstration tree, and JSON deserialization — go through a Builder, so
// they share the same allocation discipline: nodes land in a growing
// []Node and region coordinates are appended to one growing coordinate
// slab in the layout Tree describes (the caller may therefore reuse its
// scratch rectangles between AddChildren calls). Every region of a tree
// has the dimensionality of the root's.
type Builder struct {
	nodes  []Node
	coords []float64
	dims   int
	fanout int
}

// NewBuilder returns a builder for a tree of the given fanout. sizeHint, if
// positive, pre-sizes the node arena and the coordinate slab.
func NewBuilder(fanout, sizeHint int) *Builder {
	if sizeHint < 1 {
		sizeHint = 16
	}
	return &Builder{nodes: make([]Node, 0, sizeHint), fanout: fanout}
}

// reserve makes room for n more nodes in the arena and the slab. Both
// double when full: append's own growth drops to 1.25× on large slices,
// which would cost a build several times more reallocations.
func (b *Builder) reserve(n int) {
	if need := len(b.nodes) + n; need > cap(b.nodes) {
		grown := make([]Node, len(b.nodes), max(2*cap(b.nodes), need))
		copy(grown, b.nodes)
		b.nodes = grown
	}
	if need := len(b.coords) + 2*b.dims*n; need > cap(b.coords) {
		grown := make([]float64, len(b.coords), max(2*cap(b.coords), need))
		copy(grown, b.coords)
		b.coords = grown
	}
}

// appendRegion appends r's coordinates to the slab.
func (b *Builder) appendRegion(r geom.Rect) {
	if len(r.Lo) != b.dims {
		panic("core: region dimensionality differs from the root's")
	}
	b.coords = append(b.coords, r.Lo...)
	b.coords = append(b.coords, r.Hi[:b.dims]...)
}

// AddRoot places the root node (index 0) with the given region, which
// fixes the tree's dimensionality. It must be called exactly once, before
// any AddChildren.
func (b *Builder) AddRoot(region geom.Rect) int32 {
	if len(b.nodes) != 0 {
		panic("core: Builder.AddRoot on a non-empty builder")
	}
	b.dims = len(region.Lo)
	b.coords = make([]float64, 0, 2*b.dims*cap(b.nodes))
	b.appendRegion(region)
	b.nodes = append(b.nodes, Node{Depth: 0, Count: math.NaN()})
	return 0
}

// AddChildren appends one child per region as a contiguous block, links
// them to the parent, and returns the first child's index. Child depths are
// parent depth + 1 and counts start at NaN. The regions are copied, so the
// caller may reuse the slice.
func (b *Builder) AddChildren(parent int32, regions []geom.Rect) int32 {
	b.reserve(len(regions))
	first := int32(len(b.nodes))
	depth := b.nodes[parent].Depth + 1
	for _, r := range regions {
		b.appendRegion(r)
		b.nodes = append(b.nodes, Node{Depth: depth, Count: math.NaN()})
	}
	b.nodes[parent].firstChild = first
	b.nodes[parent].numChildren = int32(len(regions))
	return first
}

// SetCount sets the count of node i (typically a leaf; internal counts are
// usually recomputed by Tree.SumInternalCounts).
func (b *Builder) SetCount(i int32, count float64) { b.nodes[i].Count = count }

// Node exposes node i for in-place inspection during construction.
func (b *Builder) Node(i int32) *Node { return &b.nodes[i] }

// Region returns node i's region. Like NodeRef.Region it aliases the
// coordinate slab and must not be mutated; it stays valid while the
// builder grows, because coordinates are never rewritten.
func (b *Builder) Region(i int32) geom.Rect { return slabRegion(b.coords, b.dims, i) }

// Len returns the number of nodes added so far.
func (b *Builder) Len() int { return len(b.nodes) }

// subBuilder returns a fresh builder whose root is a copy of node i (its
// count, depth and region), for building i's subtree separately and
// grafting it back with Splice.
func (b *Builder) subBuilder(i int32) *Builder {
	sub := NewBuilder(b.fanout, 64)
	sub.AddRoot(b.Region(i))
	sub.nodes[0] = b.nodes[i]
	return sub
}

// Splice grafts a subtree built in a separate Builder onto child node
// childIdx: sub's node 0 must describe childIdx itself (subBuilder seeds
// it with a copy of that node); its descendants, nodes and coordinates,
// are appended to b with child links rebased. Appending sub-builders in
// child order reproduces exactly the arena layout a fully serial build
// would have produced, which is what makes parallel builds byte-identical
// to serial ones.
func (b *Builder) Splice(childIdx int32, sub *Builder) {
	b.reserve(len(sub.nodes) - 1)
	base := int32(len(b.nodes)) - 1 // sub index j ≥ 1 lands at base+j
	root := sub.nodes[0]
	dst := &b.nodes[childIdx]
	dst.Count = root.Count
	if root.numChildren > 0 {
		dst.firstChild = root.firstChild + base
		dst.numChildren = root.numChildren
	}
	for _, n := range sub.nodes[1:] {
		if n.numChildren > 0 {
			n.firstChild += base
		}
		b.nodes = append(b.nodes, n)
	}
	b.coords = append(b.coords, sub.coords[2*sub.dims:]...)
}

// Build finalizes the tree. The builder must not be used afterwards.
func (b *Builder) Build(hasCounts bool) *Tree {
	return &Tree{Nodes: b.nodes, Fanout: b.fanout, HasCounts: hasCounts, coords: b.coords, dims: b.dims}
}
