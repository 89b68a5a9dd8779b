package baseline

import (
	"math/rand/v2"

	"privtree/internal/core"
	"privtree/internal/dataset"
	"privtree/internal/dp"
	"privtree/internal/geom"
)

// SimpleTree is Algorithm 1 of the paper: the classical private quadtree
// with a pre-defined height limit h. Every node's count is perturbed with
// Laplace scale λ = h/ε_tree (the sensitivity of all counts together is h,
// since an inserted point touches one node per level), and a node splits
// when its noisy count exceeds θ and the height limit permits.
//
// It exists as the ablation contrast for PrivTree: same pipeline, same
// budget split, but noise that grows with h instead of PrivTree's constant
// λ.
type SimpleTree struct {
	tree *core.Tree
}

// NewSimpleTree builds the full pipeline under total budget eps: tree
// construction with ε/2 (λ = h/(ε/2)), then leaf counts with ε/2, matching
// PrivTree's post-processing so the two methods differ only in the split
// mechanism. theta ≤ 0 selects the default θ = λ (a split threshold at the
// noise scale, the paper's cited heuristics use comparable settings).
func NewSimpleTree(data *dataset.Spatial, split geom.Splitter, eps, theta float64, h int, rng *rand.Rand) *SimpleTree {
	if h < 1 {
		panic("baseline: SimpleTree height must be >= 1")
	}
	epsTree := eps / 2
	epsCount := eps - epsTree
	lambda := float64(h) / epsTree
	if theta <= 0 {
		theta = lambda
	}

	b := core.NewBuilder(split.Fanout(), 64)
	b.AddRoot(data.Domain)
	var grow func(idx int32, view dataset.View)
	grow = func(idx int32, view dataset.View) {
		n := b.Node(idx)
		noisy := float64(view.Len()) + dp.LapNoise(rng, lambda)
		if !(noisy > theta) || int(n.Depth) >= h-1 {
			return
		}
		regions := split.Split(b.Region(idx), int(n.Depth))
		views := view.PartitionInto(regions, make([]dataset.View, len(regions)))
		first := b.AddChildren(idx, regions)
		for i := range regions {
			grow(first+int32(i), views[i])
		}
	}
	grow(0, *data.NewView())

	t := b.Build(false)
	attachLeafCounts(t, data, epsCount, rng)
	return &SimpleTree{tree: t}
}

// attachLeafCounts mirrors PrivTree's post-processing: noisy leaf counts,
// internal nodes as sums. Leaf views are recovered by re-partitioning the
// dataset down the released structure.
func attachLeafCounts(t *core.Tree, data *dataset.Spatial, eps float64, rng *rand.Rand) {
	mech := dp.LaplaceMechanism{Epsilon: eps, Sensitivity: 1}
	var walk func(n core.NodeRef, v dataset.View)
	walk = func(n core.NodeRef, v dataset.View) {
		if n.IsLeaf() {
			n.Node().Count = mech.Release(rng, float64(v.Len()))
			return
		}
		k := n.NumChildren()
		regions := make([]geom.Rect, k)
		for i := 0; i < k; i++ {
			regions[i] = n.Child(i).Region()
		}
		views := v.PartitionInto(regions, make([]dataset.View, k))
		for i := 0; i < k; i++ {
			walk(n.Child(i), views[i])
		}
	}
	walk(t.Root(), *data.NewView())
	t.SumInternalCounts()
	t.HasCounts = true
}

// RangeCount implements workload.Method.
func (s *SimpleTree) RangeCount(q geom.Rect) float64 { return s.tree.RangeCount(q) }

// Tree exposes the underlying decomposition for diagnostics.
func (s *SimpleTree) Tree() *core.Tree { return s.tree }
