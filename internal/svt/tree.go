package svt

import (
	"math/rand/v2"

	"privtree/internal/core"
	"privtree/internal/dataset"
	"privtree/internal/dp"
	"privtree/internal/geom"
)

// BuildTreeWithBinarySVT constructs a spatial decomposition by feeding the
// node-count queries of a growing quadtree into the binary SVT, exactly
// the hypothetical construction of Section 5: "we invoke the binary SVT to
// inspect each query in Q one by one; if the binary SVT outputs 1 for a
// query c(v), then we split the node v".
//
// If Claim 1 held, this would be ε-DP at λ = 2/ε — strictly better than
// PrivTree's (2β−1)/(β−1)/ε. Lemma 5.1 proves it is NOT differentially
// private at that scale, so this function exists for demonstration and
// comparison only; it must never be used to release real data. The
// returned tree carries no counts.
func BuildTreeWithBinarySVT(data *dataset.Spatial, split geom.Splitter, theta, lambda float64, maxDepth int, rng *rand.Rand) *core.Tree {
	if maxDepth <= 0 {
		maxDepth = core.DefaultMaxDepth
	}
	thetaHat := theta + dp.LapNoise(rng, lambda)

	b := core.NewBuilder(split.Fanout(), 64)
	b.AddRoot(data.Domain)
	type item struct {
		idx  int32
		view dataset.View
	}
	queue := []item{{0, *data.NewView()}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := b.Node(cur.idx)
		if int(n.Depth) >= maxDepth-1 {
			continue
		}
		noisy := float64(cur.view.Len()) + dp.LapNoise(rng, lambda)
		if noisy <= thetaHat {
			continue
		}
		regions := split.Split(b.Region(cur.idx), int(n.Depth))
		views := cur.view.PartitionInto(regions, make([]dataset.View, len(regions)))
		first := b.AddChildren(cur.idx, regions)
		for i := range regions {
			queue = append(queue, item{first + int32(i), views[i]})
		}
	}
	return b.Build(false)
}
