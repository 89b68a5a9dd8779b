package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/dp"
	"privtree/internal/geom"
)

// oracleRangeCount is the Section 2.2 traversal written directly over
// geom.Rect: IntersectionVolume, ContainsRect and Volume on each node's
// Region, children summed in arena order. Tree.RangeCount reads the
// coordinate slab instead and must return the same bits on every query.
func oracleRangeCount(n NodeRef, q geom.Rect) float64 {
	region := n.Region()
	iv := region.IntersectionVolume(q)
	if iv == 0 {
		return 0
	}
	if q.ContainsRect(region) {
		return n.Count()
	}
	if n.IsLeaf() {
		vol := region.Volume()
		if vol == 0 {
			return 0
		}
		return n.Count() * (iv / vol)
	}
	sum := 0.0
	for i := 0; i < n.NumChildren(); i++ {
		sum += oracleRangeCount(n.Child(i), q)
	}
	return sum
}

// randomTree builds a d-dimensional tree of the given fanout by cutting
// each split node along one random axis into fanout slabs. Cuts sit on a
// 1/64 grid of the node's extent, so query corners drawn from node
// coordinates land exactly on faces, and one cut in five repeats its
// predecessor, which yields zero-volume children. Leaf counts are random
// (some negative, as Laplace noise makes them); internal counts are leaf
// sums. scale sizes the domain: at 1e-110 and below, the volumes and
// intersection volumes of deep nodes underflow to 0 although every side
// is positive, which is the only way to reach the traversal's iv == 0 and
// vol == 0 branches.
func randomTree(rng *rand.Rand, d, fanout, maxNodes int, scale float64) *Tree {
	lo, hi := make(geom.Point, d), make(geom.Point, d)
	for k := range lo {
		lo[k] = (rng.Float64()*2 - 1) * scale
		hi[k] = lo[k] + (0.25+rng.Float64())*scale
	}
	b := NewBuilder(fanout, 0)
	b.AddRoot(geom.Rect{Lo: lo, Hi: hi})
	regions := geom.MakeRects(fanout, d)
	cuts := make([]float64, fanout+1)
	var grow func(idx int32, depth int)
	grow = func(idx int32, depth int) {
		if depth >= 7 || b.Len()+fanout > maxNodes || (depth > 0 && rng.Float64() < 0.35) {
			b.SetCount(idx, math.Round(rng.NormFloat64()*40+30))
			return
		}
		parent := b.Region(idx)
		axis := rng.IntN(d)
		a, z := parent.Lo[axis], parent.Hi[axis]
		cuts[0], cuts[fanout] = a, z
		for i := 1; i < fanout; i++ {
			if i > 1 && rng.IntN(5) == 0 {
				cuts[i] = cuts[i-1]
				continue
			}
			cuts[i] = a + (z-a)*float64(rng.IntN(65))/64
		}
		slices.Sort(cuts[1:fanout])
		for i := range regions {
			copy(regions[i].Lo, parent.Lo)
			copy(regions[i].Hi, parent.Hi)
			regions[i].Lo[axis], regions[i].Hi[axis] = cuts[i], cuts[i+1]
		}
		first := b.AddChildren(idx, regions)
		for i := range regions {
			grow(first+int32(i), depth+1)
		}
	}
	grow(0, 0)
	t := b.Build(true)
	t.SumInternalCounts()
	return t
}

// edgeQueries returns the rectangles the traversal's branches turn on,
// for a tree whose domain is dom: empty (lo == hi on one or every axis),
// the full domain, a superset of it, a disjoint box, boxes touching a
// domain face from outside, and boxes cornered on node coordinates so
// that containment and zero-width overlap are decided by exact equality.
func edgeQueries(rng *rand.Rand, t *Tree) []geom.Rect {
	dom := t.Root().Region()
	d := dom.Dims()
	box := func(f func(k int) (float64, float64)) geom.Rect {
		r := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
		for k := 0; k < d; k++ {
			r.Lo[k], r.Hi[k] = f(k)
		}
		return r
	}
	mid := func(k int) float64 { return (dom.Lo[k] + dom.Hi[k]) / 2 }
	out := []geom.Rect{
		dom,
		box(func(k int) (float64, float64) { return dom.Lo[k] - 1, dom.Hi[k] + 1 }),
		box(func(k int) (float64, float64) { return mid(k), mid(k) }),
		box(func(k int) (float64, float64) {
			if k == 0 {
				return mid(k), mid(k)
			}
			return dom.Lo[k], dom.Hi[k]
		}),
		box(func(k int) (float64, float64) { return dom.Hi[k] + 0.5, dom.Hi[k] + 1 }),
	}
	for axis := 0; axis < d; axis++ {
		out = append(out,
			box(func(k int) (float64, float64) {
				if k == axis {
					return dom.Hi[k], dom.Hi[k] + 1
				}
				return dom.Lo[k], dom.Hi[k]
			}),
			box(func(k int) (float64, float64) {
				if k == axis {
					return dom.Lo[k] - 1, dom.Lo[k]
				}
				return dom.Lo[k], dom.Hi[k]
			}))
	}
	// Corners taken from node coordinates: each axis picks a lower and an
	// upper bound from two random nodes' regions.
	for i := 0; i < 64; i++ {
		out = append(out, box(func(k int) (float64, float64) {
			a := t.At(rng.IntN(t.Size())).Region()
			c := t.At(rng.IntN(t.Size())).Region()
			x := []float64{a.Lo[k], a.Hi[k]}[rng.IntN(2)]
			y := []float64{c.Lo[k], c.Hi[k]}[rng.IntN(2)]
			return min(x, y), max(x, y)
		}))
	}
	// And plain random boxes around the domain.
	for i := 0; i < 64; i++ {
		out = append(out, box(func(k int) (float64, float64) {
			w := dom.Hi[k] - dom.Lo[k]
			x := dom.Lo[k] - w/4 + rng.Float64()*w*1.5
			y := dom.Lo[k] - w/4 + rng.Float64()*w*1.5
			return min(x, y), max(x, y)
		}))
	}
	return out
}

func checkAgainstOracle(t *testing.T, tree *Tree, queries []geom.Rect) {
	t.Helper()
	for _, q := range queries {
		got, want := tree.RangeCount(q), oracleRangeCount(tree.Root(), q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d=%d fanout=%d q=%v: RangeCount %v (%#x), oracle %v (%#x)",
				tree.Dims(), tree.Fanout, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestRangeCountMatchesOracleOnRandomTrees holds the slab walk to the
// Rect-based traversal bit for bit on random trees of every
// dimensionality the two code paths split on (d = 2 has its own loop)
// and fanouts 2…8, including zero-width leaves and, on tiny domains,
// leaves whose volume underflows to zero.
func TestRangeCountMatchesOracleOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for d := 1; d <= 4; d++ {
		for fanout := 2; fanout <= 8; fanout++ {
			for _, scale := range []float64{1, 1e-110, 1e-170} {
				for trial := 0; trial < 3; trial++ {
					tree := randomTree(rng, d, fanout, 3000, scale)
					checkAgainstOracle(t, tree, edgeQueries(rng, tree))
				}
			}
		}
	}
}

// TestRangeCountMatchesOracleOnBuiltTrees does the same on trees from the
// real PrivTree pipeline: full bisection for d = 1…4 and round-robin
// bisection (fanout 2) for d = 3.
func TestRangeCountMatchesOracleOnBuiltTrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	for _, c := range []struct {
		d     int
		split geom.Splitter
	}{
		{1, geom.FullBisect{Dim: 1}}, {2, geom.FullBisect{Dim: 2}}, {3, geom.FullBisect{Dim: 3}},
		{4, geom.FullBisect{Dim: 4}}, {3, geom.RoundRobinBisect{Dim: 3, PerStep: 1}},
	} {
		d, split := c.d, c.split
		pts := make([]geom.Point, 20000)
		for i := range pts {
			p := make(geom.Point, d)
			for k := range p {
				p[k] = clamp01(0.3 + 0.1*rng.NormFloat64())
			}
			pts[i] = p
		}
		ds, err := dataset.NewSpatial(geom.UnitCube(d), pts)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := BuildNoisy(ds, split, 1.0, split.Fanout(), dp.NewRand(45))
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, tree, edgeQueries(rng, tree))
	}
}

// TestRangeCountDimensionMismatch pins the answer to a query of the wrong
// dimensionality: 0, as the Rect-based traversal gives.
func TestRangeCountDimensionMismatch(t *testing.T) {
	tree := randomTree(rand.New(rand.NewPCG(46, 47)), 2, 4, 200, 1)
	for _, q := range []geom.Rect{geom.UnitCube(1), geom.UnitCube(3)} {
		if got := tree.RangeCount(q); got != 0 || got != oracleRangeCount(tree.Root(), q) {
			t.Fatalf("%d-D query on a 2-D tree = %v, want 0", q.Dims(), got)
		}
	}
}

// TestRegionZeroAllocs pins that a node's region is a view into the
// coordinate slab, not a copy.
func TestRegionZeroAllocs(t *testing.T) {
	tree := randomTree(rand.New(rand.NewPCG(48, 49)), 3, 4, 500, 1)
	sink := 0.0
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < tree.Size(); i++ {
			r := tree.At(i).Region()
			sink += r.Lo[0] + r.Hi[2]
		}
	}); allocs != 0 {
		t.Fatalf("NodeRef.Region allocated %v times per sweep, want 0", allocs)
	}
	_ = sink
}

// TestRegionsAliasTheSlab checks the layout Tree documents: node i's
// region is coords[2·d·i:] (lo, then hi), capacity-capped so an append to
// one region cannot overwrite the next.
func TestRegionsAliasTheSlab(t *testing.T) {
	tree := randomTree(rand.New(rand.NewPCG(50, 51)), 3, 3, 300, 1)
	d := tree.Dims()
	if len(tree.coords) != 2*d*tree.Size() {
		t.Fatalf("slab holds %d floats, want %d", len(tree.coords), 2*d*tree.Size())
	}
	for i := 0; i < tree.Size(); i++ {
		r := tree.At(i).Region()
		if &r.Lo[0] != &tree.coords[2*d*i] || &r.Hi[0] != &tree.coords[2*d*i+d] {
			t.Fatalf("node %d: region does not alias its slab slot", i)
		}
		if cap(r.Lo) != d || cap(r.Hi) != d {
			t.Fatalf("node %d: region capacity %d/%d, want %d", i, cap(r.Lo), cap(r.Hi), d)
		}
	}
}
