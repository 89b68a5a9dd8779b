package workload

import (
	"math"
	"math/rand/v2"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/geom"
)

func TestSizeClassBounds(t *testing.T) {
	cases := []struct {
		c      SizeClass
		lo, hi float64
	}{
		{Small, 0.0001, 0.001},
		{Medium, 0.001, 0.01},
		{Large, 0.01, 0.1},
	}
	for _, tc := range cases {
		lo, hi := tc.c.Bounds()
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%v bounds = [%v, %v)", tc.c, lo, hi)
		}
	}
}

func TestSizeClassString(t *testing.T) {
	if Small.String() != "small" || Medium.String() != "medium" || Large.String() != "large" {
		t.Fatal("size class names wrong")
	}
	if SizeClass(99).String() != "unknown" {
		t.Fatal("unknown class name wrong")
	}
}

func TestQueriesVolumeInBand(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	dom := geom.UnitCube(2)
	for _, class := range []SizeClass{Small, Medium, Large} {
		lo, hi := class.Bounds()
		for _, q := range Queries(dom, class, 200, rng) {
			frac := q.Volume() / dom.Volume()
			if frac < lo*0.99 || frac > hi*1.01 {
				t.Fatalf("%v query volume fraction %v outside [%v, %v)", class, frac, lo, hi)
			}
			if !dom.ContainsRect(q) {
				t.Fatalf("query %v escapes domain", q)
			}
		}
	}
}

// TestMixedQueriesInterleaveClasses checks that MixedQueries returns
// exactly count queries whose i-th falls in size class i mod 3.
func TestMixedQueriesInterleaveClasses(t *testing.T) {
	dom := geom.UnitCube(2)
	for _, count := range []int{1, 2, 256, 300} {
		qs := MixedQueries(dom, count, rand.New(rand.NewPCG(2, 2)))
		if len(qs) != count {
			t.Fatalf("MixedQueries(%d) returned %d queries", count, len(qs))
		}
		for i, q := range qs {
			lo, hi := SizeClass(i % 3).Bounds()
			if frac := q.Volume() / dom.Volume(); frac < lo*0.99 || frac > hi*1.01 {
				t.Fatalf("query %d of %d: volume fraction %v outside the %v band", i, count, frac, SizeClass(i%3))
			}
		}
	}
}

func TestQueries4D(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	dom := geom.UnitCube(4)
	for _, q := range Queries(dom, Large, 100, rng) {
		frac := q.Volume() / dom.Volume()
		if frac < 0.0099 || frac > 0.101 {
			t.Fatalf("4-D large query fraction %v", frac)
		}
	}
}

func TestQueriesNonDomainUnitCube(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	dom := geom.NewRect(geom.Point{-10, 5}, geom.Point{10, 25})
	for _, q := range Queries(dom, Medium, 100, rng) {
		if !dom.ContainsRect(q) {
			t.Fatalf("query %v escapes shifted domain", q)
		}
		frac := q.Volume() / dom.Volume()
		if frac < 0.00099 || frac > 0.0101 {
			t.Fatalf("shifted-domain query fraction %v", frac)
		}
	}
}

func TestRelativeErrorSmoothing(t *testing.T) {
	// RE = |got−exact| / max(exact, Δ).
	if got := RelativeError(110, 100, 50); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RE = %v, want 0.1", got)
	}
	// Small exact count: denominator is the smoothing factor.
	if got := RelativeError(10, 0, 50); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("smoothed RE = %v, want 0.2", got)
	}
}

type constMethod float64

func (c constMethod) RangeCount(q geom.Rect) float64 { return float64(c) }

func TestEvaluatorAvgRelativeError(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	pts := make([]geom.Point, 10000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64()}
	}
	ds, err := dataset.NewSpatial(geom.UnitCube(2), pts)
	if err != nil {
		t.Fatal(err)
	}
	idx := dataset.NewGridIndex(ds, 16)
	queries := Queries(ds.Domain, Large, 50, rng)
	ev := NewEvaluator(idx, queries)
	if ev.Delta != 10 {
		t.Fatalf("smoothing factor = %v, want 0.1%% of 10000", ev.Delta)
	}
	// The exact oracle itself must score zero error.
	if got := ev.AvgRelativeError(exactMethod{idx}); got != 0 {
		t.Fatalf("oracle scored %v", got)
	}
	// A zero predictor scores 1 (error equals the count, smoothed).
	if got := ev.AvgRelativeError(constMethod(0)); got < 0.9 {
		t.Fatalf("zero predictor scored %v, want ≈1", got)
	}
}

type exactMethod struct{ idx *dataset.GridIndex }

func (m exactMethod) RangeCount(q geom.Rect) float64 { return float64(m.idx.RangeCount(q)) }

func TestEvaluatorExactPrecomputed(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64()}
	}
	ds, _ := dataset.NewSpatial(geom.UnitCube(2), pts)
	idx := dataset.NewGridIndex(ds, 8)
	queries := Queries(ds.Domain, Medium, 20, rng)
	ev := NewEvaluator(idx, queries)
	for i, q := range queries {
		if ev.Exact(i) != float64(idx.RangeCount(q)) {
			t.Fatalf("precomputed exact mismatch at %d", i)
		}
	}
}

func TestEmptyQuerySetScoresZero(t *testing.T) {
	ds, _ := dataset.NewSpatial(geom.UnitCube(2), nil)
	idx := dataset.NewGridIndex(ds, 4)
	ev := NewEvaluator(idx, nil)
	if got := ev.AvgRelativeError(constMethod(5)); got != 0 {
		t.Fatalf("empty query set scored %v", got)
	}
}
