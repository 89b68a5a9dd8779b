// Package workload generates the range-count query workloads of Section 6.1
// and computes the paper's accuracy metrics: relative error with smoothing
// Δ = 0.1%·n for range counts, precision@k for frequent-string mining.
package workload

import (
	"math"
	"math/rand/v2"

	"privtree/internal/dataset"
	"privtree/internal/geom"
)

// SizeClass is one of the paper's three query-volume bands.
type SizeClass int

// The query sets of Section 6.1: each query's region covers the stated
// fraction band of the data domain's volume.
const (
	Small  SizeClass = iota // [0.01%, 0.1%)
	Medium                  // [0.1%, 1%)
	Large                   // [1%, 10%)
)

// String names the size class.
func (s SizeClass) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	}
	return "unknown"
}

// Bounds returns the volume-fraction band [lo, hi) of the class.
func (s SizeClass) Bounds() (lo, hi float64) {
	switch s {
	case Small:
		return 0.0001, 0.001
	case Medium:
		return 0.001, 0.01
	default:
		return 0.01, 0.1
	}
}

// Queries generates count random range queries over domain whose volumes
// fall in the class's band. Each query is an axis-aligned box: the volume
// fraction is drawn log-uniformly inside the band, split across axes with
// random aspect ratios, and the box is placed uniformly (clamped inside the
// domain).
func Queries(domain geom.Rect, class SizeClass, count int, rng *rand.Rand) []geom.Rect {
	lo, hi := class.Bounds()
	d := domain.Dims()
	out := make([]geom.Rect, count)
	for qi := range out {
		// Log-uniform target volume fraction.
		frac := math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
		// Split log(frac) across axes with random proportions.
		props := make([]float64, d)
		sum := 0.0
		for i := range props {
			props[i] = 0.25 + rng.Float64() // bounded away from 0: no degenerate slivers
			sum += props[i]
		}
		qlo := make(geom.Point, d)
		qhi := make(geom.Point, d)
		for i := 0; i < d; i++ {
			side := domain.Side(i) * math.Pow(frac, props[i]/sum)
			maxStart := domain.Side(i) - side
			start := domain.Lo[i]
			if maxStart > 0 {
				start += rng.Float64() * maxStart
			}
			qlo[i] = start
			qhi[i] = start + side
		}
		out[qi] = geom.Rect{Lo: qlo, Hi: qhi}
	}
	return out
}

// MixedQueries returns count queries drawn from all three size classes,
// interleaved small, medium, large, so every slice of the result mixes
// the classes — the shape of a served query batch.
func MixedQueries(domain geom.Rect, count int, rng *rand.Rand) []geom.Rect {
	per := (count + 2) / 3
	var classes [3][]geom.Rect
	for c := range classes {
		classes[c] = Queries(domain, SizeClass(c), per, rng)
	}
	out := make([]geom.Rect, 0, 3*per)
	for i := 0; i < per; i++ {
		for c := range classes {
			out = append(out, classes[c][i])
		}
	}
	return out[:count]
}

// RelativeError computes the paper's metric for one query:
//
//	RE = |q̂(D) − q(D)| / max{q(D), Δ}
//
// where Δ is the smoothing factor (0.1% of the dataset cardinality).
func RelativeError(got, exact, delta float64) float64 {
	den := exact
	if den < delta {
		den = delta
	}
	return math.Abs(got-exact) / den
}

// Evaluator scores a private synopsis over a fixed query set using a
// pre-built exact-count oracle.
type Evaluator struct {
	Index   *dataset.GridIndex
	Queries []geom.Rect
	Delta   float64 // smoothing factor, 0.1% of n
	exact   []float64
}

// NewEvaluator precomputes exact answers for the query set.
func NewEvaluator(idx *dataset.GridIndex, queries []geom.Rect) *Evaluator {
	e := &Evaluator{
		Index:   idx,
		Queries: queries,
		Delta:   0.001 * float64(idx.N()),
		exact:   make([]float64, len(queries)),
	}
	for i, q := range queries {
		e.exact[i] = float64(idx.RangeCount(q))
	}
	return e
}

// Exact returns the precomputed exact answer for query i.
func (e *Evaluator) Exact(i int) float64 { return e.exact[i] }

// Method is any private synopsis that answers range-count queries.
type Method interface {
	RangeCount(q geom.Rect) float64
}

// AvgRelativeError runs every query through m and returns the mean relative
// error — one point of Figure 5.
func (e *Evaluator) AvgRelativeError(m Method) float64 {
	if len(e.Queries) == 0 {
		return 0
	}
	total := 0.0
	for i, q := range e.Queries {
		total += RelativeError(m.RangeCount(q), e.exact[i], e.Delta)
	}
	return total / float64(len(e.Queries))
}
