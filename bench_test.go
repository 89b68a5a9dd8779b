package privtree

// This file holds one benchmark per table/figure of the paper, per the
// experiment index in DESIGN.md §3. Benchmarks run the corresponding
// experiment at a reduced scale so `go test -bench=.` completes in
// minutes; cmd/privtree-bench regenerates the full-size artifacts.

import (
	"io"
	"math/rand/v2"
	"testing"

	"privtree/internal/experiments"
	"privtree/internal/synth"
	"privtree/internal/workload"
)

// benchConfig is the reduced-scale configuration shared by the figure
// benches.
func benchConfig() experiments.Config {
	return experiments.Config{
		Out:      io.Discard,
		Scale:    0.02,
		Reps:     1,
		Queries:  60,
		Epsilons: []float64{0.1, 1.6},
	}
}

func BenchmarkFig2RhoCurve(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Fig2(cfg)
	}
}

func BenchmarkTable2Datasets(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Table2(cfg)
	}
}

func BenchmarkFig5RangeQueries(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Fig5(cfg)
	}
}

func BenchmarkTable3SequenceDatasets(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Table3(cfg)
	}
}

func BenchmarkFig6TopK(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Fig6(cfg)
	}
}

func BenchmarkFig7LengthDist(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Fig7(cfg)
	}
}

func BenchmarkSVTViolation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.SVTViolation(cfg, 0.5)
	}
}

func BenchmarkTable4Runtime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Table4Spatial(cfg)
		experiments.Table4Sequence(cfg)
	}
}

func BenchmarkFig8Fanout(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Fig8(cfg)
	}
}

func BenchmarkFig9UGScale(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Fig9(cfg)
	}
}

func BenchmarkFig10AGScale(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Fig10(cfg)
	}
}

func BenchmarkFig11HierarchyHeight(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Fig11(cfg)
	}
}

func BenchmarkFig12NGramHeight(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Fig12(cfg)
	}
}

func BenchmarkLemma32TreeSize(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.Lemma32Check(cfg, "gowalla", 1.0)
	}
}

// Micro-benchmarks of the core operations, for performance tracking.

func BenchmarkBuildSpatial100k(b *testing.B) {
	pts := makeClusteredPoints(100_000)
	dom := UnitCube(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSpatial(dom, pts, 1.0, SpatialOptions{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSpatial1M measures the build at production scale, serial
// vs. parallel. Because noise comes from per-node splittable streams, both
// variants release the identical tree; only wall-clock differs.
func BenchmarkBuildSpatial1M(b *testing.B) {
	pts := makeClusteredPoints(1_000_000)
	dom := UnitCube(2)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildSpatial(dom, pts, 1.0, SpatialOptions{Seed: uint64(i + 1), Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRangeCount(b *testing.B) {
	pts := makeClusteredPoints(100_000)
	dom := UnitCube(2)
	tree, err := BuildSpatial(dom, pts, 1.0, SpatialOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := NewRect(Point{0.2, 0.2}, Point{0.6, 0.6})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.RangeCount(q)
	}
}

// rangeCountSink keeps the compiler from discarding benchmarked answers.
var rangeCountSink float64

// BenchmarkRangeCountMixed times the read path's real query shape: one
// batch of 256 §6.1 rectangles (small, medium and large interleaved) per
// op over a release of 1M road-like points (about 100k nodes).
func BenchmarkRangeCountMixed(b *testing.B) {
	dom := UnitCube(2)
	pts := synth.RoadLike(1_000_000, rand.New(rand.NewPCG(500, 600))).Points
	tree, err := BuildSpatial(dom, pts, 1.0, SpatialOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rects := workload.MixedQueries(dom, 256, rand.New(rand.NewPCG(700, 800)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rects {
			rangeCountSink += tree.RangeCount(r)
		}
	}
}

func BenchmarkBuildSequenceModel(b *testing.B) {
	seqs := makeClickstreams(20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSequenceModel(6, seqs, 1.0, SequenceOptions{MaxLength: 20, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSequenceModelParallel measures the PST build serial vs.
// parallel. Because noise comes from context-path-keyed streams, both
// variants release the identical model; only wall-clock differs.
func BenchmarkBuildSequenceModelParallel(b *testing.B) {
	seqs := makeClickstreams(100_000)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildSequenceModel(6, seqs, 1.0, SequenceOptions{MaxLength: 20, Seed: uint64(i + 1), Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEstimateFrequency(b *testing.B) {
	model, err := BuildSequenceModel(6, makeClickstreams(20_000), 1.0, SequenceOptions{MaxLength: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	queries := []Sequence{{0}, {2, 3}, {5, 0, 1}, {1, 2, 3, 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.EstimateFrequency(queries[i%len(queries)])
	}
}

func BenchmarkSequenceTopK(b *testing.B) {
	model, err := BuildSequenceModel(6, makeClickstreams(20_000), 1.0, SequenceOptions{MaxLength: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.TopK(20, 5)
	}
}
