package privtree

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
)

func TestSpatialTreeJSONRoundTrip(t *testing.T) {
	pts := makeClusteredPoints(20000)
	orig, err := BuildSpatial(UnitCube(2), pts, 1.0, SpatialOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var restored SpatialTree
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Nodes() != orig.Nodes() || restored.Height() != orig.Height() {
		t.Fatalf("structure changed: %d/%d nodes, %d/%d height",
			restored.Nodes(), orig.Nodes(), restored.Height(), orig.Height())
	}
	if math.Abs(restored.Total()-orig.Total()) > 1e-9 {
		t.Fatalf("total changed: %v vs %v", restored.Total(), orig.Total())
	}
	// Queries must agree exactly.
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 50; trial++ {
		lo := Point{rng.Float64() * 0.7, rng.Float64() * 0.7}
		q := NewRect(lo, Point{lo[0] + 0.3, lo[1] + 0.3})
		a, b := orig.RangeCount(q), restored.RangeCount(q)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("query mismatch after round trip: %v vs %v", a, b)
		}
	}
}

// TestSpatialTreeJSONOnlyLeavesCarryCounts: the payload carries one
// count per leaf and no region below the domain — internal counts are
// leaf sums and regions are derived from the splits.
func TestSpatialTreeJSONOnlyLeavesCarryCounts(t *testing.T) {
	pts := makeClusteredPoints(5000)
	tree, err := BuildSpatial(UnitCube(2), pts, 1.0, SpatialOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	var counts []float64
	if err := json.Unmarshal(raw["counts"], &counts); err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(tree.Leaves()) {
		t.Fatalf("%d counts for %d leaves", len(counts), len(tree.Leaves()))
	}
	for _, key := range []string{"root", "children", "count"} {
		if _, ok := raw[key]; ok {
			t.Fatalf("payload carries %q", key)
		}
	}
}

func TestSpatialTreeUnmarshalRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"version": 2, "fanout": 4, "root": {"lo":[0],"hi":[1],"count":1}}`,                                    // v2 without its fields
		`{"version": 3, "fanout": 4, "root": {"lo":[0],"hi":[1],"count":1}}`,                                    // future version
		`{"version": 1, "fanout": 4, "root": {"lo":[0,0],"hi":[1,1]}}`,                                          // leaf without count
		`{"version": 1, "fanout": 4, "root": {"lo":[0],"hi":[1,1],"count":1}}`,                                  // bounds mismatch
		`{"version": 1, "fanout": 2, "root": {"lo":[0],"hi":[1],"children":[{"lo":[0],"hi":[0.5],"count":1}]}}`, // wrong child count
	}
	for i, blob := range cases {
		var tree SpatialTree
		if err := json.Unmarshal([]byte(blob), &tree); err == nil {
			t.Errorf("malformed blob %d accepted", i)
		}
	}
}

func TestSpatialTreeUnmarshalEscapingChildRejected(t *testing.T) {
	blob := `{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[
		{"lo":[0],"hi":[0.5],"count":1},
		{"lo":[0.5],"hi":[2],"count":1}
	]}}`
	var tree SpatialTree
	if err := json.Unmarshal([]byte(blob), &tree); err == nil {
		t.Fatal("child escaping parent region accepted")
	}
}

func TestSequenceModelJSONRoundTrip(t *testing.T) {
	seqs := makeClickstreams(10000)
	orig, err := BuildSequenceModel(6, seqs, 2.0, SequenceOptions{MaxLength: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var restored SequenceModel
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.MaxLength() != orig.MaxLength() || restored.Nodes() != orig.Nodes() {
		t.Fatalf("structure changed: lTop %d/%d, nodes %d/%d",
			restored.MaxLength(), orig.MaxLength(), restored.Nodes(), orig.Nodes())
	}
	// Frequency estimates must agree exactly for a basket of strings.
	for _, s := range []Sequence{{0}, {3}, {0, 1}, {2, 3, 4}, {5, 0, 1, 2}} {
		a, b := orig.EstimateFrequency(s), restored.EstimateFrequency(s)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("estimate(%v) changed: %v vs %v", s, a, b)
		}
	}
	// Top-k must agree as well.
	ta, tb := orig.TopK(20, 3), restored.TopK(20, 3)
	for i := range ta {
		if ta[i].Count != tb[i].Count {
			t.Fatalf("topk diverged at %d", i)
		}
	}
}

func TestSequenceModelUnmarshalRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"version":2,"alphabet":2,"ltop":5,"root":{"hist":[1,1,1]}}`,                               // version
		`{"version":1,"alphabet":0,"ltop":5,"root":{"hist":[1]}}`,                                   // alphabet
		`{"version":1,"alphabet":2,"ltop":5,"root":{"hist":[1,1]}}`,                                 // hist arity
		`{"version":1,"alphabet":2,"ltop":5,"root":{"hist":[1,1,1],"children":[{"hist":[1,1,1]}]}}`, // child arity
	}
	for i, blob := range cases {
		var m SequenceModel
		if err := json.Unmarshal([]byte(blob), &m); err == nil {
			t.Errorf("malformed model %d accepted", i)
		}
	}
}
