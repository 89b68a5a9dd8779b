package privtree

import (
	"encoding/json"
	"math"
	"testing"
)

// smallTreeBlob builds a small released tree and returns its wire bytes.
// It is deliberately tiny (a few dozen nodes) so the fuzz engine can mutate
// and re-execute it at full speed.
func smallTreeBlob(t testing.TB) []byte {
	t.Helper()
	tree, err := BuildSpatial(UnitCube(2), makeClusteredPoints(300), 0.5, SpatialOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSpatialTreeUnmarshalTruncated feeds every kind of cut-off document to
// the deserializer: it must return an error for all of them — and in
// particular must never panic or hand back a half-built arena.
func TestSpatialTreeUnmarshalTruncated(t *testing.T) {
	blob := smallTreeBlob(t)
	for cut := 0; cut < len(blob); cut += 7 {
		var tree SpatialTree
		if err := json.Unmarshal(blob[:cut], &tree); err == nil {
			t.Fatalf("truncated blob (%d of %d bytes) accepted", cut, len(blob))
		}
		if tree.tree != nil {
			t.Fatalf("truncated blob (%d bytes) left a partial arena behind", cut)
		}
	}
}

// TestSpatialTreeUnmarshalHostileBounds covers malformed documents that are
// valid JSON but describe impossible geometry; the old deserializer
// panicked on some of these (geom.NewRect panics on inverted intervals).
func TestSpatialTreeUnmarshalHostileBounds(t *testing.T) {
	cases := []struct {
		name string
		blob string
	}{
		{"inverted root interval", `{"version":1,"fanout":2,"root":{"lo":[1],"hi":[0],"count":1}}`},
		{"inverted child interval", `{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[
			{"lo":[0.5],"hi":[0.2],"count":1},{"lo":[0.5],"hi":[1],"count":1}]}}`},
		{"mismatched child bounds", `{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[
			{"lo":[0,0],"hi":[0.5],"count":1},{"lo":[0.5],"hi":[1],"count":1}]}}`},
		{"empty bounds", `{"version":1,"fanout":2,"root":{"lo":[],"hi":[],"count":1}}`},
		{"fanout zero", `{"version":1,"fanout":0,"root":{"lo":[0],"hi":[1],"children":[{"lo":[0],"hi":[1],"count":1}]}}`},
		{"fanout negative", `{"version":1,"fanout":-3,"root":{"lo":[0],"hi":[1],"count":1}}`},
		{"fanout absurd", `{"version":1,"fanout":1073741824,"root":{"lo":[0],"hi":[1],"count":1}}`},
		{"dimension-changing child", `{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[
			{"lo":[0,0],"hi":[0.5,0.5],"count":1},{"lo":[0.5,0],"hi":[1,1],"count":1}]}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("UnmarshalJSON panicked: %v", r)
				}
			}()
			var tree SpatialTree
			if err := json.Unmarshal([]byte(c.blob), &tree); err == nil {
				t.Fatal("hostile blob accepted")
			}
		})
	}
}

// FuzzSpatialTreeUnmarshal drives arbitrary bytes through UnmarshalJSON.
// The contract under fuzzing: never panic, and any accepted document must
// denote a coherent tree — re-serializing it and parsing the result back
// must preserve RangeCount answers exactly. The one tree that may not
// re-serialize is a version-1 one whose regions are not the splitter's
// (or whose domain is too wide to split), which no version-2 payload can
// carry.
func FuzzSpatialTreeUnmarshal(f *testing.F) {
	f.Add(smallTreeBlob(f))
	f.Add([]byte(`{"version":1,"fanout":4,"root":{"lo":[0,0],"hi":[1,1],"count":3.5}}`))
	f.Add([]byte(`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[
		{"lo":[0],"hi":[0.5],"count":1},{"lo":[0.5],"hi":[1],"count":2}]}}`))
	f.Add([]byte(`{"version":1,"fanout":2,"root":{"lo":[1],"hi":[0],"count":1}}`))
	f.Add([]byte(`{"version":1,"fanout":0,"root":{"lo":[0],"hi":[1],"count":1}}`))
	f.Add([]byte(`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1]}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tree SpatialTree
		if err := json.Unmarshal(data, &tree); err != nil {
			return
		}
		// Accepted: the tree must round-trip losslessly.
		blob, err := json.Marshal(&tree)
		if err != nil {
			var probe struct {
				Version int `json:"version"`
			}
			if json.Unmarshal(data, &probe) != nil || probe.Version != 1 {
				t.Fatalf("accepted version-%d tree failed to marshal: %v", probe.Version, err)
			}
			return
		}
		var again SpatialTree
		if err := json.Unmarshal(blob, &again); err != nil {
			t.Fatalf("round-tripped bytes rejected: %v", err)
		}
		dom := tree.Domain()
		if err := dom.Validate(); err != nil {
			// Zero-width axes are representable on the wire (lo == hi);
			// RangeCount still works, it just sees zero volumes.
			if tree.Nodes() != again.Nodes() {
				t.Fatalf("round trip changed node count: %d vs %d", tree.Nodes(), again.Nodes())
			}
			return
		}
		queries := []Rect{
			dom,
			quarterRect(dom, 0),
			quarterRect(dom, 1),
		}
		for _, q := range queries {
			a, b := tree.RangeCount(q), again.RangeCount(q)
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("round trip changed RangeCount(%v): %v vs %v", q, a, b)
			}
		}
	})
}

// quarterRect returns a sub-rectangle of dom: half extent per axis,
// anchored at the low (which=0) or high (which=1) corner.
func quarterRect(dom Rect, which int) Rect {
	lo := make(Point, dom.Dims())
	hi := make(Point, dom.Dims())
	for i := range lo {
		mid := dom.Lo[i] + (dom.Hi[i]-dom.Lo[i])/2
		if which == 0 {
			lo[i], hi[i] = dom.Lo[i], mid
		} else {
			lo[i], hi[i] = mid, dom.Hi[i]
		}
	}
	return Rect{Lo: lo, Hi: hi}
}
