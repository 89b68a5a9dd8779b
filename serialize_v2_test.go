package privtree

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"

	"privtree/internal/core"
)

// clusteredPoints draws n points in [0,1)^d, most of them around a few
// centres, so the tree grows deep in places and stays shallow elsewhere.
func clusteredPoints(rng *rand.Rand, n, d int) []Point {
	centres := make([]Point, 4)
	for i := range centres {
		centres[i] = make(Point, d)
		for k := range centres[i] {
			centres[i][k] = 0.1 + 0.8*rng.Float64()
		}
	}
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, d)
		c := centres[rng.IntN(len(centres))]
		for k := range p {
			v := c[k] + 0.05*rng.NormFloat64()
			if rng.IntN(5) == 0 {
				v = rng.Float64()
			}
			p[k] = math.Min(math.Max(v, 0), math.Nextafter(1, 0))
		}
		pts[i] = p
	}
	return pts
}

// TestSpatialPayloadV1V2Agree is the differential check of the version-2
// payload: for builds in 1, 2 and 4 dimensions, with every axis bisected
// per split and with round-robin splits of fewer axes, the version-1
// document (every region written out) and the version-2 one (regions
// derived) must decode to identical arenas, equal to the build's.
func TestSpatialPayloadV1V2Agree(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	for _, c := range []struct{ d, fanout int }{
		{1, 2}, {2, 4}, {2, 2}, {4, 16}, {4, 4}, {4, 2},
	} {
		dom := UnitCube(c.d)
		if c.d == 2 {
			dom = NewRect(Point{-3.5, 10}, Point{7.25, 10.5})
		}
		pts := clusteredPoints(rng, 20000, c.d)
		for _, p := range pts {
			for k := range p {
				p[k] = dom.Lo[k] + p[k]*(dom.Hi[k]-dom.Lo[k])
			}
		}
		built, err := BuildSpatial(dom, pts, 1, SpatialOptions{Fanout: c.fanout, Seed: uint64(c.d*100 + c.fanout)})
		if err != nil {
			t.Fatal(err)
		}
		if built.Nodes() < 50 {
			t.Fatalf("d=%d fanout=%d: only %d nodes; the comparison is vacuous", c.d, c.fanout, built.Nodes())
		}
		v1, err := oracleMarshalSpatialV1(built.tree)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := json.Marshal(built)
		if err != nil {
			t.Fatal(err)
		}
		var a, b SpatialTree
		if err := json.Unmarshal(v1, &a); err != nil {
			t.Fatalf("d=%d fanout=%d: version 1: %v", c.d, c.fanout, err)
		}
		if err := json.Unmarshal(v2, &b); err != nil {
			t.Fatalf("d=%d fanout=%d: version 2: %v", c.d, c.fanout, err)
		}
		if !core.Equal(a.tree, b.tree) || !core.Equal(a.tree, built.tree) {
			t.Fatalf("d=%d fanout=%d: version-1 and version-2 decodes differ", c.d, c.fanout)
		}
		if len(v2)*3 > len(v1) {
			t.Errorf("d=%d fanout=%d: version 2 is %d bytes against version 1's %d", c.d, c.fanout, len(v2), len(v1))
		}
	}
}

// TestEnvelopeRefusesNonCanonicalTree: a version-1 document may place
// children anywhere inside their parent, but the version-2 writer must
// never emit a payload that decodes to other regions, so a release whose
// regions are not the splitter's has no envelope.
func TestEnvelopeRefusesNonCanonicalTree(t *testing.T) {
	for _, payload := range []string{
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[{"lo":[0],"hi":[0.25],"count":1},{"lo":[0.25],"hi":[1],"count":2}]}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[{"lo":[0.5],"hi":[1],"count":1},{"lo":[0],"hi":[0.5],"count":2}]}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0,0],"hi":[1,1],"children":[{"lo":[0,0],"hi":[1,0.5],"count":1},{"lo":[0,0.5],"hi":[1,1],"count":2}]}}`,
		`{"version":1,"fanout":4,"root":{"lo":[0],"hi":[1],"children":[{"lo":[0],"hi":[0.5],"count":1},{"lo":[0.5],"hi":[1],"count":1},{"lo":[0],"hi":[0.5],"count":1},{"lo":[0.5],"hi":[1],"count":1}]}}`,
		`{"version":1,"fanout":2,"root":{"lo":[-1e308],"hi":[1e308],"count":1}}`,
	} {
		rel, err := Decode([]byte(`{"privtree_release":1,"kind":"spatial","payload":` + payload + `}`))
		if err != nil {
			t.Fatalf("version-1 document rejected: %v", err)
		}
		if blob, err := rel.Envelope(); err == nil {
			t.Fatalf("a tree with non-derived regions was written as %s", blob)
		}
		if _, err := json.Marshal(rel.spatial); err == nil {
			t.Fatal("SpatialTree.MarshalJSON wrote a tree with non-derived regions")
		}
	}
	// The canonical version-1 document of the same shape re-encodes.
	rel, err := Decode([]byte(`{"privtree_release":1,"kind":"spatial","payload":{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[{"lo":[0],"hi":[0.5],"count":1},{"lo":[0.5],"hi":[1],"count":2}]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if blob, err := rel.Envelope(); err != nil || !bytes.Contains(blob, []byte(`"payload":{"version":2,"fanout":2,"lo":[0],"hi":[1],"nodes":3,"shape":"AQ==","counts":[1,2]}`)) {
		t.Fatalf("canonical tree: %s, %v", blob, err)
	}
}

// TestNewerVersionsNamed: a document written by a newer build fails with
// an error that names its version and says to upgrade, not with a parse
// error about fields this build does not know.
func TestNewerVersionsNamed(t *testing.T) {
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"spatial payload", func() error {
			return new(SpatialTree).UnmarshalJSON([]byte(`{"version":3,"fanout":4,"lo":[0,0],"hi":[1,1],"nodes":1,"counts":"AAAA"}`))
		}},
		{"spatial payload, unparseable after the version", func() error {
			return new(SpatialTree).UnmarshalJSON([]byte(`{"version":3,"fanout":4,"root":{"lo":"x"}}`))
		}},
		{"sequence payload", func() error {
			return new(SequenceModel).UnmarshalJSON([]byte(`{"version":2,"alphabet":1,"ltop":1,"root":"x"}`))
		}},
		{"envelope", func() error {
			_, err := Decode([]byte(`{"privtree_release":2,"kind":"spatial","payload":{}}`))
			return err
		}},
		{"envelope, unparseable after the version", func() error {
			_, err := Decode([]byte(`{"privtree_release":2,"kind":7}`))
			return err
		}},
		{"inspect", func() error {
			_, err := InspectEnvelope([]byte(`{"privtree_release":2,"kind":"spatial","payload":{}}`))
			return err
		}},
	} {
		err := c.decode()
		if err == nil || !strings.Contains(err.Error(), "is newer than this node reads; upgrade it") {
			t.Errorf("%s: error %v, want one naming a newer version", c.name, err)
		}
	}
}

// v2FuzzSeeds are version-2 payloads of small trees in 1, 2 and 4
// dimensions, both split families, plus near misses and other spellings.
func v2FuzzSeeds(t testing.TB) [][]byte {
	rng := rand.New(rand.NewPCG(7, 7))
	var seeds [][]byte
	for _, c := range []struct{ d, fanout int }{{1, 2}, {2, 4}, {2, 2}, {4, 4}} {
		tree, err := BuildSpatial(UnitCube(c.d), clusteredPoints(rng, 300, c.d), 0.5,
			SpatialOptions{Fanout: c.fanout, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(tree)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	for _, doc := range []string{
		`{"version":2,"fanout":2,"lo":[0],"hi":[1],"nodes":1,"shape":"AA==","counts":[-0]}`,
		`{"version":2,"fanout":2,"lo":[0],"hi":[1],"nodes":3,"shape":"AQ==","counts":[1.5,5e-324]}`,
		`{"version":2,"fanout":2,"lo":[-1e308],"hi":[1e308],"nodes":3,"shape":"AQ==","counts":[1,2]}`,
		`{"version":2,"fanout":2,"lo":[0],"hi":[1],"nodes":3,"shape":"CQ==","counts":[1,2]}`,
		`{"version":2,"fanout":2,"lo":[0],"hi":[1],"nodes":1000000000,"shape":"AQ==","counts":[1,2]}`,
		`{"version":2,"fanout":1048576,"lo":[0],"hi":[1],"nodes":3,"shape":"AQ==","counts":[1,2]}`,
		`{"counts": [1.0, 2e0], "shape": "AQ==", "nodes": 3, "hi": [1], "lo": [0], "fanout": 2, "version": 2}`,
		"{\n \"version\": 2,\n \"fanout\": 4,\n \"lo\": [0, 0],\n \"hi\": [1, 1],\n \"nodes\": 5,\n \"shape\": \"AQ==\",\n \"counts\": [1e-06, 0.5, -0, 3]\n}",
		`{"version":2,"fanout":2,"lo":[0],"hi":[1],"nodes":3,"shape":"AQ==","counts":[1,2],"root":{"lo":[0]},"counts":[null,3]}`,
	} {
		seeds = append(seeds, []byte(doc))
	}
	return seeds
}

// FuzzSpatialPayloadV2 feeds the spatial payload reader hostile bytes,
// starting from version-2 payloads. It must never panic, and on any
// document that is not version 1 it must allocate no more than 64 bytes
// per input byte (plus a constant for the reader itself). Every
// version-2 payload it accepts must re-encode, the re-encoding must
// decode to the same tree, and re-encoding that tree must give the same
// bytes again: a payload in another spelling — whitespace, key order,
// number form — comes back in the writer's.
func FuzzSpatialPayloadV2(f *testing.F) {
	for _, seed := range v2FuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe struct {
			Version int `json:"version"`
		}
		v1 := json.Unmarshal(data, &probe) == nil && probe.Version == 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tree, err := readSpatialPayload(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+16<<10); got > limit && !v1 {
			t.Fatalf("allocated %d bytes for a %d-byte input (limit %d)", got, len(data), limit)
		}
		if err != nil || v1 {
			return
		}
		// Re-encode as a tree not known to be derived, so that the writer
		// also checks every region the reader derived.
		blob, err := appendSpatialPayload(nil, &SpatialTree{tree: tree.tree})
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v\ninput %q", err, data)
		}
		again, err := readSpatialPayload(blob)
		if err != nil || !core.Equal(again.tree, tree.tree) {
			t.Fatalf("re-encoded payload decodes to another tree (%v):\n got %q\ninput %q", err, blob, data)
		}
		if twice, err := appendSpatialPayload(nil, &SpatialTree{tree: again.tree}); err != nil || !bytes.Equal(twice, blob) {
			t.Fatalf("re-encoding is not stable (%v):\n got %q\nwant %q", err, twice, blob)
		}
	})
}

// TestSpatialPayloadV2Spellings: a version-2 artifact that has passed
// through an ordinary JSON tool — indented by json.MarshalIndent inside
// another document, or written with Python's separators and exponent
// form — decodes to the tree it was written from, and re-encodes to the
// writer's own bytes. Keys match only in their exact case.
func TestSpatialPayloadV2Spellings(t *testing.T) {
	built, err := BuildSpatial(UnitCube(2), clusteredPoints(rand.New(rand.NewPCG(5, 5)), 2000, 2), 1,
		SpatialOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rel := &Release{kind: KindSpatial, spatial: built}
	blob, err := rel.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(struct {
		Name    string   `json:"name"`
		Release *Release `json:"release"`
	}{"archived", rel}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	var holder struct {
		Release json.RawMessage `json:"release"`
	}
	if err := json.Unmarshal(indented, &holder); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(holder.Release, blob) || !bytes.Contains(holder.Release, []byte("\n\t\t\t")) {
		t.Fatalf("MarshalIndent did not respell the envelope: %.200s", holder.Release)
	}
	payload, err := json.Marshal(built)
	if err != nil {
		t.Fatal(err)
	}
	python := strings.NewReplacer(",", ", ", ":", ": ", "e-7", "e-07", "e-8", "e-08").Replace(string(payload))
	for name, doc := range map[string][]byte{"indented envelope": holder.Release, "python payload": []byte(python)} {
		var tree *SpatialTree
		if name == "indented envelope" {
			got, err := Decode(doc)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tree = got.spatial
		} else if tree = new(SpatialTree); tree.UnmarshalJSON(doc) != nil {
			t.Fatalf("%s rejected: %v", name, tree.UnmarshalJSON(doc))
		}
		if !core.Equal(tree.tree, built.tree) {
			t.Fatalf("%s decodes to another tree", name)
		}
		if again, err := json.Marshal(tree); err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("%s re-encodes differently (%v)", name, err)
		}
	}
	folded := bytes.Replace(payload, []byte(`"fanout"`), []byte(`"Fanout"`), 1)
	if err := new(SpatialTree).UnmarshalJSON(folded); err == nil {
		t.Fatal(`"Fanout" was read as "fanout"`)
	}
}
