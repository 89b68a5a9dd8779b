package privtree

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"privtree/internal/core"
	"privtree/internal/geom"
	"privtree/internal/markov"
	"privtree/internal/pst"
	"privtree/internal/sequence"
)

// edgeFloats are the values where encoding/json's float format switches
// notation or loses a naive formatter: signed zero, the smallest
// subnormal, both sides of the 1e-6 and 1e21 'e' thresholds, and the
// largest finite float.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, 1e-6, 9.99999e-7, 0.1, 1.5, 123456789.125,
	9.99e20, 1e21, -1e21, 1.5e300, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64 * 3,
}

func pickFloat(rng *rand.Rand) float64 {
	if rng.IntN(3) == 0 {
		return edgeFloats[rng.IntN(len(edgeFloats))]
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(40)-20))
}

// randomSpatialTree builds an arena of random shape whose regions and
// counts are drawn from the edge floats — the writer must format them
// whether or not they would pass the reader's validation.
func randomSpatialTree(rng *rand.Rand) *core.Tree {
	d := 1 + rng.IntN(3)
	fanout := 2 + rng.IntN(3)
	rect := func() geom.Rect {
		r := geom.Rect{Lo: make([]float64, d), Hi: make([]float64, d)}
		for k := 0; k < d; k++ {
			r.Lo[k], r.Hi[k] = pickFloat(rng), pickFloat(rng)
		}
		return r
	}
	b := core.NewBuilder(fanout, 16)
	b.AddRoot(rect())
	frontier := []int32{0}
	for len(frontier) > 0 && b.Len() < 200 {
		idx := frontier[0]
		frontier = frontier[1:]
		if rng.IntN(3) == 0 {
			continue
		}
		regions := make([]geom.Rect, fanout)
		for i := range regions {
			regions[i] = rect()
		}
		first := b.AddChildren(idx, regions)
		for i := 0; i < fanout; i++ {
			frontier = append(frontier, first+int32(i))
		}
	}
	for i := 0; i < b.Len(); i++ {
		b.SetCount(int32(i), pickFloat(rng))
	}
	return b.Build(true)
}

// randomSequenceModel builds a random prediction suffix tree with
// histograms drawn from the edge floats.
func randomSequenceModel(rng *rand.Rand) *SequenceModel {
	k := 1 + rng.IntN(4)
	beta := k + 1
	nodes := []pst.Node{{}}
	for i := 0; i < len(nodes) && len(nodes) < 100; i++ {
		if rng.IntN(2) == 0 {
			continue
		}
		nodes[i].FirstChild = int32(len(nodes))
		nodes = append(nodes, make([]pst.Node, beta)...)
	}
	hists := make([]float64, len(nodes)*beta)
	for i := range hists {
		hists[i] = pickFloat(rng)
	}
	t := pst.Tree{Alphabet: sequence.NewAlphabet(k), Nodes: nodes, Hists: hists, EndIndex: k}
	return &SequenceModel{model: &markov.Model{Tree: t}, lTop: 1 + rng.IntN(10)}
}

// TestCodecWriterMatchesOracle holds the writer to the bytes the
// reflection encoder produced, payload and envelope, over random trees
// full of edge-case floats.
func TestCodecWriterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 300; i++ {
		tree := randomSpatialTree(rng)
		rel := &Release{kind: KindSpatial, mechanism: "spatial", epsilon: pickFloat(rng),
			params: randomParams(rng), spatial: &SpatialTree{tree: tree}}
		if i%5 == 0 {
			rel.epsilon, rel.mechanism = 0, ""
		}
		checkWriter(t, rel)

		m := randomSequenceModel(rng)
		checkWriter(t, &Release{kind: KindSequence, mechanism: "sequence", epsilon: 1, params: Params{MaxLength: 3}, model: m})
	}
	for _, f := range edgeFloats {
		tree := core.NewBuilder(2, 1)
		tree.AddRoot(geom.Rect{Lo: []float64{f}, Hi: []float64{f}})
		tree.SetCount(0, f)
		checkWriter(t, &Release{kind: KindSpatial, epsilon: math.Abs(f), spatial: &SpatialTree{tree: tree.Build(true)}})
	}
}

// randomParams sets every Params field — found by reflection, so a field
// added later is covered too — to zero or a random value, and each float
// field sometimes to an edge float.
func randomParams(rng *rand.Rand) Params {
	var p Params
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		if rng.IntN(3) == 0 {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(rng.Int64N(1<<40) - 1<<39)
		case reflect.Uint64:
			f.SetUint(rng.Uint64())
		case reflect.Float64:
			f.SetFloat(pickFloat(rng))
		default:
			panic("randomParams: unhandled field kind " + f.Kind().String())
		}
	}
	return p
}

func checkWriter(t *testing.T, rel *Release) {
	t.Helper()
	want, wantErr := oracleEncodeEnvelope(rel)
	got, err := rel.encodeEnvelope()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("writer error %v, oracle error %v", err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope bytes differ from the oracle:\n got  %.300s\n want %.300s", got, want)
	}
	var payload, oracle []byte
	if s, ok := rel.Spatial(); ok {
		payload, err = s.MarshalJSON()
		oracle, wantErr = oracleMarshalSpatial(s.tree)
	} else {
		m, _ := rel.Sequence()
		payload, err = m.MarshalJSON()
		oracle, wantErr = oracleMarshalSequence(m)
	}
	if (err != nil) != (wantErr != nil) || !bytes.Equal(payload, oracle) {
		t.Fatalf("payload differs from the oracle (errors %v / %v)", err, wantErr)
	}
}

// TestCodecWriterRejectsNonFinite checks that a count, coordinate, or ε
// without a JSON form fails the encode, with encoding/json's error.
func TestCodecWriterRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := core.NewBuilder(2, 1)
		b.AddRoot(geom.Rect{Lo: []float64{0}, Hi: []float64{1}})
		b.SetCount(0, bad)
		rel := &Release{kind: KindSpatial, spatial: &SpatialTree{tree: b.Build(true)}}
		_, err := rel.encodeEnvelope()
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) {
			t.Fatalf("count %v: got %v, want *json.UnsupportedValueError", bad, err)
		}
		if _, err := json.Marshal(rel.spatial); err == nil {
			t.Fatalf("count %v: json.Marshal accepted it", bad)
		}

		b = core.NewBuilder(2, 1)
		b.AddRoot(geom.Rect{Lo: []float64{bad}, Hi: []float64{1}})
		b.SetCount(0, 1)
		if _, err := (&SpatialTree{tree: b.Build(true)}).MarshalJSON(); err == nil {
			t.Fatalf("coordinate %v accepted", bad)
		}

		rel = &Release{kind: KindSpatial, spatial: &SpatialTree{tree: randomSpatialTree(rand.New(rand.NewPCG(1, 1)))}}
		rel.params.Theta = bad
		if _, err := rel.encodeEnvelope(); err == nil {
			t.Fatalf("params theta %v accepted", bad)
		}
		rel.params.Theta, rel.epsilon = 0, bad
		if _, err := rel.encodeEnvelope(); err == nil {
			t.Fatalf("epsilon %v accepted", bad)
		}

		m := randomSequenceModel(rand.New(rand.NewPCG(1, 1)))
		m.model.Tree.Hists[0] = bad
		if _, err := m.MarshalJSON(); err == nil {
			t.Fatalf("histogram count %v accepted", bad)
		}
	}
}

// knownWireKeys are every key the envelope and payload readers look up.
var knownWireKeys = []string{
	"privtree_release", "kind", "mechanism", "epsilon", "params", "payload",
	"alphabet", "fanout", "numeric", "taxonomies", "root",
	"version", "ltop", "hist", "lo", "hi", "count", "children",
}

// hasFoldedKey reports whether some object key in the document matches a
// key the readers know only case-insensitively. encoding/json folds case
// when matching keys and the codec does not: that is the one documented
// way the two may disagree. The keys are found by walking the document's
// string tokens, so every occurrence counts, also of a key inside a value
// that a repeated key later overwrites (decoding into a map keeps only
// the last one and misses it).
func hasFoldedKey(data []byte) bool {
	if !json.Valid(data) {
		return false
	}
	for i := 0; i < len(data); i++ {
		if data[i] != '"' {
			continue
		}
		start := i
		for i++; data[i] != '"'; i++ {
			if data[i] == '\\' {
				i++
			}
		}
		lit := data[start : i+1]
		j := i + 1
		for j < len(data) && strings.IndexByte(" \t\r\n", data[j]) >= 0 {
			j++
		}
		if j == len(data) || data[j] != ':' {
			continue // a string value, not a key
		}
		key := string(lit[1 : len(lit)-1])
		if bytes.IndexByte(lit, '\\') >= 0 && json.Unmarshal(lit, &key) != nil {
			continue
		}
		for _, known := range knownWireKeys {
			if key != known && strings.EqualFold(key, known) {
				return true
			}
		}
	}
	return false
}

// TestHasFoldedKey pins the fuzz oracle's exemption: a case-folded key
// counts wherever it occurs, escaped or inside an overwritten repeated
// key, and a string value or an exact key does not.
func TestHasFoldedKey(t *testing.T) {
	for doc, want := range map[string]bool{
		`{"children":[{"CouNt":0}],"children":[]}`: true,
		`{"root":{"\u0043ount":1}}`:                true,
		`{"root":{"count":1,"lo":["Count"]}}`:      false,
		`{"Count" : 1}`:                            true,
		`{"count":1}`:                              false,
		`{"Count":1`:                               false,
	} {
		if got := hasFoldedKey([]byte(doc)); got != want {
			t.Errorf("hasFoldedKey(%s) = %v, want %v", doc, got, want)
		}
	}
}

// sameRelease reports whether two decoded releases are the same: same
// provenance and an identical payload arena.
func sameRelease(a, b *Release) bool {
	if a.kind != b.kind || a.mechanism != b.mechanism || a.params != b.params ||
		math.Float64bits(a.epsilon) != math.Float64bits(b.epsilon) {
		return false
	}
	switch {
	case a.spatial != nil:
		return b.spatial != nil && core.Equal(a.spatial.tree, b.spatial.tree)
	case a.model != nil:
		return b.model != nil && a.model.lTop == b.model.lTop && pst.Equal(&a.model.model.Tree, &b.model.model.Tree)
	case a.hybrid != nil:
		ja, _ := json.Marshal(a.hybrid)
		jb, _ := json.Marshal(b.hybrid)
		return b.hybrid != nil && bytes.Equal(ja, jb)
	}
	return false
}

// FuzzEnvelopeDecodeDifferential holds the codec's reader to the
// reflection decoders it replaced (codec_oracle_test.go): on every input,
// Decode, InspectEnvelope, and both payload UnmarshalJSONs must accept
// exactly when the oracle accepts and must decode the same release. The
// only tolerated disagreement is a document with a key that matches a
// known key only case-insensitively (see hasFoldedKey).
func FuzzEnvelopeDecodeDifferential(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range golden {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, seed := range []string{
		`{"privtree_release":1,"kind":"spatial","payload":null}`,
		`{"payload":{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}},"kind":"spatial","privtree_release":1}`,
		`{"privtree_release":1,"kind":"sequence","payload":{"version":1},"payload":{"version":1,"alphabet":1,"ltop":2,"root":{"hist":[1,2]}}}`,
		`{"privtree_release":1,"kind":"spatial","payload":{"version":1,"alphabet":1,"ltop":2,"root":{"hist":[1,2]}},"kind":"sequence"}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[{"lo":[0],"hi":[0.5],"count":1},{"lo":[0.5],"hi":[1],"count":2}],"children":[{"count":3},null]}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0,2],"lo":[null],"hi":[1],"count":1,"count":null,"count":2}}`,
		`{"version":1,"alphabet":1,"ltop":2,"root":{"hist":[1,2],"children":[{"hist":[1,1]},{"hist":[0,1]}],"children":[]}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"LO":[5],"count":1}}`,
		`{"version":1.0,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}}`,
		`{"version":1,"fanout":2,"root":{"lo":[-0],"hi":[1e0],"count":1E-7}}  `,
		`{"privtree_release":1,"kind":"spatial","params":{"seed":3},"params":{"fanout":4},"payload":{}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		folded := hasFoldedKey(data)
		rel, err := Decode(data)
		want, wantErr := oracleDecode(data)
		if !folded {
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("Decode error %v, oracle error %v", err, wantErr)
			}
			if err == nil && !sameRelease(rel, want) {
				t.Fatal("Decode and the oracle decoded different releases")
			}
		}

		info, err := InspectEnvelope(data)
		wantInfo, wantErr := oracleInspect(data)
		if !folded {
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("InspectEnvelope error %v, oracle error %v", err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(info, wantInfo) &&
				!(math.IsNaN(info.Epsilon) && math.IsNaN(wantInfo.Epsilon)) {
				t.Fatalf("InspectEnvelope %+v, oracle %+v", info, wantInfo)
			}
		}

		var tree SpatialTree
		err = json.Unmarshal(data, &tree)
		wantTree, wantErr := oracleUnmarshalSpatial(data)
		if !folded {
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("SpatialTree error %v, oracle error %v", err, wantErr)
			}
			if err == nil && !core.Equal(tree.tree, wantTree) {
				t.Fatal("SpatialTree and the oracle decoded different trees")
			}
		}

		var m SequenceModel
		err = json.Unmarshal(data, &m)
		wantModel, wantErr := oracleUnmarshalSequence(data)
		if !folded {
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("SequenceModel error %v, oracle error %v", err, wantErr)
			}
			if err == nil && (m.lTop != wantModel.lTop || !pst.Equal(&m.model.Tree, &wantModel.model.Tree)) {
				t.Fatal("SequenceModel and the oracle decoded different models")
			}
		}
	})
}

// TestSpatialDecodeWideRootAllocationBounded feeds payloads whose root
// has many dimensions and many empty child objects. They must be
// rejected with an error, allocating in proportion to the input: the
// wire table counts every child entry, so pre-sizing the coordinate slab
// from it would reserve 2·d floats per rejected entry (128 MB here, and
// a fatal out-of-memory at sizes a 1 MB document reaches).
func TestSpatialDecodeWideRootAllocationBounded(t *testing.T) {
	const d, kids = 2000, 4000
	axis := func(v string) string { return "[" + strings.TrimSuffix(strings.Repeat(v+",", d), ",") + "]" }
	children := strings.TrimSuffix(strings.Repeat("{},", kids), ",")
	for _, fanout := range []string{"2", "4000"} {
		payload := `{"version":1,"fanout":` + fanout + `,"root":{"lo":` + axis("0") + `,"hi":` + axis("1") +
			`,"children":[` + children + `]}}`
		envelope := `{"privtree_release":1,"kind":"spatial","payload":` + payload + `}`
		decoders := map[string]func() error{
			"UnmarshalJSON": func() error { return new(SpatialTree).UnmarshalJSON([]byte(payload)) },
			"Decode":        func() error { _, err := Decode([]byte(envelope)); return err },
		}
		for name, decode := range decoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("fanout %s, %s: accepted a root with %d empty children", fanout, name, kids)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(envelope)); got > limit {
				t.Errorf("fanout %s, %s: allocated %d bytes for a %d-byte input (limit %d)", fanout, name, got, len(envelope), limit)
			}
		}
	}
}

// TestCodecReaderAgreesOnHostileInputs runs the differential check over
// hand-picked documents for the JSON corners a reader gets wrong: the
// number grammar, integer fields, nesting depth, trailing bytes, and
// repeated keys.
func TestCodecReaderAgreesOnHostileInputs(t *testing.T) {
	leaf := func(count string) string {
		return `{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":` + count + `}}`
	}
	docs := []string{
		leaf("+1"), leaf(".5"), leaf("NaN"), leaf("Infinity"), leaf("0x1p3"), leaf("1e400"),
		leaf("-1e400"), leaf("1e-400"), leaf("01"), leaf("1."), leaf("1e"), leaf("-"), leaf("1.5e+3"),
		leaf(`"1"`), leaf("true"), leaf("[1]"), leaf("{}"), leaf("null"), leaf("1") + "x", leaf("1") + " \n",
		`{"version":1e0,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}}`,
		`{"version":1,"fanout":2.0,"root":{"lo":[0],"hi":[1],"count":1}}`,
		`{"version":1,"fanout":99999999999999999999,"root":{"lo":[0],"hi":[1],"count":1}}`,
		`{"version":-0,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}}`,
		`{"version":null,"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}}`,
		`{"version":1,"version":null,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1},"root":null}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1},"root":{"hi":[2]}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[{"lo":[0],"hi":[1],"count":1},{"lo":[0],"hi":[1],"count":1},{"lo":[0],"hi":[1],"count":1}],"children":[{"count":4}],"children":[null,null]}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[{"lo":[0],"hi":[1],"count":1},{"lo":[0],"hi":[1],"count":1}],"children":[],"children":[null,null]}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"children":[{"lo":[0],"hi":[1],"count":1},{"lo":[0],"hi":[1],"count":1}],"children":null,"count":3}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0,1],"lo":[],"lo":[null],"hi":[1],"count":1}}`,
		`{"version":1,"fanout":2,"root":{"lo":[5,1],"lo":[0],"hi":[1,1],"lo":[null,null],"count":1}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1,"count":2}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1,"cöunt":2}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1,"":[1]}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1,"x":"𐀀\uZZZZ"}}`,
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1,"x":"tab	in string"}}`,
		`{"version":1,"alphabet":1,"ltop":1,"root":{"hist":[1,2],"hist":[null,3]}}`,
		`{"version":1,"alphabet":1,"ltop":1,"root":{"hist":[1,2],"children":[{"hist":[1,1]},{"hist":[0,1]}]}}`,
		`{"version":1,"alphabet":1,"ltop":2,"root":{"hist":[1,2],"children":[{"hist":[1,1]},{"hist":[0,1],"children":[{"hist":[0,0]},{"hist":[0,0]}]}]}}`,
		`{"privtree_release":1,"kind":"spatial","payload":{"version":"x"},"payload":` + leaf("1") + `}`,
		`{"privtree_release":1,"kind":"spatial","payload":` + leaf("1") + `,"payload":{"version":"x"}}`,
		`{"privtree_release":1,"kind":"spatial","payload":{"version":"x","y":[1,]},"payload":` + leaf("1") + `}`,
		`{"privtree_release":1,"kind":"spatial","payload":` + leaf("1") + `,"kind":"sequence"}`,
		`{"privtree_release":1,"kind":"sequence","payload":` + leaf("1") + `,"kind":"spatial"}`,
		`{"privtree_release":1,"kind":"spatial","payload":` + leaf("1") + `,"kind":"hybrid"}`,
		`{"privtree_release":1,"kind":"spatial","mechanism":"spatial","params":{"fanout":3},"payload":` + leaf("1") + `}`,
		`{"privtree_release":1,"kind":"spatial","mechanism":"sequence","payload":{}}`,
		`{"privtree_release":1,"kind":"spatial","mechanism":"nope","payload":{}}`,
		`{"privtree_release":2,"kind":"spatial","payload":{}}`,
		`{"privtree_release":1,"kind":"spatial","epsilon":-1,"payload":{}}`,
		`{"privtree_release":1,"kind":"spatial","epsilon":"1","payload":{}}`,
		`{"privtree_release":1,"kind":"spatial"}`,
		`{"privtree_release":1,"kind":"weird","payload":{}}`,
		`{"privtree_release":null,"fanout":2,"root":1}`,
		`{"privtree_release":1,"kind":"spatial","alphabet":"x","payload":{}}`,
		`{"fanout":2,"root":null,"version":1}`,
		`{"numeric":null}`,
		`null`, `[]`, `"x"`, `1`, ``, ` `, `{`, `{}`, `{"a":1,}`, `{"a" 1}`, `{1:2}`,
		strings.Repeat("[", maxWireDepth) + strings.Repeat("]", maxWireDepth),
		strings.Repeat("[", maxWireDepth+1) + strings.Repeat("]", maxWireDepth+1),
		`{"x":` + strings.Repeat("[", maxWireDepth-1) + strings.Repeat("]", maxWireDepth-1) + `}`,
		`{"x":` + strings.Repeat("[", maxWireDepth) + strings.Repeat("]", maxWireDepth) + `}`,
	}
	accepted := 0
	for _, doc := range docs {
		data := []byte(doc)
		rel, err := Decode(data)
		want, wantErr := oracleDecode(data)
		if (err == nil) != (wantErr == nil) || err == nil && !sameRelease(rel, want) {
			t.Errorf("Decode(%.120s): error %v, oracle error %v", doc, err, wantErr)
		}
		if err == nil {
			accepted++
		}
		var tree SpatialTree
		err = json.Unmarshal(data, &tree)
		wantTree, wantErr := oracleUnmarshalSpatial(data)
		if (err == nil) != (wantErr == nil) || err == nil && !core.Equal(tree.tree, wantTree) {
			t.Errorf("SpatialTree(%.120s): error %v, oracle error %v", doc, err, wantErr)
		}
		var m SequenceModel
		err = json.Unmarshal(data, &m)
		wantModel, wantErr := oracleUnmarshalSequence(data)
		if (err == nil) != (wantErr == nil) || err == nil && !pst.Equal(&m.model.Tree, &wantModel.model.Tree) {
			t.Errorf("SequenceModel(%.120s): error %v, oracle error %v", doc, err, wantErr)
		}
		// The payload readers are also reachable without encoding/json's
		// own validation pass in front of them.
		err = new(SpatialTree).UnmarshalJSON(data)
		if (err == nil) != (wantTree != nil) && json.Valid(data) {
			t.Errorf("SpatialTree.UnmarshalJSON(%.120s): error %v, oracle accepted %v", doc, err, wantTree != nil)
		}
		if !json.Valid(data) && err == nil {
			t.Errorf("SpatialTree.UnmarshalJSON(%.120s) accepted invalid JSON", doc)
		}
	}
	if accepted < 10 {
		t.Errorf("only %d of the documents decode; the agreement check is mostly vacuous", accepted)
	}
}
