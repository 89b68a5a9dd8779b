package privtree

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
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

// randomSpatialTree builds an arena of random shape over a domain drawn
// from the edge floats, its regions derived by the splitter as a build
// derives them, and counts drawn from the edge floats too: the writer
// must format them whether or not they would pass the reader's
// validation. About one domain in eight is inverted on an axis, and some
// edge-float domains are wider than a float64 holds; no payload can carry
// those, and the writer must refuse them as the oracle does.
func randomSpatialTree(rng *rand.Rand) *core.Tree {
	d := 1 + rng.IntN(3)
	fanout := 1 << (1 + rng.IntN(d))
	root := geom.Rect{Lo: make([]float64, d), Hi: make([]float64, d)}
	for k := 0; k < d; k++ {
		lo, hi := pickFloat(rng), pickFloat(rng)
		if lo > hi && rng.IntN(4) != 0 {
			lo, hi = hi, lo
		}
		root.Lo[k], root.Hi[k] = lo, hi
	}
	split, err := spatialSplitter(d, fanout)
	if err != nil {
		panic(err)
	}
	b := core.NewBuilder(fanout, 16)
	b.AddRoot(root)
	frontier := []int32{0}
	for len(frontier) > 0 && b.Len() < 200 {
		idx := frontier[0]
		frontier = frontier[1:]
		if rng.IntN(3) == 0 {
			continue
		}
		first := b.AddChildren(idx, split.Split(b.Region(idx), int(b.Node(idx).Depth)))
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
	"alphabet", "fanout", "root", "nodes", "shape", "counts",
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
// has many dimensions. They must be rejected with an error, allocating in
// proportion to the input. In version 1 the root has many empty child
// objects: the wire table counts every child entry, so pre-sizing the
// coordinate slab from it would reserve 2·d floats per rejected entry
// (128 MB here, and a fatal out-of-memory at sizes a 1 MB document
// reaches). In version 2 a few bytes of shape describe a node whose 2·d
// coordinates the reader derives, so the declared node count is what
// must be checked: a caterpillar of 8001 well-formed nodes at fanout 2
// would derive 256 MB of coordinates, and a count the shape does not
// back must fail before anything is reserved for it.
func TestSpatialDecodeWideRootAllocationBounded(t *testing.T) {
	const d, kids = 2000, 4000
	axis := func(v string) string { return "[" + strings.TrimSuffix(strings.Repeat(v+",", d), ",") + "]" }
	children := strings.TrimSuffix(strings.Repeat("{},", kids), ",")
	var payloads []string
	for _, fanout := range []string{"2", "4000"} {
		payloads = append(payloads, `{"version":1,"fanout":`+fanout+`,"root":{"lo":`+axis("0")+`,"hi":`+axis("1")+
			`,"children":[`+children+`]}}`)
	}
	// Pre-order bits 1,0 per split node down the caterpillar, then the
	// last leaf: kids split nodes and kids+1 leaves.
	n := 2*kids + 1
	shape := make([]byte, (n+7)/8)
	for i := 0; i < 2*kids; i += 2 {
		shape[i/8] |= 1 << (i % 8)
	}
	v2 := func(nodes int, shape []byte) string {
		return `{"version":2,"fanout":2,"lo":` + axis("0") + `,"hi":` + axis("1") + `,"nodes":` + strconv.Itoa(nodes) +
			`,"shape":"` + base64.StdEncoding.EncodeToString(shape) + `","counts":[` + strings.Repeat("0,", kids) + `0]}`
	}
	payloads = append(payloads, v2(n, shape), v2(1<<30, shape), v2(n, make([]byte, 1<<20)))
	for i, payload := range payloads {
		fanout := strconv.Itoa(i)
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
				t.Fatalf("payload %s, %s: accepted a wide root", fanout, name)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(envelope)); got > limit {
				t.Errorf("payload %s, %s: allocated %d bytes for a %d-byte input (limit %d)", fanout, name, got, len(envelope), limit)
			}
		}
	}
}

// TestCodecReaderAgreesOnHostileInputs runs the differential check over
// hand-picked documents for the JSON corners a reader gets wrong: the
// number grammar, integer fields, nesting depth, trailing bytes, and
// repeated keys, and for version-2 payloads the spellings other JSON
// tools produce and the ways a document can describe no tree.
func TestCodecReaderAgreesOnHostileInputs(t *testing.T) {
	leaf := func(count string) string {
		return `{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":` + count + `}}`
	}
	// v2 is a version-2 payload over [0,1) in one dimension; shape "AQ=="
	// is bits 1,0,0: a split root and two leaves.
	v2 := func(fanout, lo, hi, nodes, shape, counts string) string {
		return `{"version":2,"fanout":` + fanout + `,"lo":` + lo + `,"hi":` + hi + `,"nodes":` + nodes +
			`,"shape":"` + shape + `","counts":` + counts + `}`
	}
	split := v2("2", "[0]", "[1]", "3", "AQ==", "[1.5,-2]")
	// Spellings an ordinary JSON tool produces: indented, keys sorted.
	indented := "{\n  \"version\": 2,\n  \"fanout\": 2,\n  \"lo\": [\n    0\n  ],\n  \"hi\": [\n    1\n  ],\n" +
		"  \"nodes\": 3,\n  \"shape\": \"AQ==\",\n  \"counts\": [\n    1.5,\n    -2\n  ]\n}"
	reordered := `{"counts":[1.5,-2],"fanout":2,"hi":[1],"lo":[0],"nodes":3,"shape":"AQ==","version":2}`
	docs := []string{
		split, v2("2", "[0]", "[1]", "1", "AA==", "[7]"), v2("4", "[0,0]", "[1,1]", "1", "AA==", "[7]"),
		v2("2", "[0,0]", "[1,1]", "3", "AQ==", "[1,2]"), v2("4", "[0,0]", "[1,1]", "5", "AQ==", "[1,2,3,4]"),
		v2("2", "[0]", "[0]", "3", "AQ==", "[1,2]"), v2("2", "[-1e308]", "[1e308]", "3", "AQ==", "[1,2]"),
		v2("2", "[-1e308]", "[1e308]", "1", "AA==", "[1]"), v2("4", "[0]", "[1]", "5", "AQ==", "[1,2,3,4]"),
		v2("3", "[0,0]", "[1,1]", "4", "AQ==", "[1,2,3]"), v2("1", "[0]", "[1]", "1", "AA==", "[1]"),
		v2("2", "[1]", "[0]", "3", "AQ==", "[1,2]"), v2("2", "[0]", "[1,1]", "3", "AQ==", "[1,2]"),
		v2("2", "[]", "[]", "1", "AA==", "[1]"), v2("2", "[0]", "[1]", "3", "AQ==", "[1]"),
		v2("2", "[0]", "[1]", "3", "AQ==", "[1,2,3]"), v2("2", "[0]", "[1]", "3", "AB==", "[1,2]"),
		v2("2", "[0]", "[1]", "3", "CQ==", "[1,2]"), v2("2", "[0]", "[1]", "3", "Aw==", "[1,2]"),
		v2("2", "[0]", "[1]", "2", "AQ==", "[1,2]"), v2("2", "[0]", "[1]", "4", "AQ==", "[1,2]"),
		v2("2", "[0]", "[1]", "9", "AQ==", "[1,2]"), v2("2", "[0]", "[1]", "0", "", "[]"),
		v2("2", "[0]", "[1]", "-1", "", "[1]"), v2("2", "[0]", "[1]", "3", "AQ=", "[1,2]"),
		v2("2", "[0]", "[1]", "3", "AQ", "[1,2]"), v2("2", "[0]", "[1]", "3", "AQ==", "[1.0,2]"),
		v2("2", "[0]", "[1]", "3", "AQ==", "[1,2e0]"), v2("2", "[0]", "[1]", "3", "AQ==", "[1,-0]"),
		v2("2", "[0]", "[1]", "3", "AQ==", "[1,1e-7]"), v2("2", "[0]", "[1]", "3", "AQ==", "[1,1e-07]"),
		v2("2", "[0]", "[1]", "3", "AQ==", "[1,+2]"), v2("2", "[0]", "[1]", "3", "AQ==", "[1,2 ]"),
		v2("2", "[0]", "[1]", "3", "AQ==", "[1,1e400]"), v2("2", "[0]", "[1]", "3", "AQ==", "[1,0x10]"),
		v2("2", "[0]", "[1]", "3", "AQ==", "[1,null]"), v2("2", "[0.0]", "[1]", "3", "AQ==", "[1,2]"),
		v2("02", "[0]", "[1]", "3", "AQ==", "[1,2]"), v2("2", "[0]", "[1]", "03", "AQ==", "[1,2]"),
		v2("2", "[0]", "[1]", "3.0", "AQ==", "[1,2]"), v2("2", "[0]", "[1]", "3", `AQ==`, "[1,2]"),
		v2("2", "[0]", "[1]", "3", "AQ==", "null"), v2("2", "null", "[1]", "3", "AQ==", "[1,2]"),
		split + " ", " " + split,
		strings.Replace(split, `,"nodes"`, ` ,"nodes"`, 1), strings.Replace(split, `}`, `,"root":{}}`, 1),
		strings.Replace(split, `}`, `,"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":4}}`, 1),
		strings.Replace(split, `}`, `,"version":2}`, 1), strings.Replace(split, `}`, `,"version":3}`, 1),
		strings.Replace(split, `"version":2`, `"version":3`, 1), strings.Replace(split, `"version":2`, `"version":1`, 1),
		`{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1},"version":2}`,
		`{"fanout":2,"version":2,"lo":[0],"hi":[1],"nodes":1,"shape":"AA==","counts":[1]}`,
		`{"privtree_release":1,"kind":"spatial","payload":` + split + `}`,
		`{"privtree_release":1,"kind":"spatial","payload": ` + split + ` }`,
		`{"privtree_release":1,"kind":"spatial","mechanism":"spatial","params":{"fanout":2},"payload":` + split + `}`,
		`{"privtree_release":1,"kind":"spatial","payload":` + indented + `}`,
		`{"privtree_release":1,"kind":"spatial","payload":` + reordered + `}`,
		`{"privtree_release":1,"kind":"spatial","payload":` + v2("2.0e0", "[0e3]", "[1.000]", "3", "AQ==", "[1e-06, 2E+0]") + `}`,
		`{"privtree_release":1,"kind":"spatial","payload":` + v2("2", "[0]", "[1]", "3", `\u0041Q==`, "[1,2]") + `}`,
		`{"privtree_release":1,"kind":"spatial","payload":` + v2("2", "[0]", "[1]", "3", `AQ==`, "[1,2]") + ` }`,
		indented, reordered, strings.ReplaceAll(split, ",", ", "), strings.ReplaceAll(split, ":", ": "),
		strings.Replace(split, `}`, `,"root":5}`, 1), strings.Replace(split, `}`, `,"root":[1,]}`, 1),
		strings.Replace(split, `}`, `,"shape":null}`, 1), strings.Replace(split, `}`, `,"shape":"AA=="}`, 1),
		strings.Replace(split, `}`, `,"counts":[null,7]}`, 1), strings.Replace(split, `}`, `,"counts":[]}`, 1),
		strings.Replace(split, `}`, `,"lo":[null],"hi":[null]}`, 1), strings.Replace(split, `}`, `,"nodes":null}`, 1),
		v2("2", "[0]", "[1]", "3", `AQ=\n=`, "[1,2]"), v2("2", "[0]", "[1]", "3", "AQ==\n", "[1,2]"),
		v2("2", "[0]", "[1]", "3", "AQ==", "[1,2]") + "\n", "\t " + v2("2", "[0]", "[1]", "3", "AQ==", "[1,2]"),
		v2("2", "[0]", "[1]", "3", "AQ==", `"x"`), v2("2", "[0]", "[1]", "3", "AQ==", "[1,true]"),
		strings.Replace(split, `"shape":"AQ=="`, `"shape":1`, 1), strings.Replace(split, `"shape":"AQ=="`, `"shape":["AQ=="]`, 1),
		strings.Replace(leaf("1"), `}}`, `},"counts":"x"}`, 1), strings.Replace(leaf("1"), `}}`, `},"shape":"!"}`, 1),
		strings.Replace(leaf("1"), `}}`, `},"nodes":-5,"lo":[1],"hi":[0]}`, 1),
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
	accepted, payloads := 0, 0
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
		ok := err == nil
		var m SequenceModel
		err = json.Unmarshal(data, &m)
		wantModel, wantErr := oracleUnmarshalSequence(data)
		if (err == nil) != (wantErr == nil) || err == nil && !pst.Equal(&m.model.Tree, &wantModel.model.Tree) {
			t.Errorf("SequenceModel(%.120s): error %v, oracle error %v", doc, err, wantErr)
		}
		if ok = ok || err == nil; ok {
			payloads++
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
	if accepted < 10 || payloads < 20 {
		t.Errorf("only %d of the documents decode as releases and %d as payloads; the agreement check is mostly vacuous", accepted, payloads)
	}
}
