package privtree

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"

	"privtree/internal/core"
	"privtree/internal/geom"
	"privtree/internal/markov"
	"privtree/internal/pst"
	"privtree/internal/sequence"
	"privtree/internal/wire"
)

// maxWireDepth is the nesting limit the reader shares with encoding/json;
// the hostile-input table probes it from both sides.
const maxWireDepth = wire.MaxDepth

// This file keeps reflection codecs as the oracle the differential tests
// hold the artifact codec to: encoding/json over plain wire structs, for
// both payload kinds (the spatial one in both versions) and the
// envelope. The writer must produce the oracle's bytes exactly, and the
// reader must accept and reject the same documents and decode the same
// trees.

type oracleTreeJSON struct {
	Version int            `json:"version"`
	Fanout  int            `json:"fanout"`
	Root    oracleNodeJSON `json:"root"`
}

type oracleNodeJSON struct {
	Lo       []float64        `json:"lo"`
	Hi       []float64        `json:"hi"`
	Count    *float64         `json:"count,omitempty"`
	Children []oracleNodeJSON `json:"children,omitempty"`
}

// oracleTreeV2JSON is the version-2 spatial payload as a plain struct:
// encoding/json writes Shape as padded standard base64.
type oracleTreeV2JSON struct {
	Version int       `json:"version"`
	Fanout  int       `json:"fanout"`
	Lo      []float64 `json:"lo"`
	Hi      []float64 `json:"hi"`
	Nodes   int       `json:"nodes"`
	Shape   []byte    `json:"shape"`
	Counts  []float64 `json:"counts"`
}

// oracleSplitter checks, independently of the library, that a version-2
// payload can describe a tree over [lo, hi] with this fanout — finite
// bounds, lo ≤ hi and a finite width on every axis, and a fanout that is
// a power of two from 2 to 2^d and at most 2^20 — and returns the
// splitter a build of that fanout uses.
func oracleSplitter(lo, hi []float64, fanout int) (geom.Splitter, error) {
	d := len(lo)
	if d == 0 || len(hi) != d {
		return nil, fmt.Errorf("domain has %d and %d bounds", len(lo), len(hi))
	}
	for i := range lo {
		if math.IsInf(lo[i], 0) || math.IsInf(hi[i], 0) || math.IsNaN(lo[i]) || math.IsNaN(hi[i]) ||
			lo[i] > hi[i] || math.IsInf(hi[i]-lo[i], 0) {
			return nil, fmt.Errorf("unusable domain axis %d: [%v, %v]", i, lo[i], hi[i])
		}
	}
	k := 0
	for 1<<k < fanout && k < 21 {
		k++
	}
	if fanout < 2 || fanout > 1<<20 || 1<<k != fanout || k > d {
		return nil, fmt.Errorf("fanout %d not realizable in %d dimensions", fanout, d)
	}
	if k == d {
		return geom.FullBisect{Dim: d}, nil
	}
	return geom.RoundRobinBisect{Dim: d, PerStep: k}, nil
}

// oracleFits is the allocation bound on a version-2 payload of size
// bytes: n nodes cost 41 + 16·d bytes each, plus (48 + 16·d)·fanout for
// one split's scratch when the root splits, and all of it must fit in 64
// bytes per input byte.
func oracleFits(n, d, fanout, size int) bool {
	if n < 1 || n > math.MaxInt32 {
		return false
	}
	need := uint64(n) * uint64(41+16*d)
	if n > 1 {
		need += uint64(fanout) * uint64(48+16*d)
	}
	return need <= 64*uint64(size)
}

// oracleMarshalSpatial writes the version-2 payload: a recursive
// pre-order walk sets one shape bit per split node, collects the leaf
// counts, and refuses a tree whose child regions are not the splitter's.
func oracleMarshalSpatial(tree *core.Tree) ([]byte, error) {
	root := tree.Root().Region()
	split, err := oracleSplitter(root.Lo, root.Hi, tree.Fanout)
	if err != nil {
		return nil, err
	}
	out := oracleTreeV2JSON{Version: 2, Fanout: tree.Fanout, Lo: root.Lo, Hi: root.Hi,
		Nodes: tree.Size(), Shape: make([]byte, (tree.Size()+7)/8), Counts: []float64{}}
	bit := 0
	var walk func(n core.NodeRef) error
	walk = func(n core.NodeRef) error {
		i := bit
		bit++
		if n.IsLeaf() {
			out.Counts = append(out.Counts, n.Count())
			return nil
		}
		out.Shape[i/8] |= 1 << (i % 8)
		kids := split.Split(n.Region(), n.Depth())
		if n.NumChildren() != len(kids) {
			return fmt.Errorf("node has %d children, fanout is %d", n.NumChildren(), len(kids))
		}
		for c := range kids {
			child := n.Child(c)
			for k := range kids[c].Lo {
				r := child.Region()
				if math.Float64bits(r.Lo[k]) != math.Float64bits(kids[c].Lo[k]) ||
					math.Float64bits(r.Hi[k]) != math.Float64bits(kids[c].Hi[k]) {
					return fmt.Errorf("child region is not the split of its parent's")
				}
			}
			if err := walk(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tree.Root()); err != nil {
		return nil, err
	}
	return json.Marshal(out)
}

// oracleSpatialDocJSON is every top-level member of a spatial payload of
// either version but version 1's root, which a version-2 payload may
// carry as any well-formed value. Shape stays a string: the base64 is
// the version-2 reader's to decode, strictly.
type oracleSpatialDocJSON struct {
	Version int       `json:"version"`
	Fanout  int       `json:"fanout"`
	Lo      []float64 `json:"lo"`
	Hi      []float64 `json:"hi"`
	Nodes   int       `json:"nodes"`
	Shape   string    `json:"shape"`
	Counts  []float64 `json:"counts"`
}

// oracleUnmarshalSpatial reads a spatial payload of either version,
// dispatching on the "version" member as encoding/json decodes it.
func oracleUnmarshalSpatial(data []byte) (*core.Tree, error) {
	var doc oracleSpatialDocJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	switch doc.Version {
	case 1:
		return oracleUnmarshalSpatialV1(data)
	case 2:
		return oracleUnmarshalSpatialV2(&doc, len(bytes.TrimSpace(data)))
	}
	return nil, fmt.Errorf("unsupported tree version %d", doc.Version)
}

// oracleUnmarshalSpatialV2 builds a version-2 payload's tree by a
// recursive pre-order walk of the shape bits; size is the length of the
// payload's value.
func oracleUnmarshalSpatialV2(doc *oracleSpatialDocJSON, size int) (*core.Tree, error) {
	split, err := oracleSplitter(doc.Lo, doc.Hi, doc.Fanout)
	if err != nil {
		return nil, err
	}
	n := doc.Nodes
	if !oracleFits(n, len(doc.Lo), doc.Fanout, size) {
		return nil, fmt.Errorf("node count does not fit the input")
	}
	shape, err := base64.StdEncoding.Strict().DecodeString(doc.Shape)
	if err != nil || len(shape) != (n+7)/8 || len(doc.Shape) != base64.StdEncoding.EncodedLen(len(shape)) {
		return nil, fmt.Errorf("shape is not %d bytes of base64", (n+7)/8)
	}
	b := core.NewBuilder(doc.Fanout, n)
	b.AddRoot(geom.Rect{Lo: doc.Lo, Hi: doc.Hi})
	bit, leaf := 0, 0
	var walk func(idx int32) error
	walk = func(idx int32) error {
		if bit == n {
			return fmt.Errorf("shape ends early")
		}
		split1 := shape[bit/8]>>(bit%8)&1 == 1
		bit++
		if !split1 {
			if leaf == len(doc.Counts) {
				return fmt.Errorf("too few counts")
			}
			b.SetCount(idx, doc.Counts[leaf])
			leaf++
			return nil
		}
		if b.Len()+doc.Fanout > n {
			return fmt.Errorf("shape describes more than %d nodes", n)
		}
		first := b.AddChildren(idx, split.Split(b.Region(idx), int(b.Node(idx).Depth)))
		for c := 0; c < doc.Fanout; c++ {
			if err := walk(first + int32(c)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	if bit != n || leaf != len(doc.Counts) || n%8 != 0 && shape[n/8]>>(n%8) != 0 {
		return nil, fmt.Errorf("shape and counts do not describe one tree")
	}
	tree := b.Build(true)
	tree.SumInternalCounts()
	return tree, nil
}

// oracleMarshalSpatialV1 writes the version-1 payload, every node's
// region, which the library no longer writes but still reads.
func oracleMarshalSpatialV1(tree *core.Tree) ([]byte, error) {
	var conv func(n core.NodeRef) oracleNodeJSON
	conv = func(n core.NodeRef) oracleNodeJSON {
		region := n.Region()
		out := oracleNodeJSON{Lo: region.Lo, Hi: region.Hi}
		if n.IsLeaf() {
			c := n.Count()
			out.Count = &c
			return out
		}
		out.Children = make([]oracleNodeJSON, n.NumChildren())
		for i := range out.Children {
			out.Children[i] = conv(n.Child(i))
		}
		return out
	}
	return json.Marshal(oracleTreeJSON{Version: 1, Fanout: tree.Fanout, Root: conv(tree.Root())})
}

// oracleUnmarshalSpatialV1 reads a version-1 payload; the members only
// version 2 reads must still decode.
func oracleUnmarshalSpatialV1(data []byte) (*core.Tree, error) {
	var wire struct {
		oracleSpatialDocJSON
		Root oracleNodeJSON `json:"root"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, err
	}
	if wire.Fanout < 2 || wire.Fanout > maxWireFanout {
		return nil, fmt.Errorf("unusable fanout %d", wire.Fanout)
	}
	b := core.NewBuilder(wire.Fanout, 64)
	var conv func(w oracleNodeJSON, idx int32) error
	conv = func(w oracleNodeJSON, idx int32) error {
		if len(w.Children) == 0 {
			if w.Count == nil {
				return fmt.Errorf("leaf without count")
			}
			if math.IsNaN(*w.Count) || math.IsInf(*w.Count, 0) {
				return fmt.Errorf("non-finite leaf count")
			}
			b.SetCount(idx, *w.Count)
			return nil
		}
		if len(w.Children) != wire.Fanout {
			return fmt.Errorf("node has %d children, fanout is %d", len(w.Children), wire.Fanout)
		}
		parentRegion := b.Region(idx)
		regions := make([]geom.Rect, len(w.Children))
		for i, cw := range w.Children {
			r, err := wireRect(cw.Lo, cw.Hi)
			if err != nil {
				return err
			}
			regions[i] = r
			if !parentRegion.ContainsRect(regions[i]) {
				return fmt.Errorf("child region escapes parent")
			}
		}
		first := b.AddChildren(idx, regions)
		for i, cw := range w.Children {
			if err := conv(cw, first+int32(i)); err != nil {
				return err
			}
		}
		return nil
	}
	rootRegion, err := wireRect(wire.Root.Lo, wire.Root.Hi)
	if err != nil {
		return nil, err
	}
	b.AddRoot(rootRegion)
	if err := conv(wire.Root, 0); err != nil {
		return nil, err
	}
	tree := b.Build(true)
	tree.SumInternalCounts()
	return tree, nil
}

type oracleModelJSON struct {
	Version  int               `json:"version"`
	Alphabet int               `json:"alphabet"`
	LTop     int               `json:"ltop"`
	Root     oraclePSTNodeJSON `json:"root"`
}

type oraclePSTNodeJSON struct {
	Hist     []float64           `json:"hist"`
	Children []oraclePSTNodeJSON `json:"children,omitempty"`
}

func oracleMarshalSequence(m *SequenceModel) ([]byte, error) {
	t := &m.model.Tree
	beta := t.Fanout()
	var conv func(i int32) oraclePSTNodeJSON
	conv = func(i int32) oraclePSTNodeJSON {
		out := oraclePSTNodeJSON{Hist: t.HistAt(i)}
		if fc := t.Nodes[i].FirstChild; fc != 0 {
			out.Children = make([]oraclePSTNodeJSON, beta)
			for x := 0; x < beta; x++ {
				out.Children[x] = conv(fc + int32(x))
			}
		}
		return out
	}
	return json.Marshal(oracleModelJSON{Version: 1, Alphabet: t.Alphabet.Size, LTop: m.lTop, Root: conv(0)})
}

func oracleUnmarshalSequence(data []byte) (*SequenceModel, error) {
	var wire oracleModelJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, err
	}
	if wire.Version != 1 {
		return nil, fmt.Errorf("unsupported model version %d", wire.Version)
	}
	if wire.Alphabet < 1 || wire.Alphabet > maxWireAlphabet {
		return nil, fmt.Errorf("model alphabet %d invalid", wire.Alphabet)
	}
	if wire.LTop < 1 || wire.LTop > maxWireLTop {
		return nil, fmt.Errorf("model max length %d invalid", wire.LTop)
	}
	k := wire.Alphabet
	beta := k + 1
	if len(wire.Root.Hist) != beta {
		return nil, fmt.Errorf("histogram arity %d, want %d", len(wire.Root.Hist), beta)
	}
	nodes := make([]pst.Node, 1, 16)
	hists := make([]float64, beta)
	var fill func(idx int32, w *oraclePSTNodeJSON, depth int, anchored bool) error
	fill = func(idx int32, w *oraclePSTNodeJSON, depth int, anchored bool) error {
		if len(w.Hist) != beta {
			return fmt.Errorf("histogram arity %d, want %d", len(w.Hist), beta)
		}
		for _, v := range w.Hist {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("bad histogram count %v", v)
			}
		}
		copy(hists[int(idx)*beta:(int(idx)+1)*beta], w.Hist)
		if len(w.Children) == 0 {
			return nil
		}
		if len(w.Children) != beta {
			return fmt.Errorf("node has %d children, want %d", len(w.Children), beta)
		}
		if anchored {
			return fmt.Errorf("$-anchored context cannot have children")
		}
		if depth >= wire.LTop {
			return fmt.Errorf("node at depth %d expanded beyond max length %d", depth, wire.LTop)
		}
		for x := range w.Children {
			if len(w.Children[x].Hist) != beta {
				return fmt.Errorf("histogram arity %d, want %d", len(w.Children[x].Hist), beta)
			}
		}
		first := int32(len(nodes))
		for x := 0; x < beta; x++ {
			nodes = append(nodes, pst.Node{})
			for j := 0; j < beta; j++ {
				hists = append(hists, 0)
			}
		}
		nodes[idx].FirstChild = first
		for x := 0; x < beta; x++ {
			if err := fill(first+int32(x), &w.Children[x], depth+1, x == k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := fill(0, &wire.Root, 0, false); err != nil {
		return nil, err
	}
	t := pst.Tree{Alphabet: sequence.NewAlphabet(k), Nodes: nodes, Hists: hists, EndIndex: k}
	t.Finalize()
	return &SequenceModel{model: &markov.Model{Tree: t}, lTop: wire.LTop}, nil
}

type oracleEnvelopeJSON struct {
	Version   int             `json:"privtree_release"`
	Kind      ReleaseKind     `json:"kind"`
	Mechanism string          `json:"mechanism,omitempty"`
	Epsilon   float64         `json:"epsilon,omitempty"`
	Params    *Params         `json:"params,omitempty"`
	Payload   json.RawMessage `json:"payload"`
}

func oracleEncodeEnvelope(r *Release) ([]byte, error) {
	var blob []byte
	var err error
	switch {
	case r.spatial != nil:
		blob, err = oracleMarshalSpatial(r.spatial.tree)
	case r.model != nil:
		blob, err = oracleMarshalSequence(r.model)
	case r.hybrid != nil:
		blob, err = json.Marshal(r.hybrid)
	default:
		return nil, fmt.Errorf("%s release has no wire format", r.kind)
	}
	if err != nil {
		return nil, err
	}
	p := r.params
	return json.Marshal(oracleEnvelopeJSON{
		Version:   EnvelopeVersion,
		Kind:      r.kind,
		Mechanism: r.mechanism,
		Epsilon:   r.epsilon,
		Params:    &p,
		Payload:   blob,
	})
}

// oracleProbe is the one-parse header struct the old Decode and
// InspectEnvelope each declared.
type oracleProbe struct {
	Envelope  *int            `json:"privtree_release"`
	Kind      ReleaseKind     `json:"kind"`
	Mechanism string          `json:"mechanism"`
	Epsilon   float64         `json:"epsilon"`
	Params    *Params         `json:"params"`
	Payload   json.RawMessage `json:"payload"`
}

func oracleDecodePayload(kind ReleaseKind, data []byte) (*Release, error) {
	rel := &Release{kind: kind}
	switch kind {
	case KindSpatial:
		tree, err := oracleUnmarshalSpatial(data)
		if err != nil {
			return nil, err
		}
		rel.spatial = &SpatialTree{tree: tree}
	case KindSequence:
		m, err := oracleUnmarshalSequence(data)
		if err != nil {
			return nil, err
		}
		rel.model = m
	case KindHybrid:
		var t HybridTree
		if err := json.Unmarshal(data, &t); err != nil {
			return nil, err
		}
		rel.hybrid = &t
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
	return rel, nil
}

func oracleDecode(data []byte) (*Release, error) {
	var probe oracleProbe
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	if probe.Envelope == nil {
		return nil, fmt.Errorf("not a release envelope")
	}
	if *probe.Envelope != EnvelopeVersion {
		return nil, fmt.Errorf("unsupported release envelope version %d", *probe.Envelope)
	}
	if len(probe.Payload) == 0 {
		return nil, fmt.Errorf("release envelope has no payload")
	}
	if math.IsNaN(probe.Epsilon) || math.IsInf(probe.Epsilon, 0) || probe.Epsilon < 0 {
		return nil, fmt.Errorf("release envelope has unusable epsilon %v", probe.Epsilon)
	}
	var params Params
	if probe.Params != nil {
		params = *probe.Params
	}
	if probe.Mechanism != "" {
		spec, ok := mechanismRegistry[probe.Mechanism]
		if !ok {
			return nil, fmt.Errorf("unknown mechanism %q", probe.Mechanism)
		}
		if spec.kind != probe.Kind {
			return nil, fmt.Errorf("mechanism %q produces %s releases", probe.Mechanism, spec.kind)
		}
		if err := spec.validate(params); err != nil {
			return nil, err
		}
	}
	rel, err := oracleDecodePayload(probe.Kind, probe.Payload)
	if err != nil {
		return nil, err
	}
	rel.mechanism, rel.epsilon, rel.params = probe.Mechanism, probe.Epsilon, params
	return rel, nil
}

func oracleInspect(data []byte) (*EnvelopeInfo, error) {
	var probe oracleProbe
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	if probe.Envelope == nil {
		return nil, fmt.Errorf("not a release envelope")
	}
	if *probe.Envelope != EnvelopeVersion {
		return nil, fmt.Errorf("unsupported release envelope version %d", *probe.Envelope)
	}
	if len(probe.Payload) == 0 {
		return nil, fmt.Errorf("release envelope has no payload")
	}
	if math.IsNaN(probe.Epsilon) || math.IsInf(probe.Epsilon, 0) || probe.Epsilon < 0 {
		return nil, fmt.Errorf("release envelope has unusable epsilon %v", probe.Epsilon)
	}
	switch probe.Kind {
	case KindSpatial, KindSequence, KindHybrid:
	default:
		return nil, fmt.Errorf("unknown kind %q", probe.Kind)
	}
	info := &EnvelopeInfo{
		Version:      *probe.Envelope,
		Kind:         probe.Kind,
		Mechanism:    probe.Mechanism,
		Epsilon:      probe.Epsilon,
		PayloadBytes: len(probe.Payload),
	}
	if probe.Params != nil {
		info.Params = *probe.Params
	}
	info.Seed = info.Params.Seed
	if probe.Mechanism != "" {
		spec, ok := mechanismRegistry[probe.Mechanism]
		if !ok {
			return nil, fmt.Errorf("unknown mechanism %q", probe.Mechanism)
		}
		if spec.kind != probe.Kind {
			return nil, fmt.Errorf("mechanism %q produces %s releases", probe.Mechanism, spec.kind)
		}
	}
	info.Fingerprint = releaseFingerprint(info.Mechanism, info.Epsilon, info.Params)
	return info, nil
}
