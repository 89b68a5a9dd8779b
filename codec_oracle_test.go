package privtree

import (
	"encoding/json"
	"fmt"
	"math"

	"privtree/internal/core"
	"privtree/internal/geom"
	"privtree/internal/markov"
	"privtree/internal/pst"
	"privtree/internal/sequence"
)

// This file keeps the reflection codec the artifact codec replaced, as
// the oracle the differential tests hold the new one to: encoding/json
// over nested wire structs, for both payload kinds and the envelope. The
// new writer must produce its bytes exactly, and the new reader must
// accept and reject the same documents and decode the same trees.

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

func oracleMarshalSpatial(tree *core.Tree) ([]byte, error) {
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

func oracleUnmarshalSpatial(data []byte) (*core.Tree, error) {
	var wire oracleTreeJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, err
	}
	if wire.Version != 1 {
		return nil, fmt.Errorf("unsupported tree version %d", wire.Version)
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

	Alphabet   *int            `json:"alphabet"`
	Fanout     *int            `json:"fanout"`
	Numeric    json.RawMessage `json:"numeric"`
	Taxonomies json.RawMessage `json:"taxonomies"`
	Root       json.RawMessage `json:"root"`
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
		switch {
		case probe.Alphabet != nil && probe.Root != nil:
			return oracleDecodePayload(KindSequence, data)
		case probe.Fanout != nil && probe.Root != nil:
			return oracleDecodePayload(KindSpatial, data)
		case probe.Numeric != nil || probe.Taxonomies != nil:
			return oracleDecodePayload(KindHybrid, data)
		}
		return nil, fmt.Errorf("not a release document")
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
		info := &EnvelopeInfo{PayloadBytes: len(data)}
		switch {
		case probe.Alphabet != nil && probe.Root != nil:
			info.Kind = KindSequence
		case probe.Fanout != nil && probe.Root != nil:
			info.Kind = KindSpatial
		case probe.Numeric != nil || probe.Taxonomies != nil:
			info.Kind = KindHybrid
		default:
			return nil, fmt.Errorf("not a release document")
		}
		return info, nil
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
