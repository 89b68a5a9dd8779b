package privtree

import (
	"fmt"
	"slices"
	"strconv"

	"privtree/internal/markov"
	"privtree/internal/pst"
	"privtree/internal/sequence"
	"privtree/internal/wire"
)

// Wire-format sanity bounds: far beyond any real model, tight enough that
// a hostile document cannot drive huge allocations before validation.
const (
	maxWireAlphabet = 1 << 20
	maxWireLTop     = 1 << 20
)

// The sequence payload document is
//
//	{"version":1,"alphabet":k,"ltop":l⊤,"root":NODE}
//	NODE = {"hist":[β counts]}                        (leaf)
//	     | {"hist":[β counts],"children":[NODE × β]} (expanded)
//
// with β = k+1: the predictor-tree structure plus the released noisy
// histograms — the exact content of the ε-DP release.

// MarshalJSON implements json.Marshaler for SequenceModel.
func (m *SequenceModel) MarshalJSON() ([]byte, error) {
	return appendSequencePayload(nil, m)
}

// appendSequencePayload appends the payload document in one walk of the
// arena, sizing the buffer up front from the histogram slab.
func appendSequencePayload(b []byte, m *SequenceModel) ([]byte, error) {
	t := &m.model.Tree
	b = slices.Grow(b, len(t.Hists)*20+len(t.Nodes)*24+64)
	b = append(b, `{"version":1,"alphabet":`...)
	b = strconv.AppendInt(b, int64(t.Alphabet.Size), 10)
	b = append(b, `,"ltop":`...)
	b = strconv.AppendInt(b, int64(m.lTop), 10)
	b = append(b, `,"root":`...)
	b, err := appendSequenceNode(b, t, 0)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

func appendSequenceNode(b []byte, t *pst.Tree, i int32) ([]byte, error) {
	b = append(b, `{"hist":`...)
	b, err := wire.AppendFloats(b, t.HistAt(i))
	if err != nil {
		return b, err
	}
	if fc := t.Nodes[i].FirstChild; fc != 0 {
		b = append(b, `,"children":[`...)
		for x := int32(0); x < int32(t.Fanout()); x++ {
			if x > 0 {
				b = append(b, ',')
			}
			if b, err = appendSequenceNode(b, t, fc+x); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler for SequenceModel. Contexts
// are reconstructed from tree position (child i of a node prepends symbol
// i; the last child is the $-anchored one), so the wire format only
// carries structure and histograms.
//
// The document is fully validated before a model is handed back: version
// and alphabet shape, histogram arity at every node, non-negative counts
// (a released histogram is clamped ≥ 0), children arity, no children
// under a $-anchored context, and depth within l⊤. Truncated or otherwise
// malformed documents leave the receiver untouched.
func (m *SequenceModel) UnmarshalJSON(data []byte) error {
	model, lTop, err := readSequencePayload(data)
	if err != nil {
		return err
	}
	m.model, m.lTop = model, lTop
	return nil
}

// readSequencePayload decodes a payload document: one pass over the
// bytes fills a wire-node table, then one walk of that table validates
// every node and lays the arena and its histogram slab out depth first,
// each expanded node's β children as one block.
func readSequencePayload(data []byte) (*markov.Model, int, error) {
	r := wire.NewReader(data)
	t := newTreeReader(r, "hist", "", "")
	var version, k, lTop int
	err := r.Object(func(key []byte) error {
		switch string(key) {
		case "version":
			return r.IntInto(&version)
		case "alphabet":
			return r.IntInto(&k)
		case "ltop":
			return r.IntInto(&lTop)
		case "root":
			return t.node(0)
		}
		return r.Skip()
	})
	if err == nil {
		err = r.End()
	}
	if err == nil && version != 1 {
		err = fmt.Errorf("privtree: unsupported model version %d", version)
	}
	if err != nil {
		return nil, 0, newerVersion("sequence payload", "version", data, 1, err)
	}
	if k < 1 || k > maxWireAlphabet {
		return nil, 0, fmt.Errorf("privtree: model alphabet %d invalid", k)
	}
	if lTop < 1 || lTop > maxWireLTop {
		return nil, 0, fmt.Errorf("privtree: model max length %d invalid", lTop)
	}
	beta := k + 1
	arity := func(w *wireNode) error {
		if len(w.a) != beta {
			return fmt.Errorf("privtree: histogram arity %d, want |I|+1 = %d", len(w.a), beta)
		}
		return nil
	}
	// Root arity first: it bounds every allocation that follows (a document
	// claiming a huge alphabet must actually carry β floats per node).
	if err := arity(&t.nodes[0]); err != nil {
		return nil, 0, err
	}
	// Both slabs are sized from what the document actually carried: one
	// arena node per wire node at most, one histogram slot per float read.
	nodes := make([]pst.Node, 1, len(t.nodes))
	hists := make([]float64, beta, min(len(t.nodes)*beta, t.floatsRead))
	var fill func(w *wireNode, idx int32, depth int, anchored bool) error
	fill = func(w *wireNode, idx int32, depth int, anchored bool) error {
		if err := arity(w); err != nil {
			return err
		}
		for _, v := range w.a {
			if v < 0 {
				return fmt.Errorf("privtree: negative histogram count %v (releases are clamped >= 0)", v)
			}
		}
		copy(hists[int(idx)*beta:(int(idx)+1)*beta], w.a)
		if w.n == 0 {
			return nil
		}
		if int(w.n) != beta {
			return fmt.Errorf("privtree: node has %d children, want |I|+1 = %d", w.n, beta)
		}
		if anchored {
			return fmt.Errorf("privtree: $-anchored context cannot have children")
		}
		if depth >= lTop {
			return fmt.Errorf("privtree: node at depth %d expanded beyond max length %d", depth, lTop)
		}
		// Check every child's arity BEFORE the β²-sized arena append, so the
		// allocation below is always bounded by floats the document actually
		// carries.
		for c, x := w.first, 0; x < beta; c, x = t.nodes[c].next, x+1 {
			if err := arity(&t.nodes[c]); err != nil {
				return err
			}
		}
		first := int32(len(nodes))
		nodes = append(nodes, make([]pst.Node, beta)...)
		hists = append(hists, make([]float64, beta*beta)...)
		nodes[idx].FirstChild = first
		for c, x := w.first, 0; x < beta; c, x = t.nodes[c].next, x+1 {
			if err := fill(&t.nodes[c], first+int32(x), depth+1, x == k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := fill(&t.nodes[0], 0, 0, false); err != nil {
		return nil, 0, err
	}
	tree := pst.Tree{
		Alphabet: sequence.NewAlphabet(k),
		Nodes:    nodes,
		Hists:    hists,
		EndIndex: k,
	}
	tree.Finalize()
	return &markov.Model{Tree: tree}, lTop, nil
}
