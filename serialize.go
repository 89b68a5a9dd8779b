package privtree

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"privtree/internal/core"
	"privtree/internal/geom"
)

// This file serializes released artifacts. A serialized tree contains
// exactly what the mechanism released — regions and noisy counts — so the
// bytes carry the same ε-differential-privacy guarantee as the in-memory
// object and can be published or archived as-is.

// The spatial payload document is
//
//	{"version":1,"fanout":β,"root":NODE}
//	NODE = {"lo":[...],"hi":[...],"count":c}              (leaf)
//	     | {"lo":[...],"hi":[...],"children":[NODE × β]} (internal)
//
// Internal counts are not written: they are the sums of their leaves.

// MarshalJSON implements json.Marshaler for SpatialTree.
func (t *SpatialTree) MarshalJSON() ([]byte, error) {
	return appendSpatialPayload(nil, t.tree)
}

// appendSpatialPayload appends the payload document in one walk of the
// arena, sizing the buffer up front from the node count.
func appendSpatialPayload(b []byte, tree *core.Tree) ([]byte, error) {
	d := tree.Dims()
	b = slices.Grow(b, tree.Size()*(44*d+16)+64)
	b = append(b, `{"version":1,"fanout":`...)
	b = strconv.AppendInt(b, int64(tree.Fanout), 10)
	b = append(b, `,"root":`...)
	b, err := appendSpatialNode(b, tree.Root())
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

func appendSpatialNode(b []byte, n core.NodeRef) ([]byte, error) {
	region := n.Region()
	b = append(b, `{"lo":`...)
	b, err := appendWireFloats(b, region.Lo)
	if err != nil {
		return b, err
	}
	b = append(b, `,"hi":`...)
	if b, err = appendWireFloats(b, region.Hi); err != nil {
		return b, err
	}
	if n.IsLeaf() {
		b = append(b, `,"count":`...)
		if b, err = appendWireFloat(b, n.Count()); err != nil {
			return b, err
		}
		return append(b, '}'), nil
	}
	b = append(b, `,"children":[`...)
	for i := 0; i < n.NumChildren(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendSpatialNode(b, n.Child(i)); err != nil {
			return b, err
		}
	}
	return append(b, "]}"...), nil
}

// wireRect validates one serialized node's bounds and returns the region.
// It goes through geom.MakeRect, never geom.NewRect: inverted intervals,
// non-finite coordinates, mismatched or empty bound slices are all
// reported as errors, so no untrusted byte stream can crash the
// deserializer.
func wireRect(lo, hi []float64) (geom.Rect, error) {
	r, err := geom.MakeRect(lo, hi)
	if err != nil {
		return geom.Rect{}, fmt.Errorf("privtree: malformed node bounds: %w", err)
	}
	return r, nil
}

// maxWireFanout bounds the fanout accepted from the wire; 2^20 is far
// beyond any realizable splitter and merely prevents absurd allocations.
const maxWireFanout = 1 << 20

// UnmarshalJSON implements json.Unmarshaler for SpatialTree: internal
// counts are reconstructed as leaf sums, exactly as the release pipeline
// defines them. Malformed input — truncated documents, inverted or
// non-finite bounds, children escaping their parent, wrong child arity,
// missing leaf counts — is rejected with an error before any tree is
// exposed; t is left unmodified on failure.
func (t *SpatialTree) UnmarshalJSON(data []byte) error {
	r := &wireReader{data: data}
	tree, err := readSpatialPayload(r)
	if err != nil {
		return err
	}
	if err := r.end(); err != nil {
		return err
	}
	t.tree = tree
	return nil
}

// readSpatialPayload decodes the payload document at the cursor: one pass
// over the bytes fills a wire-node table, then one walk of that table
// validates every node and lays the arena out depth first, each node's
// children as one block — the layout the builder gives a fresh build.
func readSpatialPayload(r *wireReader) (*core.Tree, error) {
	t := newTreeReader(r, "lo", "hi", "count")
	var version, fanout int
	err := r.fields(func(key []byte) error {
		switch string(key) {
		case "version":
			return r.intInto(&version)
		case "fanout":
			return r.intInto(&fanout)
		case "root":
			return t.node(0)
		}
		return r.skip()
	})
	if err != nil {
		return nil, err
	}
	if version != 1 {
		return nil, fmt.Errorf("privtree: unsupported tree version %d", version)
	}
	if fanout < 2 || fanout > maxWireFanout {
		return nil, fmt.Errorf("privtree: unusable fanout %d", fanout)
	}
	root := &t.nodes[0]
	rootRegion, err := wireRect(root.a, root.b)
	if err != nil {
		return nil, err
	}
	// Pre-size for no more nodes than the input can hold. Every node the
	// builder stores carries 2·d numbers of at least two bytes each, while
	// the wire table also counts entries, such as empty child objects, that
	// validation rejects; sizing by the table alone would let a wide root
	// over many such entries reserve d·len(t.nodes) floats.
	hint := min(len(t.nodes), len(r.data)/(4*len(rootRegion.Lo))+1)
	b := core.NewBuilder(fanout, hint)
	b.AddRoot(rootRegion)
	var regions []geom.Rect
	var conv func(w *wireNode, idx int32) error
	conv = func(w *wireNode, idx int32) error {
		if w.n == 0 {
			if math.IsNaN(w.count) {
				return fmt.Errorf("privtree: leaf without count")
			}
			b.SetCount(idx, w.count)
			return nil
		}
		if int(w.n) != fanout {
			return fmt.Errorf("privtree: node has %d children, fanout is %d", w.n, fanout)
		}
		parentRegion := b.Region(idx)
		regions = regions[:0]
		for c, k := w.first, int32(0); k < w.n; c, k = t.nodes[c].next, k+1 {
			r, err := wireRect(t.nodes[c].a, t.nodes[c].b)
			if err != nil {
				return err
			}
			if !parentRegion.ContainsRect(r) {
				return fmt.Errorf("privtree: child region escapes parent")
			}
			regions = append(regions, r)
		}
		first := b.AddChildren(idx, regions)
		for c, k := w.first, int32(0); k < w.n; c, k = t.nodes[c].next, k+1 {
			if err := conv(&t.nodes[c], first+k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := conv(root, 0); err != nil {
		return nil, err
	}
	tree := b.Build(true)
	tree.SumInternalCounts()
	return tree, nil
}
