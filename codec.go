package privtree

import (
	"math"

	"privtree/internal/wire"
)

// This file is the tree half of the artifact codec: the reader that turns
// the nested node objects of a spatial or sequence payload into a flat
// node table, which serialize.go and serialize_sequence.go then validate
// and lay out as an arena. The JSON itself is read by internal/wire, the
// byte-level scanner shared with privtreed's request bodies, and floats
// are written by wire.AppendFloat. The bytes written are exactly those
// encoding/json writes for the same document (the golden files under
// testdata/ pin them), but neither direction goes through reflection.
//
// The envelope and payload readers accept exactly what encoding/json
// accepts and decode it to the same values — any whitespace and key
// order, unknown keys skipped, duplicate keys resolved the way
// encoding/json resolves them, null leaving a value untouched — with one
// deliberate exception: keys match only in their exact case ("LO" is an
// unknown key, not "lo").

// wireNode is one node of a payload tree as the reader fills it: the
// kind's float arrays (lo and hi for spatial, hist in a for sequence),
// the leaf count (NaN when absent), and its children — a sibling chain
// through next, of which the first n are current.
//
// Children are chained rather than reserved as a block because the
// payload decoders validate and lay the arena out afterwards, and because
// the chain is what reproduces encoding/json's treatment of a repeated
// "children" key: it decodes into the existing slice, so element i
// overlays whatever element i held before — even an element a shorter
// repetition had cut off — until [] or null drops them all.
type wireNode struct {
	a, b        []float64
	count       float64
	first, next int32 // 0 = none (node 0 is the root, never a child)
	n           int32
}

// coordSlab is the size of the reader's float slabs, in float64s.
const coordSlab = 4096

// treeReader fills a flat wireNode table from the nested node objects of
// a payload document. keyA and keyB name the node's float arrays, keyCount
// its scalar; an empty name is not part of the kind's schema.
type treeReader struct {
	r                    *wire.Reader
	keyA, keyB, keyCount string
	nodes                []wireNode
	slab                 []float64 // free tail of the current float slab
	scratch              []float64
	floatsRead           int
}

func newTreeReader(r *wire.Reader, keyA, keyB, keyCount string) *treeReader {
	// A wire node costs at least a few dozen bytes, so this bounds the
	// table's growth without over-reserving for small documents.
	hint := len(r.Rest())/48 + 1
	t := &treeReader{r: r, keyA: keyA, keyB: keyB, keyCount: keyCount, nodes: make([]wireNode, 1, hint)}
	t.nodes[0].count = math.NaN()
	return t
}

// node decodes the value at the cursor into node i: an object overlays
// the keys it carries, null changes nothing.
func (t *treeReader) node(i int32) error {
	return t.r.Object(func(key []byte) (err error) {
		switch k := string(key); {
		case k == "children":
			return t.children(i)
		case k == t.keyA:
			t.nodes[i].a, err = t.floats(t.nodes[i].a)
		case k == t.keyB && k != "":
			t.nodes[i].b, err = t.floats(t.nodes[i].b)
		case k == t.keyCount && k != "":
			v, null, err := t.r.Float()
			if null {
				v = math.NaN()
			}
			t.nodes[i].count = v
			return err
		default:
			return t.r.Skip()
		}
		return err
	})
}

// children decodes a "children" value into node i's chain.
func (t *treeReader) children(i int32) error {
	if null, err := t.r.Null(); null || err != nil {
		t.nodes[i].first, t.nodes[i].n = 0, 0
		return err
	}
	prev, cur, n := int32(0), t.nodes[i].first, int32(0)
	err := t.r.Array(func() error {
		if cur == 0 {
			cur = int32(len(t.nodes))
			t.nodes = append(t.nodes, wireNode{count: math.NaN()})
			if prev == 0 {
				t.nodes[i].first = cur
			} else {
				t.nodes[prev].next = cur
			}
		}
		if err := t.node(cur); err != nil {
			return err
		}
		prev, cur, n = cur, t.nodes[cur].next, n+1
		return nil
	})
	if err != nil {
		return err
	}
	if n == 0 {
		t.nodes[i].first = 0 // [] is a fresh empty slice: history dropped
	}
	t.nodes[i].n = n
	return nil
}

// floats decodes a float array over hist, the values a previous
// occurrence of the same key left: like encoding/json, a null element
// keeps the value its index held (0 past the old end), and a shorter
// array keeps the tail for a later repetition to uncover — the capacity
// of the returned slice carries that history. null yields nil and []
// an empty slice; both drop the history.
func (t *treeReader) floats(hist []float64) ([]float64, error) {
	if null, err := t.r.Null(); null || err != nil {
		return nil, err
	}
	hist = hist[:cap(hist)]
	vals := t.scratch[:0]
	err := t.r.Array(func() error {
		v, null, err := t.r.Float()
		if null && len(vals) < len(hist) {
			v = hist[len(vals)]
		}
		vals = append(vals, v)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.scratch = vals
	n := len(vals)
	t.floatsRead += n
	if n == 0 {
		return []float64{}, nil
	}
	if n <= len(hist) {
		copy(hist, vals)
		return hist[:n], nil
	}
	if len(t.slab) < n {
		t.slab = make([]float64, max(coordSlab, n))
	}
	out := t.slab[:n:n]
	t.slab = t.slab[n:]
	copy(out, vals)
	return out, nil
}
