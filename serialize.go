package privtree

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"
	"slices"
	"strconv"

	"privtree/internal/core"
	"privtree/internal/geom"
	"privtree/internal/wire"
)

// This file serializes released artifacts. A serialized tree contains
// exactly what the mechanism released — the decomposition and the noisy
// counts — so the bytes carry the same ε-differential-privacy guarantee
// as the in-memory object and can be published or archived as-is.

// The spatial payload document, version 2, is
//
//	{"version":2,"fanout":β,"lo":[d floats],"hi":[d floats],"nodes":N,
//	 "shape":"<base64>","counts":[L floats]}
//
// lo and hi bound the domain, the root's region. shape has one bit per
// node in pre-order, 1 for a split node and 0 for a leaf, packed from the
// low bit of each byte up into ⌈N/8⌉ bytes with zero padding, written as
// padded standard base64. counts holds the L leaves' noisy counts in the
// same pre-order. Only the decision to split a node is noisy (paper §3);
// how a node splits is fixed by the domain and β, so no region is written:
// the reader rebuilds each one with spatialSplitter, the splitter the
// build used, and internal counts are the sums of their leaves.
//
// The writer emits exactly what encoding/json writes for that object.
// The reader accepts what encoding/json accepts for it — any whitespace,
// key order and number spelling — so a payload that has passed through
// an ordinary JSON tool still decodes, to the same tree.
//
// Version 1 wrote every node's region. It is still read, since stores and
// replicas hold version-1 artifacts under their SHA-256, but not written:
//
//	{"version":1,"fanout":β,"root":NODE}
//	NODE = {"lo":[...],"hi":[...],"count":c}              (leaf)
//	     | {"lo":[...],"hi":[...],"children":[NODE × β]} (internal)
//
// Its reader checks every region against its parent. Both readers
// follow codec.go's rules for what encoding/json accepts.

// spatialPayloadVersion is the spatial payload version this library writes.
const spatialPayloadVersion = 2

// MarshalJSON implements json.Marshaler for SpatialTree.
func (t *SpatialTree) MarshalJSON() ([]byte, error) {
	return appendSpatialPayload(nil, t)
}

// appendSpatialPayload appends the version-2 payload document in one
// pre-order walk of the arena, which writes each leaf's count and, into
// a slot reserved for the shape, each node's bit. Unless the tree is
// known to be derived, the walk also checks that every split node's
// children have exactly the regions spatialSplitter derives: a tree with
// other regions, which only a hand-written version-1 document can
// produce, would decode to a different tree, so it is refused. Builds
// and version-2 decodes skip the check: on a 100k-point release it adds
// 35-100% to the encode's time and two allocations.
func appendSpatialPayload(b []byte, t *SpatialTree) ([]byte, error) {
	tree := t.tree
	root := tree.Root().Region()
	split, err := spatialDomain(root, tree.Fanout)
	if err != nil {
		return nil, err
	}
	n := tree.Size()
	shapeLen := base64.StdEncoding.EncodedLen((n + 7) / 8)
	b = slices.Grow(b, spatialPayloadCap(tree))
	b = append(b, `{"version":2,"fanout":`...)
	b = strconv.AppendInt(b, int64(tree.Fanout), 10)
	b = append(b, `,"lo":`...)
	if b, err = wire.AppendFloats(b, root.Lo); err != nil {
		return nil, err
	}
	b = append(b, `,"hi":`...)
	if b, err = wire.AppendFloats(b, root.Hi); err != nil {
		return nil, err
	}
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"shape":"`...)
	shapeAt := len(b)
	b = append(b, make([]byte, shapeLen)...)
	b = append(b, `","counts":[`...)

	// Shape bits go out as base64 in groups of 24 bits (4 characters).
	var group [3]byte
	var stackBuf [256]int32
	stack := append(stackBuf[:0], 0)
	var kids []geom.Rect
	leaves := 0
	bit := 0
	for ; len(stack) > 0; bit++ {
		if bit > 0 && bit%24 == 0 {
			base64.StdEncoding.Encode(b[shapeAt+4*(bit/24-1):], group[:])
			group = [3]byte{}
		}
		node := tree.At(int(stack[len(stack)-1]))
		stack = stack[:len(stack)-1]
		if node.IsLeaf() {
			if leaves++; leaves > 1 {
				b = append(b, ',')
			}
			if b, err = wire.AppendFloat(b, node.Count()); err != nil {
				return nil, err
			}
			continue
		}
		if node.NumChildren() != tree.Fanout {
			return nil, fmt.Errorf("privtree: node has %d children, fanout is %d", node.NumChildren(), tree.Fanout)
		}
		group[bit%24/8] |= 1 << (bit % 8)
		if !t.derived {
			kids = split.SplitInto(node.Region(), node.Depth(), kids)
		}
		for c := tree.Fanout - 1; c >= 0; c-- {
			child := node.Child(c)
			if !t.derived && !sameBits(child.Region(), kids[c]) {
				return nil, fmt.Errorf("privtree: a node's region is not the split of its parent's, so no version-%d payload can carry the tree", spatialPayloadVersion)
			}
			stack = append(stack, int32(child.Index()))
		}
	}
	if bit != n {
		return nil, fmt.Errorf("privtree: %d of the tree's %d nodes are reachable from its root", bit, n)
	}
	base64.StdEncoding.Encode(b[shapeAt+4*((n-1)/24):], group[:(n-1)%24/8+1])
	return append(b, "]}"...), nil
}

// spatialPayloadCap bounds the length of tree's payload document, so
// that it is written without growing the buffer: a float takes at most
// 24 bytes as encoding/json writes it.
func spatialPayloadCap(tree *core.Tree) int {
	n := tree.Size()
	return 96 + 50*tree.Dims() + base64.StdEncoding.EncodedLen((n+7)/8) + 25*n
}

// sameBits reports whether two regions have bit-identical bounds.
func sameBits(a, b geom.Rect) bool {
	for i := range a.Lo {
		if math.Float64bits(a.Lo[i]) != math.Float64bits(b.Lo[i]) ||
			math.Float64bits(a.Hi[i]) != math.Float64bits(b.Hi[i]) {
			return false
		}
	}
	return true
}

// spatialDomain checks that a version-2 payload can describe a tree over
// domain with this fanout and returns the splitter that derives its
// regions: finite bounds with lo ≤ hi, a finite width on every axis (so
// every midpoint the splitter takes is finite), and a fanout the splitter
// realizes in len(domain.Lo) dimensions.
func spatialDomain(domain geom.Rect, fanout int) (geom.Splitter, error) {
	if _, err := wireRect(domain.Lo, domain.Hi); err != nil {
		return nil, err
	}
	for i := range domain.Lo {
		if math.IsInf(domain.Hi[i]-domain.Lo[i], 0) {
			return nil, fmt.Errorf("privtree: domain axis %d is wider than a float64 can hold", i)
		}
	}
	if fanout > maxWireFanout {
		return nil, fmt.Errorf("privtree: unusable fanout %d", fanout)
	}
	return spatialSplitter(len(domain.Lo), fanout)
}

// spatialV2Fits reports whether decoding a version-2 payload of
// inputBytes bytes that declares n nodes in d dimensions with this fanout
// stays within 64 bytes of allocation per input byte. Per node that is
// the arena (a 24-byte core.Node and 2·d coordinates), a leaf count, a
// walk-stack slot and a shape bit; one split's scratch regions come on
// top. A payload is small because it leaves the regions out, so the
// bound is what keeps a few bytes of shape from claiming gigabytes of
// coordinates; a real release, whose every leaf carries a noisy count of
// a dozen or more digits, stays far inside it.
func spatialV2Fits(n, d, fanout, inputBytes int) bool {
	budget := 64 * inputBytes
	if n > 1 {
		budget -= fanout * (48 + 16*d)
	}
	return n >= 1 && n <= math.MaxInt32 && budget >= 0 && n <= budget/(41+16*d)
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

// UnmarshalJSON implements json.Unmarshaler for SpatialTree, reading
// either payload version: internal counts are reconstructed as leaf sums,
// exactly as the release pipeline defines them. Malformed input is
// rejected with an error before any tree is exposed; t is left unmodified
// on failure.
func (t *SpatialTree) UnmarshalJSON(data []byte) error {
	tree, err := readSpatialPayload(data)
	if err != nil {
		return err
	}
	*t = *tree
	return nil
}

// spatialDoc holds the top-level members of a spatial payload document of
// either version, as encoding/json would decode them into one struct.
type spatialDoc struct {
	version, fanout, nodes int
	lo, hi, counts         []float64
	shape                  string
}

// readSpatialPayload decodes a payload document of either version. One
// pass reads every top-level member of both versions except "root",
// whose syntax alone it checks; the version then decides which members
// describe the tree, and only a version-1 document goes back for its
// root.
func readSpatialPayload(data []byte) (*SpatialTree, error) {
	var doc spatialDoc
	r := wire.NewReader(data)
	floats := &treeReader{r: r}
	r.Peek()
	start := r.Rest()
	err := r.Object(func(key []byte) (err error) {
		switch string(key) {
		case "version":
			return r.IntInto(&doc.version)
		case "fanout":
			return r.IntInto(&doc.fanout)
		case "nodes":
			return r.IntInto(&doc.nodes)
		case "shape":
			return r.StringInto(&doc.shape)
		case "lo":
			doc.lo, err = floats.floats(doc.lo)
		case "hi":
			doc.hi, err = floats.floats(doc.hi)
		case "counts":
			// Counts are most of a payload: read them into a buffer sized
			// once, by the commas before the first ']', not grown by append.
			if rest := r.Rest(); r.Peek() == '[' {
				end := max(bytes.IndexByte(rest, ']'), 0)
				floats.scratch = make([]float64, 0, bytes.Count(rest[:end], []byte{','})+1)
			}
			doc.counts, err = floats.floats(doc.counts)
		default:
			return r.Skip()
		}
		return err
	})
	size := len(start) - len(r.Rest())
	if err == nil {
		err = r.End()
	}
	if err == nil && doc.version != 1 && doc.version != spatialPayloadVersion {
		err = fmt.Errorf("privtree: unsupported spatial payload version %d", doc.version)
	}
	if err != nil {
		return nil, newerVersion("spatial payload", "version", data, spatialPayloadVersion, err)
	}
	if doc.version == 1 {
		tree, err := readSpatialV1(data, doc.fanout)
		if err != nil {
			return nil, err
		}
		return &SpatialTree{tree: tree}, nil
	}
	tree, err := readSpatialV2(&doc, size)
	if err != nil {
		return nil, err
	}
	return &SpatialTree{tree: tree, derived: true}, nil
}

// readSpatialV2 builds the tree a version-2 payload describes; size is
// the length of the payload's value. The declared node count is checked
// against the allocation bound, the number of counts and the shape's
// length before the arena is allocated.
func readSpatialV2(doc *spatialDoc, size int) (*core.Tree, error) {
	bad := func(err error) (*core.Tree, error) {
		return nil, fmt.Errorf("privtree: malformed spatial payload: %w", err)
	}
	domain := geom.Rect{Lo: doc.lo, Hi: doc.hi}
	split, err := spatialDomain(domain, doc.fanout)
	if err != nil {
		return nil, err
	}
	n, fanout, counts := doc.nodes, doc.fanout, doc.counts
	if !spatialV2Fits(n, len(domain.Lo), fanout, size) {
		return nil, fmt.Errorf("privtree: spatial payload declares %d nodes in %d dimensions; %d bytes cannot describe them", n, len(domain.Lo), size)
	}
	if (n-1)%fanout != 0 || len(counts) != n-(n-1)/fanout {
		return bad(fmt.Errorf("no tree of %d nodes and fanout %d has %d leaves", n, fanout, len(counts)))
	}
	var shape []byte
	if len(doc.shape) == base64.StdEncoding.EncodedLen((n+7)/8) {
		shape, err = base64.StdEncoding.Strict().DecodeString(doc.shape)
	}
	if err != nil || len(shape) != (n+7)/8 {
		return bad(fmt.Errorf("shape is not %d bytes of padded standard base64", (n+7)/8))
	}
	k := len(shape)
	if n&7 != 0 && shape[k-1]>>(n&7) != 0 {
		return bad(fmt.Errorf("shape has bits set past its last node"))
	}

	// The walk stops at the first bit that does not fit one complete tree
	// of n nodes with len(counts) leaves, so the arena never outgrows n.
	b := core.NewBuilder(fanout, n)
	b.AddRoot(domain)
	var kids []geom.Rect
	var stackBuf [256]int32
	stack := append(stackBuf[:0], 0)
	i, leaf := 0, 0
	for ; len(stack) > 0 && i < n; i++ {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if shape[i>>3]>>(i&7)&1 == 0 {
			if leaf == len(counts) {
				break
			}
			b.SetCount(idx, counts[leaf])
			leaf++
			continue
		}
		if b.Len()+fanout > n {
			break
		}
		kids = split.SplitInto(b.Region(idx), int(b.Node(idx).Depth), kids)
		first := b.AddChildren(idx, kids)
		for c := int32(fanout) - 1; c >= 0; c-- {
			stack = append(stack, first+c)
		}
	}
	if len(stack) != 0 || i != n || leaf != len(counts) {
		return bad(fmt.Errorf("shape and %d counts do not describe one tree of %d nodes", len(counts), n))
	}
	tree := b.Build(true)
	tree.SumInternalCounts()
	return tree, nil
}

// newerVersion explains a failed read of a document whose key names a
// version newer than newest: a newer writer's document need not parse
// here, and its reader should say it is newer, not malformed. It returns
// err otherwise.
func newerVersion(what, key string, data []byte, newest int, err error) error {
	if v, ok := wire.VersionOf(data, key); ok && v > newest {
		return fmt.Errorf("privtree: %s version %d is newer than this node reads; upgrade it", what, v)
	}
	return err
}

// readSpatialV1 decodes a version-1 payload document, whose other
// members readSpatialPayload has read: a second pass over the bytes fills
// a wire-node table from the "root" members, then one walk of that table
// validates every node and lays the arena out depth first, each node's
// children as one block — the layout the builder gives a fresh build.
func readSpatialV1(data []byte, fanout int) (*core.Tree, error) {
	r := wire.NewReader(data)
	t := newTreeReader(r, "lo", "hi", "count")
	err := r.Object(func(key []byte) error {
		if string(key) == "root" {
			return t.node(0)
		}
		return r.Skip()
	})
	if err != nil {
		return nil, err
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
	hint := min(len(t.nodes), len(data)/(4*len(rootRegion.Lo))+1)
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
