package privtree

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// This file is the artifact codec's JSON layer: a byte-level reader and
// the float writer shared by the spatial and sequence payloads and the
// release envelope. The wire format is plain JSON, and the bytes written
// are exactly those encoding/json writes for the same document (the
// golden files under testdata/ pin them), but neither direction goes
// through reflection: the writer appends straight from the flat arenas,
// and the reader walks the document once, filling a flat node table.
//
// The reader accepts exactly what encoding/json accepts and decodes it to
// the same values — any whitespace and key order, unknown keys skipped,
// duplicate keys resolved the way encoding/json resolves them, null
// leaving a value untouched, nesting capped at 10,000 levels, nothing
// after the document — with one deliberate exception: keys match only
// in their exact case ("LO" is an unknown key, not "lo").

// maxWireDepth is encoding/json's nesting limit, which the reader keeps so
// both reject the same documents.
const maxWireDepth = 10000

// wireReader is a cursor over one JSON document.
type wireReader struct {
	data  []byte
	pos   int
	depth int
}

func (r *wireReader) syntaxErr(msg string) error {
	if r.pos >= len(r.data) {
		msg = "unexpected end of input"
	}
	return fmt.Errorf("privtree: malformed JSON at offset %d: %s", r.pos, msg)
}

// peek skips whitespace and returns the next byte, 0 at the end of input.
func (r *wireReader) peek() byte {
	for r.pos < len(r.data) {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return c
		}
	}
	return 0
}

// end checks that only whitespace follows the document.
func (r *wireReader) end() error {
	if r.peek() != 0 {
		return r.syntaxErr("data after the top-level value")
	}
	return nil
}

// open consumes the '{' or '[' at the cursor.
func (r *wireReader) open() error {
	if r.depth++; r.depth > maxWireDepth {
		return r.syntaxErr("exceeded max nesting depth")
	}
	r.pos++
	return nil
}

// next advances past the separator before an object member or array
// element, and reports false (consuming the closing byte) at the end of
// the container. first marks the first call for a container.
func (r *wireReader) next(first bool, closer byte) (bool, error) {
	c := r.peek()
	if c == closer {
		r.pos++
		r.depth--
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, r.syntaxErr("expected ',' or '" + string(closer) + "'")
		}
		r.pos++
	}
	return true, nil
}

// member reads the next key of the object at the cursor and the colon
// after it, leaving the cursor at the value; ok is false at the closing
// brace.
func (r *wireReader) member(first bool) (key []byte, ok bool, err error) {
	if ok, err = r.next(first, '}'); !ok || err != nil {
		return nil, false, err
	}
	if r.peek() != '"' {
		return nil, false, r.syntaxErr("expected a string key")
	}
	if key, err = r.str(); err != nil {
		return nil, false, err
	}
	if r.peek() != ':' {
		return nil, false, r.syntaxErr("expected ':' after a key")
	}
	r.pos++
	return key, true, nil
}

// str reads the string at the cursor and returns its decoded bytes. The
// common case — printable ASCII without escapes — aliases the input;
// anything else is decoded by encoding/json itself, so escapes, surrogate
// pairs, and invalid UTF-8 come out exactly as it decodes them.
func (r *wireReader) str() ([]byte, error) {
	start := r.pos
	r.pos++ // opening quote
	plain := true
	for r.pos < len(r.data) {
		c := r.data[r.pos]
		switch {
		case c == '"':
			r.pos++
			if plain {
				return r.data[start+1 : r.pos-1], nil
			}
			var s string
			if err := json.Unmarshal(r.data[start:r.pos], &s); err != nil {
				return nil, err
			}
			return []byte(s), nil
		case c < 0x20:
			return nil, r.syntaxErr("control character in string")
		case c == '\\':
			plain = false
			r.pos++
			if r.pos >= len(r.data) {
				return nil, r.syntaxErr("")
			}
			switch r.data[r.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				r.pos++
			case 'u':
				r.pos++
				for i := 0; i < 4; i++ {
					if r.pos >= len(r.data) || !isHex(r.data[r.pos]) {
						return nil, r.syntaxErr("invalid \\u escape")
					}
					r.pos++
				}
			default:
				return nil, r.syntaxErr("invalid escape in string")
			}
		default:
			if c >= 0x80 {
				plain = false
			}
			r.pos++
		}
	}
	return nil, r.syntaxErr("")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number reads the number at the cursor and returns its token, enforcing
// JSON's grammar (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) before
// strconv sees it: strconv would also take "+1", ".5", "NaN", "Inf", and
// hex floats.
func (r *wireReader) number() ([]byte, error) {
	d, i, start := r.data, r.pos, r.pos
	digits := func() {
		for i < len(d) && isDigit(d[i]) {
			i++
		}
	}
	fail := func() ([]byte, error) {
		r.pos = i
		return nil, r.syntaxErr("invalid number")
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i >= len(d) || !isDigit(d[i]) || d[i] == '0' && i+1 < len(d) && isDigit(d[i+1]) {
		return fail()
	}
	digits()
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || !isDigit(d[i]) {
			return fail()
		}
		digits()
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			return fail()
		}
		digits()
	}
	r.pos = i
	return d[start:i], nil
}

// literal consumes the keyword at the cursor (true, false, or null).
func (r *wireReader) literal(word string) error {
	if len(r.data)-r.pos < len(word) || string(r.data[r.pos:r.pos+len(word)]) != word {
		return r.syntaxErr("invalid literal")
	}
	r.pos += len(word)
	return nil
}

// null consumes a null at the cursor and reports whether there was one.
// A value of another type is left for the caller.
func (r *wireReader) null() (bool, error) {
	if r.peek() != 'n' {
		return false, nil
	}
	return true, r.literal("null")
}

// wrongType reports a value at the cursor that is not of the wanted type.
func (r *wireReader) wrongType(want string) error {
	return fmt.Errorf("privtree: expected %s at offset %d", want, r.pos)
}

// float reads a number (or null, reported as null=true) the way
// encoding/json stores one into a float64: strconv.ParseFloat on the
// grammar-checked token, out-of-range values rejected.
func (r *wireReader) float() (v float64, null bool, err error) {
	switch c := r.peek(); {
	case c == '-' || isDigit(c):
		tok, err := r.number()
		if err != nil {
			return 0, false, err
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return 0, false, fmt.Errorf("privtree: number %s out of range", tok)
		}
		return v, false, nil
	case c == 'n':
		return 0, true, r.literal("null")
	default:
		return 0, false, r.wrongType("a number")
	}
}

// intInto stores an integer into *dst as encoding/json stores one into an
// int: a fraction or exponent is a type error, and null leaves *dst as it
// was.
func (r *wireReader) intInto(dst *int) error {
	switch c := r.peek(); {
	case c == '-' || isDigit(c):
		tok, err := r.number()
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(string(tok), 10, 0)
		if err != nil {
			return fmt.Errorf("privtree: %s is not an integer in range", tok)
		}
		*dst = int(v)
		return nil
	case c == 'n':
		return r.literal("null")
	default:
		return r.wrongType("an integer")
	}
}

// stringInto stores a string into *dst; null leaves *dst as it was.
func (r *wireReader) stringInto(dst *string) error {
	switch r.peek() {
	case '"':
		s, err := r.str()
		if err == nil {
			*dst = string(s)
		}
		return err
	case 'n':
		return r.literal("null")
	default:
		return r.wrongType("a string")
	}
}

// optionalInt type-checks an integer destined for an *int field and
// records whether the field ends up set (null sets it to nil).
func (r *wireReader) optionalInt(set *bool) error {
	if null, err := r.null(); null || err != nil {
		*set = false
		return err
	}
	var v int
	*set = true
	return r.intInto(&v)
}

// skip consumes one value of any type, checking its syntax.
func (r *wireReader) skip() error {
	switch c := r.peek(); {
	case c == '{':
		return r.fields(func([]byte) error { return r.skip() })
	case c == '[':
		return r.elements(r.skip)
	case c == '"':
		_, err := r.str()
		return err
	case c == '-' || isDigit(c):
		_, err := r.number()
		return err
	case c == 't':
		return r.literal("true")
	case c == 'f':
		return r.literal("false")
	case c == 'n':
		return r.literal("null")
	default:
		return r.syntaxErr("invalid character looking for a value")
	}
}

// fields walks the object at the cursor, handing each key to field,
// which must consume the value. null counts as an empty object —
// decoding null into a struct changes nothing — and any other type is
// an error.
func (r *wireReader) fields(field func(key []byte) error) error {
	switch r.peek() {
	case '{':
		if err := r.open(); err != nil {
			return err
		}
	case 'n':
		return r.literal("null")
	default:
		return r.wrongType("an object")
	}
	for first := true; ; first = false {
		key, ok, err := r.member(first)
		if err != nil || !ok {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
	}
}

// elements walks the array at the cursor, calling elem for each element,
// which must consume it.
func (r *wireReader) elements(elem func() error) error {
	if err := r.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		ok, err := r.next(first, ']')
		if err != nil || !ok {
			return err
		}
		if err := elem(); err != nil {
			return err
		}
	}
}

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
	r                    *wireReader
	keyA, keyB, keyCount string
	nodes                []wireNode
	slab                 []float64 // free tail of the current float slab
	scratch              []float64
	floatsRead           int
}

func newTreeReader(r *wireReader, keyA, keyB, keyCount string) *treeReader {
	// A wire node costs at least a few dozen bytes, so this bounds the
	// table's growth without over-reserving for small documents.
	hint := (len(r.data)-r.pos)/48 + 1
	t := &treeReader{r: r, keyA: keyA, keyB: keyB, keyCount: keyCount, nodes: make([]wireNode, 1, hint)}
	t.nodes[0].count = math.NaN()
	return t
}

// node decodes the value at the cursor into node i: an object overlays
// the keys it carries, null changes nothing.
func (t *treeReader) node(i int32) error {
	return t.r.fields(func(key []byte) (err error) {
		switch k := string(key); {
		case k == "children":
			return t.children(i)
		case k == t.keyA:
			t.nodes[i].a, err = t.floats(t.nodes[i].a)
		case k == t.keyB && k != "":
			t.nodes[i].b, err = t.floats(t.nodes[i].b)
		case k == t.keyCount && k != "":
			v, null, err := t.r.float()
			if null {
				v = math.NaN()
			}
			t.nodes[i].count = v
			return err
		default:
			return t.r.skip()
		}
		return err
	})
}

// children decodes a "children" value into node i's chain.
func (t *treeReader) children(i int32) error {
	if null, err := t.r.null(); null || err != nil {
		t.nodes[i].first, t.nodes[i].n = 0, 0
		return err
	}
	if t.r.peek() != '[' {
		return t.r.wrongType("an array")
	}
	prev, cur, n := int32(0), t.nodes[i].first, int32(0)
	err := t.r.elements(func() error {
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
	if null, err := t.r.null(); null || err != nil {
		return nil, err
	}
	if t.r.peek() != '[' {
		return nil, t.r.wrongType("an array")
	}
	hist = hist[:cap(hist)]
	vals := t.scratch[:0]
	err := t.r.elements(func() error {
		v, null, err := t.r.float()
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

// appendWireFloat appends f exactly as encoding/json encodes a float64:
// shortest round-trip digits, in 'e' notation outside [1e-6, 1e21) with
// a single-digit negative exponent written e-7, not e-07. NaN and ±Inf
// have no JSON form and fail with encoding/json's error.
func appendWireFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendWireFloats appends a float array; nil encodes as null, as
// encoding/json encodes a nil slice.
func appendWireFloats(b []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendWireFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}
