package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"privtree"
)

// The registration reader: one pass over a dataset.json document or a
// POST /v1/datasets body with the query plane's parser, instead of
// encoding/json's reflection (which, on a registration carrying a million
// inline points, was most of a restart). The rules:
//
//   - points and sequences are read by floatRows/intRows into one fresh
//     slab per array, and the rows alias it. The slab is never pooled:
//     the dataset keeps the rows.
//   - every other field (the scalars, domain, synthetic, stream and
//     created_at) is small and is decoded from its raw span by
//     encoding/json, so the struct tags stay the one definition of those
//     forms.
//   - keys match exactly (after unescaping) and an unknown key is an
//     error, also inside the sub-objects. encoding/json would also match
//     case variants such as "Points" and skip unknown keys.
//   - a repeated key keeps its last value, and null means absent, as in
//     encoding/json: a repeated sub-object or request merges into the
//     earlier one, a null array or row clears it, and a null number in a
//     row reads as 0 (or, after a repeated key, as the number the earlier
//     occurrence left at that index; see slabRows).
//   - row numbers go through strconv exactly as encoding/json's do, so
//     the same literals are accepted, out of range, or not integers.
//
// The write side stays json.Marshal, so the bytes on disk do not change.

// decodeDatasetFile reads a dataset.json document.
func decodeDatasetFile(doc []byte) (persistedDataset, error) {
	var pd persistedDataset
	p := parser{s: string(doc)}
	err := p.document(func(key string) error {
		switch key {
		case "privtreed_dataset":
			return p.jsonField(&pd.Version)
		case "created_at":
			return p.jsonField(&pd.CreatedAt)
		case "request":
			return p.object(p.requestField(&pd.Request))
		}
		return fmt.Errorf("unknown field %q", key)
	})
	return pd, err
}

// decodeRegisterRequest reads a POST /v1/datasets body.
func decodeRegisterRequest(body []byte) (registerRequest, error) {
	var req registerRequest
	p := parser{s: string(body)}
	err := p.document(p.requestField(&req))
	return req, err
}

// requestField returns the field reader of a registerRequest object.
func (p *parser) requestField(req *registerRequest) func(string) error {
	return func(key string) error {
		switch key {
		case "name":
			return p.jsonField(&req.Name)
		case "kind":
			return p.jsonField(&req.Kind)
		case "epsilon":
			return p.jsonField(&req.Epsilon)
		case "domain":
			return p.jsonField(&req.Domain)
		case "csv":
			return p.jsonField(&req.CSV)
		case "points":
			return p.points(&req.Points)
		case "synthetic":
			return p.jsonField(&req.Synthetic)
		case "alphabet":
			return p.jsonField(&req.Alphabet)
		case "sequences":
			return p.sequences(&req.Sequences)
		case "stream":
			return p.jsonField(&req.Stream)
		}
		return fmt.Errorf("unknown field %q", key)
	}
}

// document reads one whole JSON document: an object (or null) whose
// fields go to field, with nothing but whitespace after it.
func (p *parser) document(field func(string) error) error {
	if err := p.object(field); err != nil {
		return err
	}
	p.ws()
	if p.i != len(p.s) {
		return p.fail("unexpected data after the document")
	}
	return nil
}

// object reads an object, or null, calling field with the parser at each
// value.
func (p *parser) object(field func(string) error) error {
	p.ws()
	if p.null() {
		return nil
	}
	if !p.eat('{') {
		return p.fail("expected an object")
	}
	p.ws()
	if p.eat('}') {
		return nil
	}
	for {
		key, err := p.fieldName()
		if err != nil {
			return err
		}
		p.ws()
		if !p.eat(':') {
			return p.fail("expected ':' after field name")
		}
		p.ws()
		if err := field(key); err != nil {
			return err
		}
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat('}') {
			return nil
		}
		return p.fail("expected ',' or '}' in object")
	}
}

// fieldName reads an object key, unescaping it when it holds escapes.
func (p *parser) fieldName() (string, error) {
	p.ws()
	start := p.i
	key, err := p.key()
	if err != nil || strings.IndexByte(key, '\\') < 0 {
		return key, err
	}
	if err := json.Unmarshal([]byte(p.s[start:p.i]), &key); err != nil {
		return "", fmt.Errorf("bad field name at offset %d: %w", start, err)
	}
	return key, nil
}

// jsonField decodes the value at the parser with encoding/json, unknown
// fields rejected.
func (p *parser) jsonField(dst any) error {
	start := p.i
	if err := p.skipValue(); err != nil {
		return err
	}
	span := p.s[start:p.i]
	dec := json.NewDecoder(strings.NewReader(span))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("at offset %d: %w", start, err)
	}
	if dec.InputOffset() != int64(len(span)) {
		// The span was a literal with junk glued on, such as nullx.
		return fmt.Errorf("at offset %d: malformed value", start)
	}
	return nil
}

// skipValue moves past one JSON value without decoding it. It only has to
// find the value's end: the span is then validated by encoding/json.
func (p *parser) skipValue() error {
	depth := 0
	for p.i < len(p.s) {
		switch c := p.s[p.i]; c {
		case '"':
			p.i++
			for p.i < len(p.s) && p.s[p.i] != '"' {
				if p.s[p.i] == '\\' {
					p.i++
				}
				p.i++
			}
			if p.i >= len(p.s) {
				return p.fail("unterminated string")
			}
			p.i++
		case '{', '[':
			depth++
			p.i++
		case '}', ']':
			if depth == 0 {
				return p.fail("expected a value")
			}
			depth--
			p.i++
		case ' ', '\t', '\n', '\r', ',', ':':
			if depth == 0 {
				return p.fail("expected a value")
			}
			p.i++
		default: // a number or a literal: up to the next delimiter
			for p.i < len(p.s) && strings.IndexByte(" \t\n\r,:]}[{\"", p.s[p.i]) < 0 {
				p.i++
			}
		}
		if depth == 0 {
			return nil
		}
	}
	return p.fail("unterminated value")
}

// points reads the points array into one fresh slab, sized by arrayShape
// so that it never grows.
func (p *parser) points(dst *[]privtree.Point) error {
	if p.null() {
		*dst = nil
		return nil
	}
	commas, opens := arrayShape(p.s[p.i:])
	flat := make([]float64, 0, commas+1)
	offs := make([]int32, 0, opens+1)
	var nulls rowNulls
	if _, err := p.floatRows(&flat, &offs, math.MaxInt32, &nulls); err != nil {
		return err
	}
	*dst = slabRows(flat, offs, nulls, *dst)
	return nil
}

// sequences reads the sequences array into one fresh slab, as points.
func (p *parser) sequences(dst *[]privtree.Sequence) error {
	if p.null() {
		*dst = nil
		return nil
	}
	commas, opens := arrayShape(p.s[p.i:])
	syms := make([]int, 0, commas+1)
	offs := make([]int32, 0, opens+1)
	var nulls rowNulls
	if _, err := p.intRows(&syms, &offs, math.MaxInt32, &nulls); err != nil {
		return err
	}
	*dst = slabRows(syms, offs, nulls, *dst)
	return nil
}

// slabRows cuts the rows out of the slab; a null row is nil. When old
// holds the rows of an earlier occurrence of the same key, the new rows
// are laid over them as encoding/json decodes into an existing slice: a
// null number keeps the value its index held in the old row's backing
// array (0 past its end), and a row or row list that fits that backing
// array is written into it, keeping its tail for a later repetition to
// uncover. [] and null drop that history. Without a repetition the rows
// simply alias the slab.
func slabRows[R ~[]E, E float64 | int](slab []E, offs []int32, nulls rowNulls, old []R) []R {
	n := len(offs) - 1
	if n == 0 {
		return []R{}
	}
	hist := old[:cap(old)]
	var rows []R
	if n <= len(hist) {
		rows = hist[:n]
	} else {
		rows = make([]R, n)
	}
	nullRows, nullElems := nulls.rows, nulls.elems
	for i := range rows {
		if len(nullRows) > 0 && nullRows[0] == int32(i) {
			nullRows = nullRows[1:]
			rows[i] = nil
			continue
		}
		a, b := offs[i], offs[i+1]
		row := slab[a:b:b]
		var h R
		if i < len(hist) {
			h = hist[i][:cap(hist[i])]
		}
		for ; len(nullElems) > 0 && nullElems[0] < b; nullElems = nullElems[1:] {
			if j := int(nullElems[0] - a); j < len(h) {
				row[j] = h[j]
			}
		}
		if len(row) > 0 && len(row) <= len(h) {
			copy(h, row)
			row = h[:len(row)]
		}
		rows[i] = row
	}
	return rows
}

// arrayShape counts the commas and opening brackets of the array of rows
// at the start of s, up to its closing bracket. A row array holds at most
// one number more than it has commas, and fewer rows than brackets. The
// scan stops at the array's end, so repeated keys cost no more than their
// own bytes; anything that is not an array counts as empty.
func arrayShape(s string) (commas, opens int) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',':
			commas++
		case '[':
			opens++
			depth++
		case ']':
			if depth--; depth <= 0 {
				return commas, opens
			}
		default:
			if depth == 0 {
				return 0, 0
			}
		}
	}
	return commas, opens
}
