package server

import (
	"bytes"
	"encoding/json"
	"math"

	"privtree/internal/wire"
)

// The registration reader: one pass over a POST /v1/datasets body, a
// version-1 dataset.json or the header line of a version-2 one (see
// persist.go) with internal/wire's reader, instead of encoding/json's
// reflection (which, on a registration carrying a million inline points,
// was most of a restart). The document is read in place, without a copy.
// The rules, all kept here:
//
//   - points and sequences are read by readRows into one fresh slab per
//     array, and the rows alias it. The slab is never pooled: the dataset
//     keeps the rows.
//   - every other field (the scalars, domain, synthetic, stream,
//     created_at and a version-2 header's rows) is small and is decoded
//     from its raw span by encoding/json, so the struct tags stay the one
//     definition of those forms.
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
// dataset.json is written in version 2, whose rows are binary, so on a
// restart this reader only sees a header, or a version-1 file written
// before version 2 existed.

// decodeDatasetFile reads a version-1 dataset.json or a version-2 header.
func decodeDatasetFile(doc []byte) (persistedDataset, error) {
	var pd persistedDataset
	r := wire.NewReader(doc)
	err := r.Object(func(key []byte) error {
		switch string(key) {
		case "privtreed_dataset":
			return jsonField(r, &pd.Version)
		case "created_at":
			return jsonField(r, &pd.CreatedAt)
		case "request":
			return r.Object(requestField(r, &pd.Request))
		case "rows":
			return jsonField(r, &pd.Rows)
		}
		return unknownField(key)
	})
	if err == nil {
		err = r.End()
	}
	return pd, err
}

// decodeRegisterRequest reads a POST /v1/datasets body.
func decodeRegisterRequest(body []byte) (registerRequest, error) {
	var req registerRequest
	r := wire.NewReader(body)
	err := r.Object(requestField(r, &req))
	if err == nil {
		err = r.End()
	}
	return req, err
}

// requestField returns the field reader of a registerRequest object.
func requestField(r *wire.Reader, req *registerRequest) func([]byte) error {
	return func(key []byte) error {
		switch string(key) {
		case "name":
			return jsonField(r, &req.Name)
		case "kind":
			return jsonField(r, &req.Kind)
		case "epsilon":
			return jsonField(r, &req.Epsilon)
		case "domain":
			return jsonField(r, &req.Domain)
		case "csv":
			return jsonField(r, &req.CSV)
		case "points":
			return rowsField(r, &req.Points, r.Float)
		case "synthetic":
			return jsonField(r, &req.Synthetic)
		case "alphabet":
			return jsonField(r, &req.Alphabet)
		case "sequences":
			return rowsField(r, &req.Sequences, r.Int)
		case "stream":
			return jsonField(r, &req.Stream)
		}
		return unknownField(key)
	}
}

// jsonField decodes the value at the reader with encoding/json, unknown
// fields rejected.
func jsonField(r *wire.Reader, dst any) error {
	span, err := r.Raw()
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(span))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// rowsField reads a points or sequences array into one fresh slab, sized
// by arrayShape so that it never grows; num reads one number.
func rowsField[R ~[]E, E float64 | int](r *wire.Reader, dst *[]R, num func() (E, bool, error)) error {
	if null, err := r.Null(); null || err != nil {
		if null {
			*dst = nil
		}
		return err
	}
	commas, opens := arrayShape(r.Rest())
	slab := make([]E, 0, commas+1)
	offs := make([]int32, 0, opens+1)
	var nulls rowNulls
	if _, err := readRows(r, &slab, &offs, math.MaxInt32, &nulls, num); err != nil {
		return err
	}
	*dst = slabRows(slab, offs, nulls, *dst)
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
// at the start of b, up to its closing bracket. A row array holds at most
// one number more than it has commas, and fewer rows than brackets. The
// scan stops at the array's end, so repeated keys cost no more than their
// own bytes; anything that is not an array counts as empty.
func arrayShape(b []byte) (commas, opens int) {
	depth := 0
	for _, c := range b {
		switch c {
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
