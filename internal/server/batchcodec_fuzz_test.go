package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// FuzzQueryBodyDecode holds the query plane's reader to json.Unmarshal
// into the struct the body describes: the same accept/reject decision,
// the same rows with every coordinate compared by its bits, and nil told
// apart from empty. The only differences allowed are the plane's
// documented stricter rules, checked explicitly by queryBodyIsStricter.
func FuzzQueryBodyDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`, `null`, `{"queries":null}`, `{"queries":[]}`, `{"strings":[[]]}`,
		`{"queries":[[0.1,0.2,0.30000000000000004,1e-7]],"strings":[[0,1],[2]]}`,
		`{"queries":[[1,2],[3]],"queries":[[4]]}`, `{"queries":[[1]],"queries":null}`,
		`{"queries":[[1,2]]}`, `{"Queries":[[1]]}`, `{"queries":[[1]],"extra":{"a":[1]}}`,
		`{"queries":[null]}`, `{"queries":[[null]]}`, `{"strings":[[2147483648]]}`,
		`{"strings":[[-2147483647]]}`, `{"strings":[[1.5]]}`, `{"queries":[[1e400]]}`,
		`{"queries":[[-0,5e-324]]} `, `{"queries":[[1]]} x`, `{"queries":[[01]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var want struct {
			Queries [][]float64
			Strings [][]int
		}
		wantErr := json.Unmarshal(doc, &want)
		var sc queryScratch
		got, gotErr := parseQueryBody(doc, &sc, 1<<20)
		switch {
		case wantErr != nil && gotErr != nil:
			return
		case wantErr != nil:
			t.Fatalf("reader accepted what encoding/json rejects (%v): %q", wantErr, doc)
		case gotErr != nil:
			if !queryBodyIsStricter(doc) {
				t.Fatalf("reader rejected a body encoding/json accepts and no stricter rule covers (%v): %q", gotErr, doc)
			}
			return
		}
		if got.hasQueries != (want.Queries != nil) || got.hasStrings != (want.Strings != nil) {
			t.Fatalf("presence %+v, encoding/json has queries %v strings %v: %q", got, want.Queries != nil, want.Strings != nil, doc)
		}
		if got.hasQueries {
			if err := sameColumns(sc.flat, sc.offs, want.Queries); err != "" {
				t.Fatalf("queries: %s: %q", err, doc)
			}
		}
		if got.hasStrings {
			if err := sameColumns(sc.syms, sc.soffs, want.Strings); err != "" {
				t.Fatalf("strings: %s: %q", err, doc)
			}
		}
	})
}

// sameColumns compares decoded columns with encoding/json's rows, floats
// by their bits.
func sameColumns[E float64 | int](flat []E, offs []int32, rows [][]E) string {
	if len(offs)-1 != len(rows) {
		return "row count " + strconv.Itoa(len(offs)-1) + ", want " + strconv.Itoa(len(rows))
	}
	for i, row := range rows {
		got := flat[offs[i]:offs[i+1]]
		if len(got) != len(row) {
			return "row " + strconv.Itoa(i) + " length differs"
		}
		for j := range row {
			x, y := any(got[j]), any(row[j])
			if fx, ok := x.(float64); ok {
				x, y = math.Float64bits(fx), math.Float64bits(y.(float64))
			}
			if x != y {
				return "row " + strconv.Itoa(i) + " value " + strconv.Itoa(j) + " differs"
			}
		}
	}
	return ""
}

// queryBodyIsStricter reports whether doc, a body json.Unmarshal accepts,
// breaks one of the query plane's stricter rules: the body is null, a key
// is not exactly "queries" or "strings" (after unescaping), a row or a
// number is null, or a symbol exceeds MaxInt32 in magnitude.
func queryBodyIsStricter(doc []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok == nil {
		return true
	}
	for dec.More() {
		tok, _ := dec.Token()
		key, _ := tok.(string)
		if key != "queries" && key != "strings" {
			return true
		}
		if tok, _ := dec.Token(); tok == nil {
			continue // a null rows array means absent
		}
		for dec.More() {
			if tok, _ := dec.Token(); tok == nil {
				return true
			}
			for dec.More() {
				tok, _ := dec.Token()
				if tok == nil {
					return true
				}
				if n, err := strconv.ParseInt(string(tok.(json.Number)), 10, 64); key == "strings" &&
					(err != nil || n > math.MaxInt32 || n < -math.MaxInt32) {
					return true
				}
			}
			_, _ = dec.Token() // ']' of the row
		}
		_, _ = dec.Token() // ']' of the rows array
	}
	return false
}
