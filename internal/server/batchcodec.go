package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"privtree/internal/geom"
)

// This file is the allocation-lean codec of the batched query plane. The
// stock encoding/json path costs ~3 heap allocations per query (one slice
// header per decoded row plus encoder internals), which dominated the
// serving profile at 10k-query batches. Here the request body is read into
// a pooled buffer, converted to a string ONCE (so number literals are
// zero-copy substrings fed straight to strconv, keeping stdlib parsing
// semantics bit-for-bit), decoded into pooled flat column buffers with
// (offset) row headers — the same columnar discipline the sequence corpus
// uses — and the response is rendered into a pooled byte buffer with the
// exact float formatting rules of encoding/json. Steady-state cost: O(1)
// allocations per BATCH instead of O(1) per query.

// maxPooledScratchBytes caps how much buffer capacity a queryScratch may
// carry back into the pool: a rare giant batch (bodies can reach
// MaxBodyBytes) should not pin hundreds of MB behind ordinary traffic.
// The default 10k-query batch retains ~2 MB, comfortably under the cap.
const maxPooledScratchBytes = 32 << 20

// queryScratch is the reusable per-request working set of handleQuery. All
// buffers are grown on demand and retained across requests via sync.Pool.
type queryScratch struct {
	body   []byte    // raw request body
	flat   []float64 // rectangle coordinates, row-major
	offs   []int32   // row boundaries into flat (len rows+1)
	syms   []int     // string symbols
	soffs  []int32   // row boundaries into syms (len rows+1)
	rects  []geom.Rect
	counts []float64
	out    []byte // response buffer
}

// retainedBytes estimates the capacity a scratch would pin in the pool.
func (sc *queryScratch) retainedBytes() int {
	return cap(sc.body) + cap(sc.out) +
		8*(cap(sc.flat)+cap(sc.counts)+cap(sc.syms)) +
		4*(cap(sc.offs)+cap(sc.soffs)) +
		48*cap(sc.rects)
}

// readBody drains r into buf (reusing its capacity), translating the
// MaxBytesReader limit error for the caller.
func readBody(r *http.Request, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errBatchTooLarge distinguishes a row-count overflow (HTTP 413) from a
// malformed document (HTTP 400).
var errBatchTooLarge = errors.New("batch exceeds the row limit")

// queryBatch is the decoded form of a query request: float rows (spatial)
// and/or int rows (sequence), columnar. A nil JSON value or an absent key
// leaves the corresponding present flag false, mirroring encoding/json's
// treatment of null into a slice.
type queryBatch struct {
	hasQueries bool
	hasStrings bool
}

// parseQueryBody decodes {"queries": [[...],...]} / {"strings": [[...],...]}
// into sc's pooled buffers. Unknown fields are rejected (a misspelled field
// silently ignored would surprise exactly like a misspelled release knob),
// and more than maxRows rows in either array aborts with errBatchTooLarge
// before buffering an unbounded batch.
func parseQueryBody(s string, sc *queryScratch, maxRows int) (queryBatch, error) {
	p := parser{s: s}
	var out queryBatch
	p.ws()
	if !p.eat('{') {
		return out, p.fail("expected an object")
	}
	p.ws()
	if p.eat('}') {
		return out, nil
	}
	for {
		key, err := p.key()
		if err != nil {
			return out, err
		}
		p.ws()
		if !p.eat(':') {
			return out, p.fail("expected ':' after field name")
		}
		switch key {
		case "queries":
			present, err := p.floatRows(&sc.flat, &sc.offs, maxRows, nil)
			if err != nil {
				return out, err
			}
			out.hasQueries = present
		case "strings":
			present, err := p.intRows(&sc.syms, &sc.soffs, maxRows, nil)
			if err != nil {
				return out, err
			}
			out.hasStrings = present
		default:
			return out, fmt.Errorf("unknown field %q", key)
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if p.eat('}') {
			return out, nil
		}
		return out, p.fail("expected ',' or '}' in object")
	}
}

// parser is a minimal JSON reader specialized to the query envelope. It
// never allocates: tokens are substrings of the input.
type parser struct {
	s string
	i int
}

func (p *parser) fail(msg string) error {
	return fmt.Errorf("%s at offset %d", msg, p.i)
}

func (p *parser) ws() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *parser) eat(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key reads an object key. Escape sequences are tolerated for scanning (the
// only accepted keys contain none, so an escaped key simply fails the
// field-name match).
func (p *parser) key() (string, error) {
	p.ws()
	if !p.eat('"') {
		return "", p.fail("expected a field name")
	}
	start := p.i
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case '\\':
			p.i += 2
		case '"':
			k := p.s[start:p.i]
			p.i++
			return k, nil
		default:
			p.i++
		}
	}
	return "", p.fail("unterminated field name")
}

// null consumes the literal null if present.
func (p *parser) null() bool {
	if len(p.s)-p.i >= 4 && p.s[p.i:p.i+4] == "null" {
		p.i += 4
		return true
	}
	return false
}

// rowNulls records where a registration's row array held null: rows by
// their index, numbers by their index in the slab.
type rowNulls struct{ rows, elems []int32 }

// floatRows parses [[numbers...],...] into *flat, the numbers of every
// row, and *offs, the row boundaries (len rows+1). With nulls nil, a null
// row or number is a syntax error, as the query and ingest planes want.
// With nulls non-nil the registration reader's encoding/json rules apply
// instead: a null row is recorded (with an empty span in *offs), a null
// number is recorded and reads as 0, and intRows reads symbols as
// encoding/json reads an int.
func (p *parser) floatRows(flat *[]float64, offs *[]int32, maxRows int, nulls *rowNulls) (bool, error) {
	p.ws()
	if p.null() {
		return false, nil
	}
	if !p.eat('[') {
		return false, p.fail("expected an array of rows")
	}
	*flat = (*flat)[:0]
	*offs = append((*offs)[:0], 0)
	p.ws()
	if p.eat(']') {
		return true, nil
	}
	for {
		if len(*offs) > maxRows {
			return false, errBatchTooLarge
		}
		p.ws()
		switch {
		case nulls != nil && p.null():
			nulls.rows = append(nulls.rows, int32(len(*offs)-1))
		case !p.eat('['):
			return false, p.fail("expected a row")
		default:
			p.ws()
			if !p.eat(']') {
				for {
					p.ws()
					var v float64
					if nulls != nil && p.null() {
						nulls.elems = append(nulls.elems, int32(len(*flat)))
					} else {
						var err error
						if v, err = p.number(); err != nil {
							return false, err
						}
					}
					*flat = append(*flat, v)
					p.ws()
					if p.eat(',') {
						continue
					}
					if p.eat(']') {
						break
					}
					return false, p.fail("expected ',' or ']' in row")
				}
			}
			if len(*flat) > math.MaxInt32 {
				return false, p.fail("too many numbers")
			}
		}
		*offs = append(*offs, int32(len(*flat)))
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return true, nil
		}
		return false, p.fail("expected ',' or ']' after row")
	}
}

// intRows is floatRows for rows of integers (symbol strings): on the
// query and ingest planes each is at most MaxInt32 in magnitude.
func (p *parser) intRows(syms *[]int, offs *[]int32, maxRows int, nulls *rowNulls) (bool, error) {
	p.ws()
	if p.null() {
		return false, nil
	}
	if !p.eat('[') {
		return false, p.fail("expected an array of symbol rows")
	}
	*syms = (*syms)[:0]
	*offs = append((*offs)[:0], 0)
	p.ws()
	if p.eat(']') {
		return true, nil
	}
	for {
		if len(*offs) > maxRows {
			return false, errBatchTooLarge
		}
		p.ws()
		switch {
		case nulls != nil && p.null():
			nulls.rows = append(nulls.rows, int32(len(*offs)-1))
		case !p.eat('['):
			return false, p.fail("expected a symbol row")
		default:
			p.ws()
			if !p.eat(']') {
				for {
					p.ws()
					var v int
					var err error
					switch {
					case nulls == nil:
						v, err = p.integer()
					case p.null():
						nulls.elems = append(nulls.elems, int32(len(*syms)))
					default:
						v, err = p.jsonInt()
					}
					if err != nil {
						return false, err
					}
					*syms = append(*syms, v)
					p.ws()
					if p.eat(',') {
						continue
					}
					if p.eat(']') {
						break
					}
					return false, p.fail("expected ',' or ']' in symbol row")
				}
			}
			if len(*syms) > math.MaxInt32 {
				return false, p.fail("too many symbols")
			}
		}
		*offs = append(*offs, int32(len(*syms)))
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return true, nil
		}
		return false, p.fail("expected ',' or ']' after symbol row")
	}
}

// literal validates the JSON number grammar and returns the literal, a
// substring of the input (no allocation).
func (p *parser) literal() (string, error) {
	start := p.i
	s := p.s
	if p.i < len(s) && s[p.i] == '-' {
		p.i++
	}
	switch {
	case p.i < len(s) && s[p.i] == '0':
		p.i++
	case p.i < len(s) && s[p.i] >= '1' && s[p.i] <= '9':
		for p.i < len(s) && s[p.i] >= '0' && s[p.i] <= '9' {
			p.i++
		}
	default:
		return "", p.fail("expected a number")
	}
	if p.i < len(s) && s[p.i] == '.' {
		p.i++
		if p.i >= len(s) || s[p.i] < '0' || s[p.i] > '9' {
			return "", p.fail("malformed number fraction")
		}
		for p.i < len(s) && s[p.i] >= '0' && s[p.i] <= '9' {
			p.i++
		}
	}
	if p.i < len(s) && (s[p.i] == 'e' || s[p.i] == 'E') {
		p.i++
		if p.i < len(s) && (s[p.i] == '+' || s[p.i] == '-') {
			p.i++
		}
		if p.i >= len(s) || s[p.i] < '0' || s[p.i] > '9' {
			return "", p.fail("malformed number exponent")
		}
		for p.i < len(s) && s[p.i] >= '0' && s[p.i] <= '9' {
			p.i++
		}
	}
	return s[start:p.i], nil
}

// number hands the exact literal to strconv.ParseFloat, so values are
// bit-identical to encoding/json's (which uses the same parser) and the
// same literals are out of range.
func (p *parser) number() (float64, error) {
	lit, err := p.literal()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", lit)
	}
	return v, nil
}

// integer parses a JSON integer literal (symbols may not be fractional;
// leading zeros are invalid JSON, exactly as in number()).
func (p *parser) integer() (int, error) {
	s := p.s
	neg := false
	if p.i < len(s) && s[p.i] == '-' {
		neg = true
		p.i++
	}
	start := p.i
	v := 0
	for p.i < len(s) && s[p.i] >= '0' && s[p.i] <= '9' {
		v = v*10 + int(s[p.i]-'0')
		if v > math.MaxInt32 {
			return 0, p.fail("symbol out of range")
		}
		p.i++
	}
	if p.i == start {
		return 0, p.fail("expected an integer symbol")
	}
	if p.i-start > 1 && s[start] == '0' {
		return 0, p.fail("leading zero in symbol")
	}
	if p.i < len(s) && (s[p.i] == '.' || s[p.i] == 'e' || s[p.i] == 'E') {
		return 0, p.fail("symbols must be integers")
	}
	if neg {
		v = -v
	}
	return v, nil
}

// jsonInt reads a JSON number into an int as encoding/json does: through
// strconv.ParseInt, so a fraction, an exponent or an out-of-range literal
// is an error.
func (p *parser) jsonInt() (int, error) {
	lit, err := p.literal()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(lit, 10, 0)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", lit)
	}
	return int(v), nil
}

// buildRects validates the decoded float rows against a d-dimensional
// domain and materializes them as rectangles aliasing the flat buffer —
// zero copies, zero per-row allocations. Errors carry the offending row.
func buildRects(sc *queryScratch, d int) error {
	rows := len(sc.offs) - 1
	if cap(sc.rects) < rows {
		sc.rects = make([]geom.Rect, rows)
	}
	sc.rects = sc.rects[:rows]
	for i := 0; i < rows; i++ {
		a, b := int(sc.offs[i]), int(sc.offs[i+1])
		if b-a != 2*d {
			return fmt.Errorf("query %d has %d coordinates, want %d (lo..., hi...)", i, b-a, 2*d)
		}
		lo := sc.flat[a : a+d : a+d]
		hi := sc.flat[a+d : b : b]
		r, err := geom.MakeRect(lo, hi)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		sc.rects[i] = r
	}
	return nil
}

// checkSyms validates the decoded symbol rows against an alphabet.
func checkSyms(sc *queryScratch, alphabet int) error {
	for i := 0; i+1 < len(sc.soffs); i++ {
		for _, x := range sc.syms[sc.soffs[i]:sc.soffs[i+1]] {
			if x < 0 || x >= alphabet {
				return fmt.Errorf("string %d has symbol %d outside [0,%d)", i, x, alphabet)
			}
		}
	}
	return nil
}

// appendJSONFloat renders f exactly as encoding/json does (shortest
// round-trip form, 'e' notation outside [1e-6, 1e21), exponent zero-pad
// stripped). Non-finite values — unreachable from released artifacts —
// render as null rather than corrupting the document.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendQueryResponse renders the batched-query reply into buf.
func appendQueryResponse(buf []byte, releaseID string, counts []float64, elapsedNS int64) []byte {
	buf = append(buf, `{"release_id":`...)
	buf = strconv.AppendQuote(buf, releaseID)
	buf = append(buf, `,"counts":[`...)
	for i, c := range counts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONFloat(buf, c)
	}
	buf = append(buf, `],"queries":`...)
	buf = strconv.AppendInt(buf, int64(len(counts)), 10)
	buf = append(buf, `,"elapsed_ns":`...)
	buf = strconv.AppendInt(buf, elapsedNS, 10)
	buf = append(buf, '}')
	return buf
}
