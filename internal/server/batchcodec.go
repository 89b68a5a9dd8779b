package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"privtree/internal/geom"
	"privtree/internal/wire"
)

// This file is the allocation-lean codec of the batched query plane. The
// stock encoding/json path costs ~3 heap allocations per query (one slice
// header per decoded row plus encoder internals), which dominated the
// serving profile at 10k-query batches. Here the request body is read into
// a pooled buffer and scanned in place by internal/wire's reader (number
// tokens go straight to strconv, keeping stdlib parsing semantics
// bit-for-bit), decoded into pooled flat column buffers with (offset) row
// headers — the same columnar discipline the sequence corpus uses — and
// the response is rendered into a pooled byte buffer by wire.AppendFloat,
// encoding/json's float formatting. Steady-state cost: O(1) allocations
// per BATCH instead of O(1) per query.
//
// The plane's rules live here and in ingest.go, at the call sites: the
// body is one object (not null) with nothing after it, keys match
// exactly after unescaping and an unknown key is an error, a null rows
// array means absent, and a null row or number is an error. The
// registration reader (regcodec.go) shares readRows under its own rules.

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
// before buffering an unbounded batch. The handler passes its pooled body
// buffer, which is read in place; a string body is copied once.
func parseQueryBody[B ~string | ~[]byte](body B, sc *queryScratch, maxRows int) (queryBatch, error) {
	var out queryBatch
	r := wire.NewReader([]byte(body))
	err := strictObject(r, func(key []byte) (err error) {
		switch string(key) {
		case "queries":
			out.hasQueries, err = readRows(r, &sc.flat, &sc.offs, maxRows, nil, r.Float)
		case "strings":
			out.hasStrings, err = readRows(r, &sc.syms, &sc.soffs, maxRows, nil, symbolReader(r))
		default:
			err = unknownField(key)
		}
		return err
	})
	return out, err
}

// strictObject reads a query or ingest body: one object, not null, with
// nothing after it.
func strictObject(r *wire.Reader, field func(key []byte) error) error {
	if r.Peek() != '{' {
		return r.WrongType("an object")
	}
	if err := r.Object(field); err != nil {
		return err
	}
	return r.End()
}

func unknownField(key []byte) error { return fmt.Errorf("unknown field %q", key) }

// symbolReader reads the symbols of a query or ingest body's strings:
// integers of at most MaxInt32 in magnitude.
func symbolReader(r *wire.Reader) func() (int, bool, error) {
	return func() (int, bool, error) {
		v, null, err := r.Int()
		if err == nil && (v > math.MaxInt32 || v < -math.MaxInt32) {
			err = fmt.Errorf("symbol %d out of range", v)
		}
		return v, null, err
	}
}

// rowNulls records where a registration's row array held null: rows by
// their index, numbers by their index in the slab.
type rowNulls struct{ rows, elems []int32 }

// readRows reads an array of number rows into *slab, the numbers of every
// row, and *offs, the row boundaries (len rows+1); num reads one number.
// It reports false for a null array. With nulls nil, a null row or number
// is an error, as the query and ingest planes want. With nulls non-nil
// the registration reader's encoding/json rules apply instead: a null row
// is recorded (with an empty span in *offs), and a null number is
// recorded and reads as 0.
func readRows[E float64 | int](r *wire.Reader, slab *[]E, offs *[]int32, maxRows int, nulls *rowNulls, num func() (E, bool, error)) (bool, error) {
	if null, err := r.Null(); null || err != nil {
		return false, err
	}
	*slab = (*slab)[:0]
	*offs = append((*offs)[:0], 0)
	err := r.Array(func() error {
		if len(*offs) > maxRows {
			return errBatchTooLarge
		}
		if null, err := r.Null(); null || err != nil {
			if null && nulls == nil {
				return r.WrongType("a row")
			}
			if null {
				nulls.rows = append(nulls.rows, int32(len(*offs)-1))
				*offs = append(*offs, int32(len(*slab)))
			}
			return err
		}
		err := r.Array(func() error {
			v, null, err := num()
			if null && nulls == nil {
				return r.WrongType("a number")
			}
			if null {
				nulls.elems = append(nulls.elems, int32(len(*slab)))
			}
			*slab = append(*slab, v)
			return err
		})
		if len(*slab) > math.MaxInt32 {
			return errors.New("too many numbers")
		}
		*offs = append(*offs, int32(len(*slab)))
		return err
	})
	return err == nil, err
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

// appendQueryResponse renders the batched-query reply into buf. A
// non-finite count — unreachable from released artifacts — renders as
// null rather than corrupting the document.
func appendQueryResponse(buf []byte, releaseID string, counts []float64, elapsedNS int64) []byte {
	buf = append(buf, `{"release_id":`...)
	buf = strconv.AppendQuote(buf, releaseID)
	buf = append(buf, `,"counts":[`...)
	for i, c := range counts {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		if buf, err = wire.AppendFloat(buf, c); err != nil {
			buf = append(buf, "null"...)
		}
	}
	buf = append(buf, `],"queries":`...)
	buf = strconv.AppendInt(buf, int64(len(counts)), 10)
	buf = append(buf, `,"elapsed_ns":`...)
	buf = strconv.AppendInt(buf, elapsedNS, 10)
	buf = append(buf, '}')
	return buf
}
