// Package wire is the one JSON reader and the one float writer behind
// privtree's hand-written codecs: the release envelope and its spatial
// and sequence payloads (package privtree), and privtreed's query, ingest
// and registration bodies (internal/server). Neither direction uses
// reflection.
//
// The Reader walks one document held in a []byte, the caller's own
// buffer, which it never copies. It reads the JSON grammar exactly as
// encoding/json does: the same number grammar (checked before strconv,
// which would also take "+1", ".5", "NaN" or hex floats), the same string
// decoding, the same 10,000-level nesting limit, and nothing but
// whitespace after the document. Everything a document means is left to
// the caller, so each plane keeps its own rules at its own call site:
// which keys exist and what an unknown key does, where null is allowed,
// and what a repeated key means. Keys are handed over unescaped, so a
// caller matching them exactly matches "queries" as "queries".
//
// AppendFloat writes a float64 exactly as encoding/json does.
package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// MaxDepth is encoding/json's nesting limit, which the reader keeps so
// both reject the same documents.
const MaxDepth = 10000

// Reader is a cursor over one JSON document.
type Reader struct {
	data  []byte
	pos   int
	depth int
}

// NewReader returns a Reader at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

func (r *Reader) syntaxErr(msg string) error {
	if r.pos >= len(r.data) {
		msg = "unexpected end of input"
	}
	return fmt.Errorf("malformed JSON at offset %d: %s", r.pos, msg)
}

// WrongType reports a value at the cursor that is not of the wanted type.
func (r *Reader) WrongType(want string) error {
	return fmt.Errorf("expected %s at offset %d", want, r.pos)
}

// Peek skips whitespace and returns the next byte, 0 at the end of input.
func (r *Reader) Peek() byte {
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

// Rest returns the bytes not yet read.
func (r *Reader) Rest() []byte { return r.data[r.pos:] }

// End checks that only whitespace follows the document. (Peek's 0 is
// also a NUL byte in the input, so the position decides.)
func (r *Reader) End() error {
	if r.Peek(); r.pos < len(r.data) {
		return r.syntaxErr("data after the top-level value")
	}
	return nil
}

// open consumes the '{' or '[' at the cursor.
func (r *Reader) open() error {
	if r.depth++; r.depth > MaxDepth {
		return r.syntaxErr("exceeded max nesting depth")
	}
	r.pos++
	return nil
}

// next advances past the separator before an object member or array
// element, and reports false (consuming the closing byte) at the end of
// the container. first marks the first call for a container.
func (r *Reader) next(first bool, closer byte) (bool, error) {
	c := r.Peek()
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

// Object walks the object at the cursor, handing each unescaped key to
// field, which must consume the value. null counts as an empty object —
// decoding null into a struct changes nothing — and any other type is an
// error; a caller that refuses null checks Peek first.
func (r *Reader) Object(field func(key []byte) error) error {
	switch r.Peek() {
	case '{':
		if err := r.open(); err != nil {
			return err
		}
	case 'n':
		return r.literal("null")
	default:
		return r.WrongType("an object")
	}
	for first := true; ; first = false {
		if ok, err := r.next(first, '}'); !ok || err != nil {
			return err
		}
		if r.Peek() != '"' {
			return r.syntaxErr("expected a string key")
		}
		key, err := r.str()
		if err != nil {
			return err
		}
		if r.Peek() != ':' {
			return r.syntaxErr("expected ':' after a key")
		}
		r.pos++
		if err := field(key); err != nil {
			return err
		}
	}
}

// Array walks the array at the cursor, calling elem for each element,
// which must consume it. Any other value, null included, is an error.
func (r *Reader) Array(elem func() error) error {
	if r.Peek() != '[' {
		return r.WrongType("an array")
	}
	if err := r.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		if ok, err := r.next(first, ']'); !ok || err != nil {
			return err
		}
		if err := elem(); err != nil {
			return err
		}
	}
}

// str reads the string at the cursor and returns its decoded bytes. The
// common case — printable ASCII without escapes — aliases the input;
// anything else is decoded by encoding/json itself, so escapes, surrogate
// pairs, and invalid UTF-8 come out exactly as it decodes them.
func (r *Reader) str() ([]byte, error) {
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
// JSON's grammar (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?).
func (r *Reader) number() ([]byte, error) {
	d, i := r.data, r.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i >= len(d) || !isDigit(d[i]) || d[i] == '0' && i+1 < len(d) && isDigit(d[i+1]) {
		return r.badNumber(i)
	}
	for i++; i < len(d) && isDigit(d[i]); i++ {
	}
	if i < len(d) && d[i] == '.' {
		if i++; i >= len(d) || !isDigit(d[i]) {
			return r.badNumber(i)
		}
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			return r.badNumber(i)
		}
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	tok := d[r.pos:i]
	r.pos = i
	return tok, nil
}

func (r *Reader) badNumber(at int) ([]byte, error) {
	r.pos = at
	return nil, r.syntaxErr("invalid number")
}

// literal consumes the keyword at the cursor (true, false, or null).
func (r *Reader) literal(word string) error {
	if len(r.data)-r.pos < len(word) || string(r.data[r.pos:r.pos+len(word)]) != word {
		return r.syntaxErr("invalid literal")
	}
	r.pos += len(word)
	return nil
}

// Null consumes a null at the cursor and reports whether there was one.
// A value of another type is left for the caller.
func (r *Reader) Null() (bool, error) {
	if r.Peek() != 'n' {
		return false, nil
	}
	return true, r.literal("null")
}

// numberToken reads the number at the cursor, or a null (reported as
// null=true); want names the type for the error on any other value.
func (r *Reader) numberToken(want string) (tok []byte, null bool, err error) {
	switch c := r.Peek(); {
	case c == '-' || isDigit(c):
		tok, err = r.number()
		return tok, false, err
	case c == 'n':
		return nil, true, r.literal("null")
	default:
		return nil, false, r.WrongType(want)
	}
}

// Float reads a number (or null, reported as null=true) the way
// encoding/json stores one into a float64: strconv.ParseFloat on the
// grammar-checked token, out-of-range values rejected.
func (r *Reader) Float() (v float64, null bool, err error) {
	tok, null, err := r.numberToken("a number")
	if tok == nil || err != nil {
		return 0, null, err
	}
	if v, err = strconv.ParseFloat(string(tok), 64); err != nil {
		return 0, false, fmt.Errorf("number %s out of range", tok)
	}
	return v, false, nil
}

// Int reads a number (or null, reported as null=true) the way
// encoding/json stores one into an int: a fraction, an exponent or an
// out-of-range value is an error.
func (r *Reader) Int() (v int, null bool, err error) {
	tok, null, err := r.numberToken("an integer")
	if tok == nil || err != nil {
		return 0, null, err
	}
	n, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil {
		return 0, false, fmt.Errorf("%s is not an integer in range", tok)
	}
	return int(n), false, nil
}

// IntInto stores an integer into *dst as encoding/json does; null leaves
// *dst as it was.
func (r *Reader) IntInto(dst *int) error {
	v, null, err := r.Int()
	if !null && err == nil {
		*dst = v
	}
	return err
}

// Uint reads a non-negative integer that fits a uint64. null is an error.
func (r *Reader) Uint() (uint64, error) {
	tok, null, err := r.numberToken("a non-negative integer")
	if null {
		err = r.WrongType("a non-negative integer")
	}
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s is not a non-negative integer in range", tok)
	}
	return v, nil
}

// Bool reads true or false. null is an error.
func (r *Reader) Bool() (bool, error) {
	switch r.Peek() {
	case 't':
		return true, r.literal("true")
	case 'f':
		return false, r.literal("false")
	}
	return false, r.WrongType("true or false")
}

// StringInto stores a string into *dst; null leaves *dst as it was.
func (r *Reader) StringInto(dst *string) error {
	switch r.Peek() {
	case '"':
		s, err := r.str()
		if err == nil {
			*dst = string(s)
		}
		return err
	case 'n':
		return r.literal("null")
	default:
		return r.WrongType("a string")
	}
}

// Skip consumes one value of any type, checking its syntax.
func (r *Reader) Skip() error {
	switch c := r.Peek(); {
	case c == '{':
		return r.Object(func([]byte) error { return r.Skip() })
	case c == '[':
		return r.Array(r.Skip)
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

// Raw consumes one value, checking its syntax, and returns its bytes.
func (r *Reader) Raw() ([]byte, error) {
	r.Peek()
	start := r.pos
	if err := r.Skip(); err != nil {
		return nil, err
	}
	return r.data[start:r.pos], nil
}

// AppendFloat appends f exactly as encoding/json encodes a float64:
// shortest round-trip digits, in 'e' notation outside [1e-6, 1e21) with a
// single-digit negative exponent written e-7, not e-07. NaN and ±Inf have
// no JSON form: they append nothing and fail with encoding/json's
// *json.UnsupportedValueError.
func AppendFloat(b []byte, f float64) ([]byte, error) {
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

// AppendFloats appends a float array as encoding/json encodes a
// []float64; nil encodes as null.
func AppendFloats(b []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = AppendFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}
