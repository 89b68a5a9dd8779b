package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// TestAppendFloatMatchesEncodingJSON holds the float writer to
// json.Marshal byte for byte: shortest round-trip digits, the switch to
// 'e' notation at 1e-6 and 1e21, and the e-7 exponent form.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	floats := []float64{0, 1, -1, 0.5, 1e-7, 123456.789, 1e21, 3e-300, math.MaxFloat64}
	for i := 0; i < 50; i++ {
		floats = append(floats, (rng.Float64()-0.5)*math.Pow(10, float64(rng.IntN(44)-22)))
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("float %v rendered %q (%v), encoding/json renders %q", f, got, err, want)
		}
	}
	got, err := AppendFloats([]byte("x"), floats[:3])
	if err != nil || string(got) != "x[0,1,-1]" {
		t.Fatalf("AppendFloats = %q, %v", got, err)
	}
	if got, _ := AppendFloats(nil, nil); string(got) != "null" {
		t.Fatalf("AppendFloats(nil) = %q, want null", got)
	}
}

// TestAppendFloatNonFiniteIsEncodingJSONError checks that NaN and ±Inf
// fail exactly as json.Marshal fails on them, appending nothing.
func TestAppendFloatNonFiniteIsEncodingJSONError(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, wantErr := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) {
			t.Fatalf("%v: error %v, want *json.UnsupportedValueError", f, err)
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("%v: error %q, encoding/json says %q", f, err, wantErr)
		}
		if string(got) != "x" {
			t.Fatalf("%v: appended %q", f, got)
		}
		if _, err := AppendFloats(nil, []float64{1, f}); !errors.As(err, &unsupported) {
			t.Fatalf("AppendFloats with %v: error %v", f, err)
		}
	}
}

// TestEndRejectsTrailingBytes checks the trailing-data rule as
// encoding/json applies it: whitespace may follow the document, anything
// else — a NUL byte included — may not.
func TestEndRejectsTrailingBytes(t *testing.T) {
	for doc, ok := range map[string]bool{
		`{}`: true, "{} \t\r\n": true, "{}\x00": false, `{} x`: false, `{}{}`: false, `{},`: false,
	} {
		r := NewReader([]byte(doc))
		err := r.Skip()
		if err == nil {
			err = r.End()
		}
		if (err == nil) != ok || (json.Unmarshal([]byte(doc), new(any)) == nil) != ok {
			t.Errorf("%q: reader error %v, want accepted %v as encoding/json", doc, err, ok)
		}
	}
}

// TestVersionOf reads the first member of the given name and nothing
// after it, so a document that breaks further on still reports it.
func TestVersionOf(t *testing.T) {
	for doc, want := range map[string]int{
		`{"v":3,"x":[1,}`:     3,
		`{"a":{"v":9},"v":2}`: 2,
		` {"v":4,"v":5}`:      4,
		`{"a":[1,],"v":2}`:    -1,
		`{"v":"3"}`:           -1,
		`{"v":null}`:          -1,
		`[{"v":1}]`:           -1,
		`{"x":1}`:             -1,
	} {
		v, ok := VersionOf([]byte(doc), "v")
		if !ok {
			v = -1
		}
		if v != want {
			t.Errorf("VersionOf(%s) = %d, want %d", doc, v, want)
		}
	}
}
