package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// registrationBodies are POST /v1/datasets bodies, one per source kind.
var registrationBodies = map[string]string{
	"points": `{"name":"pts","epsilon":1.5,"domain":{"lo":[0,0],"hi":[1,2]},` +
		`"points":[[0.1,0.2],[0.30000000000000004,1.9999999999999998],[5e-324,1e-7],[-0,0],[2.2250738585072009e-308,0]]}`,
	"csv":       `{"name":"csv","epsilon":1,"csv":"0.1,0.2\n0.5,0.25\n# comment\n0.75,0.125\n"}`,
	"sequences": `{"name":"seqs","epsilon":2,"kind":"sequence","alphabet":4,"sequences":[[0,1,2],[3],[],[2,2,2,2]]}`,
	"synthetic": `{"name":"syn","epsilon":1,"synthetic":{"generator":"road","n":500,"seed":7}}`,
	"stream": `{"name":"str","epsilon":100,"domain":{"lo":[0,0],"hi":[1,1]},` +
		`"stream":{"epoch_epsilon":0.25,"window":4,"seal_every":100,"seed":3,"fanout":4,"max_depth":12}}`,
}

// decodeBody decodes a registration body with encoding/json, the decoder
// the registration reader replaced.
func decodeBody(t *testing.T, body string) registerRequest {
	t.Helper()
	var req registerRequest
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestDatasetFileV1ReadBack holds the reader to version 1, the format
// data dirs written before version 2 still hold: the json.Marshal of
// every source kind's registration reads back to the same request,
// floats compared by their bits.
func TestDatasetFileV1ReadBack(t *testing.T) {
	at := time.Date(2026, 3, 4, 5, 6, 7, 890, time.FixedZone("", 3600))
	for kind, body := range registrationBodies {
		old := decodeBody(t, body)
		file, err := json.Marshal(persistedDataset{Version: datasetFileV1, CreatedAt: at, Request: old})
		if err != nil {
			t.Fatal(err)
		}
		pd, err := parseDatasetFile(file, old.Name)
		if err != nil {
			t.Fatalf("%s: reading a version-1 dataset.json: %v", kind, err)
		}
		if err := sameDatasetFile(&pd, &persistedDataset{Version: datasetFileV1, CreatedAt: at, Request: old}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// TestDatasetFileV2Golden registers one dataset of every source kind
// over HTTP and holds the dataset.json it writes to the version-2
// encoding of the body as encoding/json decodes it, and that encoding,
// at a fixed created_at, to a golden file under testdata/ (regenerate
// with PRIVTREE_UPDATE_GOLDEN=1). Every file must read back to the
// request it came from, floats compared by their bits.
func TestDatasetFileV2Golden(t *testing.T) {
	update := os.Getenv("PRIVTREE_UPDATE_GOLDEN") == "1"
	at := time.Date(2026, 3, 4, 5, 6, 7, 890, time.UTC)
	dir := t.TempDir()
	srv := mustNew(t, Options{DataDir: dir, Workers: 1})
	for kind, body := range registrationBodies {
		old := decodeBody(t, body)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets", strings.NewReader(body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("%s: register = %d %s", kind, rec.Code, rec.Body)
		}
		file, err := os.ReadFile(filepath.Join(dir, "datasets", old.Name, "dataset.json"))
		if err != nil {
			t.Fatal(err)
		}
		pd, err := parseDatasetFile(file, old.Name)
		if err != nil {
			t.Fatalf("%s: reading dataset.json back: %v", kind, err)
		}
		if err := sameRequest(&pd.Request, &old); err != nil {
			t.Fatalf("%s: dataset.json does not read back to the request: %v", kind, err)
		}
		if want, err := encodeDatasetFile(&old, pd.CreatedAt); err != nil || !bytes.Equal(file, want) {
			t.Fatalf("%s: dataset.json is not the version-2 encoding of the request (%v):\n got %q\nwant %q", kind, err, file, want)
		}

		golden, err := encodeDatasetFile(&old, at)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "dataset_v2_"+kind+".bin")
		if update {
			if err := os.WriteFile(path, golden, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with PRIVTREE_UPDATE_GOLDEN=1): %v", err)
		}
		if !bytes.Equal(golden, want) {
			t.Fatalf("%s: the version-2 encoding drifted from %s:\n got %q\nwant %q", kind, path, golden, want)
		}
		pd, err = parseDatasetFile(want, old.Name)
		if err != nil {
			t.Fatalf("%s: reading %s: %v", kind, path, err)
		}
		if err := sameDatasetFile(&pd, &persistedDataset{Version: datasetFileV2, CreatedAt: at, Request: old, Rows: pd.Rows}); err != nil {
			t.Fatalf("%s: %s: %v", kind, path, err)
		}
	}
}

// TestRegisterRejectsCaseVariantKeys pins the API change the reader
// brings: encoding/json matched "Points" to points, the reader rejects
// it as an unknown field.
func TestRegisterRejectsCaseVariantKeys(t *testing.T) {
	srv := mustNew(t, Options{Workers: 1})
	for _, body := range []string{
		`{"name":"a","epsilon":1,"Points":[[0.5,0.5]]}`,
		`{"Name":"a","epsilon":1,"points":[[0.5,0.5]]}`,
		`{"name":"a","epsilon":1,"points":[[0.5,0.5]],"domain":{"lo":[0,0],"hi":[1,1],"extra":1}}`,
		`{"name":"a","epsilon":1,"points":[[0.5,0.5]]} trailing`,
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: register = %d, want 400", body, rec.Code)
		}
	}
}

// keySchema names the exact keys of an object the reader reads field by
// field; a nil schema is a value whose keys are not checked.
type keySchema map[string]keySchema

// jsonKeys lists the json tag names of a struct type.
func jsonKeys(v any) keySchema {
	out := keySchema{}
	typ := reflect.TypeOf(v)
	for i := 0; i < typ.NumField(); i++ {
		if name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); name != "" {
			out[name] = nil
		}
	}
	return out
}

var (
	requestSchema = func() keySchema {
		k := jsonKeys(registerRequest{})
		k["domain"], k["synthetic"], k["stream"] = jsonKeys(rectJSON{}), jsonKeys(syntheticSpec{}), jsonKeys(streamSpec{})
		return k
	}()
	fileSchema = func() keySchema {
		k := jsonKeys(persistedDataset{})
		k["request"], k["rows"] = requestSchema, jsonKeys(rowShape{})
		return k
	}()
)

// hasInexactKey reports whether doc, valid JSON, holds a key that is not
// spelled exactly as one of its object's fields: a case variant, which
// encoding/json matches, or an unknown key, which it skips. The reader
// rejects both, which is the one difference it is allowed.
func hasInexactKey(doc []byte, schema keySchema) bool {
	dec := json.NewDecoder(bytes.NewReader(doc))
	found := false
	var walk func(schema keySchema)
	walk = func(schema keySchema) {
		tok, err := dec.Token()
		if err != nil {
			return
		}
		delim, ok := tok.(json.Delim)
		if !ok || delim == ']' || delim == '}' {
			return
		}
		for dec.More() {
			if delim == '[' {
				walk(nil)
				continue
			}
			tok, err := dec.Token()
			if err != nil {
				return
			}
			key, _ := tok.(string)
			sub, known := schema[key]
			if schema != nil && !known {
				found = true
			}
			walk(sub)
		}
		_, _ = dec.Token()
	}
	walk(schema)
	return found
}

// sameRows compares two row lists: nil against empty, each row's
// nil-ness, and every value (floats by their bits).
func sameRows[R ~[]E, E float64 | int](a, b []R) error {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Errorf("rows: %d (nil %v) vs %d (nil %v)", len(a), a == nil, len(b), b == nil)
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %v vs %v", i, a[i], b[i])
		}
		for j := range a[i] {
			x, y := any(a[i][j]), any(b[i][j])
			if fx, ok := x.(float64); ok {
				x, y = math.Float64bits(fx), math.Float64bits(y.(float64))
			}
			if x != y {
				return fmt.Errorf("row %d, value %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// sameRequest compares two decoded requests field by field.
func sameRequest(a, b *registerRequest) error {
	if err := sameRows(a.Points, b.Points); err != nil {
		return fmt.Errorf("points: %w", err)
	}
	if err := sameRows(a.Sequences, b.Sequences); err != nil {
		return fmt.Errorf("sequences: %w", err)
	}
	if math.Float64bits(a.Epsilon) != math.Float64bits(b.Epsilon) {
		return fmt.Errorf("epsilon: %v vs %v", a.Epsilon, b.Epsilon)
	}
	ac, bc := *a, *b
	ac.Points, bc.Points, ac.Sequences, bc.Sequences, ac.Epsilon, bc.Epsilon = nil, nil, nil, nil, 0, 0
	if !reflect.DeepEqual(ac, bc) {
		return fmt.Errorf("other fields: %+v vs %+v", ac, bc)
	}
	return nil
}

// sameDatasetFile compares two decoded dataset.json documents.
func sameDatasetFile(a, b *persistedDataset) error {
	if a.Version != b.Version {
		return fmt.Errorf("version: %d vs %d", a.Version, b.Version)
	}
	at, _ := a.CreatedAt.MarshalText()
	bt, _ := b.CreatedAt.MarshalText()
	if !a.CreatedAt.Equal(b.CreatedAt) || !bytes.Equal(at, bt) {
		return fmt.Errorf("created_at: %v vs %v", a.CreatedAt, b.CreatedAt)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		return fmt.Errorf("rows: %+v vs %+v", a.Rows, b.Rows)
	}
	return sameRequest(&a.Request, &b.Request)
}

// differential holds one reader result to encoding/json's.
func differential(t *testing.T, form string, doc []byte, schema keySchema, wantErr, gotErr error, same func() error) {
	t.Helper()
	switch {
	case wantErr != nil && gotErr != nil:
	case wantErr != nil:
		t.Fatalf("%s: reader accepted what encoding/json rejects (%v): %q", form, wantErr, doc)
	case gotErr != nil:
		if !hasInexactKey(doc, schema) {
			t.Fatalf("%s: reader rejected a document with exact keys that encoding/json accepts (%v): %q", form, gotErr, doc)
		}
	default:
		if err := same(); err != nil {
			t.Fatalf("%s: reader and encoding/json disagree: %v\ndoc %q", form, err, doc)
		}
	}
}

// FuzzRegistrationDecodeDifferential holds the registration reader to
// json.Unmarshal, the decoder it replaced, on both forms it reads (a
// dataset.json document and a POST /v1/datasets body): the same
// accept/reject decision and the same decoded request, every coordinate
// compared by its bits, nil told apart from empty. The one difference
// allowed is the reader's documented rejection of case-variant and
// unknown keys, checked explicitly by hasInexactKey.
func FuzzRegistrationDecodeDifferential(f *testing.F) {
	at := time.Date(2026, 3, 4, 5, 6, 7, 890, time.FixedZone("", 3600))
	for _, body := range registrationBodies {
		var req registerRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			f.Fatal(err)
		}
		doc, err := json.Marshal(persistedDataset{Version: datasetFileV1, CreatedAt: at, Request: req})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		f.Add([]byte(body))
	}
	for _, doc := range []string{
		`null`, ` {} `, `{"request":null}`, `[]`, `{"request":[]}`, `{} x`, ``,
		`{"privtreed_dataset":null,"created_at":null,"request":{"name":null,"epsilon":null,"alphabet":null,"points":null,"domain":null,"stream":null}}`,
		`{"request":{"points":[[1,2]],"points":null}}`,
		`{"request":{"points":[[1,2],[3,4,5]],"points":[[6]],"points":[[null,null],[null,null,null,null]]}}`,
		`{"request":{"points":[[1,2,3]],"points":[],"points":[[null,null]]}}`,
		`{"request":{"points":[[1,2]],"points":[null],"points":[[null]]}}`,
		`{"request":{"sequences":[[1,2,3],[4]],"sequences":[[5]],"sequences":[[null,null,null],[null]]}}`,
		`{"request":{"points":[[1,2]]},"request":{"points":[[null,3]]}}`,
		`{"request":{"name":"a"},"request":{"epsilon":1}}`,
		`{"request":{"stream":{"window":2},"stream":{"epoch_epsilon":0.5}}}`,
		`{"request":{"domain":{"lo":[0,0],"hi":[1,1]},"domain":{"hi":[2,2]}}}`,
		`{"request":{"sequences":[[0,1],null,[]]}}`,
		`{"request":{"points":[[null,0.5],[]]}}`,
		`{"privtreed_dataset":1.5}`, `{"privtreed_dataset":1e0}`, `{"privtreed_dataset":-0}`,
		`{"request":{"alphabet":2.0}}`, `{"request":{"sequences":[[1.5]]}}`, `{"request":{"sequences":[[1e2]]}}`,
		`{"request":{"epsilon":1e400}}`, `{"request":{"points":[[1e309,-1e-400]]}}`,
		`{"request":{"alphabet":99999999999999999999}}`, `{"request":{"sequences":[[-9223372036854775808,9223372036854775807]]}}`,
		`{"request":{"sequences":[[-9223372036854775809]]}}`, `{"request":{"epsilon":01}}`, `{"request":{"epsilon":-}}`,
		`{"request":{"Points":[[1]]}}`, `{"Request":{}}`, `{"request":{"extra":1}}`,
		`{"request":{"domain":{"lo":[0],"hi":[1],"x":2}}}`, `{"request":{"domain":{"LO":[0],"hi":[1]}}}`,
		`{"request":{"name":"x","points":[[1]]}}`,
		` { "request" : { "points" : [ [ 1 , 2 ] , [ ] ] , "name" : "w" } } ` + "\t\n",
		`{"request":{"synthetic":nullx}}`, `{"request":{"points":[[1,2]x]}}`, `{"request":{"epsilon":nullx}}`,
		`{"request":{"name":"a\"b\\cé\/","csv":"0.1,0.2\n0.3,0.4\n"}}`, "{\"request\":{\"name\":\"\xff\xfe\"}}",
		`{"request":{"name":"tab	in"}}`, `{"request":{"points":"x","sequences":{}}}`,
		`{"created_at":"2026-01-02T03:04:05+01:00"}`, `{"created_at":"yesterday"}`, `{"created_at":5}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var want persistedDataset
		wantErr := json.Unmarshal(doc, &want)
		got, gotErr := decodeDatasetFile(doc)
		differential(t, "dataset.json", doc, fileSchema, wantErr, gotErr, func() error { return sameDatasetFile(&want, &got) })

		var wantReq registerRequest
		wantErr = json.Unmarshal(doc, &wantReq)
		gotReq, gotErr := decodeRegisterRequest(doc)
		differential(t, "request body", doc, requestSchema, wantErr, gotErr, func() error { return sameRequest(&wantReq, &gotReq) })
	})
}

// TestRegistrationDecodeAllocationBounded feeds the reader documents
// whose row arrays are shaped to make it allocate: many empty or null
// rows, many one-number rows, one long symbol row, and a key repeated
// thousands of times. Bytes allocated per input byte must stay bounded.
func TestRegistrationDecodeAllocationBounded(t *testing.T) {
	const n = 20_000
	list := func(item string) string { return strings.TrimSuffix(strings.Repeat(item+",", n), ",") }
	docs := map[string]string{
		"empty rows":    `{"request":{"points":[` + list("[]") + `]}}`,
		"null rows":     `{"request":{"sequences":[` + list("null") + `]}}`,
		"null numbers":  `{"request":{"points":[[` + list("null") + `]]}}`,
		"short rows":    `{"request":{"points":[` + list("[0]") + `]}}`,
		"one long row":  `{"request":{"sequences":[[` + list("0") + `]]}}`,
		"repeated key":  `{"request":{` + list(`"points":[[0,0]]`) + `}}`,
		"repeated null": `{"request":{` + list(`"points":[[0]],"points":[[null]]`) + `}}`,
		"not arrays":    `{"request":{` + list(`"points":5`) + `}}`,
		"unterminated":  `{"request":{"points":[` + list("[0,0]"),
	}
	for name, doc := range docs {
		decoders := map[string]func() error{
			"dataset.json": func() error { _, err := decodeDatasetFile([]byte(doc)); return err },
			"request body": func() error {
				_, err := decodeRegisterRequest([]byte(strings.TrimSuffix(strings.TrimPrefix(doc, `{"request":`), "}")))
				return err
			},
		}
		for form, decode := range decoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_ = decode()
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(doc)); got > limit {
				t.Errorf("%s, %s: allocated %d bytes for a %d-byte input (limit %d)", name, form, got, len(doc), limit)
			}
		}
	}
}

// TestRegistrationRowsShareOneSlab checks the reader's layout: the rows
// of a points array are windows of one slab, capped at their length, so
// that appending to one row cannot write into the next.
func TestRegistrationRowsShareOneSlab(t *testing.T) {
	req, err := decodeRegisterRequest([]byte(`{"points":[[1,2],[3,4],[5,6]]}`))
	if err != nil {
		t.Fatal(err)
	}
	pts := req.Points
	for i, p := range pts {
		if len(p) != 2 || cap(p) != 2 {
			t.Fatalf("row %d: len %d cap %d, want 2 and 2", i, len(p), cap(p))
		}
	}
	for i := 1; i < len(pts); i++ {
		if reflect.ValueOf(pts[i]).Pointer()-reflect.ValueOf(pts[i-1]).Pointer() != 16 {
			t.Fatalf("row %d does not follow row %d in one slab", i, i-1)
		}
	}
}
