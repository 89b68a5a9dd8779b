package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"

	"privtree"
)

// TestParseQueryBodyMatchesEncodingJSON is the codec's ground-truth test:
// on round-trippable documents the pooled columnar parser must recover
// bit-identical float64s to encoding/json, because clients compare batch
// answers against locally rebuilt releases.
func TestParseQueryBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	rows := [][]float64{
		{},
		{0, 0, 1, 1},
		{1e-9, 2.5e-7, 1e21, 9.999999999999999e20},
		{-0.75, math.SmallestNonzeroFloat64, math.MaxFloat64, -1e-300},
		{0.1 + 0.2, 1.0 / 3.0, 2e308 * 0, 5},
	}
	for i := 0; i < 40; i++ {
		row := make([]float64, 4)
		for j := range row {
			row[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(40)-20))
		}
		rows = append(rows, row)
	}
	blob, err := json.Marshal(map[string]any{"queries": rows})
	if err != nil {
		t.Fatal(err)
	}
	var sc queryScratch
	batch, err := parseQueryBody(string(blob), &sc, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !batch.hasQueries || batch.hasStrings {
		t.Fatalf("presence flags wrong: %+v", batch)
	}
	if got := len(sc.offs) - 1; got != len(rows) {
		t.Fatalf("parsed %d rows, want %d", got, len(rows))
	}
	for i, row := range rows {
		got := sc.flat[sc.offs[i]:sc.offs[i+1]]
		if len(got) != len(row) {
			t.Fatalf("row %d: %d values, want %d", i, len(got), len(row))
		}
		for j := range row {
			if got[j] != row[j] && !(math.IsNaN(got[j]) && math.IsNaN(row[j])) {
				t.Fatalf("row %d[%d]: parsed %v (%x), want %v (%x)",
					i, j, got[j], math.Float64bits(got[j]), row[j], math.Float64bits(row[j]))
			}
		}
	}
}

// TestAppendQueryResponseMatchesEncodingJSON checks the response renderer:
// every float64 must decode back to itself, exactly as the old
// map-and-Encoder path guaranteed.
func TestAppendQueryResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	counts := []float64{0, 1, -1, 0.5, 1e-7, 123456.789, 1e21, 3e-300, math.MaxFloat64}
	for i := 0; i < 50; i++ {
		counts = append(counts, (rng.Float64()-0.5)*math.Pow(10, float64(rng.IntN(44)-22)))
	}
	buf := appendQueryResponse(nil, "r7", counts, 12345)
	var decoded struct {
		ReleaseID string    `json:"release_id"`
		Counts    []float64 `json:"counts"`
		Queries   int       `json:"queries"`
		ElapsedNS int64     `json:"elapsed_ns"`
	}
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%s", err, buf)
	}
	if decoded.ReleaseID != "r7" || decoded.Queries != len(counts) || decoded.ElapsedNS != 12345 {
		t.Fatalf("envelope wrong: %+v", decoded)
	}
	for i := range counts {
		if decoded.Counts[i] != counts[i] {
			t.Fatalf("count %d: %v (%x) decoded as %v (%x)",
				i, counts[i], math.Float64bits(counts[i]), decoded.Counts[i], math.Float64bits(decoded.Counts[i]))
		}
	}
}

// TestAppendQueryResponseNonFiniteIsNull checks that a count with no JSON
// form renders as null, keeping the response a valid document.
func TestAppendQueryResponseNonFiniteIsNull(t *testing.T) {
	buf := appendQueryResponse(nil, "r1", []float64{1.5, math.NaN(), math.Inf(1), math.Inf(-1), 2}, 7)
	want := `{"release_id":"r1","counts":[1.5,null,null,null,2],"queries":5,"elapsed_ns":7}`
	if string(buf) != want {
		t.Fatalf("response %s, want %s", buf, want)
	}
}

// TestParseQueryBodyHostile drives malformed and adversarial bodies
// through the parser: every one must produce an error, never a panic or a
// silent partial parse.
func TestParseQueryBodyHostile(t *testing.T) {
	bad := []string{
		``, `{`, `[`, `null`, `42`, `"queries"`,
		`{"queries"}`, `{"queries":}`, `{"queries":[}`, `{"queries":[[}`,
		`{"queries":[[1,]]}`, `{"queries":[[01]]}`, `{"queries":[[1.]]}`,
		`{"queries":[[1e]]}`, `{"queries":[[+1]]}`, `{"queries":[[.5]]}`,
		`{"queries":[[NaN]]}`, `{"queries":[[Infinity]]}`, `{"queries":[[0x10]]}`,
		`{"queries":[[1]],"queries":[[2]],}`, `{"queries":[[1]]`,
		`{"strings":[[1.5]]}`, `{"strings":[[2e3]]}`, `{"strings":[[999999999999999]]}`,
		`{"strings":[[01]]}`, `{"strings":[[-01]]}`, `{"strings":[[007]]}`,
		`{"unknown":[[1]]}`, `{"queries":[[1]],"extra":1}`,
		`{"queries":[1,2]}`, `{"queries":{"a":1}}`, `{"strings":"abc"}`,
		`{"quer\u0069ez":[[1]]}`, `{"queries":[[1]]} x`, `{"queries":[[1]]}{}`,
		`{"queries":[null]}`, `{"queries":[[null]]}`, `{"strings":[[-2147483648]]}`,
	}
	for _, body := range bad {
		var sc queryScratch
		if _, err := parseQueryBody(body, &sc, 100); err == nil {
			t.Errorf("hostile body accepted: %s", body)
		}
	}
	// And the acceptable edge cases.
	good := []string{
		`{}`, `{"queries":null}`, `{"queries":[]}`, `{"strings":[[]]}`,
		` { "queries" : [ [ 1 , 2 ] ] } `,
		`{"queries":[[1,2]],"strings":null}`,
		`{"quer\u0069es":[[1,2]]}`, `{"\u0073trings":[[1]]}`, `{"queries":[[1]]}` + "\n",
	}
	for _, body := range good {
		var sc queryScratch
		if _, err := parseQueryBody(body, &sc, 100); err != nil {
			t.Errorf("valid body %s rejected: %v", body, err)
		}
	}
}

// TestParseQueryBodyRowLimit checks the parser aborts oversized batches
// with the 413 sentinel before buffering them.
func TestParseQueryBodyRowLimit(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(`{"queries":[`)
	for i := 0; i < 50; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`[0,0,1,1]`)
	}
	b.WriteString(`]}`)
	var sc queryScratch
	if _, err := parseQueryBody(b.String(), &sc, 10); err != errBatchTooLarge {
		t.Fatalf("50 rows at limit 10: err = %v, want errBatchTooLarge", err)
	}
	if _, err := parseQueryBody(b.String(), &sc, 50); err != nil {
		t.Fatalf("50 rows at limit 50 rejected: %v", err)
	}
}

// TestParseBodiesAllocateNothing checks that the query and ingest readers
// scan the pooled body in place: on a warm scratch, decoding a batch
// allocates nothing at all.
func TestParseBodiesAllocateNothing(t *testing.T) {
	query := []byte(`{"queries":[[0.1,0.2,0.3,0.4],[0,0,1,1e-7]],"strings":[[0,1],[2]]}`)
	ingest := []byte(`{"batch_seq":12,"points":[[0.25,0.5],[1e-3,0.75]],"strings":null,"seal":true}`)
	var sc queryScratch
	for name, parse := range map[string]func() error{
		"query": func() error { _, err := parseQueryBody(query, &sc, 100); return err },
		"ingest": func() error {
			batch, err := parseIngestBody(ingest, &sc, 100)
			if err == nil && (batch.batchSeq != 12 || !batch.seal || !batch.hasPoints) {
				err = fmt.Errorf("decoded %+v", batch)
			}
			return err
		},
	} {
		if err := parse(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := parse(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s body: %v allocs per decode on a warm scratch, want 0", name, allocs)
		}
	}
}

// TestParseIngestBodyHostile drives malformed and edge-case ingest bodies
// through the reader, as TestParseQueryBodyHostile does for queries.
func TestParseIngestBodyHostile(t *testing.T) {
	bad := []string{
		``, `null`, `[]`, `{"batch_seq":null}`, `{"batch_seq":-1}`, `{"batch_seq":1.5}`,
		`{"batch_seq":18446744073709551616}`, `{"seal":null}`, `{"seal":1}`, `{"points":[null]}`,
		`{"points":[[0.5,null]]}`, `{"strings":[[1e2]]}`, `{"unknown":1}`, `{"b\u0061tch_sek":1}`,
		`{"Points":[[0.5,0.5]]}`, `{"seal":true} x`, `{"points":[[0.5,0.5],]}`,
	}
	for _, body := range bad {
		var sc queryScratch
		if _, err := parseIngestBody([]byte(body), &sc, 100); err == nil {
			t.Errorf("hostile body accepted: %s", body)
		}
	}
	good := []string{
		`{}`, `{"points":null}`, `{"batch_seq":18446744073709551615}`, `{"seal":false}`,
		`{"b\u0061tch_seq":3,"p\u006fints":[[0.5,0.5]],"\u0073eal":true}`, `{"\u0073trings":[[1]]}`,
	}
	for _, body := range good {
		var sc queryScratch
		if _, err := parseIngestBody([]byte(body), &sc, 100); err != nil {
			t.Errorf("valid body %s rejected: %v", body, err)
		}
	}
}

// TestServerBatchQueryAllocationBudget is the serving-plane guard: a
// 10k-query batch answered end to end through ServeHTTP must stay well
// under one allocation per query in steady state (the pooled codec's whole
// point; the seed spent ~3 allocs/query here).
func TestServerBatchQueryAllocationBudget(t *testing.T) {
	srv := mustNew(t, Options{Workers: 1})
	d, err := srv.Registry().AddSpatial("alloc", privtree.UnitCube(2), testPoints(20000), 4.0)
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := d.Release(ReleaseParams{Epsilon: 1.0, Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const nq = 10_000
	rng := rand.New(rand.NewPCG(3, 4))
	queries := make([][]float64, nq)
	for i := range queries {
		lox, loy := rng.Float64()*0.8, rng.Float64()*0.8
		queries[i] = []float64{lox, loy, lox + 0.15, loy + 0.15}
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		t.Fatal(err)
	}
	url := "/v1/datasets/alloc/releases/" + rel.ID + "/query"

	allocs := testing.AllocsPerRun(5, func() {
		req := httptest.NewRequest("POST", url, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch returned %d: %s", rec.Code, rec.Body.String())
		}
	})
	t.Logf("allocs per 10k-query batch: %v", allocs)
	if allocs > nq/5 {
		t.Fatalf("batch of %d queries cost %v allocs (%.3f/query), want well under 1/query", nq, allocs, allocs/nq)
	}
}

// TestServerQueryAnswersUnchangedByCodec pins the new codec to the old
// semantics: answers must equal direct RangeCount calls on the same
// release, including for exponent-form and boundary coordinates.
func TestServerQueryAnswersUnchangedByCodec(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, Options{}))
	defer ts.Close()
	client := ts.Client()

	pts := testPoints(10000)
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = p
	}
	doJSON(t, client, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "codec", "epsilon": 1.0, "points": rows}, nil)
	var rel struct {
		ID string `json:"release_id"`
	}
	doJSON(t, client, "POST", ts.URL+"/v1/datasets/codec/releases",
		map[string]any{"epsilon": 0.5, "seed": 9}, &rel)

	queries := [][]float64{
		{0, 0, 1, 1},
		{1e-9, 1e-9, 0.5, 0.5},
		{0.25, 0.25, 0.750000000000001, 0.75},
		{0.1, 0.2, 0.30000000000000004, 0.7},
	}
	var qresp struct {
		Counts []float64 `json:"counts"`
	}
	status := doJSON(t, client, "POST", ts.URL+"/v1/datasets/codec/releases/"+rel.ID+"/query",
		map[string]any{"queries": queries}, &qresp)
	if status != http.StatusOK || len(qresp.Counts) != len(queries) {
		t.Fatalf("batch: %d %+v", status, qresp)
	}
	tree, err := privtree.BuildSpatial(privtree.UnitCube(2), pts, 0.5, privtree.SpatialOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := tree.RangeCount(privtree.NewRect(privtree.Point{q[0], q[1]}, privtree.Point{q[2], q[3]}))
		if qresp.Counts[i] != want {
			t.Fatalf("query %d: server %v, local %v", i, qresp.Counts[i], want)
		}
	}
}
