package server

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"sort"
	"testing"

	"privtree"
	"privtree/internal/workload"
)

// TestLatestWindowAnswerIsOldestFirstSum pins what a query against the
// `latest` alias returns: for every rectangle, the sum over the window's
// member releases of their RangeCount, accumulated oldest epoch first
// with +=, bit for bit. The members are fetched as envelopes and decoded,
// so the pin covers the whole path a reader can reproduce offline.
func TestLatestWindowAnswerIsOldestFirstSum(t *testing.T) {
	s := mustNew(t, Options{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	const window, epochs = 3, 4
	if code := doJSON(t, client, "POST", ts.URL+"/v1/datasets",
		streamRegisterBody("sw", map[string]any{"window": window}), nil); code != 201 {
		t.Fatalf("register: HTTP %d", code)
	}
	rng := rand.New(rand.NewPCG(61, 62))
	for e := 1; e <= epochs; e++ {
		cx, cy := 0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()
		pts := make([][]float64, 3000)
		for i := range pts {
			pts[i] = []float64{
				min(max(cx+0.08*rng.NormFloat64(), 0), 0.999999),
				min(max(cy+0.08*rng.NormFloat64(), 0), 0.999999),
			}
		}
		var resp ingestResponse
		if code := doJSON(t, client, "POST", ts.URL+"/v1/datasets/sw/ingest",
			map[string]any{"batch_seq": e, "points": pts, "seal": true}, &resp); code != 200 || !resp.Sealed {
			t.Fatalf("epoch %d: HTTP %d %+v", e, code, resp)
		}
	}

	var doc struct {
		Window []windowEpochJSON `json:"window"`
	}
	if code := doJSON(t, client, "GET", ts.URL+"/v1/datasets/sw/releases/latest", nil, &doc); code != 200 {
		t.Fatalf("latest window: HTTP %d", code)
	}
	if len(doc.Window) != window {
		t.Fatalf("window has %d epochs, want %d", len(doc.Window), window)
	}
	sort.Slice(doc.Window, func(i, j int) bool { return doc.Window[i].Epoch < doc.Window[j].Epoch })
	members := make([]*privtree.Release, len(doc.Window))
	for i, e := range doc.Window {
		var art struct {
			Artifact json.RawMessage `json:"artifact"`
		}
		if code := doJSON(t, client, "GET", ts.URL+"/v1/datasets/sw/releases/"+e.ReleaseID, nil, &art); code != 200 {
			t.Fatalf("fetching %s: HTTP %d", e.ReleaseID, code)
		}
		rel, err := privtree.Decode(art.Artifact)
		if err != nil {
			t.Fatalf("decoding %s: %v", e.ReleaseID, err)
		}
		members[i] = rel
	}

	dom := privtree.UnitCube(2)
	rects := append(workload.MixedQueries(dom, 256, rng), dom, privtree.NewRect(privtree.Point{0.5, 0.5}, privtree.Point{0.5, 0.5}))
	rows := make([][]float64, len(rects))
	for i, r := range rects {
		rows[i] = append(append([]float64{}, r.Lo...), r.Hi...)
	}
	var out struct {
		ReleaseID string    `json:"release_id"`
		Counts    []float64 `json:"counts"`
	}
	if code := doJSON(t, client, "POST", ts.URL+"/v1/datasets/sw/releases/latest/query",
		map[string]any{"queries": rows}, &out); code != 200 || len(out.Counts) != len(rects) {
		t.Fatalf("latest query: HTTP %d, %d answers for %d rectangles", code, len(out.Counts), len(rects))
	}
	for i, q := range rects {
		var want float64
		for _, m := range members {
			want += m.RangeCount(q)
		}
		if math.Float64bits(out.Counts[i]) != math.Float64bits(want) {
			t.Fatalf("rectangle %d %v: latest answered %v, oldest-first sum over the window is %v",
				i, q, out.Counts[i], want)
		}
	}
}
