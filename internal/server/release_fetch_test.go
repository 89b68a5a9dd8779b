package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestGetReleaseMatchesEncodingJSON pins the release fetch response, which
// splices the stored artifact in verbatim, to the bytes encoding/json
// produced when the handler re-encoded the whole map on every fetch.
func TestGetReleaseMatchesEncodingJSON(t *testing.T) {
	srv := mustNew(t, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	rng := rand.New(rand.NewPCG(5, 6))
	seqs := make([][]int, 2000)
	for i := range seqs {
		seqs[i] = []int{rng.IntN(4), rng.IntN(4), rng.IntN(4)}
	}
	datasets := []struct {
		register, release map[string]any
	}{
		{
			map[string]any{"name": "pts", "epsilon": 2.0, "points": testPoints(5000)},
			map[string]any{"epsilon": 1.0, "seed": 3, "theta": 0.5},
		},
		{
			map[string]any{"name": "clicks", "epsilon": 2.0, "alphabet": 4, "sequences": seqs},
			map[string]any{"epsilon": 1.0, "seed": 3, "max_length": 6},
		},
	}
	for _, ds := range datasets {
		name := ds.register["name"].(string)
		if status := doJSON(t, client, "POST", ts.URL+"/v1/datasets", ds.register, nil); status != http.StatusCreated {
			t.Fatalf("%s: register returned %d", name, status)
		}
		var created struct {
			ID string `json:"release_id"`
		}
		if status := doJSON(t, client, "POST", ts.URL+"/v1/datasets/"+name+"/releases", ds.release, &created); status != http.StatusCreated {
			t.Fatalf("%s: release returned %d", name, status)
		}

		resp, err := client.Get(ts.URL + "/v1/datasets/" + name + "/releases/" + created.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: fetch returned %d %q", name, resp.StatusCode, resp.Header.Get("Content-Type"))
		}

		d, ok := srv.registry.Get(name)
		if !ok {
			t.Fatalf("%s: dataset missing from the registry", name)
		}
		rel, ok := d.GetRelease(created.ID)
		if !ok {
			t.Fatalf("%s: release %s missing", name, created.ID)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{
			"release_id": rel.ID,
			"kind":       rel.Kind,
			"params":     rel.Params,
			"artifact":   rel.Artifact(),
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: response differs from the encoding/json rendering:\n got  %.200s\n want %.200s", name, got, want.Bytes())
		}
	}
}
