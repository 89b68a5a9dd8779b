package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privtree"
	"privtree/internal/repl"
)

// TestServerRestartResumesState is the end-to-end acceptance check for
// -data-dir: a full register → release → query lifecycle, a shutdown,
// and a second server over the same directory that must resume with
// identical budget state, the same release IDs, bit-identical envelope
// bytes, and cache hits (no re-debit) for already-purchased parameters.
func TestServerRestartResumesState(t *testing.T) {
	dataDir := t.TempDir()

	srv1 := mustNew(t, Options{DataDir: dataDir, Workers: 1})
	ts1 := httptest.NewServer(srv1)
	client := ts1.Client()

	// Register one inline-points dataset and one synthetic dataset.
	var reg registerResponse
	if code := doJSON(t, client, "POST", ts1.URL+"/v1/datasets", map[string]any{
		"name": "inline", "epsilon": 1.0, "points": ptsAsRows(testPoints(3000)),
	}, &reg); code != http.StatusCreated {
		t.Fatalf("register inline: %d", code)
	}
	if code := doJSON(t, client, "POST", ts1.URL+"/v1/datasets", map[string]any{
		"name": "synth", "epsilon": 2.0,
		"synthetic": map[string]any{"generator": "road", "n": 5000, "seed": 42},
	}, &reg); code != http.StatusCreated {
		t.Fatalf("register synth: %d", code)
	}

	// Two releases on "inline", one on "synth"; a failed release on
	// "inline" (unrealizable fanout) exercises the durable refund.
	var rel1, rel2, rel3 releaseResponse
	if code := doJSON(t, client, "POST", ts1.URL+"/v1/datasets/inline/releases",
		map[string]any{"epsilon": 0.25, "seed": 7}, &rel1); code != http.StatusCreated {
		t.Fatalf("release 1: %d", code)
	}
	if code := doJSON(t, client, "POST", ts1.URL+"/v1/datasets/inline/releases",
		map[string]any{"epsilon": 0.25, "seed": 8}, &rel2); code != http.StatusCreated {
		t.Fatalf("release 2: %d", code)
	}
	if code := doJSON(t, client, "POST", ts1.URL+"/v1/datasets/inline/releases",
		map[string]any{"epsilon": 0.125, "seed": 7, "fanout": 8}, nil); code == http.StatusCreated {
		t.Fatal("unrealizable fanout released")
	}
	if code := doJSON(t, client, "POST", ts1.URL+"/v1/datasets/synth/releases",
		map[string]any{"epsilon": 0.5, "seed": 9}, &rel3); code != http.StatusCreated {
		t.Fatalf("release 3: %d", code)
	}

	d1, _ := srv1.Registry().Get("inline")
	spentInline := d1.Ledger.Spent()
	histLen := len(d1.Ledger.History())
	artifact1 := fetchArtifact(t, client, ts1.URL+"/v1/datasets/inline/releases/"+rel1.Release.ID)
	artifact2 := fetchArtifact(t, client, ts1.URL+"/v1/datasets/inline/releases/"+rel2.Release.ID)
	queryBefore := queryOne(t, client, ts1.URL+"/v1/datasets/inline/releases/"+rel1.Release.ID+"/query")

	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- restart ----
	srv2 := mustNew(t, Options{DataDir: dataDir, Workers: 1})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	client2 := ts2.Client()

	if n := srv2.Registry().Len(); n != 2 {
		t.Fatalf("recovered %d datasets, want 2", n)
	}
	d1b, ok := srv2.Registry().Get("inline")
	if !ok {
		t.Fatal("dataset inline lost")
	}
	if got := d1b.Ledger.Spent(); got != spentInline {
		t.Fatalf("recovered spent = %v, want %v", got, spentInline)
	}
	if got := len(d1b.Ledger.History()); got != histLen {
		t.Fatalf("recovered audit trail has %d entries, want %d", got, histLen)
	}
	if got := d1b.Ledger.Total(); got != 1.0 {
		t.Fatalf("recovered total budget = %v, want 1.0", got)
	}

	// Same release IDs, bit-identical artifacts.
	for _, c := range []struct {
		id   string
		want []byte
	}{{rel1.Release.ID, artifact1}, {rel2.Release.ID, artifact2}} {
		got := fetchArtifact(t, client2, ts2.URL+"/v1/datasets/inline/releases/"+c.id)
		if !bytes.Equal(got, c.want) {
			t.Fatalf("artifact %s not bit-identical across restart", c.id)
		}
		if _, err := privtree.Decode(got); err != nil {
			t.Fatalf("recovered artifact %s does not decode: %v", c.id, err)
		}
	}

	// Queries over the recovered release answer identically.
	if after := queryOne(t, client2, ts2.URL+"/v1/datasets/inline/releases/"+rel1.Release.ID+"/query"); after != queryBefore {
		t.Fatalf("recovered release answers %v, before restart %v", after, queryBefore)
	}

	// Re-requesting purchased parameters is a cache hit with no debit.
	var hit releaseResponse
	if code := doJSON(t, client2, "POST", ts2.URL+"/v1/datasets/inline/releases",
		map[string]any{"epsilon": 0.25, "seed": 7}, &hit); code != http.StatusOK {
		t.Fatalf("cached release after restart: %d, want 200", code)
	}
	if !hit.Cached || hit.Release.ID != rel1.Release.ID {
		t.Fatalf("restart lost the cache: cached=%v id=%s want %s", hit.Cached, hit.Release.ID, rel1.Release.ID)
	}
	if got := d1b.Ledger.Spent(); got != spentInline {
		t.Fatalf("cache hit after restart re-debited: %v -> %v", spentInline, got)
	}

	// The budget carries over: inline has 0.5 left of 1.0.
	var fresh releaseResponse
	if code := doJSON(t, client2, "POST", ts2.URL+"/v1/datasets/inline/releases",
		map[string]any{"epsilon": 0.5, "seed": 11}, &fresh); code != http.StatusCreated {
		t.Fatalf("fresh release after restart: %d", code)
	}
	if code := doJSON(t, client2, "POST", ts2.URL+"/v1/datasets/inline/releases",
		map[string]any{"epsilon": 0.25, "seed": 12}, nil); code != http.StatusForbidden {
		t.Fatalf("over-budget release after restart: %d, want 403", code)
	}

	// Store-bytes gauges are live.
	var met metricsResponse
	if code := doJSON(t, client2, "GET", ts2.URL+"/metricsz", nil, &met); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if met.StoreBytesTotal <= 0 {
		t.Fatalf("store_bytes_total = %d, want > 0", met.StoreBytesTotal)
	}
	for _, di := range met.Datasets {
		if di.StoreBytes <= 0 {
			t.Fatalf("dataset %s store_bytes = %d, want > 0", di.Name, di.StoreBytes)
		}
		if di.EpsilonRemaining < 0 {
			t.Fatalf("dataset %s remaining ε negative", di.Name)
		}
	}
}

// TestServerRestartSurvivesBudgetAttack bounces the server and tries to
// spend the whole budget again — the exact attack the WAL exists to stop.
func TestServerRestartSurvivesBudgetAttack(t *testing.T) {
	dataDir := t.TempDir()
	srv1 := mustNew(t, Options{DataDir: dataDir, Workers: 1})
	d, err := srv1.Registry().AddSpatial("victim", privtree.UnitCube(2), testPoints(1000), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Programmatic registration bypasses the HTTP persistence path, so
	// attach the store the way the handler would.
	t.Cleanup(func() { srv1.Close() })
	if err := writeDatasetFile(srv1.datasetDir("victim"), &registerRequest{
		Name: "victim", Epsilon: 0.5, Points: testPoints(1000),
	}, d.CreatedAt); err != nil {
		t.Fatal(err)
	}
	if err := d.AttachStore(filepath.Join(srv1.datasetDir("victim"), "store")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Release(ReleaseParams{Epsilon: 0.5, Seed: 3}, 1); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := mustNew(t, Options{DataDir: dataDir, Workers: 1})
	defer srv2.Close()
	d2, ok := srv2.Registry().Get("victim")
	if !ok {
		t.Fatal("victim dataset lost")
	}
	if _, _, err := d2.Release(ReleaseParams{Epsilon: 0.5, Seed: 99}, 1); err == nil {
		t.Fatal("restart forgot the spent budget: second 0.5 release accepted")
	}
	if got := d2.Ledger.Remaining(); got != 0 {
		t.Fatalf("remaining after exhausting restart = %v, want 0", got)
	}
}

// TestLoadDataDirRejectsCorruptState ensures recovery is strict: a
// mangled dataset.json must fail startup, not silently serve a dataset
// with a forgotten ledger.
func TestLoadDataDirRejectsCorruptState(t *testing.T) {
	dataDir := t.TempDir()
	srv1 := mustNew(t, Options{DataDir: dataDir})
	ts := httptest.NewServer(srv1)
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/datasets", map[string]any{
		"name": "ds", "epsilon": 1.0, "points": ptsAsRows(testPoints(100)),
	}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	ts.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dataDir, "datasets", "ds", "dataset.json")
	if err := os.WriteFile(path, []byte(`{"privtreed_dataset":1,"request":{`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{DataDir: dataDir}); err == nil {
		t.Fatal("corrupt dataset.json accepted at startup")
	}
}

// TestSequenceDatasetRestart covers the second release pipeline:
// sequence datasets and their models round-trip the restart too.
func TestSequenceDatasetRestart(t *testing.T) {
	dataDir := t.TempDir()
	seqs := make([][]int, 200)
	for i := range seqs {
		seqs[i] = []int{i % 5, (i + 1) % 5, (i + 2) % 5}
	}
	srv1 := mustNew(t, Options{DataDir: dataDir, Workers: 1})
	ts1 := httptest.NewServer(srv1)
	if code := doJSON(t, ts1.Client(), "POST", ts1.URL+"/v1/datasets", map[string]any{
		"name": "clicks", "epsilon": 1.0, "alphabet": 5, "sequences": seqs,
	}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	var rel releaseResponse
	if code := doJSON(t, ts1.Client(), "POST", ts1.URL+"/v1/datasets/clicks/releases",
		map[string]any{"epsilon": 0.5, "seed": 4}, &rel); code != http.StatusCreated {
		t.Fatalf("release: %d", code)
	}
	artifact := fetchArtifact(t, ts1.Client(), ts1.URL+"/v1/datasets/clicks/releases/"+rel.Release.ID)
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := mustNew(t, Options{DataDir: dataDir, Workers: 1})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	got := fetchArtifact(t, ts2.Client(), ts2.URL+"/v1/datasets/clicks/releases/"+rel.Release.ID)
	if !bytes.Equal(got, artifact) {
		t.Fatal("sequence artifact not bit-identical across restart")
	}
	// The recovered model answers frequency queries.
	var qr struct {
		Counts []float64 `json:"counts"`
	}
	if code := doJSON(t, ts2.Client(), "POST",
		ts2.URL+"/v1/datasets/clicks/releases/"+rel.Release.ID+"/query",
		map[string]any{"strings": [][]int{{0, 1}}}, &qr); code != http.StatusOK {
		t.Fatalf("query on recovered sequence release: %d", code)
	}
	if len(qr.Counts) != 1 {
		t.Fatalf("got %d counts, want 1", len(qr.Counts))
	}
}

func ptsAsRows(pts []privtree.Point) [][]float64 {
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = []float64(p)
	}
	return rows
}

func fetchArtifact(t *testing.T, client *http.Client, url string) []byte {
	t.Helper()
	var out struct {
		Artifact json.RawMessage `json:"artifact"`
	}
	if code := doJSON(t, client, "GET", url, nil, &out); code != http.StatusOK {
		t.Fatalf("GET %s: %d", url, code)
	}
	return out.Artifact
}

func queryOne(t *testing.T, client *http.Client, url string) float64 {
	t.Helper()
	var out struct {
		Counts []float64 `json:"counts"`
	}
	if code := doJSON(t, client, "POST", url,
		map[string]any{"queries": [][]float64{{0.1, 0.1, 0.6, 0.7}}}, &out); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if len(out.Counts) != 1 {
		t.Fatalf("got %d counts, want 1", len(out.Counts))
	}
	return out.Counts[0]
}

// registerBodies registers each body on srv over HTTP.
func registerBodies(t *testing.T, srv *Server, bodies ...string) {
	t.Helper()
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets", strings.NewReader(body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("register %s = %d %s", body, rec.Code, rec.Body)
		}
	}
}

// TestRecoveryRejectsFlippedRowByte flips one byte of a version-2
// dataset.json's row section, which version 1 had no way to notice:
// startup must fail with an error that names the dataset and the
// checksum.
func TestRecoveryRejectsFlippedRowByte(t *testing.T) {
	for _, body := range []string{registrationBodies["points"], registrationBodies["sequences"]} {
		dataDir := t.TempDir()
		srv := mustNew(t, Options{DataDir: dataDir, Workers: 1})
		registerBodies(t, srv, body)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		name := decodeBody(t, body).Name
		path := filepath.Join(dataDir, "datasets", name, "dataset.json")
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		nl := bytes.IndexByte(blob, '\n')
		blob[nl+1+(len(blob)-nl-5)/2] ^= 0x10
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = New(Options{DataDir: dataDir, Workers: 1})
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("%s: startup over a flipped row byte = %v, want a checksum error naming the dataset", name, err)
		}
	}
}

// TestRegistrationRowsSurviveRestartAndReplica registers inline points
// (with -0, subnormals and the smallest float) and inline sequences,
// buys a release of each and lets a replica catch up. The replica's
// dataset.json must be the primary's bytes and read back to the
// registered rows, bit for bit. After promotion, and again after a
// restart of the promoted node, repeating the purchased parameters must
// be a cache hit with no debit.
func TestRegistrationRowsSurviveRestartAndReplica(t *testing.T) {
	primary := mustNew(t, Options{DataDir: t.TempDir(), Workers: 1})
	tsP := httptest.NewServer(primary)
	defer tsP.Close()
	defer primary.Close()
	client := tsP.Client()
	bodies := []string{registrationBodies["points"], registrationBodies["sequences"]}
	registerBodies(t, primary, bodies...)
	params := map[string]any{"epsilon": 0.25, "seed": 7}
	ids := map[string]string{}
	for _, body := range bodies {
		name := decodeBody(t, body).Name
		var rel releaseResponse
		if code := doJSON(t, client, "POST", tsP.URL+"/v1/datasets/"+name+"/releases", params, &rel); code != http.StatusCreated {
			t.Fatalf("%s: release = %d", name, code)
		}
		ids[name] = rel.Release.ID
	}

	replicaDir := t.TempDir()
	replica := mustNew(t, Options{DataDir: replicaDir, Workers: 1, ReplicaOf: tsP.URL, ReplicaPoll: 10 * time.Millisecond})
	waitUntil(t, "replica catch-up", func() bool {
		for name := range ids {
			dP, _ := primary.Registry().Get(name)
			dR, ok := replica.Registry().Get(name)
			if !ok || dR.WALSeq() < dP.WALSeq() {
				return false
			}
		}
		return true
	})
	for _, body := range bodies {
		want := decodeBody(t, body)
		pBlob, err := os.ReadFile(filepath.Join(primary.datasetDir(want.Name), "dataset.json"))
		if err != nil {
			t.Fatal(err)
		}
		rBlob, err := os.ReadFile(filepath.Join(replica.datasetDir(want.Name), "dataset.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pBlob, rBlob) {
			t.Fatalf("%s: the replica's dataset.json differs from the primary's", want.Name)
		}
		pd, err := parseDatasetFile(rBlob, want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRequest(&pd.Request, &want); err != nil {
			t.Fatalf("%s: replica rows differ from the registered rows: %v", want.Name, err)
		}
	}

	tsR := httptest.NewServer(replica)
	if code := doJSON(t, client, "POST", tsR.URL+"/v1/admin/promote", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("promote: %d", code)
	}
	repeat := func(srv *Server, url, when string) {
		t.Helper()
		for name, id := range ids {
			d, _ := srv.Registry().Get(name)
			spent := d.Ledger.Spent()
			var hit releaseResponse
			if code := doJSON(t, client, "POST", url+"/v1/datasets/"+name+"/releases", params, &hit); code != http.StatusOK {
				t.Fatalf("%s, %s: repeated release = %d, want 200", when, name, code)
			}
			if !hit.Cached || hit.Release.ID != id {
				t.Fatalf("%s, %s: repeated release cached=%v id=%s, want the cached %s", when, name, hit.Cached, hit.Release.ID, id)
			}
			if got := d.Ledger.Spent(); got != spent {
				t.Fatalf("%s, %s: repeated release debited: %v -> %v", when, name, spent, got)
			}
		}
	}
	repeat(replica, tsR.URL, "promoted replica")
	tsR.Close()
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	restarted := mustNew(t, Options{DataDir: replicaDir, Workers: 1})
	defer restarted.Close()
	tsS := httptest.NewServer(restarted)
	defer tsS.Close()
	repeat(restarted, tsS.URL, "restarted")
}

// TestNewerDatasetFileNamed: a dataset.json written by a newer build
// fails with an error that names its version and says to upgrade,
// whether or not its header parses here, instead of calling the file
// corrupt. A replica's Ensure leaves naming the dataset to the syncer
// pass that calls it, so the name is not in its error twice.
func TestNewerDatasetFileNamed(t *testing.T) {
	docs := []string{
		`{"privtreed_dataset":3,"created_at":"2026-03-04T05:06:07Z","request":{"name":"h","epsilon":1},"columns":[]}` + "\n\x00\x00\x00\x00",
		`{"privtreed_dataset":3,"request":{"name":"h","epsilon":1,"points":"AAAA"}}`,
		`{"privtreed_dataset":3,"created_at":"2026-03-04T05:06:07Z","request":{"name":"h","epsilon":1}}`,
	}
	for _, doc := range docs {
		_, err := parseDatasetFile([]byte(doc), "h")
		if err == nil || !strings.Contains(err.Error(), "version 3 is newer than this node reads; upgrade it") {
			t.Errorf("%.60q: error %v, want one naming the newer version", doc, err)
		}
	}
	srv := mustNew(t, Options{DataDir: t.TempDir(), Workers: 1})
	defer srv.Close()
	_, err := replicaTarget{srv}.Ensure(repl.DatasetDoc{Name: "h"}, []byte(docs[0]))
	if err == nil || !strings.Contains(err.Error(), "newer") || strings.Contains(err.Error(), `"h"`) {
		t.Fatalf("Ensure of a newer registration: error %v, want the version error without the dataset name", err)
	}
}
