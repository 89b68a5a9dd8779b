package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"privtree/internal/store"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func errCode(t *testing.T, client *http.Client, method, url string, body any) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&envelope)
	return resp.StatusCode, envelope.Error.Code
}

// TestReplicationEndToEnd drives the whole replication plane in-process:
// a primary and a replica syncing from it, bit-identical read serving,
// read_only write rejection, catch-up readiness, promotion with fencing
// of the old primary, and continued writes on the promoted node.
func TestReplicationEndToEnd(t *testing.T) {
	primary := mustNew(t, Options{DataDir: t.TempDir(), Workers: 1})
	tsP := httptest.NewServer(primary)
	defer tsP.Close()
	client := tsP.Client()

	if code := doJSON(t, client, "POST", tsP.URL+"/v1/datasets", map[string]any{
		"name": "demo", "epsilon": 2.0,
		"synthetic": map[string]any{"generator": "road", "n": 3000, "seed": 42},
	}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	var rel1, rel2 releaseResponse
	if code := doJSON(t, client, "POST", tsP.URL+"/v1/datasets/demo/releases",
		map[string]any{"epsilon": 0.25, "seed": 7}, &rel1); code != http.StatusCreated {
		t.Fatalf("release 1: %d", code)
	}

	replica := mustNew(t, Options{
		DataDir: t.TempDir(), Workers: 1,
		ReplicaOf: tsP.URL, ReplicaPoll: 10 * time.Millisecond,
	})
	tsR := httptest.NewServer(replica)
	defer tsR.Close()

	// Readiness flips only after the first fully caught-up pass.
	waitUntil(t, "replica readiness", func() bool {
		resp, err := client.Get(tsR.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// The replicated dataset serves bit-identical artifacts and equal budgets.
	dP, _ := primary.Registry().Get("demo")
	dR, ok := replica.Registry().Get("demo")
	if !ok {
		t.Fatal("replica did not materialize dataset demo")
	}
	if got, want := dR.Ledger.Spent(), dP.Ledger.Spent(); got != want {
		t.Fatalf("replica spent %v, primary %v", got, want)
	}
	artP := fetchArtifact(t, client, tsP.URL+"/v1/datasets/demo/releases/"+rel1.Release.ID)
	artR := fetchArtifact(t, client, tsR.URL+"/v1/datasets/demo/releases/"+rel1.Release.ID)
	if !bytes.Equal(artP, artR) {
		t.Fatal("replicated artifact bytes differ from the primary's")
	}
	if got := queryOne(t, client, tsR.URL+"/v1/datasets/demo/releases/"+rel1.Release.ID+"/query"); got < 0 {
		t.Fatalf("replica query = %v", got)
	}

	// Writes are rejected with the structured read_only code.
	if status, code := errCode(t, client, "POST", tsR.URL+"/v1/datasets/demo/releases",
		map[string]any{"epsilon": 0.25, "seed": 9}); status != http.StatusForbidden || code != "read_only" {
		t.Fatalf("replica write = %d %q, want 403 read_only", status, code)
	}
	if status, code := errCode(t, client, "POST", tsR.URL+"/v1/datasets",
		map[string]any{"name": "x", "epsilon": 1.0, "points": [][]float64{{0.5, 0.5}}}); status != http.StatusForbidden || code != "read_only" {
		t.Fatalf("replica register = %d %q, want 403 read_only", status, code)
	}

	// A release created after the replica attached ships too.
	if code := doJSON(t, client, "POST", tsP.URL+"/v1/datasets/demo/releases",
		map[string]any{"epsilon": 0.5, "seed": 8}, &rel2); code != http.StatusCreated {
		t.Fatalf("release 2: %d", code)
	}
	waitUntil(t, "release 2 to replicate", func() bool { return dR.WALSeq() >= dP.WALSeq() })
	if !bytes.Equal(
		fetchArtifact(t, client, tsP.URL+"/v1/datasets/demo/releases/"+rel2.Release.ID),
		fetchArtifact(t, client, tsR.URL+"/v1/datasets/demo/releases/"+rel2.Release.ID)) {
		t.Fatal("second replicated artifact differs")
	}

	// Fencing the live writer is refused; epoch 0 is malformed.
	if status, code := errCode(t, client, "POST", tsP.URL+"/v1/admin/fence",
		map[string]any{"epoch": 0}); status != http.StatusBadRequest || code != "bad_request" {
		t.Fatalf("fence epoch 0 = %d %q", status, code)
	}

	// Promote the replica. The old primary is fenced (best-effort push,
	// so poll), the new primary accepts writes, and re-promotion is a
	// conflict.
	var promoted struct {
		Promoted     bool              `json:"promoted"`
		WriterEpochs map[string]uint64 `json:"writer_epochs"`
	}
	if code := doJSON(t, client, "POST", tsR.URL+"/v1/admin/promote", map[string]any{}, &promoted); code != http.StatusOK {
		t.Fatalf("promote: %d", code)
	}
	if !promoted.Promoted || promoted.WriterEpochs["demo"] != 1 {
		t.Fatalf("promotion response: %+v", promoted)
	}
	if status, code := errCode(t, client, "POST", tsR.URL+"/v1/admin/promote", map[string]any{}); status != http.StatusConflict || code != "conflict" {
		t.Fatalf("second promote = %d %q, want 409 conflict", status, code)
	}
	waitUntil(t, "old primary to be fenced", func() bool {
		_, fenced := dP.store.FencedEpoch()
		return fenced
	})
	if status, code := errCode(t, client, "POST", tsP.URL+"/v1/datasets/demo/releases",
		map[string]any{"epsilon": 0.125, "seed": 11}); status != http.StatusForbidden || code != "fenced" {
		t.Fatalf("fenced primary write = %d %q, want 403 fenced", status, code)
	}
	if status, code := errCode(t, client, "POST", tsP.URL+"/v1/datasets",
		map[string]any{"name": "y", "epsilon": 1.0, "points": [][]float64{{0.5, 0.5}}}); status != http.StatusForbidden || code != "fenced" {
		t.Fatalf("fenced primary register = %d %q, want 403 fenced", status, code)
	}

	// The promoted node is the budget-writer now: new releases debit its
	// ledger, continuing exactly where the acked history left off.
	var rel3 releaseResponse
	if code := doJSON(t, client, "POST", tsR.URL+"/v1/datasets/demo/releases",
		map[string]any{"epsilon": 0.25, "seed": 10}, &rel3); code != http.StatusCreated {
		t.Fatalf("post-promotion release: %d", code)
	}
	if got, want := dR.Ledger.Spent(), 1.0; got != want {
		t.Fatalf("promoted spent = %v, want %v", got, want)
	}
	// Readiness survives promotion; role flips to primary.
	var ready struct {
		Ready bool   `json:"ready"`
		Role  string `json:"role"`
	}
	if code := doJSON(t, client, "GET", tsR.URL+"/readyz", nil, &ready); code != http.StatusOK || ready.Role != "primary" {
		t.Fatalf("readyz after promotion = %d %+v", code, ready)
	}

	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaNotReadyWithDeadPrimary proves /readyz stays 503 not_ready
// while a replica has never completed a catch-up pass, and /healthz
// stays 200 — readiness and liveness are distinct signals.
func TestReplicaNotReadyWithDeadPrimary(t *testing.T) {
	replica := mustNew(t, Options{
		DataDir: t.TempDir(), Workers: 1,
		ReplicaOf: "http://127.0.0.1:1", ReplicaPoll: 5 * time.Millisecond,
	})
	defer replica.Close()
	ts := httptest.NewServer(replica)
	defer ts.Close()

	status, code := errCode(t, ts.Client(), "GET", ts.URL+"/readyz", nil)
	if status != http.StatusServiceUnavailable || code != "not_ready" {
		t.Fatalf("readyz = %d %q, want 503 not_ready", status, code)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}

// TestReplicaRequiresDataDir proves the constructor refuses a replica
// without durable state.
func TestReplicaRequiresDataDir(t *testing.T) {
	if _, err := New(Options{ReplicaOf: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("New accepted -replica-of without a data dir")
	}
}

// TestReplListingOmitsRegistration checks that the replication listing
// names each dataset's registration by size and SHA-256 instead of
// carrying it: registering a dataset a thousand times larger adds only
// one fixed-size entry to the listing, and the registration endpoint
// serves the dataset.json the listing describes, byte for byte.
func TestReplListingOmitsRegistration(t *testing.T) {
	dir := t.TempDir()
	primary := mustNew(t, Options{DataDir: dir, Workers: 1})
	ts := httptest.NewServer(primary)
	defer ts.Close()
	client := ts.Client()
	listing := func() ([]byte, []replDatasetDoc) {
		resp, err := client.Get(ts.URL + "/v1/repl/datasets")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Datasets []replDatasetDoc `json:"datasets"`
		}
		if err := json.Unmarshal(blob, &out); err != nil {
			t.Fatal(err)
		}
		return blob, out.Datasets
	}
	register := func(name string, n int) {
		if code := doJSON(t, client, "POST", ts.URL+"/v1/datasets", map[string]any{
			"name": name, "epsilon": 1.0, "points": testPoints(n),
		}, nil); code != http.StatusCreated {
			t.Fatalf("register %s: %d", name, code)
		}
	}
	register("small", 20)
	one, _ := listing()
	register("large", 20_000)
	two, docs := listing()
	if growth := len(two) - len(one); growth > 2*len(one) {
		t.Fatalf("listing grew by %d bytes for one more dataset (was %d bytes)", growth, len(one))
	}
	for _, doc := range docs {
		file, err := os.ReadFile(filepath.Join(dir, "datasets", doc.Name, "dataset.json"))
		if err != nil {
			t.Fatal(err)
		}
		if doc.RegistrationBytes != int64(len(file)) || !store.VerifyAddr(doc.RegistrationSHA256, file) {
			t.Fatalf("%s: listing advertises %d bytes / %s for a %d-byte dataset.json",
				doc.Name, doc.RegistrationBytes, doc.RegistrationSHA256, len(file))
		}
		if doc.Name == "large" && len(two) >= len(file) {
			t.Fatalf("listing (%d bytes) is not smaller than the registration it names (%d bytes)", len(two), len(file))
		}
		resp, err := client.Get(ts.URL + "/v1/repl/datasets/" + doc.Name + "/registration")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, file) {
			t.Fatalf("%s: registration endpoint does not serve dataset.json verbatim (%d, %v)", doc.Name, resp.StatusCode, err)
		}
	}
}

// TestReplicaRefusesCorruptRegistration puts a proxy between replica and
// primary that flips one byte of the first registration it relays. The
// replica must refuse those bytes (they do not hash to the listing's
// SHA-256), fetch the document again on a later pass, persist the
// primary's exact bytes, and then never fetch it again while it polls.
func TestReplicaRefusesCorruptRegistration(t *testing.T) {
	pdir := t.TempDir()
	primary := mustNew(t, Options{DataDir: pdir, Workers: 1})
	var fetches, listings atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/registration"):
			rec := httptest.NewRecorder()
			primary.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if fetches.Add(1) == 1 && len(body) > 0 {
				body[len(body)/2] ^= 0x01
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
			return
		case r.URL.Path == "/v1/repl/datasets":
			listings.Add(1)
		}
		primary.ServeHTTP(w, r)
	}))
	defer proxy.Close()
	client := proxy.Client()
	if code := doJSON(t, client, "POST", proxy.URL+"/v1/datasets", map[string]any{
		"name": "demo", "epsilon": 1.0, "points": testPoints(500),
	}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}

	rdir := t.TempDir()
	replica := mustNew(t, Options{DataDir: rdir, Workers: 1, ReplicaOf: proxy.URL, ReplicaPoll: 5 * time.Millisecond})
	defer replica.Close()
	waitUntil(t, "the replica to create demo", func() bool { _, ok := replica.Registry().Get("demo"); return ok })
	if n := fetches.Load(); n != 2 {
		t.Fatalf("registration fetched %d times, want 2 (one refused, one applied)", n)
	}
	want, err := os.ReadFile(filepath.Join(pdir, "datasets", "demo", "dataset.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(rdir, "datasets", "demo", "dataset.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("replica persisted a registration that differs from the primary's")
	}
	seen := listings.Load()
	waitUntil(t, "ten more sync passes", func() bool { return listings.Load() >= seen+10 })
	if n := fetches.Load(); n != 2 {
		t.Fatalf("registration fetched %d times after the dataset existed, want no more fetches", n)
	}
}
