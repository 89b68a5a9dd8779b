package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privtree/internal/server"
	"privtree/internal/store"
)

// seedStore creates a closed store at dir with one debit and one
// committed release, so the scrub has every record kind to verify.
func seedStore(t *testing.T, dir string) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDebit(0.5, "rel-1"); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitRelease("rel-1", []byte(`{"privtree_release":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCleanStore(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	if err := runVerify([]string{dir}); err != nil {
		t.Fatalf("verify of a clean store: %v", err)
	}
}

// seedDataset lays out datasets/<name> of a data dir as privtreed does:
// a dataset.json registering a few inline points, and a seeded store.
func seedDataset(t *testing.T, root, name string) string {
	t.Helper()
	dir := filepath.Join(root, "datasets", name)
	seedStore(t, filepath.Join(dir, "store"))
	doc := `{"privtreed_dataset":1,"created_at":"2026-01-02T03:04:05Z","request":{"name":"` + name +
		`","epsilon":1,"points":[[0.125,0.25],[0.5,0.75],[0.875,0.0625],[0.3,0.6]]}}`
	path := filepath.Join(dir, "dataset.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// verifyOutput runs verify with stdout captured.
func verifyOutput(t *testing.T, args []string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	verr := runVerify(args)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), verr
}

func TestVerifyDataDirLayout(t *testing.T) {
	root := t.TempDir()
	seedDataset(t, root, "a")
	seedDataset(t, root, "b")
	if err := runVerify([]string{root}); err != nil {
		t.Fatalf("verify of a data dir: %v", err)
	}
}

// TestVerifyDatasetFile checks that verify reads every dataset.json of a
// data dir as recovery does: a flipped byte, a truncated file, a missing
// file and a document naming another dataset each fail the run, and the
// report names the file.
func TestVerifyDatasetFile(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"bitflip":   func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-7] },
		"renamed":   func(b []byte) []byte { return bytes.Replace(b, []byte(`"name":"a"`), []byte(`"name":"b"`), 1) },
		"missing":   func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			path := seedDataset(t, root, "a")
			seedDataset(t, root, "c")
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if blob = damage(blob); blob == nil {
				err = os.Remove(path)
			} else {
				err = os.WriteFile(path, blob, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			out, err := verifyOutput(t, []string{root})
			if err == nil {
				t.Fatalf("verify accepted a damaged dataset.json:\n%s", out)
			}
			if !strings.Contains(out, "[error] "+path) {
				t.Fatalf("verify output does not name %s:\n%s", path, out)
			}
		})
	}
}

// TestVerifyDetectsHostileEdits proves every class of tamper the scrub
// guards against turns into a non-zero verify result: flipped WAL bytes,
// artifact bytes that no longer match their content address, and a
// commit whose artifact was deleted.
func TestVerifyDetectsHostileEdits(t *testing.T) {
	t.Run("wal-bitflip", func(t *testing.T) {
		dir := t.TempDir()
		seedStore(t, dir)
		wal := filepath.Join(dir, "ledger.wal")
		blob, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0xff
		if err := os.WriteFile(wal, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runVerify([]string{dir}); err == nil {
			t.Fatal("verify accepted a WAL with a flipped byte")
		}
	})

	t.Run("artifact-tamper", func(t *testing.T) {
		dir := t.TempDir()
		seedStore(t, dir)
		arts, err := filepath.Glob(filepath.Join(dir, "artifacts", "*.json"))
		if err != nil || len(arts) != 1 {
			t.Fatalf("artifacts = %v, %v", arts, err)
		}
		if err := os.WriteFile(arts[0], []byte(`{"privtree_release":1,"edited":true}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runVerify([]string{dir}); err == nil {
			t.Fatal("verify accepted an artifact that does not hash to its name")
		}
	})

	t.Run("missing-artifact", func(t *testing.T) {
		dir := t.TempDir()
		seedStore(t, dir)
		arts, _ := filepath.Glob(filepath.Join(dir, "artifacts", "*.json"))
		for _, a := range arts {
			if err := os.Remove(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := runVerify([]string{dir}); err == nil {
			t.Fatal("verify accepted a commit pointing at a deleted artifact")
		}
	})

	t.Run("not-a-store", func(t *testing.T) {
		if err := runVerify([]string{t.TempDir()}); err == nil {
			t.Fatal("verify accepted an empty directory")
		}
	})

	t.Run("usage", func(t *testing.T) {
		if err := runVerify(nil); err == nil {
			t.Fatal("verify accepted no arguments")
		}
	})
}

// TestVerifyDatasetFileV2 registers a dataset with inline points on a
// real server, so its dataset.json is the version-2 file privtreed
// writes: verify passes it, and fails it, naming the file, once one byte
// of its binary row section is flipped.
func TestVerifyDatasetFileV2(t *testing.T) {
	root := t.TempDir()
	srv, err := server.New(server.Options{DataDir: root, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets",
		strings.NewReader(`{"name":"v2","epsilon":1,"points":[[0.125,0.25],[0.5,0.75],[-0,5e-324]]}`)))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusCreated {
		t.Fatalf("register = %d %s", rec.Code, rec.Body)
	}
	if out, err := verifyOutput(t, []string{root}); err != nil {
		t.Fatalf("verify of a clean version-2 data dir: %v\n%s", err, out)
	}
	path := filepath.Join(root, "datasets", "v2", "dataset.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[bytes.IndexByte(blob, '\n')+3] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := verifyOutput(t, []string{root})
	if err == nil {
		t.Fatalf("verify accepted a flipped row byte:\n%s", out)
	}
	if !strings.Contains(out, "[error] "+path) || !strings.Contains(out, "checksum") {
		t.Fatalf("verify output does not name %s and its checksum:\n%s", path, out)
	}
}
