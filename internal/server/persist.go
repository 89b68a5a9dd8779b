// Dataset persistence for privtreed's -data-dir mode. Layout:
//
//	<DataDir>/datasets/<name>/dataset.json   registration request + created_at
//	<DataDir>/datasets/<name>/store/         the session's WAL + artifacts
//
// dataset.json replays the original registration on startup (synthetic
// sources regenerate deterministically from their seed; inline sources
// are stored verbatim — the raw data already lives inside the server's
// trust boundary, that is the privacy model of registration). The store
// directory is owned by internal/store via the session: it recovers
// spent ε, the audit trail, and every committed release envelope.
//
// dataset.json is written by json.Marshal and read back by the one-pass
// registration reader in regcodec.go (the same reader POST /v1/datasets
// bodies go through), on restart, in a replica's Ensure and in
// `privtree verify`. Replication ships the file verbatim: the listing
// (GET /v1/repl/datasets) advertises only its size and SHA-256, hashed
// once per dataset and cached, and a replica fetches the bytes from
// GET /v1/repl/datasets/{name}/registration the first time it sees the
// dataset.
//
// Ordering: dataset.json is written (tmp → fsync → rename → dir fsync)
// and the store attached BEFORE the dataset becomes visible in the
// registry, so no client can spend ε against a dataset whose ledger
// would not survive a crash.
package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const datasetFileVersion = 1

// persistedDataset is the dataset.json document.
type persistedDataset struct {
	Version   int             `json:"privtreed_dataset"`
	CreatedAt time.Time       `json:"created_at"`
	Request   registerRequest `json:"request"`
}

// datasetDir returns the persistence directory for a dataset name (names
// are pre-validated by ValidateName, so they are path-safe by
// construction).
func (s *Server) datasetDir(name string) string {
	return filepath.Join(s.opts.DataDir, "datasets", name)
}

// writeDatasetFile durably records the registration request: tmp write,
// fsync, rename, directory fsync. After a crash either the complete file
// exists or none does.
func writeDatasetFile(dsDir string, req *registerRequest, createdAt time.Time) error {
	blob, err := json.Marshal(persistedDataset{
		Version:   datasetFileVersion,
		CreatedAt: createdAt,
		Request:   *req,
	})
	if err != nil {
		return err
	}
	return writeDatasetBlob(dsDir, blob)
}

// writeDatasetBlob durably writes already-marshaled dataset.json bytes.
// Replicas use it directly so the registration document they persist is
// byte-identical to the primary's, not a re-marshaling of it.
func writeDatasetBlob(dsDir string, blob []byte) error {
	if err := os.MkdirAll(dsDir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(dsDir, "dataset.json")
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dsDir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// parseDatasetFile decodes the dataset.json document of the dataset
// called name and checks its version and that it names that dataset.
func parseDatasetFile(blob []byte, name string) (persistedDataset, error) {
	pd, err := decodeDatasetFile(blob)
	if err != nil {
		return pd, fmt.Errorf("corrupt dataset.json: %w", err)
	}
	if pd.Version != datasetFileVersion {
		return pd, fmt.Errorf("unsupported dataset file version %d", pd.Version)
	}
	if pd.Request.Name != name {
		return pd, fmt.Errorf("dataset.json names %q", pd.Request.Name)
	}
	return pd, nil
}

// readDatasetFile reads and parses dsDir/dataset.json; the dataset's name
// is the directory's.
func readDatasetFile(dsDir string) (persistedDataset, error) {
	blob, err := os.ReadFile(filepath.Join(dsDir, "dataset.json"))
	if err != nil {
		return persistedDataset{}, err
	}
	return parseDatasetFile(blob, filepath.Base(dsDir))
}

// CheckDatasetFile reads dsDir/dataset.json exactly as recovery does, so
// an offline verify fails on every document a restart would refuse.
func CheckDatasetFile(dsDir string) error {
	_, err := readDatasetFile(dsDir)
	return err
}

// loadDataDir recovers every persisted dataset at startup: replay the
// registration, attach the store (which restores the ledger and the
// committed releases), and insert. Recovery is strict — a dataset that
// cannot be restored fails startup rather than silently serving with a
// forgotten budget.
func (s *Server) loadDataDir() error {
	if s.opts.DataDir == "" {
		return nil
	}
	root := filepath.Join(s.opts.DataDir, "datasets")
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil // fresh data dir
	}
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		pd, err := readDatasetFile(filepath.Join(root, name))
		if err != nil {
			return fmt.Errorf("server: recovering dataset %q: %w", name, err)
		}
		d, err := s.buildDataset(&pd.Request)
		if err != nil {
			return fmt.Errorf("server: recovering dataset %q: %w", name, err)
		}
		d.CreatedAt = pd.CreatedAt
		if err := d.AttachStore(filepath.Join(root, name, "store")); err != nil {
			return fmt.Errorf("server: recovering dataset %q: %w", name, err)
		}
		if err := s.registry.Insert(d); err != nil {
			d.Close()
			return err
		}
		s.datasetRegistered(d)
	}
	return nil
}
