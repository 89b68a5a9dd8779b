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
// dataset.json is written in version 2, a JSON header line followed by
// the inline rows as a binary column:
//
//	{"privtreed_dataset":2,"created_at":…,"request":{…},"rows":{…}}\n
//	row section   points: n·dims float64 bits, little-endian, row-major
//	              sequences: per row a uvarint length, then its symbols
//	              as uvarints (int64 two's complement bits)
//	CRC32C        4 bytes, little-endian, Castagnoli, over all before it
//
// The header is exactly what json.Marshal writes for persistedDataset,
// with the request's points and sequences left out; rows (a rowShape)
// names which of the two the section holds and its size, and is absent
// when the registration has no inline rows (csv, synthetic, stream),
// whose section is empty. The reader refuses a header json.Marshal would
// not have written, a non-minimal uvarint and a bad checksum, so an
// accepted file is the one encoding of its registration. Version 1 is
// the json.Marshal of the whole persistedDataset (inline rows as JSON
// arrays), which has no raw newline; such files are still read, with the
// registration reader in regcodec.go, and are never rewritten, so a
// replica's copy keeps its SHA-256.
//
// Replication ships the file verbatim: the listing (GET
// /v1/repl/datasets) advertises only its size and SHA-256, hashed once
// per dataset and cached, and a replica fetches the bytes from GET
// /v1/repl/datasets/{name}/registration the first time it sees the
// dataset. The same reader runs on restart, in a replica's Ensure and in
// `privtree verify`.
//
// Ordering: dataset.json is written (tmp → fsync → rename → dir fsync)
// and the store attached BEFORE the dataset becomes visible in the
// registry, so no client can spend ε against a dataset whose ledger
// would not survive a crash.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"time"

	"privtree"
	"privtree/internal/wire"
)

// The dataset.json versions: 1 is all JSON, 2 a JSON header and a binary
// row section (see the package comment above).
const (
	datasetFileV1 = 1
	datasetFileV2 = 2
)

// persistedDataset is the dataset.json document; in version 2 it is the
// header line, and the request's rows live in the row section.
type persistedDataset struct {
	Version   int             `json:"privtreed_dataset"`
	CreatedAt time.Time       `json:"created_at"`
	Request   registerRequest `json:"request"`
	Rows      *rowShape       `json:"rows,omitempty"`
}

// rowShape describes a version-2 row section.
type rowShape struct {
	Field string `json:"field"`          // "points" or "sequences"
	N     int    `json:"n"`              // rows
	Dims  int    `json:"dims,omitempty"` // points: coordinates per row
	Bytes int    `json:"bytes"`          // length of the section
}

// castagnoli is the CRC32C table, as internal/store's WAL frames use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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
	blob, err := encodeDatasetFile(req, createdAt)
	if err != nil {
		return err
	}
	return writeDatasetBlob(dsDir, blob)
}

// encodeDatasetFile writes req as a version-2 dataset.json. The request
// has been built into a dataset, so it has at most one of points and
// sequences, and every point has the domain's width.
func encodeDatasetFile(req *registerRequest, createdAt time.Time) ([]byte, error) {
	hdr := persistedDataset{Version: datasetFileV2, CreatedAt: createdAt, Request: *req}
	hdr.Request.Points, hdr.Request.Sequences = nil, nil
	switch {
	case req.Points != nil:
		shape := rowShape{Field: "points", N: len(req.Points)}
		if shape.N > 0 {
			shape.Dims = len(req.Points[0])
		}
		shape.Bytes = 8 * shape.N * shape.Dims
		hdr.Rows = &shape
	case req.Sequences != nil:
		size := 0
		for _, sq := range req.Sequences {
			size += uvarintLen(uint64(len(sq)))
			for _, x := range sq {
				size += uvarintLen(uint64(x))
			}
		}
		hdr.Rows = &rowShape{Field: "sequences", N: len(req.Sequences), Bytes: size}
	}
	head, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	size := 0
	if hdr.Rows != nil {
		size = hdr.Rows.Bytes
	}
	blob := make([]byte, 0, len(head)+1+size+4)
	blob = append(append(blob, head...), '\n')
	for _, p := range req.Points {
		for _, x := range p {
			blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(x))
		}
	}
	for _, sq := range req.Sequences {
		blob = binary.AppendUvarint(blob, uint64(len(sq)))
		for _, x := range sq {
			blob = binary.AppendUvarint(blob, uint64(x))
		}
	}
	return binary.LittleEndian.AppendUint32(blob, crc32.Checksum(blob, castagnoli)), nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

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
// called name, of either version, and checks that it names that dataset.
func parseDatasetFile(blob []byte, name string) (persistedDataset, error) {
	var pd persistedDataset
	var err error
	if nl := bytes.IndexByte(blob, '\n'); nl >= 0 {
		pd, err = decodeDatasetFileV2(blob, nl)
	} else if pd, err = decodeDatasetFile(blob); err == nil && pd.Version != datasetFileV1 {
		err = fmt.Errorf("unsupported dataset file version %d", pd.Version)
	}
	if err != nil {
		// A newer build's file need not parse here; say that, not corrupt.
		if v, ok := wire.VersionOf(blob, "privtreed_dataset"); ok && v > datasetFileV2 {
			return pd, fmt.Errorf("dataset.json version %d is newer than this node reads; upgrade it", v)
		}
		return pd, fmt.Errorf("corrupt dataset.json: %w", err)
	}
	if pd.Request.Name != name {
		return pd, fmt.Errorf("dataset.json names %q", pd.Request.Name)
	}
	return pd, nil
}

// decodeDatasetFileV2 reads a version-2 dataset.json whose header line
// ends at blob[nl]. Every size is checked against the bytes present
// before anything is allocated for the rows, and the checksum before
// they are read.
func decodeDatasetFileV2(blob []byte, nl int) (persistedDataset, error) {
	head := blob[:nl]
	pd, err := decodeDatasetFile(head)
	if err != nil {
		return pd, fmt.Errorf("header: %w", err)
	}
	if pd.Version != datasetFileV2 {
		return pd, fmt.Errorf("unsupported dataset file version %d", pd.Version)
	}
	if pd.Request.Points != nil || pd.Request.Sequences != nil {
		return pd, errors.New("header carries inline rows")
	}
	if canon, err := json.Marshal(pd); err != nil || !bytes.Equal(canon, head) {
		return pd, errors.New("header is not as json.Marshal writes it")
	}
	var shape rowShape
	if pd.Rows != nil {
		shape = *pd.Rows
		if err := shape.check(); err != nil {
			return pd, err
		}
	}
	sec := blob[nl+1:]
	if len(sec) < 4 || len(sec)-4 != shape.Bytes {
		return pd, fmt.Errorf("row section and checksum are %d bytes, header declares %d+4", len(sec), shape.Bytes)
	}
	sec, sum := sec[:shape.Bytes], binary.LittleEndian.Uint32(sec[shape.Bytes:])
	if crc32.Checksum(blob[:len(blob)-4], castagnoli) != sum {
		return pd, errors.New("checksum mismatch")
	}
	switch shape.Field {
	case "points":
		pd.Request.Points = decodePoints(sec, shape.N, shape.Dims)
	case "sequences":
		pd.Request.Sequences, err = decodeSequences(sec, shape.N)
	}
	return pd, err
}

// check validates a header's row shape on its own: a points section is
// exactly n rows of dims ≥ 1 float64s (none when n is 0), and a
// sequences section holds at least one byte, the length, per row.
func (r rowShape) check() error {
	if r.N < 0 || r.Bytes < 0 || r.Dims < 0 {
		return fmt.Errorf("negative row shape %+v", r)
	}
	switch r.Field {
	case "points":
		if r.N == 0 && r.Dims == 0 && r.Bytes == 0 {
			return nil
		}
		if r.N == 0 || r.Dims == 0 || r.Bytes%8 != 0 || r.Bytes/8%r.Dims != 0 || r.Bytes/8/r.Dims != r.N {
			return fmt.Errorf("points section of %d bytes is not %d rows of %d float64s", r.Bytes, r.N, r.Dims)
		}
	case "sequences":
		if r.Dims != 0 || r.Bytes < r.N {
			return fmt.Errorf("sequences section of %d bytes cannot hold %d rows", r.Bytes, r.N)
		}
	default:
		return fmt.Errorf("unknown row field %q", r.Field)
	}
	return nil
}

// decodePoints reads n rows of dims little-endian float64s into one slab
// the rows alias, each capped at its length.
func decodePoints(sec []byte, n, dims int) []privtree.Point {
	slab := make([]float64, n*dims)
	for i := range slab {
		slab[i] = math.Float64frombits(binary.LittleEndian.Uint64(sec[8*i:]))
	}
	pts := make([]privtree.Point, n)
	for i := range pts {
		pts[i] = slab[i*dims : (i+1)*dims : (i+1)*dims]
	}
	return pts
}

// decodeSequences reads n uvarint-length-prefixed rows of uvarint
// symbols into one slab the rows alias. The slab is sized by counting the
// section's final uvarint bytes, one per number, so it never grows.
func decodeSequences(sec []byte, n int) ([]privtree.Sequence, error) {
	nums := 0
	for _, c := range sec {
		if c < 0x80 {
			nums++
		}
	}
	if nums < n {
		return nil, fmt.Errorf("sequences section holds %d numbers for %d rows", nums, n)
	}
	slab := make([]int, nums-n)
	seqs := make([]privtree.Sequence, n)
	pos := 0
	for i := range seqs {
		l, err := readUvarint(&sec)
		if err != nil {
			return nil, err
		}
		if l > uint64(len(slab)-pos) {
			return nil, fmt.Errorf("sequence %d: length %d overruns the section", i, l)
		}
		row := slab[pos : pos+int(l) : pos+int(l)]
		for j := range row {
			x, err := readUvarint(&sec)
			if err != nil {
				return nil, err
			}
			row[j] = int(x)
			if uint64(row[j]) != x {
				return nil, fmt.Errorf("sequence %d: symbol %d out of range", i, x)
			}
		}
		seqs[i], pos = row, pos+int(l)
	}
	if len(sec) != 0 {
		return nil, fmt.Errorf("%d bytes after the last sequence", len(sec))
	}
	return seqs, nil
}

// readUvarint consumes one minimally encoded uvarint from the front of b.
func readUvarint(b *[]byte) (uint64, error) {
	x, n := binary.Uvarint(*b)
	if n <= 0 || (n > 1 && (*b)[n-1] == 0) {
		return 0, errors.New("malformed uvarint in the sequences section")
	}
	*b = (*b)[n:]
	return x, nil
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
